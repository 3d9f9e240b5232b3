//! Lowering: elaborated query + inferred effect → physical plan.
//!
//! The pass is *guarded*: [`lower`] returns `None` exactly when the
//! Theorem 7 conditions fail for the whole query ([`Thm7::lowerable`]:
//! write-free effect, invocation-free, called definitions pure), and the
//! caller runs such a query on the big-step interpreter. Under the guard
//! it is total: a shape with no physical operator of its own (a scalar, a
//! record, an `if`, a call with computed arguments) becomes an
//! [`OpKind::Eval`] node, at the root as under a set operator. Within an
//! eligible query, scan-vs-index selection is cost-based via [`Stats`];
//! the cost formulas are documented at the decision site.

use crate::bytecode::{self, CompileVerdict};
use crate::ir::{
    AggKind, EqKind, Guard, HashIndexBuild, KeyAccess, NodeId, Op, OpKind, Plan, Stage, StageKind,
};
use ioql_ast::{DefName, Qualifier, Query, VarName};
use ioql_effects::{Effect, Thm7};
use ioql_eval::DefEnv;
use ioql_opt::Stats;
use ioql_schema::Schema;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What [`lower_with`] does beyond [`lower`]: whether to run the compile
/// pass.
///
/// The other three fields configured the worker pool this crate no
/// longer has. The benchmark harness spells all four in a struct literal
/// (DESIGN.md §6), so the declarations stay until a `benchmark` change
/// drops them from that literal; nothing reads them.
pub struct ParSpec<'a> {
    /// Ignored.
    #[deprecated(note = "the worker pool is gone; the value is ignored")]
    pub parallelism: usize,
    /// Ignored.
    #[deprecated(note = "the worker pool is gone; the value is ignored")]
    pub schema: Option<&'a Schema>,
    /// Ignored.
    #[deprecated(note = "the worker pool is gone; the value is ignored")]
    #[allow(clippy::type_complexity)]
    pub branch_effect: Option<&'a (dyn Fn(&Query) -> Option<Effect> + 'a)>,
    /// Whether to run the compile pass: each `MapProject` head and
    /// `Filter` predicate is compiled to [`bytecode`] where the fragment
    /// allows, recorded as a [`CompileVerdict`] in [`Plan::compiled`],
    /// and the cost model stops charging interpreted per-row work for
    /// predicates that compiled. `false` leaves [`Plan::compiled`] empty
    /// and execution byte-identical to the interpreted tier by
    /// construction (there is nothing to dispatch).
    pub compile: bool,
}

impl ParSpec<'static> {
    /// Compilation off — the [`lower`] default.
    #[allow(deprecated)]
    pub fn off() -> ParSpec<'static> {
        ParSpec {
            parallelism: 0,
            schema: None,
            branch_effect: None,
            compile: false,
        }
    }
}

/// Lowers an elaborated query to a physical plan, or `None` when — and
/// only when — the Theorem 7 guard refuses. Equivalent to [`lower_with`]
/// under [`ParSpec::off`].
///
/// The guard is [`Thm7::lowerable`], decided on the query handed in: the
/// statically inferred `static_effect` must be write-free (no `A(C)`, no
/// `U(C)`), the query must contain no method invocation, and every
/// definition it reaches must exist and be `new`-free and
/// invocation-free. Under those conditions the paper's Theorem 7 makes
/// evaluation-order choices unobservable, which licenses the physical
/// operators' deviations from naive qualifier-at-a-time interpretation
/// (ahead-of-draw index builds shared by every drain of the execution,
/// independent set operands).
pub fn lower(q: &Query, static_effect: &Effect, defs: &DefEnv, stats: &Stats) -> Option<Plan> {
    lower_with(q, static_effect, defs, stats, &ParSpec::off())
}

/// [`lower`] plus the compile pass when `spec.compile` is set.
pub fn lower_with(
    q: &Query,
    static_effect: &Effect,
    defs: &DefEnv,
    stats: &Stats,
    spec: &ParSpec<'_>,
) -> Option<Plan> {
    if !Thm7::decide(q, static_effect, |d| defs.get(d)).lowerable() {
        return None;
    }
    let mut lowering = Lowering {
        defs,
        stats,
        compile: spec.compile,
        verdicts: Vec::new(),
    };
    let mut plan = Plan {
        root: lowering.op(q),
        guard: Guard {
            effect: static_effect.clone(),
        },
        compiled: BTreeMap::new(),
    };
    plan.number();
    if spec.compile {
        let sites: Vec<NodeId> = plan
            .walk()
            .iter()
            .filter(|(_, node)| node.has_row_expr())
            .map(|(_, node)| node.id())
            .collect();
        debug_assert_eq!(sites.len(), lowering.verdicts.len());
        plan.compiled = sites.into_iter().zip(lowering.verdicts).collect();
    }
    Some(plan)
}

/// One lowering: the inputs, and the compile pass's output so far.
struct Lowering<'a> {
    defs: &'a DefEnv,
    stats: &'a Stats,
    /// Whether the compile pass is on.
    compile: bool,
    /// The compile pass's output: one [`CompileVerdict`] per
    /// expression-bearing node — `MapProject` heads (compiled against
    /// *all* of their pipeline's binders) and `Filter` predicates
    /// (against the binders of the generators *above* them, which is
    /// exactly the executor's binding stack when the stage runs) — in
    /// the pre-order [`Plan::number`] gives those nodes, so
    /// [`lower_with`] keys them by zipping with [`Plan::walk`]. Probe
    /// stages keep their fused predicate interpreted: the probe side is
    /// evaluated once per drain, not per row, so there is nothing to win.
    verdicts: Vec<CompileVerdict>,
}

impl Lowering<'_> {
    /// The compile pass's verdict on one row expression under `binders`;
    /// `None` when the pass is off.
    fn judge(&self, q: &Query, binders: &[VarName]) -> Option<CompileVerdict> {
        self.compile.then(|| match bytecode::compile(q, binders) {
            Ok(prog) => CompileVerdict::Vm(Arc::new(prog)),
            Err(reason) => CompileVerdict::Interp(reason),
        })
    }

    /// Lowers a query that passed the guard — the root, a set operand, an
    /// aggregate's input, an inlined body. Structured shapes get real
    /// operators; anything else is an [`OpKind::Eval`], interpreted
    /// wholesale where the naive engines would evaluate it (the guard
    /// already established the whole query is pure, and operands stay
    /// left first).
    fn op(&mut self, q: &Query) -> Op {
        let mut aggregate = |kind, inner: &Query| OpKind::Aggregate {
            kind,
            expr: q.clone(),
            input: Box::new(self.op(inner)),
        };
        Op::new(match q {
            Query::Sum(inner) => aggregate(AggKind::Sum, inner),
            Query::Size(inner) => aggregate(AggKind::Size, inner),
            Query::Extent(e) => OpKind::ExtentScan {
                extent: e.clone(),
                est_rows: self.stats.extent_size(e),
            },
            Query::SetBin(op, a, b) => {
                let (left, right) = (Box::new(self.op(a)), Box::new(self.op(b)));
                match op {
                    ioql_ast::SetOp::Union => OpKind::SetUnion { left, right },
                    ioql_ast::SetOp::Intersect => OpKind::SetIntersect { left, right },
                    ioql_ast::SetOp::Diff => OpKind::SetDiff { left, right },
                }
            }
            Query::Comp(head, quals) => {
                // The head precedes its filters in pre-order but needs
                // the binders the qualifier walk collects.
                let at = self.verdicts.len();
                let (stages, binders) = self.quals(quals);
                if let Some(v) = self.judge(head, &binders) {
                    self.verdicts.insert(at, v);
                }
                OpKind::Distinct {
                    input: Box::new(Op::new(OpKind::MapProject {
                        head: (**head).clone(),
                        input: Box::new(Op::new(OpKind::Pipeline { stages })),
                    })),
                }
            }
            Query::Call(d, args) => match inlined(self.defs, d, args) {
                Some(body) => OpKind::InlineDef {
                    name: d.clone(),
                    body: Box::new(self.op(&body)),
                },
                None => OpKind::Eval { expr: q.clone() },
            },
            _ => OpKind::Eval { expr: q.clone() },
        })
    }

    /// Lowers a qualifier list to pipeline stages (returned with the
    /// generator binders, outermost first), fusing an eligible equality
    /// predicate immediately following a generator into a
    /// [`StageKind::HashIndexProbe`] when the cost model favors it. This
    /// is the one place that tracks the binder stack, so it is also where
    /// each predicate is compiled — once.
    fn quals(&mut self, quals: &[Qualifier]) -> (Vec<Stage>, Vec<VarName>) {
        let stats = self.stats;
        let mut stages = Vec::new();
        let mut binders: Vec<VarName> = Vec::new();
        // Estimated rows reaching the next qualifier — so the drains of
        // the next generator — by `Stats::cardinality`'s rule: generators
        // multiply, predicates halve.
        let mut rows = 1usize;
        let mut quals = quals.iter().peekable();
        while let Some(qual) = quals.next() {
            let (x, src) = match qual {
                Qualifier::Pred(p) => {
                    let judged = self.judge(p, &binders);
                    self.verdicts.extend(judged);
                    stages.push(Stage::new(StageKind::Filter { pred: p.clone() }));
                    rows = (rows / 2).max(1);
                    continue;
                }
                Qualifier::Gen(x, src) => (x, src),
            };
            let (est_rows, extent) = (stats.cardinality(src), matches!(src, Query::Extent(_)));
            let drains = rows;
            rows = rows.saturating_mul(est_rows.max(1));
            stages.push(Stage::new(match src {
                Query::Extent(e) => StageKind::ExtentScan {
                    var: x.clone(),
                    extent: e.clone(),
                    est_rows,
                },
                _ => StageKind::Scan {
                    var: x.clone(),
                    source: src.clone(),
                    est_rows,
                },
            }));
            let enclosing = binders.len();
            binders.push(x.clone());
            let Some(Qualifier::Pred(p)) = quals.peek() else {
                continue;
            };
            let Some((eq, key, probe)) = probe_shape(x, p, &binders[..enclosing]) else {
                continue;
            };
            quals.next();
            rows = (rows / 2).max(1);
            // Per drain. Naive filtering evaluates the predicate once per
            // row; the index evaluates the probe side once and tests each
            // drawn row's membership, and its build extracts and inserts
            // every element's key.
            let (n, probe_work) = (est_rows.max(1), stats.work(&probe));
            let judged = self.judge(p, &binders);
            let (scan_cost, index_cost) = match judged {
                // In VM dispatches (`Stats::compiled_work`), measured on a
                // 2-vCPU Xeon with `f.dept = e.dept` over 2 000 employees
                // in 50 departments: a dispatch 110 ns; a build 75 ns per
                // element (≈ 0.7, charged as 1) plus ~8 fixed. The probing
                // term charges ⅛ per element: with a chooser that refuses
                // runs each drawn row is a binary search of its key's hits
                // (18 ns, ≈ 1/6); under the first chooser a drain copies
                // its pool (3 ns an element, ≈ 1/36) and skips the misses
                // before each hit as one run (≈ 180 ns, ≈ 1.7, a hit), so
                // ⅛ stays an upper bound wherever a drain's hits are under
                // 1/18 of its pool. The executor builds an extent's index once per
                // execution, so each of the `drains` pays its share; a
                // single drain keeps the filter, since build plus probe
                // exceed the dispatch.
                Some(CompileVerdict::Vm(_)) => {
                    let shares = if extent { drains } else { 1 };
                    let build = n.saturating_add(8).div_ceil(shares);
                    let probing = probe_work.saturating_add(n.div_ceil(8));
                    (
                        n.saturating_mul(stats.compiled_work()),
                        probing.saturating_add(build),
                    )
                }
                // In `Stats::work` units: an interpreted predicate costs its
                // whole expression a row, which pays for a build (~2 a key
                // plus ~8) on every drain.
                _ => (
                    n.saturating_mul(stats.work(p).max(1)),
                    probe_work.saturating_add(2 * est_rows).saturating_add(8),
                ),
            };
            stages.push(Stage::new(if index_cost < scan_cost {
                StageKind::HashIndexProbe {
                    var: x.clone(),
                    build: HashIndexBuild { eq, key, est_rows },
                    probe,
                    pred: p.clone(),
                    scan_cost,
                    index_cost,
                }
            } else {
                self.verdicts.extend(judged);
                StageKind::Filter { pred: p.clone() }
            }));
        }
        (stages, binders)
    }
}

/// The body of `d(args)` with its parameters substituted — only when
/// every argument is already a literal, so substituting the *value* is
/// exactly what the interpreters' call-by-value argument evaluation would
/// produce.
fn inlined(defs: &DefEnv, d: &DefName, args: &[Query]) -> Option<Query> {
    let def = defs.get(d).filter(|def| def.params.len() == args.len())?;
    let mut body = def.body.clone();
    for ((x, _), arg) in def.params.iter().zip(args) {
        let Query::Lit(v) = arg else { return None };
        body = body.subst(x, v);
    }
    Some(body)
}

/// Matches `pred` against the probe-eligible shape for generator
/// variable `x`: an equality with `x` (or one attribute of it) on one
/// side and, on the other, an expression that does not mention `x`, is
/// closed under the *enclosing* binders (`binders` — the cross-generator
/// semi-join case), and whose single ahead-of-time evaluation is
/// indistinguishable from per-row re-evaluation: no comprehension (so no
/// chooser draws or cell charges) and no definition calls (so no hidden
/// recursion). `new`/`invoke`-freedom here is a per-expression purity
/// test, not the Theorem 7 guard: it keeps this function safe in
/// isolation.
fn probe_shape(
    x: &VarName,
    pred: &Query,
    binders: &[VarName],
) -> Option<(EqKind, KeyAccess, Query)> {
    let (eq, lhs, rhs) = match pred {
        Query::IntEq(a, b) => (EqKind::Int, &**a, &**b),
        Query::ObjEq(a, b) => (EqKind::Obj, &**a, &**b),
        _ => return None,
    };
    let var_side = |q: &Query| -> Option<KeyAccess> {
        match q {
            Query::Var(y) if y == x => Some(KeyAccess::Bare),
            Query::Attr(subject, a) => match &**subject {
                Query::Var(y) if y == x => Some(KeyAccess::Attr(a.clone())),
                _ => None,
            },
            _ => None,
        }
    };
    let probe_ok = |q: &Query| {
        let fv = q.free_vars();
        !fv.contains(x)
            && fv.iter().all(|v| binders.contains(v))
            && !q.contains_comp()
            && q.called_defs().is_empty()
            && !q.contains_new()
            && !q.contains_invoke()
    };
    match (var_side(lhs), var_side(rhs)) {
        (Some(key), None) if probe_ok(rhs) => Some((eq, key, rhs.clone())),
        (None, Some(key)) if probe_ok(lhs) => Some((eq, key, lhs.clone())),
        _ => None,
    }
}
