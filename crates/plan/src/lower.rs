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
/// (ahead-of-draw index builds, independent set operands).
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
    let mut plan = Plan {
        root: lower_op(q, defs, stats, spec.compile),
        guard: Guard {
            effect: static_effect.clone(),
        },
        compiled: BTreeMap::new(),
    };
    plan.number();
    if spec.compile {
        let mut compiled = BTreeMap::new();
        annotate_compile(&plan.root, &mut compiled);
        plan.compiled = compiled;
    }
    Some(plan)
}

/// The compile pass: walks the numbered tree and records a
/// [`CompileVerdict`] for every expression-bearing node — `MapProject`
/// heads (compiled against *all* of their pipeline's binders) and
/// `Filter` predicates (against the binders of the generators *above*
/// them, which is exactly the executor's binding stack when the stage
/// runs). Probe stages keep their fused predicate interpreted: the probe
/// is evaluated once per index build, not per row, so there is nothing
/// to win.
fn annotate_compile(op: &Op, compiled: &mut BTreeMap<NodeId, CompileVerdict>) {
    match &op.kind {
        OpKind::MapProject { head, input } => {
            let mut binders = Vec::new();
            if let OpKind::Pipeline { stages } = &input.kind {
                for stage in stages {
                    match &stage.kind {
                        StageKind::ExtentScan { var, .. }
                        | StageKind::Scan { var, .. }
                        | StageKind::HashIndexProbe { var, .. } => binders.push(var.clone()),
                        StageKind::Filter { .. } => {}
                    }
                }
            }
            compiled.insert(op.id, verdict(head, &binders));
            annotate_compile(input, compiled);
        }
        OpKind::Pipeline { stages } => {
            let mut binders: Vec<VarName> = Vec::new();
            for stage in stages {
                match &stage.kind {
                    StageKind::ExtentScan { var, .. }
                    | StageKind::Scan { var, .. }
                    | StageKind::HashIndexProbe { var, .. } => binders.push(var.clone()),
                    StageKind::Filter { pred } => {
                        compiled.insert(stage.id, verdict(pred, &binders));
                    }
                }
            }
        }
        OpKind::SetUnion { left, right }
        | OpKind::SetIntersect { left, right }
        | OpKind::SetDiff { left, right } => {
            annotate_compile(left, compiled);
            annotate_compile(right, compiled);
        }
        OpKind::Distinct { input } | OpKind::Aggregate { input, .. } => {
            annotate_compile(input, compiled)
        }
        OpKind::InlineDef { body, .. } => annotate_compile(body, compiled),
        OpKind::ExtentScan { .. } | OpKind::Eval { .. } => {}
    }
}

fn verdict(q: &Query, binders: &[VarName]) -> CompileVerdict {
    match bytecode::compile(q, binders) {
        Ok(prog) => CompileVerdict::Vm(Arc::new(prog)),
        Err(reason) => CompileVerdict::Interp(reason),
    }
}

/// Lowers a query that passed the guard — the root, a set operand, an
/// aggregate's input, an inlined body. Structured shapes get real
/// operators; anything else is an [`OpKind::Eval`], interpreted wholesale
/// where the naive engines would evaluate it (the guard already
/// established the whole query is pure, and operands stay left first).
fn lower_op(q: &Query, defs: &DefEnv, stats: &Stats, compile: bool) -> Op {
    let lower = |q: &Query| Box::new(lower_op(q, defs, stats, compile));
    let aggregate = |kind, inner: &Query| OpKind::Aggregate {
        kind,
        expr: q.clone(),
        input: lower(inner),
    };
    Op::new(match q {
        Query::Sum(inner) => aggregate(AggKind::Sum, inner),
        Query::Size(inner) => aggregate(AggKind::Size, inner),
        Query::Extent(e) => OpKind::ExtentScan {
            extent: e.clone(),
            est_rows: stats.extent_size(e),
        },
        Query::SetBin(op, a, b) => {
            let (left, right) = (lower(a), lower(b));
            match op {
                ioql_ast::SetOp::Union => OpKind::SetUnion { left, right },
                ioql_ast::SetOp::Intersect => OpKind::SetIntersect { left, right },
                ioql_ast::SetOp::Diff => OpKind::SetDiff { left, right },
            }
        }
        Query::Comp(head, quals) => OpKind::Distinct {
            input: Box::new(Op::new(OpKind::MapProject {
                head: (**head).clone(),
                input: Box::new(Op::new(OpKind::Pipeline {
                    stages: lower_quals(quals, stats, compile),
                })),
            })),
        },
        Query::Call(d, args) => match inlined(defs, d, args) {
            Some(body) => OpKind::InlineDef {
                name: d.clone(),
                body: lower(&body),
            },
            None => OpKind::Eval { expr: q.clone() },
        },
        _ => OpKind::Eval { expr: q.clone() },
    })
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

/// Lowers a qualifier list to pipeline stages, fusing an eligible
/// equality predicate immediately following a generator into a
/// [`StageKind::HashIndexProbe`] when the cost model favors it.
fn lower_quals(quals: &[Qualifier], stats: &Stats, compile: bool) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut binders: Vec<VarName> = Vec::new();
    let mut i = 0;
    while i < quals.len() {
        match &quals[i] {
            Qualifier::Pred(p) => {
                stages.push(Stage::new(StageKind::Filter { pred: p.clone() }));
                i += 1;
            }
            Qualifier::Gen(x, src) => {
                let est_rows = stats.cardinality(src);
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
                if let Some(Qualifier::Pred(p)) = quals.get(i + 1) {
                    if let Some((eq, key, probe)) = probe_shape(x, p, &binders) {
                        // Naive filtering evaluates the predicate once
                        // per row; the index evaluates the probe side
                        // once, then pays a per-row key extraction and
                        // hash probe (~2 units) plus a fixed build
                        // overhead (~8). Both are in `Stats::work`
                        // units, so only the relative order matters.
                        // When the compile tier will accept the
                        // predicate, its per-row cost is a VM dispatch,
                        // not an interpretation of the whole expression.
                        let per_row = if compile && pred_compiles(p, &binders, x) {
                            stats.compiled_work()
                        } else {
                            stats.work(p).max(1)
                        };
                        let scan_cost = est_rows.max(1).saturating_mul(per_row);
                        let index_cost = stats
                            .work(&probe)
                            .saturating_add(2 * est_rows)
                            .saturating_add(8);
                        if index_cost < scan_cost {
                            stages.push(Stage::new(StageKind::HashIndexProbe {
                                var: x.clone(),
                                build: HashIndexBuild { eq, key, est_rows },
                                probe,
                                pred: p.clone(),
                                scan_cost,
                                index_cost,
                            }));
                            binders.push(x.clone());
                            i += 2;
                            continue;
                        }
                    }
                }
                binders.push(x.clone());
                i += 1;
            }
        }
    }
    stages
}

/// Whether `pred` would compile when filtering rows of generator `x`
/// under the enclosing `binders` — the cost model's view of the compile
/// pass (same entry point, binder environment `binders ++ [x]`).
fn pred_compiles(pred: &Query, binders: &[VarName], x: &VarName) -> bool {
    let mut with_x = binders.to_vec();
    with_x.push(x.clone());
    bytecode::compile(pred, &with_x).is_ok()
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
