//! Lowering: elaborated query + inferred effect → physical plan.
//!
//! The pass is *guarded*, not total. [`lower`] emits a plan only when
//! the Theorem 7 conditions hold for the whole query ([`Thm7::lowerable`]:
//! write-free effect, invocation-free, called definitions pure); every
//! other query — and every query whose root has no recognized physical
//! shape (a set-valued operator tree, or `sum`/`size` over one) —
//! returns `None` and runs on the existing interpreters unchanged.
//! Within an eligible query, scan-vs-index selection is cost-based via
//! [`Stats`]; the cost formulas are documented at the decision site.
//!
//! When lowered through [`lower_with`] with a nonzero
//! [`ParSpec::parallelism`], each parallel-capable node is additionally
//! annotated with a [`ParVerdict`]: chunked scans are licensed by the
//! plan's own Theorem 7 guard (the whole query is read-only and
//! `new`-free, so partition order is unobservable), while concurrent
//! set-operator branches need Theorem 8 — the branches' inferred
//! effects must be pairwise non-interfering — and a refusal quotes the
//! interfering atom pair.

use crate::bytecode::{self, CompileVerdict};
use crate::ir::{
    AggKind, EqKind, Guard, HashIndexBuild, KeyAccess, NodeId, Op, OpKind, ParVerdict, Plan, Stage,
    StageKind,
};
use ioql_ast::{Qualifier, Query, VarName};
use ioql_effects::{Effect, Thm7};
use ioql_eval::DefEnv;
use ioql_opt::Stats;
use ioql_schema::Schema;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How (and whether) to compute parallelism verdicts during lowering.
///
/// The default — [`ParSpec::off`] — lowers with `parallelism = 0`: no
/// node is annotated and the executor never dispatches workers, which
/// keeps `:plan` output and execution byte-identical to the sequential
/// layer. A nonzero `parallelism` turns the verdict pass on; the
/// `schema`/`branch_effect` pair is what Theorem 8 licensing needs to
/// judge set-operator branches (without them every set operator is
/// refused with `branch effects unavailable` — conservative, never
/// unsound).
pub struct ParSpec<'a> {
    /// Worker-pool size verdicts are computed for (`0` = off, `1` = a
    /// degenerate pool — every node refuses with `parallelism off`).
    pub parallelism: usize,
    /// The schema Theorem 8's interference check runs against.
    pub schema: Option<&'a Schema>,
    /// Infers the Figure-3 effect of one set-operator branch, or `None`
    /// when inference fails (the branch is then refused parallelism).
    pub branch_effect: Option<&'a BranchEffectFn<'a>>,
    /// Whether to run the compile pass: each `MapProject` head and
    /// `Filter` predicate is compiled to [`bytecode`] where the fragment
    /// allows, recorded as a [`CompileVerdict`] in [`Plan::compiled`],
    /// and the cost model stops charging interpreted per-row work for
    /// predicates that compiled. `false` leaves [`Plan::compiled`] empty
    /// and execution byte-identical to the interpreted tier by
    /// construction (there is nothing to dispatch).
    pub compile: bool,
}

/// A branch-effect oracle for [`ParSpec`]: infers the Figure-3 effect
/// of one set-operator operand (`None` = inference failed, refuse).
pub type BranchEffectFn<'a> = dyn Fn(&Query) -> Option<Effect> + 'a;

impl ParSpec<'static> {
    /// Parallelism off — the [`lower`] default.
    pub fn off() -> ParSpec<'static> {
        ParSpec {
            parallelism: 0,
            schema: None,
            branch_effect: None,
            compile: false,
        }
    }
}

/// Lowers an elaborated query to a physical plan, or `None` when the
/// Theorem 7 guard refuses or the root shape is not recognized.
/// Equivalent to [`lower_with`] under [`ParSpec::off`].
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

/// [`lower`] plus the parallelism-verdict pass configured by `spec`.
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
    let root = lower_op(q, defs, stats, spec)?;
    let mut plan = Plan {
        root,
        guard: Guard {
            effect: static_effect.clone(),
        },
        parallelism: spec.parallelism,
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

/// Theorem 8 licensing for one set operator: do the branches' inferred
/// effects commute? `Par` when [`Effect::noninterfering_with`] holds;
/// otherwise `Seq` quoting the interfering atom pair from
/// [`Effect::interference_witness`].
///
/// Branch bodies of a lowered plan are read-only (Theorem 7 guard), so
/// through [`lower_with`] this always licenses; it is public because
/// callers with *raw* effects (tests, future mutation-tolerant plans)
/// can use it to see a refusal, e.g. `A(C)` vs `R(C)`.
pub fn set_op_verdict(left: &Effect, right: &Effect, schema: &Schema) -> ParVerdict {
    match left.interference_witness(right, schema) {
        None => ParVerdict::Par {
            // A set-operator branch is a whole subquery: assume it can
            // draw and observe. The executor's budget pre-flight treats
            // both as unbounded-extra-charges flags.
            body_draws: true,
            body_observes: true,
        },
        Some((l, r)) => ParVerdict::Seq(format!("interfering effects: {l} vs {r}")),
    }
}

/// Lowers a set-shaped root (or set operand), or a `sum`/`size` over
/// one. `None` when the shape has no physical operator — callers either
/// fall back to the interpreter (plan root) or wrap the expression in
/// [`OpKind::Eval`] (set operand, which is safe because the whole query
/// already passed the guard).
fn lower_op(q: &Query, defs: &DefEnv, stats: &Stats, spec: &ParSpec<'_>) -> Option<Op> {
    let aggregate = |kind, inner: &Query| {
        Some(Op::new(OpKind::Aggregate {
            kind,
            expr: q.clone(),
            input: Box::new(lower_op(inner, defs, stats, spec)?),
        }))
    };
    match q {
        // An aggregate lowers exactly when its operand does; anything
        // else (a set literal, a variable, an `if`) keeps the whole query
        // on the interpreter.
        Query::Sum(inner) => aggregate(AggKind::Sum, inner),
        Query::Size(inner) => aggregate(AggKind::Size, inner),
        Query::Extent(e) => Some(Op::new(OpKind::ExtentScan {
            extent: e.clone(),
            est_rows: stats.extent_size(e),
        })),
        Query::SetBin(op, a, b) => {
            let left = Box::new(lower_operand(a, defs, stats, spec));
            let right = Box::new(lower_operand(b, defs, stats, spec));
            let kind = match op {
                ioql_ast::SetOp::Union => OpKind::SetUnion { left, right },
                ioql_ast::SetOp::Intersect => OpKind::SetIntersect { left, right },
                ioql_ast::SetOp::Diff => OpKind::SetDiff { left, right },
            };
            let mut node = Op::new(kind);
            node.par = set_bin_verdict(a, b, spec);
            Some(node)
        }
        Query::Comp(head, quals) => {
            let stages = lower_quals(quals, stats, spec);
            let par = pipeline_verdict(&stages, head, spec.parallelism);
            let mut pipeline = Op::new(OpKind::Pipeline { stages });
            pipeline.par = par;
            Some(Op::new(OpKind::Distinct {
                input: Box::new(Op::new(OpKind::MapProject {
                    head: (**head).clone(),
                    input: Box::new(pipeline),
                })),
            }))
        }
        Query::Call(d, args) => {
            // Inline only when every argument is already a literal, so
            // substituting the *value* is exactly what the interpreters'
            // call-by-value argument evaluation would produce.
            let def = defs.get(d)?;
            if def.params.len() != args.len() {
                return None;
            }
            let mut body = def.body.clone();
            for ((x, _), arg) in def.params.iter().zip(args) {
                let Query::Lit(v) = arg else { return None };
                body = body.subst(x, v);
            }
            Some(Op::new(OpKind::InlineDef {
                name: d.clone(),
                body: Box::new(lower_op(&body, defs, stats, spec)?),
            }))
        }
        _ => None,
    }
}

/// A set operand inside a `SetBin`: structured shapes get real
/// operators, anything else is interpreted wholesale (the guard already
/// established the whole query is pure, so order of operand evaluation
/// — left first, as the naive engines do — is preserved exactly).
fn lower_operand(q: &Query, defs: &DefEnv, stats: &Stats, spec: &ParSpec<'_>) -> Op {
    lower_op(q, defs, stats, spec).unwrap_or_else(|| Op::new(OpKind::Eval { expr: q.clone() }))
}

/// The Theorem 8 verdict for one lowered set operator, or `None` when
/// the verdict pass is off.
fn set_bin_verdict(a: &Query, b: &Query, spec: &ParSpec<'_>) -> Option<ParVerdict> {
    if spec.parallelism == 0 {
        return None;
    }
    if spec.parallelism < 2 {
        return Some(ParVerdict::Seq("parallelism off".into()));
    }
    Some(match (spec.schema, spec.branch_effect) {
        (Some(schema), Some(infer)) => match (infer(a), infer(b)) {
            (Some(ea), Some(eb)) => set_op_verdict(&ea, &eb, schema),
            _ => ParVerdict::Seq("branch effects unavailable".into()),
        },
        _ => ParVerdict::Seq("branch effects unavailable".into()),
    })
}

/// The chunked-scan verdict for one pipeline, or `None` when the
/// verdict pass is off. Licensed when the leading generator is a plain
/// extent scan — partitions are then contiguous ranges of a set whose
/// elements the (Theorem 7 read-only) body cannot change. The body
/// flags record whether workers may charge cells / observe cardinality
/// beyond the per-element minimum; the executor refuses dispatch under
/// a finite budget on the flagged axis (sequential trip positions
/// would otherwise not be reproduced).
fn pipeline_verdict(stages: &[Stage], head: &Query, parallelism: usize) -> Option<ParVerdict> {
    if parallelism == 0 {
        return None;
    }
    if parallelism < 2 {
        return Some(ParVerdict::Seq("parallelism off".into()));
    }
    Some(match stages.first().map(|s| &s.kind) {
        Some(StageKind::ExtentScan { .. }) => {
            let (body_draws, body_observes) = body_flags(&stages[1..], head);
            ParVerdict::Par {
                body_draws,
                body_observes,
            }
        }
        _ => ParVerdict::Seq("generator is not an extent scan".into()),
    })
}

/// Whether the pipeline body (everything after the leading generator,
/// plus the head) may draw generator elements / observe set
/// cardinalities when run per element.
fn body_flags(body: &[Stage], head: &Query) -> (bool, bool) {
    let mut draws = expr_draws(head);
    let mut observes = expr_observes(head);
    for st in body {
        match &st.kind {
            // A nested generator draws per element and observes its
            // source set, whatever the source shape.
            StageKind::ExtentScan { .. } | StageKind::Scan { .. } => {
                draws = true;
                observes = true;
            }
            StageKind::Filter { pred } => {
                draws |= expr_draws(pred);
                observes |= expr_observes(pred);
            }
            // Probe targets/preds are pure scalar shapes (no comps, no
            // calls — `probe_shape` enforces it), but stay uniform.
            StageKind::HashIndexProbe { probe, pred, .. } => {
                draws |= expr_draws(probe) || expr_draws(pred);
                observes |= expr_observes(probe) || expr_observes(pred);
            }
        }
    }
    (draws, observes)
}

/// Whether evaluating `q` may draw generator elements (and hence charge
/// governor cells): any comprehension, or any definition call (whose
/// body may contain one).
fn expr_draws(q: &Query) -> bool {
    q.contains_comp() || !q.called_defs().is_empty()
}

/// Whether evaluating `q` may observe a set cardinality: any
/// comprehension, extent read, set operator, or definition call.
fn expr_observes(q: &Query) -> bool {
    q.contains_comp() || !q.called_defs().is_empty() || contains_set_source(q)
}

/// Whether `q` syntactically contains an extent read or a set operator
/// (the two cardinality-observation points besides comprehension
/// completion).
fn contains_set_source(q: &Query) -> bool {
    match q {
        Query::Extent(_) | Query::SetBin(..) | Query::Comp(..) => true,
        Query::Lit(_) | Query::Var(_) => false,
        Query::SetLit(qs) => qs.iter().any(contains_set_source),
        Query::IntBin(_, a, b) | Query::IntEq(a, b) | Query::ObjEq(a, b) => {
            contains_set_source(a) || contains_set_source(b)
        }
        Query::Record(fields) => fields.iter().any(|(_, f)| contains_set_source(f)),
        Query::Field(a, _)
        | Query::Size(a)
        | Query::Sum(a)
        | Query::Cast(_, a)
        | Query::Attr(a, _) => contains_set_source(a),
        Query::Call(_, args) => args.iter().any(contains_set_source),
        Query::Invoke(recv, _, args) => {
            contains_set_source(recv) || args.iter().any(contains_set_source)
        }
        Query::New(_, inits) => inits.iter().any(|(_, f)| contains_set_source(f)),
        Query::If(c, t, e) => {
            contains_set_source(c) || contains_set_source(t) || contains_set_source(e)
        }
    }
}

/// Lowers a qualifier list to pipeline stages, fusing an eligible
/// equality predicate immediately following a generator into a
/// [`StageKind::HashIndexProbe`] when the cost model favors it.
fn lower_quals(quals: &[Qualifier], stats: &Stats, spec: &ParSpec<'_>) -> Vec<Stage> {
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
                        let per_row = if spec.compile && pred_compiles(p, &binders, x) {
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
                            let mut stage = Stage::new(StageKind::HashIndexProbe {
                                var: x.clone(),
                                build: HashIndexBuild { eq, key, est_rows },
                                probe,
                                pred: p.clone(),
                                scan_cost,
                                index_cost,
                            });
                            // The build side is draw-free and
                            // observation-free, so partitioning it needs
                            // only the Theorem 7 guard; any parallelism
                            // ≥ 2 licenses it.
                            stage.par = match spec.parallelism {
                                0 => None,
                                1 => Some(ParVerdict::Seq("parallelism off".into())),
                                _ => Some(ParVerdict::Par {
                                    body_draws: false,
                                    body_observes: false,
                                }),
                            };
                            stages.push(stage);
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
