//! The pull-based plan executor.
//!
//! Execution is engineered for *observational parity* with the naive
//! engines, not just value parity:
//!
//! * every generator element is still drawn through the same [`Chooser`]
//!   protocol, charged one governor cell and one fuel unit, and
//!   followed by a cancellation/deadline checkpoint — so `(ND comp)`
//!   choice sequences, cell budgets, and cancellation verdicts are
//!   identical. Figure 2 has one `(ND comp)` rule and this module has one
//!   loop for it (`Exec::drive_gen`): every generator, fused with a probe
//!   or not, feeding a compiled head or an interpreted one, is drawn
//!   there. The one coalesced form: a run of `k` probe misses that the
//!   chooser would take from the front of the pool ([`Interp::skip`]) is
//!   `k` picks, `k` cells and `k` fuel units behind one checkpoint, and
//!   is refused — drawn one by one — whenever it would cross a limit;
//! * set cardinalities are observed at exactly the naive observation
//!   points (extent read, set-operator result, comprehension
//!   completion), and a comprehension's set is built once, at
//!   completion ([`SetBuilder`]), as the interpreter builds it;
//! * a row-level expression runs its [`bytecode`](crate::bytecode)
//!   program when the compile pass accepted it (the scalar, draw-free
//!   fragment, held byte-identical to the interpreter by
//!   `tests/compile.rs`) and is otherwise one [`Interp::eval`] call on
//!   the interpreter state the executor *is running on* — its chooser,
//!   fuel, effect trace and binding stack are the executor's, not copies
//!   settled back — so nested comprehensions, effects, and stuck states
//!   are literally the naive engine's own.
//!
//! The one deviation — the hash-index build scanning elements ahead of
//! the chooser's draw order, once per execution for a probe over an
//! extent and reused by every later drain — is licensed by the plan's
//! Theorem 7 guard (only a write-free plan holds a probe, and it freezes
//! every extent and attribute for the execution) and remains fully
//! *speculative*: the probe side is still evaluated per drain, and any
//! anomaly abandons the index and reverts to per-row predicate
//! evaluation, reproducing the naive engines' exact error at the exact
//! position. Without a probe, a plan — a writer's — is big-step's schedule.

use crate::bytecode::{CompileVerdict, Program, VmCtx};
use crate::ir::{
    AggKind, EqKind, HashIndexBuild, KeyAccess, NodeId, Op, OpKind, Plan, Stage, StageKind,
};
use ioql_ast::{ExtentName, Query, SetOp, SetVal, Value, VarName};
use ioql_effects::Effect;
use ioql_eval::{Chooser, DefEnv, EvalConfig, EvalError, Interp, SetBuilder};
use ioql_store::Store;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

/// The result of executing a [`Plan`].
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The final value.
    pub value: Value,
    /// The accumulated runtime effect trace.
    pub effect: Effect,
}

/// Runtime statistics for one operator or stage of a profiled run.
#[derive(Clone, Debug)]
pub struct ProfEntry {
    /// Tree depth (for indented rendering).
    pub depth: usize,
    /// The operator/stage label ([`Op::label`] / [`Stage::label`]).
    pub label: String,
    /// The optimizer's row estimate, where one exists.
    pub est_rows: Option<usize>,
    /// Times the node was entered (rows drawn through it, for per-row
    /// stages).
    pub calls: u64,
    /// Rows produced (set cardinality for set-valued operators; passing
    /// rows for filters and probes).
    pub rows: u64,
    /// Wall-clock nanoseconds spent, *inclusive* of children (the
    /// EXPLAIN ANALYZE convention).
    pub nanos: u64,
}

/// The per-operator runtime profile of one plan execution — estimated
/// rows next to actual rows, calls, and inclusive wall time. Produced by
/// [`execute_with_profile`]; rendered by `:plan analyze`.
#[derive(Clone, Debug)]
pub struct PlanProfile {
    /// The licensing guard, rendered.
    pub guard: String,
    /// One entry per operator/stage, in pre-order.
    pub entries: Vec<ProfEntry>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl PlanProfile {
    /// Renders the profile as an indented tree, one line per operator,
    /// estimates next to actuals.
    pub fn render(&self) -> String {
        let mut out = format!("Plan analyze  [guard: {}]\n", self.guard);
        for e in &self.entries {
            for _ in 0..e.depth {
                out.push_str("  ");
            }
            out.push_str(&e.label);
            if let Some(n) = e.est_rows {
                out.push_str(&format!("  (est ~{n} rows)"));
            }
            if e.calls == 0 {
                out.push_str("  [never executed]\n");
            } else {
                out.push_str(&format!(
                    "  (actual: rows={} calls={} time={})\n",
                    e.rows,
                    e.calls,
                    fmt_ns(e.nanos)
                ));
            }
        }
        out
    }
}

/// Collects per-node runtime stats during a profiled execution. Nodes
/// are keyed by their stable pre-order [`NodeId`] (assigned by
/// [`Plan::number`]), so the keys survive subtree clones and moves —
/// node *addresses*, which an earlier version keyed by, do not.
struct Profiler {
    index: HashMap<NodeId, usize>,
    entries: Vec<ProfEntry>,
}

impl Profiler {
    fn new(plan: &Plan) -> Self {
        let mut p = Profiler {
            index: HashMap::new(),
            entries: Vec::new(),
        };
        for (depth, node) in plan.walk() {
            p.index.insert(node.id(), p.entries.len());
            p.entries.push(ProfEntry {
                depth,
                label: node.label(),
                est_rows: node.est_rows(),
                calls: 0,
                rows: 0,
                nanos: 0,
            });
        }
        p
    }

    fn record(&mut self, id: NodeId, started: Option<Instant>, calls: u64, rows: u64) {
        if let Some(&i) = self.index.get(&id) {
            let e = &mut self.entries[i];
            e.calls += calls;
            e.rows += rows;
            if let Some(t) = started {
                e.nanos += t.elapsed().as_nanos() as u64;
            }
        }
    }

    fn add_nanos(&mut self, id: NodeId, started: Option<Instant>) {
        if let Some(&i) = self.index.get(&id) {
            if let Some(t) = started {
                self.entries[i].nanos += t.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// A pipeline head as the executor sees it: the source expression
/// (always present — interpretation, error rendering, and profiling
/// need it) and its compiled program when the compile tier accepted it.
#[derive(Clone, Copy)]
struct Head<'p> {
    expr: &'p Query,
    prog: Option<&'p Program>,
}

/// Executes a physical plan against a store.
///
/// `max_steps` is the same fuel budget the naive engines take; the
/// executor burns one unit per operator/row step from the counter its
/// interpreter and VM burn from, so one global budget bounds the whole
/// run.
///
/// The handles on `cfg.metrics` are write-only (the transparency guard):
/// no dispatch or fallback decision reads them, so a metered run and a
/// bare one execute identically.
pub fn execute(
    plan: &Plan,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<PlanResult, EvalError> {
    execute_inner(plan, cfg, defs, store, chooser, max_steps, None)
}

/// Executes a physical plan while collecting per-operator runtime stats
/// (calls, rows, inclusive wall time) next to the optimizer's estimates.
///
/// Profiling reads the clock per operator entry, so this path is for
/// diagnostics (`:plan analyze` runs it against a *cloned* store);
/// production execution goes through [`execute`], which performs no
/// clock reads at all.
pub fn execute_with_profile(
    plan: &Plan,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<(PlanResult, PlanProfile), EvalError> {
    let mut prof = Profiler::new(plan);
    let result = execute_inner(plan, cfg, defs, store, chooser, max_steps, Some(&mut prof))?;
    Ok((
        result,
        PlanProfile {
            guard: plan.guard.to_string(),
            entries: prof.entries,
        },
    ))
}

fn execute_inner<'a>(
    plan: &'a Plan,
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
    prof: Option<&mut Profiler>,
) -> Result<PlanResult, EvalError> {
    let mut ex = Exec {
        interp: Interp::new(cfg, defs, chooser, max_steps),
        prof,
        compiled: &plan.compiled,
        vm_ctx: VmCtx::default(),
        vm_rows: 0,
        indexes: HashMap::new(),
    };
    let value = ex.eval_op(store, &plan.root);
    // Batched telemetry: the total per-row adds would reach (a failed
    // row never contributed), in one atomic instead of one per row.
    if let Some(m) = cfg.metrics {
        m.dispatches.add(ex.vm_rows);
    }
    let (value, effect) = ex.interp.finish(value)?;
    Ok(PlanResult { value, effect })
}

/// The generator-fused probe, split off the stage suffix: the probe
/// stage's id, build recipe, probe expression, and fallback predicate.
type ProbeParts<'p> = (
    Option<(NodeId, &'p HashIndexBuild, &'p Query, &'p Query)>,
    &'p [Stage],
);

/// Splits a probe stage fused with generator `var` off the front of
/// `rest`.
fn split_probe<'p>(var: &VarName, rest: &'p [Stage]) -> ProbeParts<'p> {
    if let Some((st, after)) = rest.split_first() {
        if let StageKind::HashIndexProbe {
            var: pv,
            build,
            probe,
            pred,
            ..
        } = &st.kind
        {
            if pv == var {
                return (Some((st.id, build, probe, pred)), after);
            }
        }
    }
    (None, rest)
}

/// A probe stage's hash index: the elements under each key, in canonical
/// order, or `None` once a key of the wrong shape abandoned it.
type Index = Option<HashMap<Value, Rc<[Value]>>>;

/// How many elements at the front of `remaining` are not in `hits` — the
/// run of misses before the next hit. Both are in canonical order: a
/// drain's pool starts sorted and loses elements, never reorders.
fn leading_misses(hits: &[Value], remaining: &VecDeque<Value>) -> usize {
    let Some(front) = remaining.front() else {
        return 0;
    };
    match hits.get(hits.partition_point(|h| h < front)) {
        Some(next) => remaining.partition_point(|v| v < next),
        None => remaining.len(),
    }
}

/// Whether a value is the shape the probe's equality demands (the
/// speculative build's per-key anomaly check).
fn well_formed(store: &Store, eq: EqKind, v: &Value) -> bool {
    match (eq, v) {
        (EqKind::Int, Value::Int(_)) => true,
        (EqKind::Obj, Value::Oid(o)) => store.objects.contains(*o),
        _ => false,
    }
}

struct Exec<'a, 'c> {
    /// The interpreter state this execution runs on: the chooser, the
    /// fuel, the effect trace, and the binding stack the VM's `Load`
    /// indexes and an interpreted expression looks its variables up in
    /// (`drive_gen` pushes the in-scope generator binders, outermost
    /// first).
    interp: Interp<'a, 'c>,
    /// Per-node runtime stats, only in [`execute_with_profile`] runs.
    /// `None` in production execution — no clock reads, no recording.
    prof: Option<&'c mut Profiler>,
    /// The plan's compile verdicts (empty when lowered without the
    /// compile pass). Read-only: the executor *uses* programs, it never
    /// decides to compile.
    compiled: &'a BTreeMap<NodeId, CompileVerdict>,
    /// Reusable VM scratch (the value stack) — one allocation per
    /// executor, not per row.
    vm_ctx: VmCtx,
    /// Rows dispatched through the VM, recorded into `cfg.metrics` once
    /// when the execution ends.
    vm_rows: u64,
    /// Per-execution index table of the probes over extents, keyed by the
    /// probe stage: built at the first drain that reaches it and read by
    /// every later one, "abandoned" verdicts included. Licensed by the
    /// Theorem 7 guard: only a read-only plan holds a probe, so an extent
    /// and its elements' attributes cannot change during the execution.
    indexes: HashMap<NodeId, Index>,
}

impl<'a> Exec<'a, '_> {
    /// Starts a timer iff profiling — `execute` runs never touch the
    /// clock, which is what keeps telemetry out of deadline semantics.
    fn ptimer(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    fn precord(&mut self, id: NodeId, started: Option<Instant>, rows: u64) {
        if let Some(p) = &mut self.prof {
            p.record(id, started, 1, rows);
        }
    }

    fn ptime(&mut self, id: NodeId, started: Option<Instant>) {
        if let Some(p) = &mut self.prof {
            p.add_nanos(id, started);
        }
    }

    /// A plan shape [`crate::lower`] never emits. Defensive only.
    fn malformed<T>(&self) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            query: "<physical plan>".into(),
            reason: "malformed physical plan".into(),
        })
    }

    /// The compiled program for a plan node, when the compile pass
    /// accepted its expression.
    fn vm_prog(&self, id: NodeId) -> Option<&'a Program> {
        match self.compiled.get(&id) {
            Some(CompileVerdict::Vm(p)) => Some(p),
            _ => None,
        }
    }

    /// Evaluates a row-level expression for the current row: its compiled
    /// program when there is one, else the interpreter — either way on
    /// the one state.
    fn row_expr(
        &mut self,
        store: &mut Store,
        prog: Option<&Program>,
        q: &Query,
    ) -> Result<Value, EvalError> {
        let Some(prog) = prog else {
            return self.interp.eval(store, q);
        };
        let v = prog.run(store, &mut self.interp, &mut self.vm_ctx)?;
        self.vm_rows += 1;
        Ok(v)
    }

    /// Evaluates a pipeline predicate for the current row: a `Filter`'s,
    /// or the predicate a probe kept for when its index is abandoned
    /// (probe stages carry no compile verdict, so that one interprets).
    fn passes(&mut self, store: &mut Store, id: NodeId, pred: &Query) -> Result<bool, EvalError> {
        let v = self.row_expr(store, self.vm_prog(id), pred)?;
        self.interp.truth(pred, v)
    }

    fn eval_op(&mut self, store: &mut Store, op: &Op) -> Result<Value, EvalError> {
        if self.prof.is_none() {
            return self.eval_op_inner(store, op);
        }
        let t = self.ptimer();
        let r = self.eval_op_inner(store, op);
        let rows = match &r {
            Ok(Value::Set(s)) => s.len() as u64,
            Ok(_) => 1,
            Err(_) => 0,
        };
        self.precord(op.id, t, rows);
        r
    }

    fn eval_op_inner(&mut self, store: &mut Store, op: &Op) -> Result<Value, EvalError> {
        self.interp.burn(1)?;
        match &op.kind {
            OpKind::ExtentScan { extent, .. } => self.interp.extent(store, extent),
            OpKind::SetUnion { left, right } => self.set_bin(store, SetOp::Union, left, right),
            OpKind::SetIntersect { left, right } => {
                self.set_bin(store, SetOp::Intersect, left, right)
            }
            OpKind::SetDiff { left, right } => self.set_bin(store, SetOp::Diff, left, right),
            OpKind::Distinct { input } => {
                let mp = &**input;
                let OpKind::MapProject { head, input } = &mp.kind else {
                    return self.malformed();
                };
                let pl = &**input;
                let OpKind::Pipeline { stages } = &pl.kind else {
                    return self.malformed();
                };
                let head = Head {
                    expr: head,
                    prog: self.vm_prog(mp.id),
                };
                let t = self.ptimer();
                let mut out = SetBuilder::new();
                self.run_stages(store, stages, head, &mut out)?;
                let out = out.finish();
                // The MapProject/Pipeline spine is driven inline (not
                // via `eval_op`), so its profile rows are recorded here.
                let produced = out.len() as u64;
                self.precord(pl.id, None, produced);
                self.precord(mp.id, t, produced);
                // Observed once at completion, matching the naive
                // engines' single observation of the finished
                // comprehension.
                self.interp.observe_card(out.len())?;
                Ok(Value::Set(out))
            }
            OpKind::InlineDef { body, .. } => self.eval_op(store, body),
            // The burn above was big-step's pre-order one for the
            // `sum`/`size` node; the input then runs as any other
            // sub-plan (VM, probes) and only the finished set is folded —
            // by the interpreter's own fold, with its stuck state.
            OpKind::Aggregate { kind, expr, input } => {
                let set = self.op_set(store, input)?;
                match kind {
                    AggKind::Size => Ok(Value::Int(set.len() as i64)),
                    AggKind::Sum => self.interp.sum(expr, &set),
                }
            }
            OpKind::Eval { expr } => self.interp.eval(store, expr),
            // Only meaningful inside `Distinct`; a bare occurrence is a
            // lowering bug.
            OpKind::MapProject { .. } | OpKind::Pipeline { .. } => self.malformed(),
        }
    }

    /// Reads one extent as a draw pool in canonical (sorted) order: the
    /// observables of [`Interp::read_extent`], then the members copied
    /// straight from their chunks. Chunks are sorted by oid across the
    /// spine and `Value::Oid` ordering follows oid ordering, so this is
    /// the sequence a `Value::Set` of the members would iterate, without
    /// building it. Every drain consumes a pool of its own, so a nested
    /// generator's re-scan copies the chunks again: a cached copy would
    /// only be copied once more, and would double a scan's footprint.
    fn scan_extent(
        &mut self,
        store: &Store,
        extent: &ExtentName,
    ) -> Result<VecDeque<Value>, EvalError> {
        let members = self.interp.read_extent(store, extent)?;
        let mut pool = VecDeque::with_capacity(members.len());
        for chunk in members.chunks() {
            pool.extend(chunk.iter().map(|o| Value::Oid(*o)));
        }
        Ok(pool)
    }

    fn set_bin(
        &mut self,
        store: &mut Store,
        op: SetOp,
        left: &Op,
        right: &Op,
    ) -> Result<Value, EvalError> {
        let va = self.op_set(store, left)?;
        let vb = self.op_set(store, right)?;
        self.interp.set_op(op, &va, &vb)
    }

    fn op_set(&mut self, store: &mut Store, op: &Op) -> Result<SetVal, EvalError> {
        match self.eval_op(store, op)? {
            Value::Set(s) => Ok(s),
            _ => match &op.kind {
                OpKind::Eval { expr } => self.interp.stuck(expr, "expected a set"),
                _ => self.malformed(),
            },
        }
    }

    /// Runs a stage suffix for the current bindings, pushing produced
    /// head values into `out` — the physical mirror of the big-step
    /// `comp` recursion.
    fn run_stages(
        &mut self,
        store: &mut Store,
        stages: &[Stage],
        head: Head<'_>,
        out: &mut SetBuilder,
    ) -> Result<(), EvalError> {
        let Some((st, rest)) = stages.split_first() else {
            out.push(self.row_expr(store, head.prog, head.expr)?);
            return Ok(());
        };
        match &st.kind {
            StageKind::Filter { pred } => {
                let t = self.ptimer();
                let pass = self.passes(store, st.id, pred)?;
                self.precord(st.id, t, pass as u64);
                if pass {
                    self.run_stages(store, rest, head, out)?;
                }
                Ok(())
            }
            StageKind::ExtentScan { var, extent, .. } => {
                let t = self.ptimer();
                let elems = self.scan_extent(store, extent)?;
                self.precord(st.id, t, elems.len() as u64);
                self.drive_gen(store, var, elems, rest, head, out, true)
            }
            StageKind::Scan { var, source, .. } => {
                let t = self.ptimer();
                let elems = self.interp.source(store, source)?;
                self.precord(st.id, t, elems.len() as u64);
                self.drive_gen(store, var, elems, rest, head, out, false)
            }
            // A probe is always fused behind its generator and consumed
            // by `drive_gen`; reaching one here is a lowering bug.
            StageKind::HashIndexProbe { .. } => self.malformed(),
        }
    }

    /// Drives one generator — the `(ND comp)` rule: draw each element
    /// ([`Interp::draw`]: chooser, one cell), checkpoint per draw, bind
    /// it in the generator's slot (pushed once per drain, overwritten per
    /// row) and run the rest of the pipeline. A fused probe is a branch
    /// of this loop: the hash index stands in for the equality predicate,
    /// and an abandoned index falls back to the predicate itself. Once
    /// the index has given a drain its hit list, the misses before the
    /// next hit are one [`Interp::skip`] when the chooser takes the front
    /// of the pool, so the drain costs O(hits), not O(elements); a
    /// refused run is drawn one element at a time, as without a probe.
    /// `frozen` says the elements are an extent's, which the Theorem 7
    /// guard freezes for the execution, so the index outlives the drain.
    #[allow(clippy::too_many_arguments)]
    fn drive_gen(
        &mut self,
        store: &mut Store,
        var: &VarName,
        mut remaining: VecDeque<Value>,
        rest: &[Stage],
        head: Head<'_>,
        out: &mut SetBuilder,
        frozen: bool,
    ) -> Result<(), EvalError> {
        if remaining.is_empty() {
            return Ok(());
        }
        let (probe, body) = split_probe(var, rest);
        let slot = self.interp.binds.len();
        // Placeholder value, overwritten before anything reads the slot
        // (`probe_shape` keeps `var` out of the probe side, the one
        // expression evaluated before the first row is bound).
        self.interp.binds.push((var.clone(), Value::Bool(false)));
        // `None` until the first draw; `Some(None)` = fall back to the
        // predicate (anomaly — the per-row fallback reproduces the naive
        // error), `Some(Some(hits))` = pass exactly `hits`.
        let mut verdict: Option<Option<Rc<[Value]>>> = None;
        let r = (|| -> Result<(), EvalError> {
            while !remaining.is_empty() {
                let picked = self.interp.draw(var, &mut remaining)?;
                // Checkpoint per draw even when the probe will reject the
                // element: the naive engines notice cancellation on the
                // recursion that evaluates the rejected element's
                // predicate, so the plan path must offer the same
                // observation point.
                self.interp.burn(1)?;
                let Some((pkey, build, probe_q, pred)) = probe else {
                    self.interp.binds[slot].1 = picked;
                    self.run_stages(store, body, head, out)?;
                    continue;
                };
                let hits = match &verdict {
                    Some(hits) => hits,
                    // Decided once per drain, at the first draw — where
                    // the naive path would first evaluate the predicate,
                    // so the probe side's one evaluation lands where
                    // naive's first would.
                    None => {
                        let t = self.ptimer();
                        let elems = std::iter::once(&picked).chain(remaining.iter());
                        let hits = self.probe_drain(store, (pkey, build, probe_q), frozen, elems);
                        self.ptime(pkey, t);
                        verdict.insert(hits)
                    }
                };
                if hits
                    .as_ref()
                    .is_some_and(|pass| pass.binary_search(&picked).is_err())
                {
                    self.precord(pkey, None, 0);
                } else {
                    // A hit runs the body; a fallback asks the kept
                    // predicate first.
                    let hit = hits.is_some();
                    self.interp.binds[slot].1 = picked;
                    let passed = hit || self.passes(store, pkey, pred)?;
                    if passed {
                        self.run_stages(store, body, head, out)?;
                    }
                    self.precord(pkey, None, passed as u64);
                }
                // The misses before the next hit, as one run when the
                // chooser takes them (`:plan analyze` counts k calls).
                if let Some(Some(hits)) = &verdict {
                    let k = leading_misses(hits, &remaining);
                    if k > 0 && self.interp.skip(&mut remaining, k)? {
                        if let Some(p) = &mut self.prof {
                            p.record(pkey, None, k as u64, 0);
                        }
                    }
                }
            }
            Ok(())
        })();
        self.interp.binds.truncate(slot);
        r
    }

    /// One drain's probe: evaluate the probe side (under the current
    /// bindings — the semi-join case) and return the elements whose key
    /// equals it. `None` on any anomaly — the probe side fails or has the
    /// wrong type, or the index is abandoned — and the caller reverts to
    /// per-row predicate evaluation, which reproduces the exact naive
    /// error at the exact naive position. Over a `frozen` source the
    /// index comes from the per-execution table (built here by the first
    /// drain that gets this far); over a computed one, which may read the
    /// outer binders, it is built for this drain alone.
    fn probe_drain<'v>(
        &mut self,
        store: &mut Store,
        (id, build, probe): (NodeId, &HashIndexBuild, &Query),
        frozen: bool,
        elements: impl Iterator<Item = &'v Value>,
    ) -> Option<Rc<[Value]>> {
        // Speculative: a failed evaluation is discarded, its fuel with it
        // (the per-row fallback pays for the one that reports the error).
        let fuel = self.interp.fuel;
        let Ok(target) = self.interp.eval(store, probe) else {
            self.interp.fuel = fuel;
            return None;
        };
        if !well_formed(store, build.eq, &target) {
            return None;
        }
        let index = match self.indexes.remove(&id) {
            Some(index) => index,
            None => self.build_index(store, build, elements),
        };
        let hits = index
            .as_ref()
            .map(|idx| idx.get(&target).cloned().unwrap_or_default());
        if frozen {
            self.indexes.insert(id, index);
        }
        hits
    }

    /// Builds a hash index over `elements`: each key with the elements
    /// that have it, sorted, or `None` at the first element whose key is
    /// not the shape the equality demands. Reading a key attribute records
    /// `Ra` for every *scanned* element, as the naive engines do for every
    /// drawn one whether or not its predicate passes.
    fn build_index<'v>(
        &mut self,
        store: &Store,
        build: &HashIndexBuild,
        elements: impl Iterator<Item = &'v Value>,
    ) -> Index {
        let mut index: HashMap<Value, Vec<Value>> = HashMap::new();
        for elem in elements {
            let key = match &build.key {
                KeyAccess::Bare => elem.clone(),
                KeyAccess::Attr(a) => {
                    let Value::Oid(o) = elem else { return None };
                    self.interp.read_attr(store, *o, a).ok()?.clone()
                }
            };
            if !well_formed(store, build.eq, &key) {
                return None;
            }
            index.entry(key).or_default().push(elem.clone());
        }
        let sorted = |mut elems: Vec<Value>| {
            elems.sort_unstable();
            Rc::from(elems)
        };
        Some(index.into_iter().map(|(k, v)| (k, sorted(v))).collect())
    }
}
