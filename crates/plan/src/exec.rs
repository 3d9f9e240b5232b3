//! The pull-based plan executor.
//!
//! Execution is engineered for *observational parity* with the naive
//! engines, not just value parity:
//!
//! * every generator element is still drawn through the same [`Chooser`]
//!   protocol, charged one governor cell, and followed by a
//!   cancellation/deadline checkpoint — so `(ND comp)` choice sequences,
//!   cell budgets, and cancellation verdicts are identical. Figure 2 has
//!   one `(ND comp)` rule and this module has one loop for it
//!   (`Exec::drive_gen`): every generator, fused with a probe or not,
//!   feeding a compiled head or an interpreted one, is drawn there;
//! * set cardinalities are observed at exactly the naive observation
//!   points (extent read, set-operator result, comprehension
//!   completion);
//! * a row-level expression runs its [`bytecode`](crate::bytecode)
//!   program when the compile pass accepted it (the scalar, draw-free
//!   fragment, held byte-identical to the interpreter by
//!   `tests/compile.rs`) and is otherwise delegated to the big-step
//!   evaluator's [`eval_expr`] hook under the current variable bindings,
//!   so nested comprehensions, effects, and stuck states are literally
//!   the naive engine's own.
//!
//! The one deviation — the hash-index build scanning elements ahead of
//! the chooser's draw order — is licensed by the plan's Theorem 7 guard
//! and remains fully *speculative*: any anomaly abandons the index and
//! reverts to per-row predicate evaluation, reproducing the naive
//! engines' exact error at the exact position.

use crate::bytecode::{CompileVerdict, Program, VmCtx};
use crate::ir::{
    AggKind, EqKind, HashIndexBuild, KeyAccess, NodeId, Op, OpKind, Plan, Stage, StageKind,
};
use ioql_ast::{ExtentName, Query, SetOp, Value, VarName};
use ioql_effects::Effect;
use ioql_eval::{eval_expr, Chooser, DefEnv, EvalConfig, EvalError};
use ioql_store::{MemberSet, Store};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
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

    fn record(&mut self, id: NodeId, started: Option<Instant>, rows: u64) {
        if let Some(&i) = self.index.get(&id) {
            let e = &mut self.entries[i];
            e.calls += 1;
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

/// The fuel meter: the executor's remaining step budget.
struct Fuel(u64);

impl Fuel {
    fn avail(&self) -> u64 {
        self.0
    }

    /// Burns exactly one unit, failing when the budget is empty — the
    /// per-draw/per-operator cadence.
    fn burn_one(&mut self) -> Result<(), EvalError> {
        self.0 = self.0.checked_sub(1).ok_or(EvalError::FuelExhausted)?;
        Ok(())
    }

    /// Settles a delegated evaluation's reported consumption (bounded
    /// by the [`avail`](Fuel::avail) it was handed).
    fn spend(&mut self, used: u64) {
        self.0 = self.0.saturating_sub(used);
    }
}

/// A pipeline head as the executor sees it: the source expression
/// (always present — delegation, error rendering, and profiling need
/// it) and its compiled program when the compile tier accepted it.
#[derive(Clone, Copy)]
struct Head<'p> {
    expr: &'p Query,
    prog: Option<&'p Program>,
}

/// Executes a physical plan against a store.
///
/// `max_steps` is the same fuel budget the naive engines take; the
/// executor burns one unit per operator/row step and threads the
/// remainder through every [`eval_expr`] delegation, so one global
/// budget bounds the whole run.
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
        cfg,
        defs,
        chooser,
        effect: Effect::empty(),
        fuel: Fuel(max_steps),
        binds: Vec::new(),
        prof,
        compiled: &plan.compiled,
        vm_ctx: VmCtx::default(),
        vm_rows: 0,
        vm_fuel: 0,
        extent_cache: HashMap::new(),
    };
    let value = ex.eval_op(store, &plan.root);
    // Batched telemetry: the totals per-row adds would reach (a failed
    // row never contributed), in one atomic each instead of one per row.
    if let Some(m) = cfg.metrics {
        m.recursions.add(ex.vm_fuel);
        m.dispatches.add(ex.vm_rows);
    }
    Ok(PlanResult {
        value: value?,
        effect: ex.effect,
    })
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

/// Removes and returns element `i` of the draw pool (`None` when a
/// chooser breaks its `i < n` contract). Endpoint picks — the only picks
/// the deterministic choosers make — are O(1); interior picks
/// (random/scripted choosers) shift the shorter side.
fn pop_at(remaining: &mut VecDeque<Value>, i: usize) -> Option<Value> {
    if i == 0 {
        remaining.pop_front()
    } else if i + 1 == remaining.len() {
        remaining.pop_back()
    } else {
        remaining.remove(i)
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
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    chooser: &'c mut dyn Chooser,
    effect: Effect,
    fuel: Fuel,
    /// In-scope generator bindings, outermost first. Substitution into a
    /// delegated expression applies them innermost-first, so a variable
    /// rebound by an inner generator resolves to the inner value —
    /// matching the interpreters' shadowing-aware eager substitution.
    binds: Vec<(VarName, Value)>,
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
    /// Rows dispatched through the VM and the fuel they burned, recorded
    /// into `cfg.metrics` once when the execution ends.
    vm_rows: u64,
    vm_fuel: u64,
    /// Per-execution snapshot cache of extent element vectors, in
    /// canonical (sorted) order. Licensed by the Theorem 7 guard: the
    /// plan is read-only, so an extent cannot change between two scans
    /// of the same execution. Only the element *vector* is cached — the
    /// per-scan observables (`R(C)` effect atom, cardinality
    /// observation) still fire on every scan, exactly as uncached.
    extent_cache: HashMap<ExtentName, Rc<Vec<Value>>>,
}

impl<'a> Exec<'a, '_> {
    /// Starts a timer iff profiling — `execute` runs never touch the
    /// clock, which is what keeps telemetry out of deadline semantics.
    fn ptimer(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    fn precord(&mut self, id: NodeId, started: Option<Instant>, rows: u64) {
        if let Some(p) = &mut self.prof {
            p.record(id, started, rows);
        }
    }

    fn ptime(&mut self, id: NodeId, started: Option<Instant>) {
        if let Some(p) = &mut self.prof {
            p.add_nanos(id, started);
        }
    }

    fn stuck<T>(&self, q: &Query, reason: impl Into<String>) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            query: q.to_string(),
            reason: reason.into(),
        })
    }

    /// A plan shape [`crate::lower`] never emits. Defensive only.
    fn malformed<T>(&self) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            query: "<physical plan>".into(),
            reason: "malformed physical plan".into(),
        })
    }

    /// Cancellation/deadline checkpoint plus one fuel unit — the same
    /// cadence the big-step evaluator's `burn` gives each recursion.
    fn checkpoint(&mut self) -> Result<(), EvalError> {
        if let Some(gov) = self.cfg.governor {
            gov.checkpoint()?;
        }
        self.fuel.burn_one()
    }

    /// Delegates one expression to the big-step evaluator under the
    /// current bindings, merging its effect and fuel use.
    fn expr(&mut self, store: &mut Store, q: &Query) -> Result<Value, EvalError> {
        let mut bound = q.clone();
        for (x, v) in self.binds.iter().rev() {
            bound = bound.subst(x, v);
        }
        let r = eval_expr(
            self.cfg,
            self.defs,
            store,
            &bound,
            self.chooser,
            self.fuel.avail(),
        )?;
        self.fuel.spend(r.fuel_spent);
        self.effect.union_with(&r.effect);
        Ok(r.value)
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
    /// program when there is one — the VM twin of [`expr`](Exec::expr),
    /// same fuel snapshot/settle protocol, same `recursions` accounting,
    /// effects recorded by the program as it executes — else `expr`.
    fn row_expr(
        &mut self,
        store: &mut Store,
        prog: Option<&Program>,
        q: &Query,
    ) -> Result<Value, EvalError> {
        let Some(prog) = prog else {
            return self.expr(store, q);
        };
        let o = prog.run(
            store,
            &self.binds,
            self.cfg.governor,
            self.fuel.avail(),
            &mut self.effect,
            &mut self.vm_ctx,
        )?;
        self.fuel.spend(o.fuel_spent);
        self.vm_fuel += o.fuel_spent;
        self.vm_rows += 1;
        Ok(o.value)
    }

    /// Evaluates a pipeline predicate for the current row: a `Filter`'s,
    /// or the predicate a probe kept for when its index is abandoned
    /// (probe stages carry no compile verdict, so that one interprets).
    fn passes(&mut self, store: &mut Store, id: NodeId, pred: &Query) -> Result<bool, EvalError> {
        match self.row_expr(store, self.vm_prog(id), pred)? {
            Value::Bool(pass) => Ok(pass),
            _ => self.stuck(pred, "non-boolean predicate"),
        }
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
        self.checkpoint()?;
        match &op.kind {
            OpKind::ExtentScan { extent, .. } => self.scan_extent(store, extent),
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
                let mut out = BTreeSet::new();
                self.run_stages(store, stages, head, &mut out)?;
                // The MapProject/Pipeline spine is driven inline (not
                // via `eval_op`), so its profile rows are recorded here.
                let produced = out.len() as u64;
                self.precord(pl.id, None, produced);
                self.precord(mp.id, t, produced);
                // Observed once at completion, matching the naive
                // engines' single observation of the finished
                // comprehension.
                if let Some(gov) = self.cfg.governor {
                    gov.observe_set_card(out.len() as u64)?;
                }
                Ok(Value::Set(out))
            }
            OpKind::InlineDef { body, .. } => self.eval_op(store, body),
            // The checkpoint above was big-step's pre-order `burn` for
            // the `sum`/`size` node; the input then runs as any other
            // sub-plan (VM, probes) and only the finished
            // set is folded — with the interpreter's own stuck state.
            OpKind::Aggregate { kind, expr, input } => {
                let set = self.op_set(store, input)?;
                match kind {
                    AggKind::Size => Ok(Value::Int(set.len() as i64)),
                    AggKind::Sum => {
                        let mut total = 0i64;
                        for v in &set {
                            match v {
                                Value::Int(i) => total = total.wrapping_add(*i),
                                _ => return self.stuck(expr, "sum over a non-integer set"),
                            }
                        }
                        Ok(Value::Int(total))
                    }
                }
            }
            OpKind::Eval { expr } => self.expr(store, expr),
            // Only meaningful inside `Distinct`; a bare occurrence is a
            // lowering bug.
            OpKind::MapProject { .. } | OpKind::Pipeline { .. } => self.malformed(),
        }
    }

    /// The observables of one extent read, in the big-step `Extent`
    /// rule's order — the unknown-extent stuck state, the `R(C)` effect,
    /// the cardinality observation — returning the members.
    fn read_extent<'s>(
        &mut self,
        store: &'s Store,
        extent: &ExtentName,
    ) -> Result<&'s MemberSet, EvalError> {
        let Some((class, members)) = store.extents.get(extent) else {
            return Err(EvalError::Stuck {
                query: extent.to_string(),
                reason: format!("unknown extent `{extent}`"),
            });
        };
        self.effect.union_with(&Effect::read(class.clone()));
        if let Some(gov) = self.cfg.governor {
            gov.observe_set_card(members.len() as u64)?;
        }
        Ok(members)
    }

    /// Reads one extent as a set value.
    fn scan_extent(&mut self, store: &Store, extent: &ExtentName) -> Result<Value, EvalError> {
        let members = self.read_extent(store, extent)?;
        Ok(Value::Set(members.iter().map(|o| Value::Oid(*o)).collect()))
    }

    /// Reads one extent as a shared vector in canonical (sorted) order,
    /// memoized per execution. A nested generator re-scans its extent
    /// once per outer row; under the Theorem 7 guard the store is frozen,
    /// so only the first scan builds the vector — but the per-scan
    /// *observables* are [`read_extent`](Exec::read_extent)'s on every
    /// call, keeping the hit path byte-identical to the miss path.
    fn scan_extent_elems(
        &mut self,
        store: &Store,
        extent: &ExtentName,
    ) -> Result<Rc<Vec<Value>>, EvalError> {
        let members = self.read_extent(store, extent)?;
        if let Some(cached) = self.extent_cache.get(extent) {
            return Ok(Rc::clone(cached));
        }
        // Member chunks are globally sorted by oid and `Value::Oid`
        // ordering follows oid ordering, so draining the chunk spine is
        // exactly the sequence a `Value::Set` of the members would
        // iterate — without building the intermediate `BTreeSet`.
        let mut vec = Vec::with_capacity(members.len());
        for chunk in members.chunks() {
            vec.extend(chunk.iter().map(|o| Value::Oid(*o)));
        }
        let vec = Rc::new(vec);
        self.extent_cache.insert(extent.clone(), Rc::clone(&vec));
        Ok(vec)
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
        let result = op.apply(&va, &vb);
        if let Some(gov) = self.cfg.governor {
            gov.observe_set_card(result.len() as u64)?;
        }
        Ok(Value::Set(result))
    }

    fn op_set(&mut self, store: &mut Store, op: &Op) -> Result<BTreeSet<Value>, EvalError> {
        match self.eval_op(store, op)? {
            Value::Set(s) => Ok(s),
            _ => match &op.kind {
                OpKind::Eval { expr } => self.stuck(expr, "expected a set"),
                _ => self.malformed(),
            },
        }
    }

    /// Runs a stage suffix for the current bindings, unioning produced
    /// head values into `out` — the physical mirror of the big-step
    /// `comp` recursion.
    fn run_stages(
        &mut self,
        store: &mut Store,
        stages: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        let Some((st, rest)) = stages.split_first() else {
            out.insert(self.row_expr(store, head.prog, head.expr)?);
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
                let elems = self.scan_extent_elems(store, extent)?;
                self.precord(st.id, t, elems.len() as u64);
                let elems = elems.iter().cloned().collect();
                self.drive_gen(store, var, elems, rest, head, out)
            }
            StageKind::Scan { var, source, .. } => {
                let t = self.ptimer();
                let elems = match self.expr(store, source)? {
                    Value::Set(s) => s,
                    _ => return self.stuck(source, "generator over a non-set"),
                };
                self.precord(st.id, t, elems.len() as u64);
                let elems = elems.into_iter().collect();
                self.drive_gen(store, var, elems, rest, head, out)
            }
            // A probe is always fused behind its generator and consumed
            // by `drive_gen`; reaching one here is a lowering bug.
            StageKind::HashIndexProbe { .. } => self.malformed(),
        }
    }

    /// Drives one generator — the `(ND comp)` rule: draw each element
    /// through the chooser, charge one cell and checkpoint per draw, bind
    /// it in the generator's slot (pushed once per drain, overwritten per
    /// row) and run the rest of the pipeline. A fused probe is a branch
    /// of this loop: the one-shot hash index stands in for the equality
    /// predicate, and an abandoned index falls back to the predicate
    /// itself. Elements live in a deque so the endpoint picks of the
    /// common choosers (first/last) are O(1) instead of shifting the
    /// whole remainder per draw.
    fn drive_gen(
        &mut self,
        store: &mut Store,
        var: &VarName,
        mut remaining: VecDeque<Value>,
        rest: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        if remaining.is_empty() {
            return Ok(());
        }
        let (probe, body) = split_probe(var, rest);
        // `ioql_vm_dispatch_ns` times the drains whose every row is one
        // VM dispatch of the head: one clock read per drain, none per
        // row, none when telemetry is off.
        let timer = match (self.cfg.metrics, head.prog) {
            (Some(m), Some(_)) if probe.is_none() && body.is_empty() => m.dispatch_ns.start_timer(),
            _ => None,
        };
        let slot = self.binds.len();
        // Placeholder value, overwritten before anything reads the slot
        // (`probe_shape` keeps `var` out of the probe side, the one
        // expression evaluated before the first row is bound).
        self.binds.push((var.clone(), Value::Bool(false)));
        // `None` until the first draw; `Some(None)` = index abandoned
        // (anomaly — the per-row fallback reproduces the naive error),
        // `Some(Some(idx))` = probe with `idx`.
        let mut index: Option<Option<HashSet<Value>>> = None;
        let r = (|| -> Result<(), EvalError> {
            while !remaining.is_empty() {
                let n = remaining.len();
                let i = self.chooser.choose(n);
                if let Some(gov) = self.cfg.governor {
                    gov.charge_cells(1)?;
                }
                // Checkpoint per draw even when the probe will reject the
                // element: the naive engines notice cancellation on the
                // recursion that evaluates the rejected element's
                // predicate, so the plan path must offer the same
                // observation point.
                self.checkpoint()?;
                let Some(picked) = pop_at(&mut remaining, i) else {
                    return Err(EvalError::Stuck {
                        query: format!("{var} <- …"),
                        reason: format!("chooser picked element {i} of {n}"),
                    });
                };
                let Some((pkey, build, probe_q, pred)) = probe else {
                    self.binds[slot].1 = picked;
                    self.run_stages(store, body, head, out)?;
                    continue;
                };
                let built = match &index {
                    Some(built) => built,
                    // Built exactly once, at the first draw — where the
                    // naive path would first evaluate the predicate, so
                    // the probe side's one evaluation lands where naive's
                    // first would.
                    None => {
                        let t = self.ptimer();
                        let elems = std::iter::once(&picked).chain(remaining.iter());
                        let built = self.build_index(store, build, probe_q, elems);
                        self.ptime(pkey, t);
                        index.insert(built)
                    }
                };
                if built.as_ref().is_some_and(|pass| !pass.contains(&picked)) {
                    self.precord(pkey, None, 0);
                    continue;
                }
                // A hit runs the body; an abandoned index asks the kept
                // predicate first.
                let hit = built.is_some();
                self.binds[slot].1 = picked;
                let passed = hit || self.passes(store, pkey, pred)?;
                if passed {
                    self.run_stages(store, body, head, out)?;
                }
                self.precord(pkey, None, passed as u64);
            }
            Ok(())
        })();
        self.binds.truncate(slot);
        if let Some(m) = self.cfg.metrics {
            m.dispatch_ns.observe_timer(timer);
        }
        r
    }

    /// Builds the one-shot hash index: evaluate the probe side once
    /// (under the current bindings — the semi-join case), then keep the
    /// elements whose key equals it. `None` on any anomaly — the probe
    /// side fails or has the wrong type, an element is not the shape
    /// the equality demands — and the caller reverts to per-row
    /// predicate evaluation, which reproduces the exact naive error at
    /// the exact naive position. The `Ra` union per *scanned* element
    /// on attribute access matches the naive engines, which record it
    /// for every drawn element whether or not its predicate passes.
    fn build_index<'v>(
        &mut self,
        store: &mut Store,
        build: &HashIndexBuild,
        probe: &Query,
        elements: impl Iterator<Item = &'v Value>,
    ) -> Option<HashSet<Value>> {
        let target = self.expr(store, probe).ok()?;
        if !well_formed(store, build.eq, &target) {
            return None;
        }
        let mut pass = HashSet::new();
        for elem in elements {
            let key = match &build.key {
                KeyAccess::Bare => elem.clone(),
                KeyAccess::Attr(a) => {
                    let Value::Oid(o) = elem else { return None };
                    let class = store.class_of(*o).ok()?.clone();
                    self.effect.union_with(&Effect::attr_read(class));
                    store.attr(*o, a).ok()?.clone()
                }
            };
            if !well_formed(store, build.eq, &key) {
                return None;
            }
            if key == target {
                pass.insert(elem.clone());
            }
        }
        Some(pass)
    }
}
