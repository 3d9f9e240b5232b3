//! The multi-step driver: `—↠` (the reflexive-transitive closure of
//! reduction) run to a value, with fuel, accumulating the effect trace of
//! the instrumented semantics.

use crate::chooser::{Chooser, FirstChooser};
use crate::governor::{Governor, ResourceKind};
use crate::step::{step, StepOutcome};
use ioql_ast::{DefName, Definition, Program, Query, Value};
use ioql_effects::Effect;
use ioql_methods::Mode;
use ioql_schema::Schema;
use ioql_store::Store;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The definition environment `DE`: definition identifiers to their
/// λ-representations (paper §3.3). Bodies are shared, so cloning an
/// environment copies pointers, not query trees.
#[derive(Clone, Debug, Default)]
pub struct DefEnv {
    map: BTreeMap<DefName, Arc<Definition>>,
}

impl DefEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `DE` from a program's definitions.
    pub fn from_program(p: &Program) -> Self {
        let mut de = DefEnv::new();
        for d in &p.defs {
            de.insert(d.clone());
        }
        de
    }

    /// Adds a definition.
    pub fn insert(&mut self, d: Definition) {
        self.map.insert(d.name.clone(), Arc::new(d));
    }

    /// `DE(d)`.
    pub fn get(&self, d: &DefName) -> Option<&Definition> {
        self.map.get(d).map(|def| &**def)
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Telemetry handles the engines report work volume into, at batch
/// granularity: totals are recorded once per completed evaluation, not
/// per step, so the hot loops stay counter-free.
///
/// Write-only from the engines' side (the transparency guard): no
/// recorded value ever feeds an evaluation decision.
#[derive(Clone, Debug, Default)]
pub struct EvalMetrics {
    /// Small-step reductions taken (summed at completion).
    pub steps: ioql_telemetry::Counter,
    /// Fuel units spent by production (`max_steps` − fuel left: one per
    /// interpreter recursion, plan operator entry and draw, compiled
    /// node), recorded once per execution.
    pub recursions: ioql_telemetry::Counter,
    /// Rows the plan executor dispatched through its bytecode VM.
    pub dispatches: ioql_telemetry::Counter,
    /// Wall time of the VM's batched row loops, one observation per
    /// driven generator (not per row — the hot loop stays clock-free
    /// when telemetry is off).
    pub dispatch_ns: ioql_telemetry::Histogram,
}

/// Evaluator configuration: the schema plus the §5 method design point.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig<'s> {
    /// The schema (classes, extents, `extents_for_new`).
    pub schema: &'s Schema,
    /// Read-only (§3.3) or extended (§5) methods.
    pub method_mode: Mode,
    /// Fuel budget per method invocation — non-termination shows up as
    /// [`EvalError::MethodDiverged`] instead of a hang.
    pub method_fuel: u64,
    /// Optional resource governor (deadline, budgets, cancellation).
    /// Both engines consult it at aligned points — see
    /// [`governor`](crate::governor) for the parity contract.
    pub governor: Option<&'s Governor>,
    /// Optional telemetry handles for engine work volume. Recorded in
    /// batch at completion; never read by the engines.
    pub metrics: Option<&'s EvalMetrics>,
}

impl<'s> EvalConfig<'s> {
    /// A configuration with read-only methods and a generous default
    /// method fuel.
    pub fn new(schema: &'s Schema) -> Self {
        EvalConfig {
            schema,
            method_mode: Mode::ReadOnly,
            method_fuel: 1_000_000,
            governor: None,
            metrics: None,
        }
    }

    /// Selects the method mode.
    pub fn with_method_mode(mut self, mode: Mode) -> Self {
        self.method_mode = mode;
        self
    }

    /// Sets the per-invocation method fuel.
    pub fn with_method_fuel(mut self, fuel: u64) -> Self {
        self.method_fuel = fuel;
        self
    }

    /// Attaches a resource governor. The governor outlives the config
    /// (it is borrowed), so one instance can meter a whole session or a
    /// single query.
    pub fn with_governor(mut self, governor: &'s Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Attaches telemetry handles for engine work volume (steps,
    /// recursions). Borrowed like the governor, so one set of handles
    /// can meter a session.
    pub fn with_metrics(mut self, metrics: &'s EvalMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Evaluation failures.
///
/// On closed, well-typed programs only the divergence/fuel variants are
/// reachable — that is precisely the type-soundness theorem, and the
/// workspace's property tests check it by the thousands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A non-value query matched no reduction rule ("went wrong"). Never
    /// happens for well-typed queries (Theorem 3); reachable via
    /// ill-typed inputs or the unsound downcast option.
    Stuck {
        /// Rendered query at the point of sticking.
        query: String,
        /// Why no rule applied.
        reason: String,
    },
    /// A method invocation exhausted its fuel (models the paper's
    /// non-terminating `loop()` method).
    MethodDiverged {
        /// The method that diverged.
        method: String,
    },
    /// The query-level step budget was exhausted.
    FuelExhausted,
    /// A [`Governor`] limit was exceeded (deadline, cell/cardinality/
    /// growth budget). Both engines report the same `kind` for the same
    /// over-budget query; `spent` is informational and may differ.
    ResourceExhausted {
        /// The axis that was exhausted.
        kind: ResourceKind,
        /// How much had been consumed when the limit tripped
        /// (milliseconds for the wall clock, counts otherwise).
        spent: u64,
        /// The configured limit on that axis.
        limit: u64,
    },
    /// The evaluation's [`CancelToken`](crate::governor::CancelToken)
    /// was triggered.
    Cancelled,
    /// A store invariant was violated (dangling oid etc.) — unreachable
    /// on checked programs.
    Store(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stuck { query, reason } => {
                write!(f, "stuck at `{query}`: {reason}")
            }
            EvalError::MethodDiverged { method } => {
                write!(f, "method `{method}` did not terminate")
            }
            EvalError::FuelExhausted => write!(f, "query step budget exhausted"),
            EvalError::ResourceExhausted { kind, spent, limit } => {
                write!(f, "{kind} budget exhausted ({spent} spent, limit {limit})")
            }
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::Store(msg) => write!(f, "store error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A completed evaluation.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The final value.
    pub value: Value,
    /// The accumulated runtime effect — the union of every step's ε label
    /// (Figure 4's (Transitivity)).
    pub effect: Effect,
    /// Number of reduction steps taken.
    pub steps: u64,
}

/// Runs `q` to a value (or error) against `store`, which is mutated in
/// place. `max_steps` bounds the number of query-level reductions.
pub fn evaluate(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<Evaluated, EvalError> {
    evaluate_observed(cfg, defs, store, q, chooser, max_steps, &mut |_| {})
}

/// [`evaluate`], handing each step within the budget to `observe`, in
/// order — the one step loop behind both `evaluate` and
/// [`trace`](crate::trace::trace), so the two agree on fuel and
/// checkpoints.
pub(crate) fn evaluate_observed(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
    max_steps: u64,
    observe: &mut dyn FnMut(&StepOutcome),
) -> Result<Evaluated, EvalError> {
    let mut cur = q.clone();
    let mut effect = Effect::empty();
    let mut steps = 0u64;
    loop {
        if let Some(gov) = cfg.governor {
            gov.checkpoint()?;
        }
        match step(cfg, defs, store, &cur, chooser)? {
            None => {
                let value = cur.as_value().expect("step returned None on a non-value");
                // Batch-recorded once at completion, keeping the step
                // loop free of per-iteration counter traffic.
                if let Some(m) = cfg.metrics {
                    m.steps.add(steps);
                }
                return Ok(Evaluated {
                    value,
                    effect,
                    steps,
                });
            }
            Some(out) => {
                steps += 1;
                if steps > max_steps {
                    return Err(EvalError::FuelExhausted);
                }
                observe(&out);
                effect.union_with(&out.effect);
                cur = out.query;
            }
        }
    }
}

/// Convenience: evaluates a whole (resolved, elaborated) program with the
/// canonical [`FirstChooser`] strategy.
pub fn run_program(
    cfg: &EvalConfig<'_>,
    program: &Program,
    store: &mut Store,
    max_steps: u64,
) -> Result<Evaluated, EvalError> {
    let defs = DefEnv::from_program(program);
    evaluate(
        cfg,
        &defs,
        store,
        &program.query,
        &mut FirstChooser,
        max_steps,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::{FirstChooser, LastChooser};
    use ioql_ast::{AttrDef, ClassDef, ClassName, Qualifier, VarName};
    use ioql_store::Object;

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::plain(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap()
    }

    fn store_with(schema: &Schema, ns: &[i64]) -> Store {
        let _ = schema;
        let mut st = Store::new();
        st.declare_extent("Ps", "P");
        for n in ns {
            st.create(
                Object::new("P", [("n", Value::Int(*n))]),
                [ioql_ast::ExtentName::new("Ps")],
            )
            .unwrap();
        }
        st
    }

    #[test]
    fn evaluates_comprehension_over_extent() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[1, 2, 3]);
        // { x.n + 10 | x <- Ps } = {11, 12, 13}
        let q = Query::comp(
            Query::var("x").attr("n").add(Query::int(10)),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let r = evaluate(&cfg, &DefEnv::new(), &mut st, &q, &mut FirstChooser, 10_000).unwrap();
        assert_eq!(
            r.value,
            Value::set([Value::Int(11), Value::Int(12), Value::Int(13)])
        );
        // Trace: R(P) from the extent read, Ra(P) from attribute access.
        assert!(r.effect.reads.contains(&ClassName::new("P")));
        assert!(r.effect.attr_reads.contains(&ClassName::new("P")));
        assert!(r.effect.adds.is_empty());
    }

    #[test]
    fn chooser_order_is_unobservable_for_functional_queries() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let q = Query::comp(
            Query::var("x").attr("n"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let mut st1 = store_with(&s, &[5, 7]);
        let r1 = evaluate(
            &cfg,
            &DefEnv::new(),
            &mut st1,
            &q,
            &mut FirstChooser,
            10_000,
        )
        .unwrap();
        let mut st2 = store_with(&s, &[5, 7]);
        let r2 = evaluate(&cfg, &DefEnv::new(), &mut st2, &q, &mut LastChooser, 10_000).unwrap();
        assert_eq!(r1.value, r2.value);
        assert_eq!(st1, st2);
    }

    #[test]
    fn nested_comprehension() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[1, 2]);
        // { x.n + y | x <- Ps, y <- {100, 200} }
        let q = Query::comp(
            Query::var("x").attr("n").add(Query::var("y")),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Gen(
                    VarName::new("y"),
                    Query::set_lit([Query::int(100), Query::int(200)]),
                ),
            ],
        );
        let r = evaluate(
            &cfg,
            &DefEnv::new(),
            &mut st,
            &q,
            &mut FirstChooser,
            100_000,
        )
        .unwrap();
        assert_eq!(
            r.value,
            Value::set([
                Value::Int(101),
                Value::Int(102),
                Value::Int(201),
                Value::Int(202)
            ])
        );
    }

    #[test]
    fn filtered_comprehension() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[1, 2, 3, 4]);
        // { x.n | x <- Ps, x.n < 3 }
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::IntBin(
                    ioql_ast::IntOp::Lt,
                    Box::new(Query::var("x").attr("n")),
                    Box::new(Query::int(3)),
                )),
            ],
        );
        let r = evaluate(
            &cfg,
            &DefEnv::new(),
            &mut st,
            &q,
            &mut FirstChooser,
            100_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::set([Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn fuel_exhaustion_reported() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[1, 2, 3]);
        let q = Query::comp(
            Query::var("x").attr("n"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let r = evaluate(&cfg, &DefEnv::new(), &mut st, &q, &mut FirstChooser, 2);
        assert_eq!(r.unwrap_err(), EvalError::FuelExhausted);
    }

    #[test]
    fn stuck_on_ill_typed_input() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[]);
        // true + 1 is ill-typed; the machine reports a stuck state.
        let q = Query::bool(true).add(Query::int(1));
        let r = evaluate(&cfg, &DefEnv::new(), &mut st, &q, &mut FirstChooser, 100);
        assert!(matches!(r, Err(EvalError::Stuck { .. })));
    }

    #[test]
    fn new_inside_comprehension_mutates_store() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut st = store_with(&s, &[1, 2]);
        // { new P(n: x.n + 100).n | x <- Ps } — creates one P per element.
        let q = Query::comp(
            Query::new_obj("P", [("n", Query::var("x").attr("n").add(Query::int(100)))]).attr("n"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let r = evaluate(
            &cfg,
            &DefEnv::new(),
            &mut st,
            &q,
            &mut FirstChooser,
            100_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::set([Value::Int(101), Value::Int(102)]));
        assert_eq!(
            st.extents
                .members(&ioql_ast::ExtentName::new("Ps"))
                .unwrap()
                .len(),
            4
        );
        assert!(r.effect.adds.contains(&ClassName::new("P")));
        assert!(r.effect.reads.contains(&ClassName::new("P")));
    }
}
