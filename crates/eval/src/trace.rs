//! Rendered reduction traces — the derivation sequences one writes on
//! paper, produced mechanically.
//!
//! ```text
//!    { x + 1 | x <- {10, 20} }
//! ─(ND comp)→
//!    { 10 + 1 | } ∪ { x + 1 | x <- {20} }
//! ─(Addition)→
//!    …
//! ```
//!
//! Each entry records the rule that fired, the effect label of the
//! instrumented semantics, and the whole-program state after the step —
//! useful for teaching, debugging the machine, and the `ioql` CLI's
//! `:trace` command.

use crate::chooser::Chooser;
use crate::machine::{evaluate_observed, DefEnv, EvalConfig, EvalError};
use crate::step::StepOutcome;
use ioql_ast::{Query, Value};
use ioql_effects::Effect;
use ioql_store::Store;
use std::fmt::Write as _;

/// One step of a rendered trace.
#[derive(Clone, Debug)]
pub struct TraceStep {
    /// The Figure 2/4 rule that fired.
    pub rule: &'static str,
    /// The step's effect label ε.
    pub effect: Effect,
    /// The state `q'` after the step, rendered.
    pub state: String,
}

/// A full reduction trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The initial state, rendered.
    pub initial: String,
    /// The steps taken, in order.
    pub steps: Vec<TraceStep>,
    /// The final value (or the error that ended the run).
    pub result: Result<Value, EvalError>,
}

impl Trace {
    /// Renders the trace as a numbered derivation. `max_width` truncates
    /// very long intermediate states (0 = no truncation).
    pub fn render(&self, max_width: usize) -> String {
        let clip = |s: &str| -> String {
            if max_width > 0 && s.chars().count() > max_width {
                let prefix: String = s.chars().take(max_width).collect();
                format!("{prefix}…")
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "     {}", clip(&self.initial));
        for (i, st) in self.steps.iter().enumerate() {
            let eff = if st.effect.is_empty() {
                String::new()
            } else {
                format!(" [{}]", st.effect)
            };
            let _ = writeln!(out, "  ─{}{}→", st.rule, eff);
            let _ = writeln!(out, "{:>4} {}", i + 1, clip(&st.state));
        }
        match &self.result {
            Ok(v) => {
                let _ = writeln!(out, "  ⇒ value {}", clip(&v.to_string()));
            }
            Err(e) => {
                let _ = writeln!(out, "  ⇒ {e}");
            }
        }
        out
    }
}

/// Runs `q` to completion (or failure/fuel), recording every step. The
/// run is [`evaluate`](crate::machine::evaluate)'s: the same fuel bound
/// (`max_steps` steps, not one more) and the same governor checkpoints.
pub fn trace(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Trace {
    let mut steps = Vec::new();
    let mut record = |out: &StepOutcome| {
        steps.push(TraceStep {
            rule: out.rule,
            effect: out.effect.clone(),
            state: out.query.to_string(),
        })
    };
    let result = evaluate_observed(cfg, defs, store, q, chooser, max_steps, &mut record);
    Trace {
        initial: q.to_string(),
        steps,
        result: result.map(|done| done.value),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::FirstChooser;
    use ioql_ast::{ClassDef, ClassName, Qualifier, VarName};
    use ioql_schema::Schema;

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::plain(
            "P",
            ClassName::object(),
            "Ps",
            [ioql_ast::AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap()
    }

    #[test]
    fn trace_records_rules_in_order() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let q = Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(10)]),
            )],
        );
        let t = trace(&cfg, &DefEnv::new(), &mut store, &q, &mut FirstChooser, 100);
        let rules: Vec<&str> = t.steps.iter().map(|s| s.rule).collect();
        assert_eq!(
            rules,
            vec![
                "(ND comp)",
                "(Empty comp)",
                "(Addition)",
                "(Triv comp)",
                "(Union)"
            ],
            "full trace:\n{}",
            t.render(0)
        );
        assert_eq!(t.result.as_ref().unwrap(), &Value::set([Value::Int(11)]));
    }

    #[test]
    fn trace_shows_effect_labels() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let q = Query::extent("Ps").size_of();
        let t = trace(&cfg, &DefEnv::new(), &mut store, &q, &mut FirstChooser, 100);
        assert_eq!(t.steps[0].rule, "(Extent)");
        assert!(!t.steps[0].effect.is_empty());
        let rendered = t.render(80);
        assert!(rendered.contains("(Extent) [R(P)]"), "{rendered}");
        assert!(rendered.contains("⇒ value 0"), "{rendered}");
    }

    /// `trace` allows exactly the steps `evaluate` allows: a derivation
    /// of `k` steps is a value under a budget of `k` and runs out of fuel,
    /// after `k - 1` recorded steps, under `k - 1`.
    #[test]
    fn trace_and_evaluate_share_the_fuel_bound() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let q = Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(10), Query::int(20)]),
            )],
        );
        let defs = DefEnv::new();
        let run = |max| trace(&cfg, &defs, &mut store.clone(), &q, &mut FirstChooser, max);
        let k =
            crate::machine::evaluate(&cfg, &defs, &mut store.clone(), &q, &mut FirstChooser, 100)
                .unwrap()
                .steps;
        let exact = run(k);
        assert_eq!(exact.steps.len() as u64, k);
        assert_eq!(
            exact.result.unwrap(),
            Value::set([Value::Int(11), Value::Int(21)])
        );
        let short = run(k - 1);
        assert_eq!(short.steps.len() as u64, k - 1);
        assert_eq!(short.result, Err(EvalError::FuelExhausted));
    }

    /// `trace` takes `evaluate`'s per-step governor checkpoint: a
    /// cancelled governor stops it before the first step.
    #[test]
    fn trace_honours_the_governor() {
        let s = schema();
        let gov = crate::governor::Governor::new(crate::governor::Limits::none());
        gov.cancel_token().cancel();
        let cfg = EvalConfig::new(&s).with_governor(&gov);
        let mut store = Store::new();
        let q = Query::int(1).add(Query::int(2));
        let t = trace(&cfg, &DefEnv::new(), &mut store, &q, &mut FirstChooser, 100);
        assert!(t.steps.is_empty());
        assert_eq!(t.result, Err(EvalError::Cancelled));
    }

    #[test]
    fn trace_reports_errors() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut store = Store::new();
        let q = Query::bool(true).add(Query::int(1));
        let t = trace(&cfg, &DefEnv::new(), &mut store, &q, &mut FirstChooser, 100);
        assert!(t.result.is_err());
        assert!(t.render(0).contains("stuck"));
    }

    #[test]
    fn render_truncates_long_states() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let mut store = Store::new();
        let q = ioql_ast::Query::set_lit((0..50).map(Query::int));
        let t = trace(&cfg, &DefEnv::new(), &mut store, &q, &mut FirstChooser, 100);
        let r = t.render(20);
        for line in r.lines() {
            assert!(line.chars().count() < 40, "line too long: {line}");
        }
    }
}
