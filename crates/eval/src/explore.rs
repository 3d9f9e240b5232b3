//! Exhaustive exploration of the non-deterministic reduction relation.
//!
//! A single run with a [`Chooser`](crate::Chooser) samples one path
//! through `—↠`; this module enumerates **all** paths by systematic
//! backtracking over `(ND comp)` choice points, materialising the entire
//! set of outcomes the paper's relation admits. It is the test engine for:
//!
//! * Theorem 4 (functional queries are deterministic up to oid bijection),
//! * Theorem 7 (`⊢'`-accepted queries are deterministic up to bijection),
//! * Theorem 8 (safe commutation) and the optimizer's soundness harness,
//! * the paper's §1 examples, whose two observable outcomes
//!   (`{"Peter","Jill"}` vs `{"Peter","Jack"}`) it reproduces exactly.
//!
//! The enumeration is exponential in the number of choice points (as the
//! relation itself is); callers keep extents small. `max_runs` bounds
//! runaway exploration and is reported via [`Exploration::truncated`].

use crate::chooser::ScriptedChooser;
use crate::machine::{evaluate, DefEnv, EvalConfig, EvalError};
use ioql_ast::Query;
use ioql_effects::Effect;
use ioql_store::{equiv_outcomes, Outcome, Store};

/// The result of exhaustively exploring a query's reduction tree.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// One entry per complete run: the final store and value, or the
    /// error (e.g. a diverging method on that path).
    pub runs: Vec<Result<Outcome, EvalError>>,
    /// Effect trace of each run (same indexing as `runs`).
    pub effects: Vec<Effect>,
    /// Whether enumeration stopped early because `max_runs` was hit.
    pub truncated: bool,
}

impl Exploration {
    /// The successful outcomes.
    pub fn successes(&self) -> impl Iterator<Item = &Outcome> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    /// The distinct successful outcomes up to oid bijection.
    pub fn distinct_outcomes(&self) -> Vec<&Outcome> {
        let mut distinct: Vec<&Outcome> = Vec::new();
        for o in self.successes() {
            if !distinct.iter().any(|d| equiv_outcomes(d, o)) {
                distinct.push(o);
            }
        }
        distinct
    }

    /// Whether any path failed to produce a value (divergence / stuck).
    pub fn any_failure(&self) -> bool {
        self.runs.iter().any(|r| r.is_err())
    }
}

/// Enumerates every reduction path of `q` from `store` (which is cloned
/// per run, never mutated).
pub fn explore_outcomes(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &Store,
    q: &Query,
    max_steps: u64,
    max_runs: usize,
) -> Exploration {
    let mut runs = Vec::new();
    let mut effects = Vec::new();
    let mut truncated = false;

    // Depth-first enumeration of choice scripts. `script` is the current
    // prefix of choices; after each run we advance the last incrementable
    // position (standard mixed-radix successor using the recorded
    // arities).
    let mut script: Vec<usize> = Vec::new();
    loop {
        if runs.len() >= max_runs {
            truncated = true;
            break;
        }
        let mut chooser = ScriptedChooser::new(script.clone());
        let mut st = store.clone();
        let result = evaluate(cfg, defs, &mut st, q, &mut chooser, max_steps);
        match result {
            Ok(ev) => {
                effects.push(ev.effect.clone());
                runs.push(Ok(Outcome::new(st, ev.value)));
            }
            Err(e) => {
                effects.push(Effect::empty());
                runs.push(Err(e));
            }
        }
        // Successor script: the arities the run actually encountered.
        let arities = chooser.arities.clone();
        let mut taken = chooser.taken();
        // Find the rightmost position that can be incremented.
        let mut pos = arities.len();
        loop {
            if pos == 0 {
                // Exhausted the whole tree.
                return Exploration {
                    runs,
                    effects,
                    truncated,
                };
            }
            pos -= 1;
            if taken[pos] + 1 < arities[pos] {
                taken[pos] += 1;
                taken.truncate(pos + 1);
                script = taken;
                break;
            }
        }
    }

    Exploration {
        runs,
        effects,
        truncated,
    }
}

/// Do all complete runs of `q` agree up to oid bijection (and none fail)?
/// This is the executable statement of Theorems 4 and 7.
pub fn all_outcomes_equivalent(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &Store,
    q: &Query,
    max_steps: u64,
    max_runs: usize,
) -> bool {
    let ex = explore_outcomes(cfg, defs, store, q, max_steps, max_runs);
    if ex.truncated || ex.any_failure() {
        return false;
    }
    ex.distinct_outcomes().len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ClassName, Qualifier, Value, VarName};
    use ioql_schema::Schema;
    use ioql_store::Object;

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain(
                "P",
                ClassName::object(),
                "Ps",
                [AttrDef::new("n", ioql_ast::Type::Int)],
            ),
            ClassDef::plain(
                "F",
                ClassName::object(),
                "Fs",
                [AttrDef::new("n", ioql_ast::Type::Int)],
            ),
        ])
        .unwrap()
    }

    fn store_with(ns: &[i64]) -> Store {
        let mut st = Store::new();
        st.declare_extent("Ps", "P");
        st.declare_extent("Fs", "F");
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
    fn functional_query_has_one_outcome() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let st = store_with(&[1, 2, 3]);
        let q = Query::comp(
            Query::var("x").attr("n"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let ex = explore_outcomes(&cfg, &DefEnv::new(), &st, &q, 10_000, 10_000);
        // 3 elements → 3! = 6 interleavings explored...
        assert_eq!(ex.runs.len(), 6);
        assert!(!ex.truncated);
        // ...but all equivalent (Theorem 4).
        assert_eq!(ex.distinct_outcomes().len(), 1);
        assert!(all_outcomes_equivalent(
            &cfg,
            &DefEnv::new(),
            &st,
            &q,
            10_000,
            10_000
        ));
    }

    #[test]
    fn interfering_query_has_multiple_outcomes() {
        // A miniature of the paper's §1 example: the body reads the size
        // of Fs *and* creates an F, so the order of iteration shows.
        // { size(Fs) + 10*x | x <- {1, 2} , create an F first }
        // Encoded: { (new F(n: x)).n + size(Fs) | x <- {1,2} }
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let st = store_with(&[]);
        let q = Query::comp(
            Query::new_obj("F", [("n", Query::var("x"))])
                .attr("n")
                .add(Query::extent("Fs").size_of()),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(10), Query::int(20)]),
            )],
        );
        let ex = explore_outcomes(&cfg, &DefEnv::new(), &st, &q, 10_000, 10_000);
        assert!(!ex.truncated);
        // Visiting 10 first: {10+1, 20+2} = {11, 22}; visiting 20 first:
        // {20+1, 10+2} = {21, 12}.
        assert_eq!(ex.distinct_outcomes().len(), 2);
        assert!(!all_outcomes_equivalent(
            &cfg,
            &DefEnv::new(),
            &st,
            &q,
            10_000,
            10_000
        ));
    }

    #[test]
    fn object_creation_alone_is_deterministic_up_to_bijection() {
        // { new F(n: x).n | x <- {1,2} }: different fresh oids per order,
        // but outcomes are bijection-equivalent (no read of Fs).
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let st = store_with(&[]);
        let q = Query::comp(
            Query::new_obj("F", [("n", Query::var("x"))]).attr("n"),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(1), Query::int(2)]),
            )],
        );
        assert!(all_outcomes_equivalent(
            &cfg,
            &DefEnv::new(),
            &st,
            &q,
            10_000,
            10_000
        ));
    }

    #[test]
    fn max_runs_truncation_reported() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let st = store_with(&[1, 2, 3, 4]);
        let q = Query::comp(
            Query::var("x").attr("n"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let ex = explore_outcomes(&cfg, &DefEnv::new(), &st, &q, 10_000, 5);
        assert!(ex.truncated);
        assert_eq!(ex.runs.len(), 5);
    }

    #[test]
    fn effect_traces_recorded_per_run() {
        let s = schema();
        let cfg = EvalConfig::new(&s);
        let st = store_with(&[1]);
        let q = Query::extent("Ps").size_of();
        let ex = explore_outcomes(&cfg, &DefEnv::new(), &st, &q, 10_000, 100);
        assert_eq!(ex.runs.len(), 1);
        assert!(ex.effects[0].reads.contains(&ClassName::new("P")));
    }
}
