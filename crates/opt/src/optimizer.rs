//! The optimizer driver: a bottom-up, environment-carrying rewriter that
//! applies the rules of [`crate::rules`] to a fixpoint (with a budget).

use crate::cost::Stats;
use crate::rules;
use ioql_ast::{Program, Query};
use ioql_effects::{infer_definition, infer_query, EffectEnv};
use ioql_schema::Schema;

/// Upper bound on rewrites per query (the fixpoint budget).
const MAX_REWRITES: usize = 10_000;

/// The optimizer's settings: none are left. Kept, with `Default`, so the
/// entry point's signature is unchanged; braced, so `default()` is the
/// one way to spell it.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptOptions {}

/// A record of one applied rewrite, for explainability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedRewrite {
    /// Rule identifier.
    pub rule: &'static str,
    /// Rendered before/after (abbreviated).
    pub note: String,
}

/// The optimizer: statistics plus the rewrites applied so far.
pub struct Optimizer {
    stats: Stats,
    applied: Vec<AppliedRewrite>,
    budget: usize,
}

impl Optimizer {
    /// Builds an optimizer.
    pub fn new(stats: Stats) -> Self {
        Optimizer {
            stats,
            applied: Vec::new(),
            budget: MAX_REWRITES,
        }
    }

    /// The rewrites applied so far.
    pub fn applied(&self) -> &[AppliedRewrite] {
        &self.applied
    }

    /// Optimizes a query under `env`, whose `defs` are the signatures of
    /// the definitions it may call.
    pub fn optimize_query(&mut self, env: &EffectEnv<'_>, q: &Query) -> Query {
        self.rewrite(env, q)
    }

    fn note(&mut self, rule: &'static str, before: &Query, after: &Query) {
        self.applied.push(AppliedRewrite {
            rule,
            note: format!("{before}  ⇒  {after}"),
        });
    }

    /// Bottom-up rewrite: children first (each under its scope: a
    /// generator whose rewritten source has a set type binds its element
    /// type for later qualifiers and the head), then local rules to a
    /// fixpoint. Neither rule changes a child, so the children stay
    /// rewritten.
    fn rewrite(&mut self, env: &EffectEnv<'_>, q: &Query) -> Query {
        let mut cur = q.map_children(
            env,
            |inner, x, src| {
                if let Ok((t, _)) = infer_query(inner, src) {
                    if let Some(elem) = t.as_set_elem() {
                        inner.to_mut().vars.insert(x.clone(), elem.clone());
                    }
                }
            },
            |c, env| self.rewrite(env, c),
        );
        while self.budget > 0 {
            let Some(next) = self.apply_local(env, &cur) else {
                break;
            };
            self.budget -= 1;
            cur = next;
        }
        cur
    }

    fn apply_local(&mut self, env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
        let (rule, next) = if let Some(n) = rules::promote_predicates(env, q) {
            ("promote-predicates", n)
        } else {
            (
                "commute-by-cost",
                rules::commute_by_cost(env, &self.stats, q)?,
            )
        };
        self.note(rule, q, &next);
        Some(next)
    }
}

/// One-shot convenience: infers each definition's signature once, in
/// scope order, and optimizes the main query under them. Returns the
/// program with its definitions unchanged, and the rewrites applied.
pub fn optimize(
    schema: &Schema,
    program: &Program,
    stats: Stats,
    _options: OptOptions,
) -> (Program, Vec<AppliedRewrite>) {
    let mut env = EffectEnv::new(schema);
    for def in &program.defs {
        if let Ok(sig) = infer_definition(&env, def) {
            env.defs.insert(def.name.clone(), sig);
        }
    }
    let mut opt = Optimizer::new(stats);
    let query = opt.optimize_query(&env, &program.query);
    let program = Program {
        defs: program.defs.clone(),
        query,
    };
    (program, opt.applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ClassName, IntOp, Qualifier, Type, VarName};

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain(
                "P",
                ClassName::object(),
                "Ps",
                [AttrDef::new("n", Type::Int)],
            ),
            ClassDef::plain(
                "F",
                ClassName::object(),
                "Fs",
                [AttrDef::new("n", Type::Int)],
            ),
        ])
        .unwrap()
    }

    fn opt_q(schema: &Schema, q: &Query) -> (Query, Vec<AppliedRewrite>) {
        let (p, r) = optimize(
            schema,
            &Program::query_only(q.clone()),
            Stats::new(),
            OptOptions::default(),
        );
        (p.query, r)
    }

    #[test]
    fn commutes_cheap_side_first_when_safe() {
        let s = schema();
        let mut stats = Stats::new();
        stats.set("Ps", 10_000);
        stats.set("Fs", 3);
        let q = Query::extent("Ps").intersect(Query::extent("Fs"));
        let (p, applied) = optimize(&s, &Program::query_only(q), stats, OptOptions::default());
        assert_eq!(p.query, Query::extent("Fs").intersect(Query::extent("Ps")));
        assert!(applied.iter().any(|r| r.rule == "commute-by-cost"));
    }

    #[test]
    fn refuses_to_commute_interfering_operands() {
        // The paper's §4 counterexample shape: one side reads Fs, the
        // other adds an F. Even with a huge cost skew the rewrite must
        // not fire.
        let s = schema();
        let mut stats = Stats::new();
        stats.set("Fs", 10_000);
        let reader = Query::extent("Fs");
        let adder = Query::set_lit([Query::new_obj("F", [("n", Query::int(1))])]);
        let q = reader.union(adder);
        let (p, applied) = optimize(
            &s,
            &Program::query_only(q.clone()),
            stats,
            OptOptions::default(),
        );
        assert_eq!(p.query, q);
        assert!(applied.iter().all(|r| r.rule != "commute-by-cost"));
    }

    #[test]
    fn promotes_independent_predicate() {
        let s = schema();
        // { x.n | x <- Ps, y <- Fs, x.n < 5 } — the predicate only needs
        // x, so it moves before the y generator.
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Gen(VarName::new("y"), Query::extent("Fs")),
                Qualifier::Pred(Query::IntBin(
                    IntOp::Lt,
                    Box::new(Query::var("x").attr("n")),
                    Box::new(Query::int(5)),
                )),
            ],
        );
        let (out, applied) = opt_q(&s, &q);
        if let Query::Comp(_, quals) = &out {
            assert!(matches!(quals[1], Qualifier::Pred(_)), "got {out}");
            assert!(matches!(quals[2], Qualifier::Gen(_, _)));
        } else {
            panic!("expected comprehension, got {out}");
        }
        assert!(applied.iter().any(|r| r.rule == "promote-predicates"));
    }

    #[test]
    fn does_not_promote_dependent_predicate() {
        let s = schema();
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Gen(VarName::new("y"), Query::extent("Fs")),
                Qualifier::Pred(Query::var("y").attr("n").int_eq(Query::var("x").attr("n"))),
            ],
        );
        let (out, _) = opt_q(&s, &q);
        if let Query::Comp(_, quals) = &out {
            assert!(matches!(quals[2], Qualifier::Pred(_)));
        } else {
            panic!("expected comprehension");
        }
    }

    #[test]
    fn does_not_promote_effectful_predicate() {
        let s = schema();
        // Predicate creates an F — promoting it would change how many
        // objects get created.
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Gen(VarName::new("y"), Query::extent("Fs")),
                Qualifier::Pred(
                    Query::new_obj("F", [("n", Query::int(1))])
                        .attr("n")
                        .int_eq(Query::int(1)),
                ),
            ],
        );
        let (out, _) = opt_q(&s, &q);
        if let Query::Comp(_, quals) = &out {
            assert!(matches!(quals[2], Qualifier::Pred(_)), "got {out}");
        } else {
            panic!("expected comprehension");
        }
    }
}
