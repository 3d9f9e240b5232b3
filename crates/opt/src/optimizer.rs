//! The optimizer proper: a bottom-up rewriter that applies the rules of
//! [`crate::rules`] once per node, reading each node's premise effects off
//! the query's `⊢` derivation.

use crate::cost::Stats;
use crate::rules;
use ioql_ast::{Program, Query};
use ioql_effects::{derive_query, infer_definition, Derivation, EffectEnv, Record};
use ioql_schema::Schema;

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

/// One `:optimize` line: the rule, padded, then its note.
impl std::fmt::Display for AppliedRewrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<28} {}", self.rule, self.note)
    }
}

/// The optimizer: statistics plus the rewrites applied so far.
pub struct Optimizer {
    stats: Stats,
    applied: Vec<AppliedRewrite>,
}

impl Optimizer {
    /// Builds an optimizer.
    pub fn new(stats: Stats) -> Self {
        Optimizer {
            stats,
            applied: Vec::new(),
        }
    }

    /// The rewrites applied so far.
    pub fn applied(&self) -> &[AppliedRewrite] {
        &self.applied
    }

    /// Optimizes `q`, whose `⊢` derivation is `derivation`: a rule fires
    /// at a node only on that node's record, found by its pre-order
    /// index in `q`.
    pub fn optimize_query(&mut self, schema: &Schema, derivation: &Derivation, q: &Query) -> Query {
        self.rewrite(schema, derivation, q, &mut 0)
    }

    /// Bottom-up rewrite of node `*next` of the pre-order: children
    /// first, then the rule for this node's record. Both rules only
    /// permute children, so each child keeps its index and record — and
    /// a rule's output is already its fixpoint: a promoted comprehension
    /// has no predicate left to move, a commuted operator is cheapest
    /// first.
    fn rewrite(
        &mut self,
        schema: &Schema,
        derivation: &Derivation,
        q: &Query,
        next: &mut usize,
    ) -> Query {
        let node = *next;
        *next += 1;
        let cur = q.map_children(
            &(),
            |_, _, _| {},
            |c, _| self.rewrite(schema, derivation, c, next),
        );
        let fired = match derivation.at(node) {
            Some(Record::Comp(quals, _)) => {
                rules::promote_predicates(&cur, quals.iter().map(|(_, e)| e))
                    .map(|n| ("promote-predicates", n))
            }
            Some(Record::Sop(_, left, right)) => {
                rules::commute_by_cost(schema, &self.stats, &cur, left, right)
                    .map(|n| ("commute-by-cost", n))
            }
            None => None,
        };
        let Some((rule, next)) = fired else {
            return cur;
        };
        self.applied.push(AppliedRewrite {
            rule,
            note: format!("{cur}  ⇒  {next}"),
        });
        next
    }
}

/// One-shot convenience: infers each definition's signature once, in
/// scope order, derives the main query once under them, and optimizes
/// it. Returns the program with its definitions unchanged, and the
/// rewrites applied; a query `⊢` rejects is returned as it is.
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
    let derivation = derive_query(&env, &program.query)
        .map(|(_, _, d)| d)
        .unwrap_or_default();
    let mut opt = Optimizer::new(stats);
    let query = opt.optimize_query(schema, &derivation, &program.query);
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
