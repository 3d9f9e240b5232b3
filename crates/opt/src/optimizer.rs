//! The optimizer driver: a bottom-up, environment-carrying rewriter that
//! applies the rules of [`crate::rules`] to a fixpoint (with a budget).

use crate::cost::Stats;
use crate::rules;
use ioql_ast::{DefName, Definition, Program, Qualifier, Query};
use ioql_effects::{infer_definition, infer_query, EffectEnv};
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// The optimizer's one setting: its fixpoint budget.
#[derive(Clone, Copy, Debug)]
pub struct OptOptions {
    /// Upper bound on rewrites per query (fixpoint budget).
    pub max_rewrites: usize,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            max_rewrites: 10_000,
        }
    }
}

impl OptOptions {
    /// A zero budget: no rule ever fires.
    pub fn none() -> Self {
        OptOptions { max_rewrites: 0 }
    }
}

/// A record of one applied rewrite, for explainability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedRewrite {
    /// Rule identifier.
    pub rule: &'static str,
    /// Rendered before/after (abbreviated).
    pub note: String,
}

/// The optimizer: schema + statistics + (for inlining) the definitions
/// in scope.
pub struct Optimizer<'s> {
    schema: &'s Schema,
    stats: Stats,
    defs: BTreeMap<DefName, Definition>,
    applied: Vec<AppliedRewrite>,
    budget: usize,
}

impl<'s> Optimizer<'s> {
    /// Builds an optimizer.
    pub fn new(schema: &'s Schema, stats: Stats, options: OptOptions) -> Self {
        Optimizer {
            schema,
            stats,
            defs: BTreeMap::new(),
            applied: Vec::new(),
            budget: options.max_rewrites,
        }
    }

    /// The rewrites applied so far.
    pub fn applied(&self) -> &[AppliedRewrite] {
        &self.applied
    }

    /// Optimizes a whole program: definition bodies first, then the main
    /// query with the definitions available for inlining.
    pub fn optimize_program(&mut self, program: &Program) -> Program {
        let mut env = EffectEnv::new(self.schema);
        let defs = program
            .defs
            .iter()
            .map(|def| self.bring_into_scope(&mut env, def).clone())
            .collect();
        let query = self.rewrite(&env, &program.query);
        Program { defs, query }
    }

    /// As [`optimize_program`](Self::optimize_program) over borrowed
    /// definitions (in scope order), keeping only the optimized query.
    pub fn optimize_in_scope<'d>(
        &mut self,
        defs: impl IntoIterator<Item = &'d Definition>,
        query: &Query,
    ) -> Query {
        let mut env = EffectEnv::new(self.schema);
        for def in defs {
            self.bring_into_scope(&mut env, def);
        }
        self.rewrite(&env, query)
    }

    /// Optimizes `def`'s body under `env`, then adds the result to `env`
    /// and to the definitions available for inlining.
    fn bring_into_scope(&mut self, env: &mut EffectEnv<'s>, def: &Definition) -> &Definition {
        // Bind parameters for the body pass.
        let mut inner = env.clone();
        for (x, t) in &def.params {
            inner = inner.bind(x.clone(), t.clone());
        }
        let body = self.rewrite(&inner, &def.body);
        let optimized = Definition {
            name: def.name.clone(),
            params: def.params.clone(),
            body,
        };
        if let Ok((fnty, eff)) = infer_definition(env, &optimized) {
            env.defs.insert(def.name.clone(), (fnty, eff));
        }
        self.defs.insert(def.name.clone(), optimized);
        &self.defs[&def.name]
    }

    /// Optimizes a single query under the given environment.
    pub fn optimize_query(&mut self, env: &EffectEnv<'s>, q: &Query) -> Query {
        self.rewrite(env, q)
    }

    fn note(&mut self, rule: &'static str, before: &Query, after: &Query) {
        self.applied.push(AppliedRewrite {
            rule,
            note: format!("{before}  ⇒  {after}"),
        });
    }

    /// Bottom-up rewrite: children first (with correctly extended
    /// environments), then local rules to a fixpoint.
    fn rewrite(&mut self, env: &EffectEnv<'s>, q: &Query) -> Query {
        let rebuilt = self.rewrite_children(env, q);
        let mut cur = rebuilt;
        loop {
            if self.budget == 0 {
                return cur;
            }
            match self.apply_local(env, &cur) {
                Some(next) => {
                    self.budget -= 1;
                    // Newly exposed children (e.g. an inlined body) get
                    // their own bottom-up pass.
                    cur = self.rewrite_children(env, &next);
                }
                None => return cur,
            }
        }
    }

    fn apply_local(&mut self, env: &EffectEnv<'s>, q: &Query) -> Option<Query> {
        if let Some(n) = rules::fold_constants(q) {
            self.note("fold-constants", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::collapse_same_branches(env, q) {
            self.note("collapse-same-branches", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::drop_true_predicates(q) {
            self.note("drop-true-predicates", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::collapse_false_comprehension(env, q) {
            self.note("collapse-false-comprehension", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::promote_predicates(env, q) {
            self.note("promote-predicates", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::unnest_generator(env, q) {
            self.note("unnest-generator", q, &n);
            return Some(n);
        }
        if let Some(n) = rules::commute_by_cost(env, &self.stats, q) {
            self.note("commute-by-cost", q, &n);
            return Some(n);
        }
        self.inline_call(env, q)
    }

    /// Definition inlining (β at the query level). Guards per argument:
    /// a literal value, or a pure & divergence-free expression — either
    /// way, changing how many times it is evaluated (0 or many, under a
    /// comprehension body) is unobservable.
    fn inline_call(&mut self, env: &EffectEnv<'s>, q: &Query) -> Option<Query> {
        let Query::Call(d, args) = q else { return None };
        let def = self.defs.get(d)?.clone();
        if def.params.len() != args.len() {
            return None;
        }
        for (i, arg) in args.iter().enumerate() {
            let is_value = arg.is_value();
            if !is_value {
                if arg.contains_invoke() {
                    return None;
                }
                let (_, e) = infer_query(env, arg).ok()?;
                if !e.is_empty() {
                    return None;
                }
            }
            // Parameters are substituted one after another, so an
            // argument that mentions a later parameter's name would be
            // rewritten on that parameter's turn: decline.
            let free = arg.free_vars();
            if def.params[i + 1..].iter().any(|(x, _)| free.contains(x)) {
                return None;
            }
        }
        let mut body = def.body.clone();
        for ((x, _), arg) in def.params.iter().zip(args) {
            body = rules::subst_query(&body, x, arg);
        }
        self.note("inline-definition", q, &body);
        Some(body)
    }

    fn rewrite_children(&mut self, env: &EffectEnv<'s>, q: &Query) -> Query {
        match q {
            Query::Lit(_) | Query::Var(_) | Query::Extent(_) => q.clone(),
            Query::SetLit(items) => {
                Query::SetLit(items.iter().map(|i| self.rewrite(env, i)).collect())
            }
            Query::SetBin(op, a, b) => Query::SetBin(
                *op,
                Box::new(self.rewrite(env, a)),
                Box::new(self.rewrite(env, b)),
            ),
            Query::IntBin(op, a, b) => Query::IntBin(
                *op,
                Box::new(self.rewrite(env, a)),
                Box::new(self.rewrite(env, b)),
            ),
            Query::IntEq(a, b) => Query::IntEq(
                Box::new(self.rewrite(env, a)),
                Box::new(self.rewrite(env, b)),
            ),
            Query::ObjEq(a, b) => Query::ObjEq(
                Box::new(self.rewrite(env, a)),
                Box::new(self.rewrite(env, b)),
            ),
            Query::Record(fields) => Query::Record(
                fields
                    .iter()
                    .map(|(l, fq)| (l.clone(), self.rewrite(env, fq)))
                    .collect(),
            ),
            Query::Field(inner, l) => Query::Field(Box::new(self.rewrite(env, inner)), l.clone()),
            Query::Call(d, args) => Query::Call(
                d.clone(),
                args.iter().map(|a| self.rewrite(env, a)).collect(),
            ),
            Query::Size(inner) => Query::Size(Box::new(self.rewrite(env, inner))),
            Query::Sum(inner) => Query::Sum(Box::new(self.rewrite(env, inner))),
            Query::Cast(c, inner) => Query::Cast(c.clone(), Box::new(self.rewrite(env, inner))),
            Query::Attr(inner, a) => Query::Attr(Box::new(self.rewrite(env, inner)), a.clone()),
            Query::Invoke(recv, m, args) => Query::Invoke(
                Box::new(self.rewrite(env, recv)),
                m.clone(),
                args.iter().map(|a| self.rewrite(env, a)).collect(),
            ),
            Query::New(c, attrs) => Query::New(
                c.clone(),
                attrs
                    .iter()
                    .map(|(a, aq)| (a.clone(), self.rewrite(env, aq)))
                    .collect(),
            ),
            Query::If(c, t, e) => Query::If(
                Box::new(self.rewrite(env, c)),
                Box::new(self.rewrite(env, t)),
                Box::new(self.rewrite(env, e)),
            ),
            Query::Comp(head, quals) => {
                let mut inner = env.clone();
                let mut out = Vec::with_capacity(quals.len());
                for cq in quals {
                    match cq {
                        Qualifier::Pred(p) => {
                            out.push(Qualifier::Pred(self.rewrite(&inner, p)));
                        }
                        Qualifier::Gen(x, src) => {
                            let src2 = self.rewrite(&inner, src);
                            if let Ok((t, _)) = infer_query(&inner, &src2) {
                                if let Some(elem) = t.as_set_elem() {
                                    inner = inner.bind(x.clone(), elem.clone());
                                }
                            }
                            out.push(Qualifier::Gen(x.clone(), src2));
                        }
                    }
                }
                let head2 = self.rewrite(&inner, head);
                Query::Comp(Box::new(head2), out)
            }
        }
    }
}

/// One-shot convenience: optimizes a program with the given statistics
/// and options, returning the optimized program and the rewrites applied.
pub fn optimize(
    schema: &Schema,
    program: &Program,
    stats: Stats,
    options: OptOptions,
) -> (Program, Vec<AppliedRewrite>) {
    let mut opt = Optimizer::new(schema, stats, options);
    let out = opt.optimize_program(program);
    let applied = opt.applied().to_vec();
    (out, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ClassName, IntOp, Type, Value, VarName};

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
    fn constants_fold() {
        let s = schema();
        let q = Query::int(1).add(Query::int(2)).add(Query::int(3));
        let (out, applied) = opt_q(&s, &q);
        assert_eq!(out, Query::int(6));
        assert!(applied.iter().all(|r| r.rule == "fold-constants"));
    }

    #[test]
    fn if_folds_and_same_branch_collapses() {
        let s = schema();
        let q = Query::ite(Query::bool(true), Query::int(1), Query::int(2));
        assert_eq!(opt_q(&s, &q).0, Query::int(1));

        // Same branches with a pure condition.
        let q = Query::ite(
            Query::extent("Ps").size_of().int_eq(Query::int(0)),
            Query::int(7),
            Query::int(7),
        );
        // Condition reads Ps — reads are not "value stable" (∅) so the
        // conservative guard refuses. A genuinely pure condition folds:
        let pure = Query::ite(Query::var("b"), Query::int(7), Query::int(7));
        let mut env = ioql_effects::EffectEnv::new(&s);
        env = env.bind(VarName::new("b"), Type::Bool);
        let mut o = Optimizer::new(&s, Stats::new(), OptOptions::default());
        assert_eq!(o.optimize_query(&env, &pure), Query::int(7));
        let mut o2 = Optimizer::new(&s, Stats::new(), OptOptions::default());
        let kept = o2.optimize_query(&ioql_effects::EffectEnv::new(&s), &q);
        assert!(matches!(kept, Query::If(_, _, _)));
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

    #[test]
    fn false_predicate_collapses_readonly_comprehension() {
        let s = schema();
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::bool(false)),
            ],
        );
        let (out, _) = opt_q(&s, &q);
        assert_eq!(out, Query::Lit(Value::empty_set()));

        // But not when the prefix creates objects.
        let q2 = Query::comp(
            Query::var("y").attr("n"),
            [
                Qualifier::Gen(
                    VarName::new("y"),
                    Query::set_lit([Query::new_obj("F", [("n", Query::int(1))])]),
                ),
                Qualifier::Pred(Query::bool(false)),
            ],
        );
        let (out2, _) = opt_q(&s, &q2);
        assert!(matches!(out2, Query::Comp(_, _)), "got {out2}");
    }

    #[test]
    fn inlines_pure_definitions() {
        let s = schema();
        let p = Program::new(
            [Definition::new(
                "inc",
                [(VarName::new("x"), Type::Int)],
                Query::var("x").add(Query::int(1)),
            )],
            Query::call("inc", [Query::int(4)]),
        );
        let (out, applied) = optimize(&s, &p, Stats::new(), OptOptions::default());
        // Inlined and folded.
        assert_eq!(out.query, Query::int(5));
        assert!(applied.iter().any(|r| r.rule == "inline-definition"));
    }

    #[test]
    fn does_not_inline_effectful_args() {
        let s = schema();
        let p = Program::new(
            [Definition::new(
                "pair",
                [(VarName::new("x"), Type::class("F"))],
                Query::var("x").obj_eq(Query::var("x")),
            )],
            Query::call("pair", [Query::new_obj("F", [("n", Query::int(1))])]),
        );
        let (out, _) = optimize(&s, &p, Stats::new(), OptOptions::default());
        // Inlining would duplicate the `new`; must stay a call.
        assert!(matches!(out.query, Query::Call(_, _)), "got {}", out.query);
    }

    #[test]
    fn unnests_pure_inner_comprehension() {
        let s = schema();
        // { x + 1 | x <- { p.n | p <- Ps } } ⇒ { p.n + 1 | p <- Ps }
        let q = Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::comp(
                    Query::var("p").attr("n"),
                    [Qualifier::Gen(VarName::new("p"), Query::extent("Ps"))],
                ),
            )],
        );
        let (out, applied) = opt_q(&s, &q);
        assert!(
            applied.iter().any(|r| r.rule == "unnest-generator"),
            "{applied:?}"
        );
        if let Query::Comp(head, quals) = &out {
            assert_eq!(quals.len(), 1);
            assert!(matches!(quals[0], Qualifier::Gen(_, Query::Extent(_))));
            assert_eq!(**head, Query::var("p").attr("n").add(Query::int(1)));
        } else {
            panic!("expected comprehension, got {out}");
        }
    }

    #[test]
    fn does_not_unnest_effectful_inner() {
        let s = schema();
        // Inner head creates an F: collapsing duplicates vs per-row runs
        // would change how many objects exist. Must not fire.
        let q = Query::comp(
            Query::var("x"),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::comp(
                    Query::new_obj("F", [("n", Query::var("p").attr("n"))]).attr("n"),
                    [Qualifier::Gen(VarName::new("p"), Query::extent("Ps"))],
                ),
            )],
        );
        let (_, applied) = opt_q(&s, &q);
        assert!(applied.iter().all(|r| r.rule != "unnest-generator"));
    }

    #[test]
    fn does_not_unnest_when_binders_clash() {
        let s = schema();
        // Inner binder p would capture the outer predicate's free p.
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen(VarName::new("p"), Query::extent("Ps")),
                Qualifier::Gen(
                    VarName::new("x"),
                    Query::comp(
                        Query::var("p").attr("n"),
                        [Qualifier::Gen(VarName::new("p"), Query::extent("Fs"))],
                    ),
                ),
                Qualifier::Pred(Query::var("p").attr("n").int_eq(Query::var("x"))),
            ],
        );
        let (_, applied) = opt_q(&s, &q);
        assert!(
            applied.iter().all(|r| r.rule != "unnest-generator"),
            "{applied:?}"
        );
    }

    /// Runs `program` on the spec machine before and after optimization,
    /// over `Ps` = three objects with `n` = 1, 2, 3, and returns both
    /// values with the rules that fired.
    fn before_and_after(program: &Program) -> (Value, Value, Vec<&'static str>) {
        let s = schema();
        let mut store = ioql_store::Store::new();
        store.declare_extent("Ps", "P");
        for n in 1..=3 {
            let object = ioql_store::Object::new("P", [("n", Value::Int(n))]);
            store
                .create(object, [ioql_ast::ExtentName::new("Ps")])
                .unwrap();
        }
        let (optimized, applied) = optimize(&s, program, Stats::new(), OptOptions::default());
        let cfg = ioql_eval::EvalConfig::new(&s);
        let run = |p: &Program| {
            ioql_eval::run_program(&cfg, p, &mut store.clone(), 100_000)
                .unwrap()
                .value
        };
        (
            run(program),
            run(&optimized),
            applied.iter().map(|r| r.rule).collect(),
        )
    }

    fn ps_scan(head: Query, binder: &str) -> Query {
        Query::comp(
            head,
            [Qualifier::Gen(VarName::new(binder), Query::extent("Ps"))],
        )
    }

    #[test]
    fn unnesting_renames_a_binder_the_inner_head_mentions() {
        // `group n in { p.n | p <- Ps } by n`, elaborated: the part
        // unnests to `{ p.n | p <- Ps, p.n = w }`, and unnesting the outer
        // generator then substitutes `w := p.n` under that `p <- Ps`.
        let ns = || ps_scan(Query::var("p").attr("n"), "p");
        let part = Query::comp(
            Query::var("n"),
            [
                Qualifier::Gen(VarName::new("n"), ns()),
                Qualifier::Pred(Query::var("n").int_eq(Query::var("w"))),
            ],
        );
        let q = Query::comp(
            Query::record([("key", Query::var("w")), ("part", part)]),
            [Qualifier::Gen(VarName::new("w"), ns())],
        );
        let (before, after, rules) = before_and_after(&Program::query_only(q));
        assert_eq!(
            rules.iter().filter(|r| **r == "unnest-generator").count(),
            2
        );
        assert_eq!(before, after);

        // The same capture by a *later outer* generator: `z <- Ps`
        // rebinds a name the inner head `z.n` mentions.
        let q = Query::comp(
            Query::var("x").add(Query::var("z").attr("n")),
            [
                Qualifier::Gen(VarName::new("z"), Query::extent("Ps")),
                Qualifier::Gen(
                    VarName::new("x"),
                    ps_scan(Query::var("z").attr("n").add(Query::int(10)), "q"),
                ),
                Qualifier::Gen(VarName::new("z"), Query::extent("Ps")),
            ],
        );
        let (before, after, rules) = before_and_after(&Program::query_only(q));
        assert!(rules.contains(&"unnest-generator"), "{rules:?}");
        assert_eq!(before, after);
    }

    #[test]
    fn inlining_renames_a_binder_the_argument_mentions() {
        // `older(p)` under `p <- Ps`: the body's own `p <- Ps` must not
        // capture the argument.
        let older = Definition::new(
            "older",
            [(VarName::new("than"), Type::class("P"))],
            Query::comp(
                Query::var("p"),
                [
                    Qualifier::Gen(VarName::new("p"), Query::extent("Ps")),
                    Qualifier::Pred(Query::IntBin(
                        IntOp::Lt,
                        Box::new(Query::var("than").attr("n")),
                        Box::new(Query::var("p").attr("n")),
                    )),
                ],
            ),
        );
        let q = ps_scan(
            Query::record([
                ("a", Query::var("p").attr("n")),
                ("c", Query::call("older", [Query::var("p")]).size_of()),
            ]),
            "p",
        );
        let (before, after, rules) = before_and_after(&Program::new([older], q));
        assert!(rules.contains(&"inline-definition"), "{rules:?}");
        assert_eq!(before, after);

        // Parameters go one at a time: `sub(b, 1)` under a caller's `b`
        // must not have that `b` rewritten on parameter `b`'s turn.
        let sub = Definition::new(
            "sub",
            [
                (VarName::new("a"), Type::Int),
                (VarName::new("b"), Type::Int),
            ],
            Query::IntBin(
                IntOp::Sub,
                Box::new(Query::var("a")),
                Box::new(Query::var("b")),
            ),
        );
        let q = Query::comp(
            Query::call("sub", [Query::var("b"), Query::int(1)]),
            [Qualifier::Gen(
                VarName::new("b"),
                ps_scan(Query::var("p").attr("n"), "p"),
            )],
        );
        let (before, after, _) = before_and_after(&Program::new([sub], q));
        assert_eq!(before, after);
    }

    #[test]
    fn ablation_none_is_identity() {
        let s = schema();
        let q = Query::int(1).add(Query::int(2));
        let (p, applied) = optimize(
            &s,
            &Program::query_only(q.clone()),
            Stats::new(),
            OptOptions::none(),
        );
        assert_eq!(p.query, q);
        assert!(applied.is_empty());
    }
}
