//! Optimizer soundness (paper Theorem 8 and the §4 discussion,
//! DESIGN.md T8): every rewrite preserves the *set of outcomes* of the
//! non-deterministic semantics, up to oid bijection.
//!
//! The harness exhaustively explores original and rewritten queries and
//! compares outcome sets both ways: for the whole optimizer, and for each
//! of its two rules — `commute-by-cost` (Theorem 8 itself) and
//! `promote-predicates` — applied alone, with a negative control per
//! guard: a rewrite the guard refuses really does change the outcome set.

use ioql_ast::{Qualifier, Query};
use ioql_effects::{infer_query, EffectEnv, Thm7};
use ioql_eval::{explore_outcomes, DefEnv, EvalConfig};
use ioql_opt::{optimize, rules, OptOptions, Stats};
use ioql_store::{equiv_outcomes, Outcome};
use ioql_testkit::fixtures::{jack_jill, jack_jill_query, persons_employees, Fixture};
use ioql_testkit::gen::{GenConfig, QueryGen};
use ioql_types::{check_query, TypeEnv};

/// Outcome-set equivalence: every distinct outcome of `a` has an
/// ∼-equivalent in `b` and vice versa.
fn same_outcome_sets(a: &[&Outcome], b: &[&Outcome]) -> bool {
    a.iter().all(|x| b.iter().any(|y| equiv_outcomes(x, y)))
        && b.iter().all(|y| a.iter().any(|x| equiv_outcomes(x, y)))
}

/// The fixture's extent sizes, as the kernel seeds the cost model.
fn stats_of(fx: &Fixture) -> Stats {
    let mut stats = Stats::new();
    for (e, _, members) in fx.store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    stats
}

/// Explores `before` and `after` exhaustively and asserts equal outcome
/// sets, neither truncated nor failing.
fn assert_same_outcomes(fx: &Fixture, before: &Query, after: &Query, note: &str) {
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let b = explore_outcomes(&cfg, &defs, &fx.store, before, 200_000, 3_000);
    let a = explore_outcomes(&cfg, &defs, &fx.store, after, 200_000, 3_000);
    assert!(
        !b.truncated && !a.truncated,
        "{note}: exploration truncated"
    );
    assert!(!b.any_failure() && !a.any_failure(), "{note}");
    assert!(
        same_outcome_sets(&b.distinct_outcomes(), &a.distinct_outcomes()),
        "{note}: outcome sets diverge\noriginal:  {before}\nrewritten: {after}",
    );
}

fn assert_optimization_sound(fx: &Fixture, src_or_query: &Query, seed_note: &str) {
    let tenv = TypeEnv::new(&fx.schema);
    let (elab, _) = check_query(&tenv, src_or_query).unwrap();
    let (optimized, applied) = optimize(
        &fx.schema,
        &ioql_ast::Program::query_only(elab.clone()),
        stats_of(fx),
        OptOptions::default(),
    );
    let rules: Vec<_> = applied.iter().map(|r| r.rule).collect();
    assert_same_outcomes(
        fx,
        &elab,
        &optimized.query,
        &format!("{seed_note} after {rules:?}"),
    );
}

/// The generated population: 200 seeds, queries of size ≤ 50.
fn generated(fx: &Fixture) -> Vec<Query> {
    let gen_cfg = GenConfig {
        max_depth: 4,
        ..Default::default()
    };
    (0..200u64)
        .map(|seed| {
            let mut g = QueryGen::new(&fx.schema, seed, gen_cfg);
            let target = g.target_type();
            g.query(&target)
        })
        .filter(|q| q.size() <= 50)
        .collect()
}

/// Hand-picked shapes over `jack_jill`: each rule firing, each guard
/// refusing, and shapes no rule rewrites.
const TARGETED: &[&str] = &[
    // promote-predicates (independent predicate after second gen)
    "{ x.name + y.name | x <- Ps, y <- Ps, x.name < 2 }",
    // commute-by-cost on pure operands
    "{ x.name | x <- Ps } intersect { 1 }",
    // constants, literal predicates, `if` and nested comprehensions:
    // identities now, and must stay so
    "{ 1 + 2 * 3 }",
    "{ x.name | x <- Ps, true }",
    "{ x.name | x <- Ps, false }",
    "if size(Ps) = 0 then 7 else 7",
    "{ x + 1 | x <- { p.name | p <- Ps } }",
    "{ x + y | x <- { p.name | p <- Ps }, y <- { q.name | q <- Ps } }",
    "{ x | x <- { (new F(name: p.name, pal: p)).name | p <- Ps } }",
];

#[test]
fn optimizer_preserves_outcomes_on_generated_queries() {
    let fx = jack_jill();
    let population = generated(&fx);
    for (i, q) in population.iter().enumerate() {
        assert_optimization_sound(&fx, q, &format!("query {i}"));
    }
    assert!(population.len() > 100);
}

/// A rule as the optimizer calls it: at one node, under the binders in
/// scope there.
type Rule<'r> = &'r dyn Fn(&EffectEnv<'_>, &Query) -> Option<Query>;

/// Rewrites `q` with `rule` alone, top-down, at every node where it
/// fires, typing each generator's binder as the optimizer does. Returns
/// how many times it fired.
fn apply_alone(env: &EffectEnv<'_>, q: &mut Query, rule: Rule) -> usize {
    let mut fired = 0;
    if let Some(next) = rule(env, q) {
        *q = next;
        fired += 1;
    }
    let children: Vec<&mut Query> = match q {
        Query::Comp(head, quals) => {
            let mut inner = env.clone();
            for cq in quals {
                match cq {
                    Qualifier::Pred(p) => fired += apply_alone(&inner, p, rule),
                    Qualifier::Gen(x, src) => {
                        fired += apply_alone(&inner, src, rule);
                        let elem = infer_query(&inner, src)
                            .ok()
                            .and_then(|(t, _)| t.as_set_elem().cloned());
                        if let Some(t) = elem {
                            inner = inner.bind(x.clone(), t);
                        }
                    }
                }
            }
            return fired + apply_alone(&inner, head, rule);
        }
        Query::Lit(_) | Query::Var(_) | Query::Extent(_) => vec![],
        Query::SetLit(items) | Query::Call(_, items) => items.iter_mut().collect(),
        Query::SetBin(_, a, b)
        | Query::IntBin(_, a, b)
        | Query::IntEq(a, b)
        | Query::ObjEq(a, b) => {
            vec![&mut **a, &mut **b]
        }
        Query::Record(fields) => fields.iter_mut().map(|(_, f)| f).collect(),
        Query::New(_, attrs) => attrs.iter_mut().map(|(_, a)| a).collect(),
        Query::Field(inner, _)
        | Query::Size(inner)
        | Query::Sum(inner)
        | Query::Cast(_, inner)
        | Query::Attr(inner, _) => vec![&mut **inner],
        Query::Invoke(recv, _, args) => std::iter::once(&mut **recv).chain(args).collect(),
        Query::If(c, t, e) => vec![&mut **c, &mut **t, &mut **e],
    };
    fired
        + children
            .into_iter()
            .map(|child| apply_alone(env, child, rule))
            .sum::<usize>()
}

/// The per-rule oracle: each rule, applied alone over the generated
/// population and the targeted corpus, preserves the outcome set wherever
/// it fires — and it fires somewhere, or it is untested.
#[test]
fn each_rule_alone_preserves_outcome_sets() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let env = EffectEnv::new(&fx.schema);
    let stats = stats_of(&fx);
    let population: Vec<Query> = generated(&fx)
        .into_iter()
        .chain(
            TARGETED
                .iter()
                .chain(&[jack_jill_query()])
                .map(|s| fx.query(s)),
        )
        .map(|q| check_query(&tenv, &q).unwrap().0)
        .collect();
    let promote = |env: &EffectEnv<'_>, q: &Query| rules::promote_predicates(env, q);
    let commute = |env: &EffectEnv<'_>, q: &Query| rules::commute_by_cost(env, &stats, q);
    let survivors: [(&str, Rule); 2] = [
        ("promote-predicates", &promote),
        ("commute-by-cost", &commute),
    ];
    for (name, rule) in survivors {
        let (mut queries, mut sites) = (0, 0);
        for before in &population {
            let mut after = before.clone();
            let fired = apply_alone(&env, &mut after, rule);
            if fired > 0 {
                queries += 1;
                sites += fired;
                assert_same_outcomes(&fx, before, &after, name);
            }
        }
        println!(
            "{name}: fired {sites} time(s) in {queries} of {} queries",
            population.len()
        );
        assert!(queries > 0, "{name} fired on no query: untested");
    }
}

/// The negative control for promotion, in the style of the T8 one below:
/// the guard refuses to hoist an object-creating predicate, and forcing
/// the move really changes the outcome set (one `F` per `p` instead of
/// one per `(p, q)`).
#[test]
fn promotion_guard_failure_matches_actual_divergence() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let [written, forced] = [
        "{ p.name | p <- Ps, q <- Ps, (new F(name: 1, pal: p)).name = 1 }",
        "{ p.name | p <- Ps, (new F(name: 1, pal: p)).name = 1, q <- Ps }",
    ]
    .map(|src| check_query(&tenv, &fx.query(src)).unwrap().0);
    assert!(rules::promote_predicates(&EffectEnv::new(&fx.schema), &written).is_none());

    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let a = explore_outcomes(&cfg, &defs, &fx.store, &written, 200_000, 3_000);
    let b = explore_outcomes(&cfg, &defs, &fx.store, &forced, 200_000, 3_000);
    assert!(!a.truncated && !b.truncated);
    assert!(!same_outcome_sets(
        &a.distinct_outcomes(),
        &b.distinct_outcomes()
    ));
}

#[test]
fn t8_commutation_preserves_outcomes_when_guard_passes() {
    // Theorem 8, directly: q ∪ q' vs q' ∪ q for noninterfering pairs —
    // including pairs that *create objects* (A/A does not interfere).
    let fx = jack_jill();
    let pairs = [
        ("{ p.name | p <- Ps }", "{ 99 }"),
        (
            "{ (new F(name: 1, pal: p)).name | p <- Ps }",
            "{ p.name | p <- Ps }",
        ),
        (
            "{ (new F(name: 1, pal: p)).name | p <- Ps }",
            "{ (new F(name: 2, pal: p)).name | p <- Ps }",
        ),
    ];
    let tenv = TypeEnv::new(&fx.schema);
    let eenv = ioql_effects::EffectEnv::new(&fx.schema);
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    for (ls, rs) in pairs {
        let l = fx.query(ls);
        let r = fx.query(rs);
        let (l, _) = check_query(&tenv, &l).unwrap();
        let (r, _) = check_query(&tenv, &r).unwrap();
        let (_, el) = ioql_effects::infer_query(&eenv, &l).unwrap();
        let (_, er) = ioql_effects::infer_query(&eenv, &r).unwrap();
        assert!(
            el.noninterfering_with(&er, &fx.schema),
            "guard unexpectedly failed for {ls} / {rs}"
        );
        let fwd = l.clone().union(r.clone());
        let bwd = r.union(l);
        let a = explore_outcomes(&cfg, &defs, &fx.store, &fwd, 200_000, 3_000);
        let b = explore_outcomes(&cfg, &defs, &fx.store, &bwd, 200_000, 3_000);
        assert!(same_outcome_sets(
            &a.distinct_outcomes(),
            &b.distinct_outcomes()
        ));
    }
}

#[test]
fn t8_guard_failure_matches_actual_divergence() {
    // The §4 counterexample: the guard fails AND the outcome really
    // changes under commutation — the analysis is not crying wolf.
    let fx = persons_employees();
    let l = fx.query("{ size(Persons) }");
    let r = fx.query("{ (new Person(name: 1, address: 1)).name }");
    let tenv = TypeEnv::new(&fx.schema);
    let (l, _) = check_query(&tenv, &l).unwrap();
    let (r, _) = check_query(&tenv, &r).unwrap();
    let eenv = ioql_effects::EffectEnv::new(&fx.schema);
    let (_, el) = ioql_effects::infer_query(&eenv, &l).unwrap();
    let (_, er) = ioql_effects::infer_query(&eenv, &r).unwrap();
    assert!(!el.noninterfering_with(&er, &fx.schema));

    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let fwd = ioql_ast::Query::SetBin(
        ioql_ast::SetOp::Intersect,
        Box::new(l.clone()),
        Box::new(r.clone()),
    );
    let bwd = ioql_ast::Query::SetBin(ioql_ast::SetOp::Intersect, Box::new(r), Box::new(l));
    let a = explore_outcomes(&cfg, &defs, &fx.store, &fwd, 200_000, 3_000);
    let b = explore_outcomes(&cfg, &defs, &fx.store, &bwd, 200_000, 3_000);
    assert!(!same_outcome_sets(
        &a.distinct_outcomes(),
        &b.distinct_outcomes()
    ));
}

#[test]
fn targeted_rewrites_preserve_results() {
    let fx = jack_jill();
    // The last text is the interfering comprehension: rewrites must
    // preserve BOTH of its outcomes.
    for src in TARGETED.iter().chain(&[jack_jill_query()]) {
        assert_optimization_sound(&fx, &fx.query(src), src);
    }
}

/// A program with definitions: `optimize` rewrites its main query under
/// the definitions' signatures (no rule inlines a call) and the value is
/// unchanged.
#[test]
fn inlining_preserves_program_results() {
    use ioql_ast::Program;
    let fx = jack_jill();
    let program_src = "define inc(x: int) as x + 1; \
                       define names() as { p.name | p <- Ps }; \
                       { inc(n) | n <- names() }";
    let parsed = ioql_syntax::parse_program(program_src).unwrap();
    let resolved = fx.schema.resolve_program(&parsed);
    let checked = ioql_types::check_program(&fx.schema, &resolved, Default::default()).unwrap();
    let (optimized, _) = optimize(
        &fx.schema,
        &checked.program,
        Stats::new(),
        OptOptions::default(),
    );

    let cfg = EvalConfig::new(&fx.schema);
    let mut s1 = fx.store.clone();
    let r1 = ioql_eval::run_program(&cfg, &checked.program, &mut s1, 100_000).unwrap();
    let mut s2 = fx.store.clone();
    let r2 = ioql_eval::run_program(&cfg, &optimized, &mut s2, 100_000).unwrap();
    assert_eq!(r1.value, r2.value);
    // And the optimized main query is no dearer to run.
    let p2: Program = optimized;
    assert!(p2.query.size() > 0);
    assert!(r2.steps <= r1.steps);
}

/// Production decides Theorem 7 once, on the query as prepared, and reads
/// that verdict for the optimized text it lowers. Licensed because both
/// rules only reorder: the rewrite has the same effect, the same `new`s
/// and invocations, and calls the same definitions — so the verdict on
/// the rewrite, under its own re-inferred effect, is the same.
#[test]
fn the_optimizer_preserves_the_theorem_7_verdict() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let env = EffectEnv::new(&fx.schema);
    let population: Vec<Query> = generated(&fx)
        .into_iter()
        .chain(
            TARGETED
                .iter()
                .chain(&[jack_jill_query()])
                .map(|s| fx.query(s)),
        )
        .collect();
    let (mut queries, mut rewritten) = (0, 0);
    for q in population {
        let (elab, _) = check_query(&tenv, &q).unwrap();
        let (_, effect) = infer_query(&env, &elab).unwrap();
        let (optimized, applied) = optimize(
            &fx.schema,
            &ioql_ast::Program::query_only(elab.clone()),
            stats_of(&fx),
            OptOptions::default(),
        );
        let (_, after_effect) = infer_query(&env, &optimized.query).unwrap();
        let before = Thm7::decide(&elab, &effect, |_| None);
        let after = Thm7::decide(&optimized.query, &after_effect, |_| None);
        assert_eq!(
            before, after,
            "verdict moved\noriginal:  {elab}\nrewritten: {}",
            optimized.query
        );
        queries += 1;
        rewritten += usize::from(!applied.is_empty());
    }
    println!("Theorem 7 verdict preserved on {queries} queries, {rewritten} rewritten");
    assert!(rewritten > 0, "no query was rewritten: untested");
}
