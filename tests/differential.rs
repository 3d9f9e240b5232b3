//! Differential testing: the small-step machine (Figure 2, the
//! *specification*) against the independent big-step evaluator (the
//! "normalization" presentation the paper's §3.3 mentions).
//!
//! For identical `Chooser` decisions the two must produce the same value,
//! the same final store, and the same accumulated effect trace on every
//! well-typed query. The choosers are driven sequence-identically: the
//! small-step machine asks at its `(ND comp)` steps, the big-step one at
//! its generator loop — same choice points in the same order by
//! construction (leftmost-innermost evaluation on both sides).

use ioql_eval::{eval_big, evaluate, DefEnv, EvalConfig, FirstChooser, LastChooser, RandomChooser};
use ioql_testkit::fixtures::{jack_jill, payroll};
use ioql_testkit::gen::{GenConfig, QueryGen};
use ioql_types::{check_query, TypeEnv};

fn agree_on(fx: &ioql_testkit::fixtures::Fixture, q: &ioql_ast::Query, seed: u64, note: &str) {
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();

    for strategy in 0..3u8 {
        let mut s1 = fx.store.clone();
        let mut s2 = fx.store.clone();
        let (small, big) = match strategy {
            0 => (
                evaluate(&cfg, &defs, &mut s1, q, &mut FirstChooser, 1_000_000),
                eval_big(&cfg, &defs, &mut s2, q, &mut FirstChooser, 1_000_000)
                    .map(|r| (r.value, r.effect)),
            ),
            1 => (
                evaluate(&cfg, &defs, &mut s1, q, &mut LastChooser, 1_000_000),
                eval_big(&cfg, &defs, &mut s2, q, &mut LastChooser, 1_000_000)
                    .map(|r| (r.value, r.effect)),
            ),
            _ => (
                evaluate(
                    &cfg,
                    &defs,
                    &mut s1,
                    q,
                    &mut RandomChooser::seeded(seed),
                    1_000_000,
                ),
                eval_big(
                    &cfg,
                    &defs,
                    &mut s2,
                    q,
                    &mut RandomChooser::seeded(seed),
                    1_000_000,
                )
                .map(|r| (r.value, r.effect)),
            ),
        };
        let small = small.map(|r| (r.value, r.effect));
        match (small, big) {
            (Ok((v1, e1)), Ok((v2, e2))) => {
                assert_eq!(v1, v2, "{note} strategy {strategy}: values differ for {q}");
                assert_eq!(e1, e2, "{note} strategy {strategy}: effects differ for {q}");
                assert_eq!(
                    s1, s2,
                    "{note} strategy {strategy}: final stores differ for {q}"
                );
            }
            (Err(a), Err(b)) => {
                // Both fail: the *kind* of failure must agree (fuel limits
                // are budgeted differently, so only compare classes).
                let class = |e: &ioql_eval::EvalError| match e {
                    ioql_eval::EvalError::Stuck { .. } => "stuck".to_string(),
                    ioql_eval::EvalError::MethodDiverged { .. } => "diverged".to_string(),
                    ioql_eval::EvalError::FuelExhausted => "fuel".to_string(),
                    ioql_eval::EvalError::ResourceExhausted { kind, .. } => {
                        format!("resource:{kind}")
                    }
                    ioql_eval::EvalError::Cancelled => "cancelled".to_string(),
                    ioql_eval::EvalError::Store(_) => "store".to_string(),
                };
                assert_eq!(class(&a), class(&b), "{note}: {a} vs {b} for {q}");
            }
            (a, b) => panic!("{note} strategy {strategy}: disagreement for {q}: {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn evaluators_agree_on_generated_queries() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    for seed in 0..400u64 {
        let mut g = QueryGen::new(&fx.schema, seed, GenConfig::default());
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        agree_on(&fx, &elab, seed, &format!("seed {seed}"));
    }
}

#[test]
fn evaluators_agree_with_method_calls() {
    let fx = payroll();
    let tenv = TypeEnv::new(&fx.schema);
    let cfg = GenConfig {
        allow_invoke: true,
        max_depth: 4,
        ..Default::default()
    };
    for seed in 0..150u64 {
        let mut g = QueryGen::new(&fx.schema, seed, cfg);
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        agree_on(&fx, &elab, seed, &format!("payroll seed {seed}"));
    }
}

#[test]
fn evaluators_agree_on_deep_hierarchy() {
    let fx = ioql_testkit::fixtures::deep_hierarchy();
    let tenv = TypeEnv::new(&fx.schema);
    let cfg = GenConfig {
        allow_invoke: true,
        max_depth: 4,
        ..Default::default()
    };
    for seed in 0..150u64 {
        let mut g = QueryGen::new(&fx.schema, seed, cfg);
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        agree_on(&fx, &elab, seed, &format!("deep seed {seed}"));
    }
}

#[test]
fn fuel_exhaustion_same_class_in_both_engines() {
    // The step budget is metered differently by the two engines (machine
    // steps vs burn calls), but exhausting it must surface as the same
    // error class from both — at the raw-evaluator layer and through the
    // `Database` facade's `max_steps` option.
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let src = "{ p.name + q.name | p <- Ps, q <- Ps }";
    let (elab, _) = check_query(&tenv, &fx.query(src)).unwrap();
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    for fuel in [1u64, 2, 5, 10] {
        let mut s1 = fx.store.clone();
        let mut s2 = fx.store.clone();
        let small = evaluate(&cfg, &defs, &mut s1, &elab, &mut FirstChooser, fuel);
        let big = eval_big(&cfg, &defs, &mut s2, &elab, &mut FirstChooser, fuel);
        assert!(
            matches!(small, Err(ioql_eval::EvalError::FuelExhausted)),
            "fuel {fuel}: small-step returned {small:?}"
        );
        assert!(
            matches!(big, Err(ioql_eval::EvalError::FuelExhausted)),
            "fuel {fuel}: big-step returned {big:?}"
        );
    }
    // Through the facade: spec and production report the
    // evaluation-error class.
    for engine in [ioql::Engine::SmallStep, ioql::Engine::Plan] {
        let opts = ioql::DbOptions {
            engine,
            max_steps: 3,
            telemetry: true, // transparency guard: metrics never change verdicts
            ..ioql::DbOptions::default()
        };
        let mut db = ioql::Database::from_ddl_with(
            "class P extends Object (extent Ps) { attribute int name; }",
            opts,
        )
        .unwrap();
        let r = db.query("{ n + 1 | n <- {1, 2, 3, 4, 5} }");
        assert!(
            matches!(
                r,
                Err(ioql::DbError::Eval(ioql_eval::EvalError::FuelExhausted))
            ),
            "{engine:?}: expected fuel exhaustion, got {r:?}"
        );
    }
}

#[test]
fn evaluators_agree_on_paper_queries() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    for src in [
        ioql_testkit::fixtures::jack_jill_query(),
        "{ (new F(name: p.name, pal: p)).name | p <- Ps }",
        "{ x + y | x <- { p.name | p <- Ps }, y <- {10, 20} }",
        "size(Ps union Ps) + size(Fs)",
    ] {
        let (elab, _) = check_query(&tenv, &fx.query(src)).unwrap();
        agree_on(&fx, &elab, 7, src);
    }
}

/// The four executors on one closed query, under First or Last: the
/// small-step machine, `eval_big`, the interpreted plan, the compiled
/// plan — `(value, effect)` or the whole error.
fn four_ways(
    fx: &ioql_testkit::fixtures::Fixture,
    defs: &DefEnv,
    q: &ioql_ast::Query,
    last: bool,
) -> [Result<(ioql_ast::Value, ioql_effects::Effect), ioql_eval::EvalError>; 4] {
    use ioql::plan::{execute, lower_with, ParSpec};
    let cfg = EvalConfig::new(&fx.schema);
    let chooser = || -> Box<dyn ioql_eval::Chooser> {
        if last {
            Box::new(LastChooser)
        } else {
            Box::new(FirstChooser)
        }
    };
    let plan = |compile: bool| {
        let spec = ParSpec {
            compile,
            ..ParSpec::off()
        };
        // The corpus reads no extent and creates nothing: its static
        // effect is ∅ whether or not Figure 3 can type the text.
        let plan = lower_with(
            q,
            &ioql_effects::Effect::empty(),
            defs,
            &ioql_opt::Stats::new(),
            &spec,
        )
        .expect("a pure query lowers");
        execute(
            &plan,
            &cfg,
            defs,
            &mut fx.store.clone(),
            &mut *chooser(),
            1_000_000,
        )
        .map(|r| (r.value, r.effect))
    };
    [
        evaluate(
            &cfg,
            defs,
            &mut fx.store.clone(),
            q,
            &mut *chooser(),
            1_000_000,
        )
        .map(|r| (r.value, r.effect)),
        eval_big(
            &cfg,
            defs,
            &mut fx.store.clone(),
            q,
            &mut *chooser(),
            1_000_000,
        )
        .map(|r| (r.value, r.effect)),
        plan(false),
        plan(true),
    ]
}

/// The binder-reuse and definition-frame texts, each with the answer (or
/// the stuck state) every executor gives.
fn shadowing_corpus() -> [(&'static str, Result<&'static str, ioql_eval::EvalError>); 9] {
    let stuck = |query: &str, reason: &str| {
        Err(ioql_eval::EvalError::Stuck {
            query: query.into(),
            reason: reason.into(),
        })
    };
    [
        ("{ x | x <- {1,2}, x <- {x + 10} }", Ok("{11, 12}")),
        ("{ { x | x <- {x + 1} } | x <- {1,2} }", Ok("{{2}, {3}}")),
        (
            "{ x + y | x <- {1,2,3}, x < 3, y <- {x}, x <- {100} }",
            Ok("{101, 102}"),
        ),
        (
            "{ x + true | x <- {1}, x <- {2} }",
            stuck("true", "expected an integer"),
        ),
        (
            "{ y + x | x <- {1}, y <- {false} }",
            stuck("false", "expected an integer"),
        ),
        // The stuck subexpression rebinds `x`: rendering it under the
        // outer `x = 1` must leave the inner occurrences alone.
        (
            "{ sum({ x | x <- {true} }) + x | x <- {1} }",
            stuck("sum({ x | x <- {true} })", "sum over a non-integer set"),
        ),
        // The parameter is named like one of the caller's binders and
        // the body binds the caller's other name.
        (
            "define f(x: int) as { x + y | y <- {1} }; { f(y) | y <- {5}, x <- {7} }",
            Ok("{{6}}"),
        ),
        // `q[x⃗ := v⃗]` substitutes left to right: of two parameters with
        // one name the first wins.
        (
            "define h(x: int, x: int) as x; { h(1, y) | y <- {2} }",
            Ok("{1}"),
        ),
        // The frame test: an ill-formed body's free `z` must not see the
        // caller's `z` (that would answer {6}).
        (
            "define g(a: int) as a + z; { g(1) | z <- {5} }",
            stuck("z", "free variable `z` at runtime"),
        ),
    ]
}

/// Binder reuse and definition frames — what an environment can get
/// wrong and substitution cannot. Values are equal on all four
/// executors; a stuck state is the *same* `EvalError` (texts included)
/// on big-step and both plans, and a `Stuck` on the spec, whose redex
/// text is Figure 2's own.
#[test]
fn shadowing_and_frames_agree_on_four_executors() {
    let fx = jack_jill();
    for (src, expected) in shadowing_corpus() {
        let program = ioql_syntax::parse_program(src).unwrap();
        let defs = DefEnv::from_program(&program);
        for last in [false, true] {
            let [small, big, interp, vm] = four_ways(&fx, &defs, &program.query, last);
            let shown = |r: &Result<(ioql_ast::Value, ioql_effects::Effect), _>| {
                r.clone().map(|(v, _)| v.to_string())
            };
            assert_eq!(
                shown(&big),
                expected.clone().map(str::to_string),
                "{src} last={last}"
            );
            assert_eq!(big, interp, "{src} last={last}: interpreted plan");
            assert_eq!(big, vm, "{src} last={last}: compiled plan");
            match (&small, &big) {
                // The redex text of a type error is Figure 2's own; a free
                // variable is the stuck state both presentations word
                // alike, so there all four are equal outright.
                (Err(ioql_eval::EvalError::Stuck { reason, .. }), Err(_))
                    if !reason.starts_with("free variable") => {}
                _ => assert_eq!(small, big, "{src} last={last}: spec"),
            }
        }
    }
}

/// The walks over the query tree agree with one another under
/// shadowing: substitution, free variables and extent resolution all
/// apply rule (Comp2) through one pair of primitives, and this checks
/// that they meet. The population is every subterm (open ones too) of
/// generated queries, of their printed texts parsed back (extents come
/// back as variables, so resolution has work to do), of the shadowing
/// corpus and of `group … by` texts whose outer binder is named like the
/// desugaring's witness. For each subterm `q` and each name `x` free in
/// `q` or bound by one of its generators: `q[x := v]` is `q` exactly
/// when `x` is not free, and it frees `x` and nothing else; resolution
/// leaves no extent name free and is idempotent.
#[test]
fn the_walks_agree_under_shadowing() {
    use ioql_ast::{ExtentName, Query, Value, VarName};
    use std::collections::BTreeSet;
    let fx = jack_jill();
    let mut roots: Vec<Query> = Vec::new();
    for seed in 0..200u64 {
        let mut g = QueryGen::new(&fx.schema, seed, GenConfig::default());
        let target = g.target_type();
        let q = g.query(&target);
        roots.extend(ioql_syntax::parse_query(&q.to_string()).ok());
        roots.push(q);
    }
    let group_texts = [
        "{ group x in {1, 2} by x + x__witness | x__witness <- {10} }",
        "{ group x in { z | z <- {1, 2}, z < x__witness } by x | x__witness <- {2} }",
    ];
    let texts = shadowing_corpus().map(|(src, _)| src);
    for src in texts.iter().chain(&group_texts) {
        let program = ioql_syntax::parse_program(src).unwrap();
        roots.extend(program.defs.into_iter().map(|d| d.body));
        roots.push(program.query);
    }
    let mut subterms = Vec::new();
    for root in &roots {
        root.for_each_node(&mut |q| subterms.push(q.clone()));
    }
    let v = Value::Int(7);
    let extent = |x: &VarName| {
        fx.schema
            .extent_class(&ExtentName::new(x.as_str()))
            .is_some()
    };
    let (mut shadowed_substitutions, mut resolutions) = (0, 0);
    for q in &subterms {
        let free = q.free_vars();
        let mut names = free.clone();
        q.for_each_node(&mut |n| {
            if let Query::Comp(_, quals) = n {
                names.extend(quals.iter().filter_map(|cq| cq.binder().cloned()));
            }
        });
        for x in &names {
            let s = q.subst(x, &v);
            assert_eq!(!free.contains(x), s == *q, "{q} [{x} := {v}]");
            let mut rest = free.clone();
            rest.remove(x);
            assert_eq!(s.free_vars(), rest, "{q} [{x} := {v}]");
            shadowed_substitutions += usize::from(!free.contains(x));
        }
        let resolved = fx.schema.resolve_query(q);
        let left: BTreeSet<_> = resolved.free_vars().into_iter().filter(extent).collect();
        assert!(left.is_empty(), "{q} resolves to {resolved}, {left:?} free");
        assert_eq!(fx.schema.resolve_query(&resolved), resolved, "{q}");
        resolutions += usize::from(resolved != *q);
    }
    assert!(subterms.len() > 1_000, "{} subterms", subterms.len());
    assert!(shadowed_substitutions > 0, "no substitution was shadowed");
    assert!(resolutions > 0, "no subterm had an extent name to resolve");
}
