//! Differential parity for effect-licensed parallel execution (ISSUE 5
//! tentpole): parallelism is a *license*, never a semantics. For every
//! pool size (`0`, `1`, `4`, `64`), every chooser (forkable and not),
//! and every engine, a licensed query must produce byte-identical
//! observables to the sequential run — values, final stores, effect
//! traces, governor cell meters, trip/error classes, chooser draw
//! totals, and cache interactions — and an *interfering* set-operator
//! pair must be refused parallelism with a diagnosable Theorem 8
//! witness.

#![allow(clippy::result_large_err)]

use ioql::plan::{
    execute, execute_instrumented, lower_with, set_op_verdict, ExecMetrics, ParMetrics, ParSpec,
    ParVerdict, Plan,
};
use ioql::{Database, DbOptions, Engine};
use ioql_ast::Query;
use ioql_effects::{infer_query, Effect, EffectEnv};
use ioql_eval::{
    eval_big, evaluate, Chooser, CountingChooser, DefEnv, EvalConfig, EvalError, FirstChooser,
    Governor, LastChooser, Limits, RandomChooser, ScriptedChooser,
};
use ioql_opt::Stats;
use ioql_telemetry::MetricsRegistry;
use ioql_testkit::fixtures::{jack_jill, Fixture};
use ioql_testkit::{ChaosChooser, FaultPlan};
use ioql_types::{check_query, TypeEnv};

const POOLS: [usize; 4] = [0, 1, 4, 64];

fn class(e: &EvalError) -> String {
    match e {
        EvalError::Stuck { .. } => "stuck".to_string(),
        EvalError::MethodDiverged { .. } => "diverged".to_string(),
        EvalError::FuelExhausted => "fuel".to_string(),
        EvalError::ResourceExhausted { kind, .. } => format!("resource:{kind}"),
        EvalError::Cancelled => "cancelled".to_string(),
        EvalError::Store(_) => "store".to_string(),
    }
}

/// Every Theorem-7-eligible shape the plan layer accepts, including set
/// operators (Theorem 8 branches) and nested generators.
fn licensed_zoo(fx: &Fixture) -> Vec<Query> {
    let tenv = TypeEnv::new(&fx.schema);
    [
        "{ p.name | p <- Ps }",
        "{ p | p <- Ps, p.name = 2 }",
        "{ p.name | p <- Ps, p.name < 3 }",
        "{ f.name | f <- Fs, p <- Ps, f.pal == p }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal, p.name = 1 }",
        "Ps union { p | p <- Ps, p.name = 1 }",
        "(Ps union Ps) intersect Ps",
        "{ p.name | p <- Ps } except {1}",
        "{ x + y | x <- { p.name | p <- Ps }, y <- {10, 20} }",
        "{ size({ q | q <- Ps, q.name = p.name }) | p <- Ps }",
    ]
    .into_iter()
    .map(|src| check_query(&tenv, &fx.query(src)).unwrap().0)
    .collect()
}

/// Lowers with the parallelism-verdict pass on: real extent statistics,
/// real per-branch effect inference.
fn lower_par(fx: &Fixture, q: &Query, parallelism: usize) -> Option<Plan> {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).ok()?;
    let mut stats = Stats::new();
    for (e, _, members) in fx.store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let branch = |bq: &Query| infer_query(&eenv, bq).ok().map(|(_, e)| e);
    let spec = ParSpec {
        parallelism,
        compile: false,
        schema: Some(&fx.schema),
        branch_effect: Some(&branch),
    };
    lower_with(q, &eff, &DefEnv::new(), &stats, &spec)
}

/// One observation bundle: everything the parallelism contract promises
/// not to change.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<(String, String), String>,
    cells: u64,
    draws: u64,
}

/// Runs `plan` under a fresh governor with the given chooser factory,
/// draw-counted, and snapshots every observable.
fn observe(
    fx: &Fixture,
    plan: &Plan,
    mk: &dyn Fn() -> Box<dyn Chooser>,
    limits: Limits,
    max_steps: u64,
) -> Observed {
    let reg = MetricsRegistry::new(true);
    let draws = reg.counter("draws", "Chooser draws.");
    let metrics = ParMetrics::new(&reg);
    let governor = Governor::new(limits);
    let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
    let defs = DefEnv::new();
    let mut store = fx.store.clone();
    let mut inner = mk();
    let mut chooser = CountingChooser::new(&mut *inner, draws.clone());
    let r = execute_instrumented(
        plan,
        &cfg,
        &defs,
        &mut store,
        &mut chooser,
        max_steps,
        ExecMetrics {
            par: Some(&metrics),
            vm: None,
        },
    );
    let outcome = r
        .map(|r| (r.value.to_string(), r.effect.to_string()))
        .map_err(|e| class(&e));
    // Licensed queries are new-free, so the store must be untouched —
    // cheap to assert on every single run.
    assert_eq!(store, fx.store, "a licensed run mutated the store");
    Observed {
        outcome,
        cells: governor.cells_spent(),
        draws: draws.get(),
    }
}

/// The tentpole contract: for every zoo query, chooser, and pool size,
/// the parallel run's observables equal the sequential plan run's, and
/// both equal the interpreters'.
#[test]
fn parallel_observables_are_byte_identical_to_sequential() {
    let fx = jack_jill();
    type Mk = Box<dyn Fn() -> Box<dyn Chooser>>;
    let mks: [(&str, Mk); 5] = [
        ("first", Box::new(|| Box::new(FirstChooser))),
        ("last", Box::new(|| Box::new(LastChooser))),
        ("random", Box::new(|| Box::new(RandomChooser::seeded(11)))),
        (
            "scripted",
            Box::new(|| Box::new(ScriptedChooser::new(vec![1, 0, 2, 1]))),
        ),
        ("chaos", Box::new(|| Box::new(ChaosChooser::new(5, None)))),
    ];
    for (qi, q) in licensed_zoo(&fx).iter().enumerate() {
        let seq_plan = lower_par(&fx, q, 0).unwrap_or_else(|| panic!("zoo {qi} ({q}) must lower"));
        for (name, mk) in &mks {
            let baseline = observe(&fx, &seq_plan, mk, Limits::none(), 1_000_000);
            // The interpreters agree with the sequential plan run (the
            // existing tests/plan.rs contract, re-pinned here so the
            // parallel comparisons below are anchored to ground truth).
            for engine in 0..2u8 {
                let cfg = EvalConfig::new(&fx.schema);
                let defs = DefEnv::new();
                let mut store = fx.store.clone();
                let mut ch = mk();
                let r = match engine {
                    0 => eval_big(&cfg, &defs, &mut store, q, &mut *ch, 1_000_000)
                        .map(|r| (r.value.to_string(), r.effect.to_string())),
                    _ => evaluate(&cfg, &defs, &mut store, q, &mut *ch, 1_000_000)
                        .map(|r| (r.value.to_string(), r.effect.to_string())),
                };
                assert_eq!(
                    r.map_err(|e| class(&e)),
                    baseline.outcome,
                    "zoo {qi} chooser {name}: interpreter {engine} vs sequential plan on {q}"
                );
            }
            for pool in POOLS {
                let plan = lower_par(&fx, q, pool)
                    .unwrap_or_else(|| panic!("zoo {qi} must lower at pool {pool}"));
                let got = observe(&fx, &plan, mk, Limits::none(), 1_000_000);
                assert_eq!(
                    got, baseline,
                    "zoo {qi} chooser {name} pool {pool}: observables drifted on {q}"
                );
            }
        }
    }
}

/// Fault plans (chaos choosers + tight governor budgets + deadlines):
/// pass/fail verdicts, error classes, cell meters, and draw totals must
/// match the sequential run under every pool size.
#[test]
fn fault_plans_hold_identically_under_parallelism() {
    let fx = jack_jill();
    let zoo = licensed_zoo(&fx);
    for seed in 0..40u64 {
        let spec = FaultPlan::from_seed(seed);
        let q = &zoo[(seed as usize) % zoo.len()];
        let seq_plan = lower_par(&fx, q, 0).unwrap();
        let run = |plan: &Plan| {
            let governor = Governor::new(spec.limits());
            let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
            let defs = DefEnv::new();
            let mut store = fx.store.clone();
            let mut chooser = spec.chooser(governor.cancel_token());
            let r = execute(plan, &cfg, &defs, &mut store, &mut chooser, 1_000_000)
                .map(|r| (r.value.to_string(), r.effect.to_string()))
                .map_err(|e| class(&e));
            (r, governor.cells_spent())
        };
        let baseline = run(&seq_plan);
        for pool in POOLS {
            let plan = lower_par(&fx, q, pool).unwrap();
            assert_eq!(
                run(&plan),
                baseline,
                "fault seed {seed} pool {pool}: verdict or cell meter drifted on {q}"
            );
        }
    }
}

/// Fuel exhaustion: a step budget smaller than the extent must trip with
/// the same error class whether or not a worker pool ran the scan.
#[test]
fn fuel_exhaustion_class_survives_parallel_dispatch() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let (q, _) = check_query(&tenv, &fx.query("{ p.name | p <- Ps }")).unwrap();
    for max_steps in [0u64, 1, 2] {
        let mut classes = Vec::new();
        for pool in POOLS {
            let plan = lower_par(&fx, &q, pool).unwrap();
            let got = observe(
                &fx,
                &plan,
                &|| Box::new(FirstChooser),
                Limits::none(),
                max_steps,
            );
            classes.push((pool, got.outcome));
        }
        for (pool, outcome) in &classes[1..] {
            assert_eq!(
                outcome, &classes[0].1,
                "max_steps {max_steps} pool {pool}: fuel verdict drifted"
            );
        }
    }
}

/// A finite budget on a charged axis refuses the dispatch (the trip
/// position must be the sequential one) — and the refusal is visible in
/// the fallback counter, while observables still match.
#[test]
fn finite_cell_budget_falls_back_and_counts_it() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    // Nested generator: the body draws, so `max_cells` forbids dispatch.
    let (q, _) = check_query(
        &tenv,
        &fx.query("{ size({ q | q <- Ps, q.name = p.name }) | p <- Ps }"),
    )
    .unwrap();
    let limits = Limits {
        max_cells: Some(1_000),
        ..Limits::none()
    };
    let seq = {
        let plan = lower_par(&fx, &q, 0).unwrap();
        observe(&fx, &plan, &|| Box::new(FirstChooser), limits, 1_000_000)
    };
    let plan = lower_par(&fx, &q, 4).unwrap();
    let reg = MetricsRegistry::new(true);
    let metrics = ParMetrics::new(&reg);
    let governor = Governor::new(limits);
    let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
    let defs = DefEnv::new();
    let mut store = fx.store.clone();
    let r = execute_instrumented(
        &plan,
        &cfg,
        &defs,
        &mut store,
        &mut FirstChooser,
        1_000_000,
        ExecMetrics {
            par: Some(&metrics),
            vm: None,
        },
    )
    .map(|r| (r.value.to_string(), r.effect.to_string()))
    .map_err(|e| class(&e));
    assert_eq!(r, seq.outcome, "budget fallback changed the result");
    assert_eq!(governor.cells_spent(), seq.cells, "cell meter drifted");
    assert!(
        metrics.fallback_budget.get() >= 1,
        "finite max_cells on a drawing body must be refused via fallback_budget"
    );
    assert_eq!(
        metrics.par_scans.get(),
        0,
        "no licensed scan may dispatch under a finite cell budget"
    );
}

/// An unforkable chooser is refused at run time (fallback counter), with
/// observables identical — already covered above for values; this pins
/// the *reason* telemetry.
#[test]
fn unforkable_chooser_is_counted_as_the_fallback_reason() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let (q, _) = check_query(&tenv, &fx.query("{ p.name | p <- Ps }")).unwrap();
    let plan = lower_par(&fx, &q, 4).unwrap();
    let reg = MetricsRegistry::new(true);
    let metrics = ParMetrics::new(&reg);
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let mut store = fx.store.clone();
    let mut chooser = RandomChooser::seeded(3);
    execute_instrumented(
        &plan,
        &cfg,
        &defs,
        &mut store,
        &mut chooser,
        1_000_000,
        ExecMetrics {
            par: Some(&metrics),
            vm: None,
        },
    )
    .unwrap();
    assert!(metrics.fallback_chooser.get() >= 1, "refusal not recorded");
    assert_eq!(metrics.par_scans.get(), 0);
}

/// Theorem 8 as a license: interfering `A(C)`/`R(C)` operands are
/// refused with the oriented witness pair; non-interfering reads are
/// licensed.
#[test]
fn interfering_set_operands_are_refused_with_a_witness() {
    let fx = jack_jill();
    match set_op_verdict(&Effect::add("P"), &Effect::read("P"), &fx.schema) {
        ParVerdict::Seq(reason) => {
            assert!(
                reason.contains("interfering effects"),
                "reason must be diagnosable, got `{reason}`"
            );
            assert!(
                reason.contains("A(P)") && reason.contains("R(P)"),
                "reason must quote the witness pair, got `{reason}`"
            );
        }
        v => panic!("A(P) vs R(P) must be refused, got {v}"),
    }
    assert!(
        set_op_verdict(&Effect::read("P"), &Effect::attr_read("P"), &fx.schema).licensed(),
        "read-only branches commute (Thm 8) and must be licensed"
    );
}

/// The refusal is visible where users look: a plan lowered with an
/// interfering branch-effect oracle renders `seq(interfering effects:
/// …)` on the set operator, and a licensed one renders `par`.
#[test]
fn plan_render_shows_par_and_seq_verdicts() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let (q, _) = check_query(&tenv, &fx.query("Ps union { p | p <- Ps, p.name = 1 }")).unwrap();
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, &q).unwrap();
    let stats = Stats::new();

    let real = |bq: &Query| infer_query(&eenv, bq).ok().map(|(_, e)| e);
    let licensed = lower_with(
        &q,
        &eff,
        &DefEnv::new(),
        &stats,
        &ParSpec {
            parallelism: 4,
            compile: false,
            schema: Some(&fx.schema),
            branch_effect: Some(&real),
        },
    )
    .unwrap();
    let rendered = licensed.render();
    assert!(
        rendered.contains("[par]"),
        "licensed union must render par:\n{rendered}"
    );

    // An adversarial oracle reports the left branch as writing `A(P)`
    // and the right as reading `R(P)` — the lowered node must carry the
    // refusal verbatim. (Through the real pipeline the Theorem 7 guard
    // already excludes writes; the oracle simulates a future
    // mutation-tolerant plan layer.)
    let calls = std::cell::Cell::new(0u32);
    let lying = |_: &Query| {
        calls.set(calls.get() + 1);
        Some(if calls.get() == 1 {
            Effect::add("P")
        } else {
            Effect::read("P")
        })
    };
    let refused = lower_with(
        &q,
        &eff,
        &DefEnv::new(),
        &stats,
        &ParSpec {
            parallelism: 4,
            compile: false,
            schema: Some(&fx.schema),
            branch_effect: Some(&lying),
        },
    )
    .unwrap();
    let rendered = refused.render();
    assert!(
        rendered.contains("seq(interfering effects: A(P) vs R(P))"),
        "refused union must render the witness:\n{rendered}"
    );
}

/// Pool size 1 is a degenerate pool: every node refuses at lowering
/// time with `parallelism off`, so nothing ever dispatches.
#[test]
fn pool_of_one_refuses_at_lowering() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let (q, _) = check_query(&tenv, &fx.query("{ p.name | p <- Ps }")).unwrap();
    let plan = lower_par(&fx, &q, 1).unwrap();
    assert!(
        plan.render().contains("seq(parallelism off)"),
        "pool 1 must refuse visibly:\n{}",
        plan.render()
    );
}

/// Database-level parity across all three engines and every pool size:
/// values, runtime effects, and cache interactions are identical, and
/// the licensed path demonstrably dispatches at pool ≥ 2.
#[test]
fn database_engines_agree_for_every_pool_size() {
    const DDL: &str = "
        class P extends Object (extent Ps) {
            attribute int name;
        }";
    let build = |engine: Engine, parallelism: usize| {
        let mut db = Database::from_ddl_with(
            DDL,
            DbOptions {
                engine,
                parallelism,
                telemetry: true,
                ..DbOptions::default()
            },
        )
        .unwrap();
        db.query("{ new P(name: n) | n <- {1, 2, 3, 4, 5, 6, 7, 8} }")
            .unwrap();
        db
    };
    let probes = [
        "{ p.name | p <- Ps }",
        "{ p.name + p.name | p <- Ps, p.name < 5 }",
        "Ps union { p | p <- Ps, p.name = 3 }",
    ];
    for probe in probes {
        let mut reference = build(Engine::SmallStep, 0);
        let want = reference.query(probe).unwrap();
        let cached = reference.query(probe).unwrap();
        assert!(cached.cached, "second run must hit the cache");
        for engine in [Engine::SmallStep, Engine::BigStep, Engine::Plan] {
            for pool in POOLS {
                let mut db = build(engine, pool);
                let got = db.query(probe).unwrap();
                assert_eq!(
                    got.value.to_string(),
                    want.value.to_string(),
                    "{engine:?} pool {pool}: value drifted on {probe}"
                );
                assert_eq!(
                    got.runtime_effect.to_string(),
                    want.runtime_effect.to_string(),
                    "{engine:?} pool {pool}: effect drifted on {probe}"
                );
                let again = db.query(probe).unwrap();
                assert!(
                    again.cached,
                    "{engine:?} pool {pool}: cache interaction drifted on {probe}"
                );
                assert_eq!(again.value.to_string(), want.value.to_string());
            }
        }
    }
    // The parity above must not be vacuous: at pool 4 the plan engine
    // actually dispatches workers for the plain scan.
    let mut db = build(Engine::Plan, 4);
    db.query("{ p.name | p <- Ps }").unwrap();
    assert!(
        db.metrics().parallel.par_scans.get() >= 1,
        "pool 4 never dispatched — the differential suite would be comparing seq to seq"
    );
}
