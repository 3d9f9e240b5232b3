//! Differential parity for the physical-plan executor (ISSUE 3
//! tentpole): for every workload the plan layer accepts, executing the
//! lowered operator pipeline must be observationally identical to both
//! interpreters — same values and stores (up to oid bijection), same
//! effect traces, same pass/fail verdicts under every chooser (including
//! the fault-injecting [`ChaosChooser`]) and under tight governor
//! budgets, with no resource charges leaking through (or skipped by)
//! any operator.

#![allow(clippy::result_large_err)]

use ioql::plan::{execute, lower, Plan};
use ioql::{Database, DbOptions, Engine};
use ioql_effects::{infer_query, EffectEnv};
use ioql_eval::{
    eval_big, evaluate, Chooser, DefEnv, EvalConfig, EvalError, FirstChooser, Governor,
    LastChooser, Limits, RandomChooser,
};
use ioql_opt::Stats;
use ioql_store::{equiv_outcomes, Outcome};
use ioql_testkit::fixtures::{jack_jill, Fixture};
use ioql_testkit::gen::{GenConfig, QueryGen};
use ioql_testkit::{ChaosChooser, FaultPlan};
use ioql_types::{check_query, TypeEnv};

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

/// Lowers `q` with the fixture's real extent statistics, falling back to
/// the probe-friendly defaults (every unknown extent estimated at 1000
/// rows) when `real_stats` is false — so each shape is exercised under
/// both cost-model outcomes.
fn lower_for(fx: &Fixture, q: &ioql_ast::Query, real_stats: bool) -> Option<Plan> {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).ok()?;
    let stats = if real_stats {
        let mut s = Stats::new();
        for (e, _, members) in fx.store.extents.iter() {
            s.set(e.clone(), members.len());
        }
        s
    } else {
        Stats::new()
    };
    lower(q, &eff, &DefEnv::new(), &stats)
}

/// Runs the plan executor and both interpreters with sequence-identical
/// choosers and asserts agreement: values and stores up to oid
/// bijection, effects exactly, error classes on failure.
fn plan_agrees(fx: &Fixture, q: &ioql_ast::Query, plan: &Plan, seed: u64, note: &str) {
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let mk: [fn(u64) -> Box<dyn Chooser>; 4] = [
        |_| Box::new(FirstChooser),
        |_| Box::new(LastChooser),
        |s| Box::new(RandomChooser::seeded(s)),
        |s| Box::new(ChaosChooser::new(s, None)),
    ];
    for (strategy, mk) in mk.iter().enumerate() {
        let mut s1 = fx.store.clone();
        let mut s2 = fx.store.clone();
        let mut s3 = fx.store.clone();
        let p = execute(plan, &cfg, &defs, &mut s1, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        let b = eval_big(&cfg, &defs, &mut s2, q, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        let s = evaluate(&cfg, &defs, &mut s3, q, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        match (p, b, s) {
            (Ok((pv, pe)), Ok((bv, be)), Ok((sv, se))) => {
                assert!(
                    equiv_outcomes(
                        &Outcome::new(s1.clone(), pv.clone()),
                        &Outcome::new(s2, bv.clone())
                    ),
                    "{note} strategy {strategy}: plan vs big-step outcome on {q}: {pv} vs {bv}"
                );
                assert!(
                    equiv_outcomes(&Outcome::new(s1, pv), &Outcome::new(s3, sv)),
                    "{note} strategy {strategy}: plan vs small-step outcome on {q}"
                );
                assert_eq!(pe, be, "{note} strategy {strategy}: effect on {q}");
                assert_eq!(
                    pe, se,
                    "{note} strategy {strategy}: effect vs machine on {q}"
                );
            }
            (Err(pe), Err(be), Err(se)) => {
                assert_eq!(class(&pe), class(&be), "{note}: {pe} vs {be} on {q}");
                assert_eq!(class(&pe), class(&se), "{note}: {pe} vs {se} on {q}");
            }
            (p, b, s) => panic!(
                "{note} strategy {strategy}: engines disagree on {q}:\n  \
                 plan={p:?}\n  big={b:?}\n  small={s:?}"
            ),
        }
    }
}

/// Handwritten shapes that exercise every operator: extent scans, bare
/// and attribute equality probes, the cross-generator hash semi-join,
/// set operators over mixed operands, nested comprehension sources, and
/// plain filters.
fn operator_zoo(fx: &Fixture) -> Vec<ioql_ast::Query> {
    let tenv = TypeEnv::new(&fx.schema);
    [
        "{ p | p <- Ps, p.name = 2 }",
        "{ p.name | p <- Ps, p.name = 1 }",
        "{ x | x <- {1, 2, 3}, x = 2 }",
        "{ x | x <- {1, 2, 3}, 2 = x }",
        "{ f.name | f <- Fs, p <- Ps, f.pal == p }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal, p.name = 1 }",
        "Ps union { p | p <- Ps, p.name = 1 }",
        "(Ps union Ps) intersect Ps",
        "{ p.name | p <- Ps } except {1}",
        "{ x + y | x <- { p.name | p <- Ps }, y <- {10, 20} }",
        "{ p | p <- Ps, p.name < 3 }",
        "{ size({ q | q <- Ps, q.name = p.name }) | p <- Ps }",
    ]
    .into_iter()
    .map(|src| check_query(&tenv, &fx.query(src)).unwrap().0)
    .collect()
}

#[test]
fn plan_agrees_on_the_operator_zoo() {
    let fx = jack_jill();
    for (i, q) in operator_zoo(&fx).iter().enumerate() {
        let mut lowered = 0;
        for real_stats in [true, false] {
            if let Some(plan) = lower_for(&fx, q, real_stats) {
                lowered += 1;
                plan_agrees(&fx, q, &plan, 41 + i as u64, &format!("zoo {i}"));
            }
        }
        assert!(lowered > 0, "zoo query {i} ({q}) must lower");
    }
    // The zoo must actually exercise the probe operator, including the
    // cross-generator semi-join, under the default statistics.
    let probes = operator_zoo(&fx)
        .iter()
        .filter_map(|q| lower_for(&fx, q, false))
        .filter(|p| p.render().contains("HashIndexProbe"))
        .count();
    assert!(probes >= 4, "only {probes} zoo plans chose the probe");
}

#[test]
fn plan_agrees_on_generated_queries() {
    // `testkit::gen` workloads: every generated query that passes the
    // Theorem 7 guard must execute identically on the plan layer. The
    // generator's default config includes `new`, so ineligible queries
    // also flow through here and must simply fail to lower.
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let mut lowered = 0usize;
    for seed in 0..250u64 {
        let pure = GenConfig {
            allow_new: seed % 2 == 0,
            ..GenConfig::default()
        };
        let mut g = QueryGen::new(&fx.schema, seed, pure);
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        for real_stats in [true, false] {
            if let Some(plan) = lower_for(&fx, &elab, real_stats) {
                lowered += 1;
                plan_agrees(&fx, &elab, &plan, seed, &format!("gen seed {seed}"));
            }
        }
    }
    assert!(
        lowered >= 40,
        "only {lowered} generated queries lowered — the guard is refusing too much"
    );
}

#[test]
fn invoking_and_mutating_generated_queries_never_lower() {
    let fx = ioql_testkit::fixtures::payroll();
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
        for real_stats in [true, false] {
            if let Some(plan) = lower_for(&fx, &elab, real_stats) {
                // Eligible ones must still agree…
                plan_agrees(&fx, &elab, &plan, seed, &format!("payroll seed {seed}"));
                // …and must not have slipped past the guard.
                assert!(
                    !elab.contains_new() && !elab.contains_invoke(),
                    "guard leak on {elab}"
                );
            }
        }
    }
}

/// Tight budgets and injected faults: verdicts (pass/fail *and* error
/// class) must match the interpreters, and on success the governor must
/// have been charged exactly the same number of cells — no operator may
/// leak a charge or skip one.
#[test]
fn budgets_and_faults_hold_identically_through_operators() {
    let fx = jack_jill();
    let zoo = operator_zoo(&fx);
    for seed in 0..60u64 {
        let plan_spec = FaultPlan::from_seed(seed);
        let q = &zoo[(seed as usize) % zoo.len()];
        for real_stats in [true, false] {
            let Some(phys) = lower_for(&fx, q, real_stats) else {
                continue;
            };
            let cfg = EvalConfig::new(&fx.schema);
            let defs = DefEnv::new();
            let run = |engine: u8| {
                let governor = Governor::new(plan_spec.limits());
                let mut chooser = plan_spec.chooser(governor.cancel_token());
                let gcfg = cfg.with_governor(&governor);
                let mut store = fx.store.clone();
                let r = match engine {
                    0 => execute(&phys, &gcfg, &defs, &mut store, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                    1 => eval_big(&gcfg, &defs, &mut store, q, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                    _ => evaluate(&gcfg, &defs, &mut store, q, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                };
                (r, governor.cells_spent())
            };
            let (p, p_cells) = run(0);
            let (b, b_cells) = run(1);
            let (s, s_cells) = run(2);
            match (&p, &b, &s) {
                (Ok((pv, pe)), Ok((bv, be)), Ok((sv, _))) => {
                    assert_eq!(pv, bv, "seed {seed} value on {q}");
                    assert_eq!(pv, sv, "seed {seed} value vs machine on {q}");
                    assert_eq!(pe, be, "seed {seed} effect on {q}");
                    assert_eq!(
                        p_cells, b_cells,
                        "seed {seed}: plan leaked cells on {q} (plan {p_cells} vs big {b_cells})"
                    );
                    assert_eq!(
                        p_cells, s_cells,
                        "seed {seed}: plan vs machine cells on {q}"
                    );
                }
                (Err(pe), Err(be), Err(se)) => {
                    assert_eq!(class(pe), class(be), "seed {seed}: {pe} vs {be} on {q}");
                    assert_eq!(class(pe), class(se), "seed {seed}: {pe} vs {se} on {q}");
                    // Budget faults also pin the cell meter: the cells
                    // axis trips at the same draw in every engine.
                    if class(pe) == "resource:cells" {
                        assert_eq!(p_cells, b_cells, "seed {seed}: cells at trip on {q}");
                    }
                }
                _ => panic!(
                    "seed {seed}: verdicts diverge on {q}:\n  plan={p:?}\n  big={b:?}\n  small={s:?}"
                ),
            }
        }
    }
}

/// Through the `Database` facade: `Engine::Plan` must agree with both
/// interpreter engines on a mixed workload — eligible queries (plan
/// executor) and mutating ones (big-step fallback) — under every
/// chooser. Warm/cold construction histories are identical, so plain
/// value equality is the oid bijection.
#[test]
fn database_engine_plan_agrees_end_to_end() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let build = |engine: Engine| {
        let opts = DbOptions {
            engine,
            cache_capacity: 0,
            telemetry: true, // transparency guard: engines must agree with metrics on
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4, 5, 6} }")
            .unwrap();
        db
    };
    let workload = [
        "{ p.age | p <- Persons, p.name = 3 }",
        "{ p | p <- Persons, p.name = 2 }",
        "size(Persons union { p | p <- Persons, p.name = 1 })",
        "{ new Person(name: 9, age: 9) | n <- {1} }", // fallback: mutates
        "{ p.age | p <- Persons }",
        "sum({ p.age + q.age | p <- Persons, q <- Persons, p.name = q.name })",
    ];
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xBEEF)),
    ];
    for mk in &mk_choosers {
        let mut dbs = [
            build(Engine::Plan),
            build(Engine::BigStep),
            build(Engine::SmallStep),
        ];
        for q in workload {
            let rp = dbs[0].query_with(q, &mut *mk()).unwrap();
            let rb = dbs[1].query_with(q, &mut *mk()).unwrap();
            let rs = dbs[2].query_with(q, &mut *mk()).unwrap();
            assert_eq!(rp.value, rb.value, "plan vs big-step on {q}");
            assert_eq!(rp.value, rs.value, "plan vs small-step on {q}");
            assert_eq!(rp.runtime_effect, rb.runtime_effect, "effect on {q}");
            assert_eq!(rp.static_effect, rb.static_effect, "static effect on {q}");
            assert_eq!(rp.steps, 0, "plan engine reports no machine steps");
        }
        // The mutating query really ran (via fallback) on all three.
        for db in &dbs {
            assert_eq!(db.extent_len("Persons"), 6 + 1);
        }
    }
}

/// The governor axis through the facade: a plan-engine query under a
/// too-small cell budget fails with the same class as the interpreters,
/// and an exact budget passes.
#[test]
fn database_engine_plan_respects_budgets() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
        }";
    let opts = DbOptions {
        engine: Engine::Plan,
        cache_capacity: 0,
        telemetry: true,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("{ new Person(name: n) | n <- {1, 2, 3, 4, 5, 6, 7, 8} }")
        .unwrap();
    let q = "{ p | p <- Persons, p.name = 3 }";
    let governor = Governor::new(Limits::none());
    db.query_governed(q, &mut FirstChooser, &governor).unwrap();
    let price = governor.cells_spent();
    assert_eq!(price, 8, "one cell per drawn element, probe or not");
    let broke = Governor::new(Limits::none().with_max_cells(price - 1));
    let err = db.query_governed(q, &mut FirstChooser, &broke);
    assert!(
        matches!(
            err,
            Err(ioql::DbError::Eval(EvalError::ResourceExhausted {
                kind: ioql_eval::ResourceKind::Cells,
                ..
            }))
        ),
        "{err:?}"
    );
    let paying = Governor::new(Limits::none().with_max_cells(price));
    db.query_governed(q, &mut FirstChooser, &paying).unwrap();
    assert_eq!(paying.cells_spent(), price);
}

/// Aggregate roots (`sum`/`size` over anything that lowers) run on the
/// `Aggregate` operator, not the interpreter fallback, and must stay
/// observationally identical to both interpreters — with the compile
/// tier on and off, under every chooser, on every meter, and at every
/// fuel budget.
#[test]
fn aggregate_roots_agree_on_every_engine() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }
        class Employee extends Person (extent Employees) {
            attribute int dept;
        }";
    const MAX: &str = "9223372036854775807";
    // Ages repeat across rows, so `sum` over the *set* of ages differs
    // from a sum over rows: the fold must see the `Distinct` output.
    let build = |opts: DbOptions| {
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.define("define inDept(d: int) as { e | e <- Employees, e.dept = d };")
            .unwrap();
        db.query("{ new Person(name: n, age: 30) | n <- {1, 2, 3, 4} }")
            .unwrap();
        db.query("{ new Person(name: n, age: n + 30) | n <- {5, 6, 7, 8, 9, 10, 11, 12} }")
            .unwrap();
        db.query("{ new Employee(name: n, age: n + 20, dept: 3) | n <- {20, 21, 22} }")
            .unwrap();
        db.query("{ new Employee(name: n, age: 50, dept: 4) | n <- {30, 31} }")
            .unwrap();
        db
    };
    let with = |engine, compile| DbOptions {
        engine,
        compile,
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let family: Vec<String> = [
        "sum({ p.age | p <- Persons, p.name <= 6 })",
        "size({ p | p <- Persons, p.name = 2 })",
        "sum({ p.age + e.dept | p <- Persons, e <- Employees, p.name = e.name })",
        "size(Persons)",
        "sum({ p.age | p <- Persons, p.name < 4 } union { e.dept | e <- Employees })",
        "size({ p.name | p <- Persons } except { e.name | e <- Employees })",
        "sum({ e.age | e <- inDept(3) })",
        "size(inDept(3))",
    ]
    .into_iter()
    .map(String::from)
    // The `i64` boundaries of `sum_wraps_identically_at_integer_
    // boundaries`, shaped so the operand lowers.
    .chain([
        format!("sum({{ x | x <- {{ {MAX}, 1 }} }})"),
        format!("sum({{ x | x <- {{ 0 - {MAX} - 1, 0 - 1 }} }})"),
    ])
    .collect();
    let plan_variants = [false, true];
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xA66)),
    ];
    let observe = |db: &mut Database, q: &str, chooser: &mut dyn Chooser, limits: Limits| {
        let governor = Governor::new(limits);
        let r = db
            .query_governed(q, chooser, &governor)
            .map(|r| (r.value, r.runtime_effect, r.static_effect))
            .map_err(|e| match e {
                ioql::DbError::Eval(e) => e,
                other => panic!("{q}: not an evaluation error: {other:?}"),
            });
        (r, governor.cells_spent())
    };
    let mut big = build(with(Engine::BigStep, false));
    let mut small = build(with(Engine::SmallStep, false));
    let mut plans: Vec<Database> = plan_variants
        .iter()
        .map(|&compile| build(with(Engine::Plan, compile)))
        .collect();
    for q in &family {
        let rendered = plans[0].explain(q).unwrap();
        assert!(
            rendered.contains("  Aggregate s"),
            "{q} must run on the Aggregate operator:\n{rendered}"
        );
        for mk in &mk_choosers {
            let want = observe(&mut big, q, &mut *mk(), Limits::none());
            assert!(want.0.is_ok(), "{q}: {want:?}");
            assert_eq!(
                observe(&mut small, q, &mut *mk(), Limits::none()),
                want,
                "small-step vs big-step on {q}"
            );
            for (db, compile) in plans.iter_mut().zip(plan_variants) {
                assert_eq!(
                    observe(db, q, &mut *mk(), Limits::none()),
                    want,
                    "plan (compile {compile}) vs big-step on {q}"
                );
            }
        }
        // A cardinality cap trips at the same observation (the error
        // carries the observed cardinality), or not at all, everywhere.
        for cap in [0, 2, 4, 11] {
            let limits = Limits::none().with_max_set_card(cap);
            let want = observe(&mut big, q, &mut FirstChooser, limits);
            for (db, compile) in plans.iter_mut().zip(plan_variants) {
                assert_eq!(
                    observe(db, q, &mut FirstChooser, limits),
                    want,
                    "set-card cap {cap}, plan (compile {compile}) on {q}"
                );
            }
        }
    }
    // Fuel. Below the root the plan path spends its budget on its own
    // schedule (one unit per operator and per draw, the interpreter's
    // count inside each delegated expression), so what is pinned is the
    // aggregate node itself: on the plan path as on big-step it costs
    // exactly one unit on top of its operand — big-step's pre-order
    // `burn` — and every budget short of that trips with big-step's
    // own error, never a wrong answer.
    let threshold = |db: &mut Database, opts: &DbOptions, q: &str| {
        db.set_options(DbOptions {
            max_steps: 10_000,
            ..opts.clone()
        });
        let answer = observe(db, q, &mut FirstChooser, Limits::none()).0;
        assert!(answer.is_ok(), "{q}: {answer:?}");
        (0u64..)
            .find(|&max_steps| {
                db.set_options(DbOptions {
                    max_steps,
                    ..opts.clone()
                });
                let got = observe(db, q, &mut FirstChooser, Limits::none()).0;
                assert!(
                    got == answer || got == Err(EvalError::FuelExhausted),
                    "budget {max_steps} on {q}: {got:?}"
                );
                got == answer
            })
            .unwrap()
    };
    for q in &family {
        let operand = &q[q.find('(').unwrap() + 1..q.len() - 1];
        let big_opts = with(Engine::BigStep, false);
        let big_cost = threshold(&mut big, &big_opts, q) - threshold(&mut big, &big_opts, operand);
        assert_eq!(big_cost, 1, "big-step burns once for the root of {q}");
        for (db, compile) in plans.iter_mut().zip(plan_variants) {
            let opts = with(Engine::Plan, compile);
            let cost = threshold(db, &opts, q) - threshold(db, &opts, operand);
            assert_eq!(
                cost, big_cost,
                "aggregate node fuel, compile {compile}, on {q}"
            );
        }
    }
}
