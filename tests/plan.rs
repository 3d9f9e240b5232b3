//! Differential parity for the physical-plan executor (ISSUE 3
//! tentpole): for every workload the plan layer accepts, executing the
//! lowered operator pipeline must be observationally identical to both
//! interpreters — same values and stores (up to oid bijection), same
//! effect traces, same pass/fail verdicts under every chooser (including
//! the fault-injecting [`ChaosChooser`]) and under tight governor
//! budgets, with no resource charges leaking through (or skipped by)
//! any operator.

#![allow(clippy::result_large_err)]

use ioql::plan::{execute, lower, lower_with, ParSpec, Plan};
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

/// `lower_with` declines for one reason: it returns `None` exactly when
/// `Thm7::decide` refuses the query — whatever the root's shape, with the
/// compile pass on or off.
#[test]
fn lowering_declines_exactly_when_theorem_7_refuses() {
    let (mut lowered, mut refused) = (0, 0);
    for (fx, allow_invoke) in [(jack_jill(), false), (ioql_testkit::payroll(), true)] {
        let tenv = TypeEnv::new(&fx.schema);
        let eenv = EffectEnv::new(&fx.schema);
        let defs = DefEnv::new();
        for seed in 0..200u64 {
            let cfg = GenConfig {
                allow_new: seed % 2 == 0,
                allow_invoke,
                ..GenConfig::default()
            };
            let mut g = QueryGen::new(&fx.schema, seed, cfg);
            let target = g.target_type();
            let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
            let (_, effect) = infer_query(&eenv, &elab).unwrap();
            let lowerable = ioql::Thm7::decide(&elab, &effect, |d| defs.get(d)).lowerable();
            for compile in [false, true] {
                let spec = ParSpec {
                    compile,
                    ..ParSpec::off()
                };
                let plan = lower_with(&elab, &effect, &defs, &Stats::new(), &spec);
                assert_eq!(plan.is_some(), lowerable, "seed {seed} on {elab}");
            }
            *(if lowerable {
                &mut lowered
            } else {
                &mut refused
            }) += 1;
        }
    }
    assert!(lowered >= 100 && refused >= 100, "{lowered} / {refused}");
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

/// Through the `Database` facade: production must agree with the spec
/// on a mixed workload — eligible queries (plan executor) and mutating
/// ones (Theorem 7 refuses; big-step runs them) — under every chooser.
/// Warm/cold construction histories are identical, so plain value
/// equality is the oid bijection.
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
        "{ new Person(name: 9, age: 9) | n <- {1} }", // refused: mutates
        "{ p.age | p <- Persons }",
        "sum({ p.age + q.age | p <- Persons, q <- Persons, p.name = q.name })",
    ];
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xBEEF)),
    ];
    for mk in &mk_choosers {
        let mut dbs = [build(Engine::Plan), build(Engine::SmallStep)];
        for q in workload {
            let rp = dbs[0].query_with(q, &mut *mk()).unwrap();
            let rs = dbs[1].query_with(q, &mut *mk()).unwrap();
            assert_eq!(rp.value, rs.value, "production vs spec on {q}");
            assert_eq!(rp.static_effect, rs.static_effect, "static effect on {q}");
            assert_eq!(rp.steps, 0, "production reports no machine steps");
        }
        // The mutating query really ran on both.
        for db in &dbs {
            assert_eq!(db.extent_len("Persons"), 6 + 1);
        }
    }
}

/// The governor axis through the facade: a production query under a
/// too-small cell budget fails with the same class as the interpreters,
/// and an exact budget passes.
#[test]
fn database_engine_plan_respects_budgets() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
        }";
    let opts = DbOptions {
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

/// Aggregate roots (`sum`/`size` over anything) run on the `Aggregate`
/// operator, not the interpreter, and must stay observationally
/// identical to both interpreters — with the compile pass on and off,
/// under every chooser, on every meter, and at every fuel budget. The
/// `Database` only elaborates the texts and holds the fixture; the four
/// executors are called directly, on one elaborated query.
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
    let mut db = Database::from_ddl(DDL).unwrap();
    db.define("define inDept(d: int) as { e | e <- Employees, e.dept = d };")
        .unwrap();
    for populate in [
        "{ new Person(name: n, age: 30) | n <- {1, 2, 3, 4} }",
        "{ new Person(name: n, age: n + 30) | n <- {5, 6, 7, 8, 9, 10, 11, 12} }",
        "{ new Employee(name: n, age: n + 20, dept: 3) | n <- {20, 21, 22} }",
        "{ new Employee(name: n, age: 50, dept: 4) | n <- {30, 31} }",
    ] {
        db.query(populate).unwrap();
    }
    let schema = db.schema().clone();
    let store = db.store().clone();
    let mut defs = DefEnv::new();
    for def in db.definitions() {
        defs.insert(def);
    }
    let mut stats = Stats::new();
    for (e, _, members) in store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let family: Vec<String> = [
        "sum({ p.age | p <- Persons, p.name <= 6 })",
        "size({ p | p <- Persons, p.name = 2 })",
        "sum({ p.age + e.dept | p <- Persons, e <- Employees, p.name = e.name })",
        "size(Persons)",
        "sum({ p.age | p <- Persons, p.name < 4 } union { e.dept | e <- Employees })",
        "size({ p.name | p <- Persons } except { e.name | e <- Employees })",
        "sum({ e.age | e <- inDept(3) })",
        "size(inDept(3))",
        // An input with no operator of its own is an `Eval` under the fold.
        "sum({1, 2, 3})",
    ]
    .into_iter()
    .map(String::from)
    // The `i64` boundaries of `sum_wraps_identically_at_integer_
    // boundaries`, as comprehensions.
    .chain([
        format!("sum({{ x | x <- {{ {MAX}, 1 }} }})"),
        format!("sum({{ x | x <- {{ 0 - {MAX} - 1, 0 - 1 }} }})"),
    ])
    .collect();
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xA66)),
    ];
    // One executor on one elaborated query: outcome (the exact error on
    // failure) and the cell meter.
    const EXECUTORS: [&str; 4] = ["big-step", "small-step", "plan", "plan + vm"];
    let run = |exec: usize, q: &str, ch: &mut dyn Chooser, limits: Limits, fuel: u64| {
        let prepared = db.prepare(q).unwrap();
        let governor = Governor::new(limits);
        let cfg = EvalConfig::new(&schema).with_governor(&governor);
        let mut store = store.clone();
        let r = match exec {
            0 => eval_big(&cfg, &defs, &mut store, &prepared.elab, ch, fuel)
                .map(|r| (r.value, r.effect)),
            1 => evaluate(&cfg, &defs, &mut store, &prepared.elab, ch, fuel)
                .map(|r| (r.value, r.effect)),
            _ => {
                let spec = ParSpec {
                    compile: exec == 3,
                    ..ParSpec::off()
                };
                let plan = lower_with(&prepared.elab, &prepared.effect, &defs, &stats, &spec)
                    .unwrap_or_else(|| panic!("{q} must lower"));
                execute(&plan, &cfg, &defs, &mut store, ch, fuel).map(|r| (r.value, r.effect))
            }
        };
        (r, governor.cells_spent())
    };
    for q in &family {
        let prepared = db.prepare(q).unwrap();
        let rendered = lower(&prepared.elab, &prepared.effect, &defs, &stats)
            .unwrap()
            .render();
        assert!(
            rendered.contains("  Aggregate s"),
            "{q} must run on the Aggregate operator:\n{rendered}"
        );
        for mk in &mk_choosers {
            let want = run(0, q, &mut *mk(), Limits::none(), 1_000_000);
            assert!(want.0.is_ok(), "{q}: {want:?}");
            for (exec, name) in EXECUTORS.iter().enumerate().skip(1) {
                let got = run(exec, q, &mut *mk(), Limits::none(), 1_000_000);
                assert_eq!(got, want, "{name} vs big-step on {q}");
            }
        }
        // A cardinality cap trips at the same observation (the error
        // carries the observed cardinality), or not at all, everywhere.
        for cap in [0, 2, 4, 11] {
            let limits = Limits::none().with_max_set_card(cap);
            let want = run(0, q, &mut FirstChooser, limits, 1_000_000);
            for (exec, name) in EXECUTORS.iter().enumerate().skip(2) {
                let got = run(exec, q, &mut FirstChooser, limits, 1_000_000);
                assert_eq!(got, want, "set-card cap {cap}, {name} on {q}");
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
    let threshold = |exec: usize, q: &str| {
        let answer = run(exec, q, &mut FirstChooser, Limits::none(), 10_000).0;
        assert!(answer.is_ok(), "{q}: {answer:?}");
        (0u64..)
            .find(|&max_steps| {
                let got = run(exec, q, &mut FirstChooser, Limits::none(), max_steps).0;
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
        for exec in [0, 2, 3] {
            let cost = threshold(exec, q) - threshold(exec, operand);
            assert_eq!(cost, 1, "aggregate node fuel, {}, on {q}", EXECUTORS[exec]);
        }
    }
}

/// The profile zoo: every way a pipeline row is produced or rejected —
/// nested generators with a late filter (interpreted and compiled), a
/// probe that hits, the cross-generator semi-join, a probe whose index
/// is abandoned, set operators over an op-level and a stage-level scan,
/// and an aggregate root — over six `Person`s (`name` 1–6, `age` 21–26).
/// Row expressions are comprehension-free, so every chooser draw is a
/// pipeline draw.
fn profile_zoo() -> (
    ioql_schema::Schema,
    ioql_store::Store,
    Vec<(&'static str, Plan)>,
) {
    use ioql::plan::{EqKind, Guard, HashIndexBuild, KeyAccess, Op, OpKind, Stage, StageKind};
    use ioql_ast::{Query, VarName};
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let mut db = Database::from_ddl(DDL).unwrap();
    db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4, 5, 6} }")
        .unwrap();
    let defs = DefEnv::new();
    let mut real = Stats::new();
    for (e, _, members) in db.store().extents.iter() {
        real.set(e.clone(), members.len());
    }
    // `Stats::new()` estimates every extent at 1000 rows: with the
    // predicate interpreted, the cost model picks the probe.
    let lowered = |src: &str, stats: &Stats, compile: bool| {
        let prepared = db.prepare(src).unwrap();
        let spec = ParSpec {
            compile,
            ..ParSpec::off()
        };
        lower_with(&prepared.elab, &prepared.effect, &defs, stats, &spec).unwrap()
    };
    const LATE_FILTER: &str = "{ p.age + q.age | p <- Persons, q <- Persons, q.name < 3 }";
    let mut zoo = vec![
        (
            "late filter, interpreted",
            lowered(LATE_FILTER, &real, false),
        ),
        ("late filter, compiled", lowered(LATE_FILTER, &real, true)),
        (
            "probe hit",
            lowered("{ p.age | p <- Persons, p.name = 3 }", &Stats::new(), false),
        ),
        (
            "semi-join probe",
            lowered(
                "{ p.age + q.age | p <- Persons, q <- Persons, q.name = p.name }",
                &Stats::new(),
                false,
            ),
        ),
        (
            "set operators",
            lowered(
                "Persons except { p | p <- Persons, p.name < 3 }",
                &real,
                true,
            ),
        ),
        (
            "aggregate root",
            lowered("sum({ p.age | p <- Persons, p.name < 5 })", &real, true),
        ),
    ];
    // The index is abandoned at the first draw (the build declares `==`
    // over integer elements), so every row takes the kept predicate.
    let x = VarName::new("x");
    let mut abandoned = Plan {
        root: Op::new(OpKind::Distinct {
            input: Box::new(Op::new(OpKind::MapProject {
                head: Query::var("x"),
                input: Box::new(Op::new(OpKind::Pipeline {
                    stages: vec![
                        Stage::new(StageKind::Scan {
                            var: x.clone(),
                            source: Query::set_lit([Query::int(1), Query::int(2), Query::int(3)]),
                            est_rows: 3,
                        }),
                        Stage::new(StageKind::HashIndexProbe {
                            var: x,
                            build: HashIndexBuild {
                                eq: EqKind::Obj,
                                key: KeyAccess::Bare,
                                est_rows: 3,
                            },
                            probe: Query::int(2),
                            pred: Query::var("x").int_eq(Query::int(2)),
                            scan_cost: 100,
                            index_cost: 1,
                        }),
                    ],
                })),
            })),
        }),
        guard: Guard {
            effect: ioql_effects::Effect::empty(),
        },
        compiled: Default::default(),
    };
    abandoned.number();
    zoo.push(("abandoned index", abandoned));
    let store = db.store().clone();
    (db.schema().clone(), store, zoo)
}

/// The profile is the draw protocol: each node's `(calls, rows)` is
/// fixed by how many rows `(ND comp)` draws through it, whatever the
/// order; the generator stages' rows add up to the chooser's draw total;
/// and profiling changes nothing `execute` reports.
#[test]
fn profile_counts_follow_the_draw_protocol() {
    use ioql::plan::execute_with_profile;
    use ioql_eval::CountingChooser;
    use ioql_telemetry::MetricsRegistry;
    // (calls, rows) per node, in pre-order.
    let want: [(&str, &[(u64, u64)]); 7] = [
        (
            "late filter, interpreted",
            &[(1, 7), (1, 7), (1, 7), (1, 6), (6, 36), (36, 12)],
        ),
        (
            "late filter, compiled",
            &[(1, 7), (1, 7), (1, 7), (1, 6), (6, 36), (36, 12)],
        ),
        ("probe hit", &[(1, 1), (1, 1), (1, 1), (1, 6), (6, 1)]),
        (
            "semi-join probe",
            &[(1, 6), (1, 6), (1, 6), (1, 6), (6, 36), (36, 6)],
        ),
        (
            "set operators",
            &[(1, 4), (1, 6), (1, 2), (1, 2), (1, 2), (1, 6), (6, 2)],
        ),
        (
            "aggregate root",
            &[(1, 1), (1, 4), (1, 4), (1, 4), (1, 6), (6, 4)],
        ),
        ("abandoned index", &[(1, 1), (1, 1), (1, 1), (1, 3), (3, 1)]),
    ];
    let (schema, store, zoo) = profile_zoo();
    let defs = DefEnv::new();
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xD4A3)),
    ];
    for ((name, plan), (wanted_name, counts)) in zoo.iter().zip(want) {
        assert_eq!(*name, wanted_name);
        for mk in &mk_choosers {
            let run = |profiled: bool| {
                let draws = MetricsRegistry::new(true).counter("draws", "Chooser draws.");
                let governor = Governor::new(Limits::none());
                let cfg = EvalConfig::new(&schema).with_governor(&governor);
                let mut inner = mk();
                let mut chooser = CountingChooser::new(&mut *inner, draws.clone());
                let mut store = store.clone();
                let (r, profile) = if profiled {
                    let (r, p) =
                        execute_with_profile(plan, &cfg, &defs, &mut store, &mut chooser, 100_000)
                            .unwrap();
                    (r, Some(p))
                } else {
                    let r = execute(plan, &cfg, &defs, &mut store, &mut chooser, 100_000);
                    (r.unwrap(), None)
                };
                (
                    (r.value, r.effect, governor.cells_spent(), draws.get()),
                    profile,
                )
            };
            let (plain, _) = run(false);
            let (profiled, profile) = run(true);
            assert_eq!(profiled, plain, "{name}: profiling moved an observable");
            let entries = profile.unwrap().entries;
            let got: Vec<(u64, u64)> = entries.iter().map(|e| (e.calls, e.rows)).collect();
            assert_eq!(got, counts, "{name}:\n{}", plan.render());
            let drawn: u64 = entries
                .iter()
                .filter(|e| e.label.contains(" <- "))
                .map(|e| e.rows)
                .sum();
            assert_eq!(drawn, plain.3, "{name}: generator rows vs chooser draws");
            assert_eq!(drawn, plain.2, "{name}: one cell per draw");
        }
    }
}

/// One walk, three views: `Plan::render`, `PlanProfile::entries` and
/// `Plan::verdicts` list the same nodes in the same pre-order — every
/// rendered line (bar the header and a probe's `HashIndexBuild` detail
/// line) is one profile entry at the same depth under the same label,
/// and a verdict's id is its entry's position.
#[test]
fn render_profile_and_verdicts_list_the_same_nodes() {
    use ioql::plan::execute_with_profile;
    let (schema, store, zoo) = profile_zoo();
    let cfg = EvalConfig::new(&schema);
    let defs = DefEnv::new();
    let mut annotated = 0;
    for (name, plan) in &zoo {
        let (_, profile) = execute_with_profile(
            plan,
            &cfg,
            &defs,
            &mut store.clone(),
            &mut FirstChooser,
            100_000,
        )
        .unwrap();
        let rendered = plan.render();
        let lines: Vec<&str> = rendered
            .lines()
            .skip(1)
            .filter(|l| !l.trim_start().starts_with("HashIndexBuild"))
            .collect();
        assert_eq!(lines.len(), profile.entries.len(), "{name}:\n{rendered}");
        for (line, e) in lines.iter().zip(&profile.entries) {
            let indent = "  ".repeat(e.depth);
            assert!(
                line.strip_prefix(&indent)
                    .is_some_and(|l| l.starts_with(&e.label)),
                "{name}: `{line}` vs depth {} `{}`",
                e.depth,
                e.label
            );
        }
        let verdicts = plan.verdicts();
        assert_eq!(verdicts.len(), plan.compiled.len(), "{name}");
        for (i, line) in lines.iter().enumerate() {
            match verdicts.iter().find(|v| v.id.0 as usize == i) {
                Some(v) => {
                    annotated += 1;
                    assert_eq!(v.label, profile.entries[i].label, "{name}");
                    assert!(line.ends_with(&format!("  [{}]", v.compile)), "{line}");
                }
                None => assert!(
                    !line.contains("[vm]") && !line.contains("[interp("),
                    "{line}"
                ),
            }
        }
    }
    assert!(
        annotated >= 6,
        "only {annotated} annotated nodes in the zoo"
    );
}

/// `:plan` text is an interface: the operator zoo's renderings, under
/// both cost-model outcomes, against the golden captured before the
/// renderer was rebuilt on `label()` (re-capture with `IOQL_BLESS=1`).
#[test]
fn operator_zoo_renders_as_the_golden() {
    let fx = jack_jill();
    let mut got = String::new();
    for q in operator_zoo(&fx) {
        for real_stats in [true, false] {
            let plan = lower_for(&fx, &q, real_stats).unwrap();
            got.push_str(&format!(
                "-- {q} (real stats: {real_stats})\n{}",
                plan.render()
            ));
        }
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/plan_zoo.txt"
    );
    if std::env::var_os("IOQL_BLESS").is_some() {
        std::fs::write(golden, &got).unwrap();
    }
    assert_eq!(got, std::fs::read_to_string(golden).unwrap());
}

/// `jack_jill`'s schema over `ps` more persons (`name` = i mod 7, so keys
/// repeat) and `fs` friends (`name` = i mod 5, `pal` one of the persons).
fn join_fixture(ps: usize, fs: usize) -> Fixture {
    use ioql_ast::Value;
    let mut fx = jack_jill();
    let mut pals = vec![fx.oid("jack"), fx.oid("jill")];
    for i in 0..ps {
        pals.push(fx.create("P", vec![("name", Value::Int(i as i64 % 7))], None));
    }
    for i in 0..fs {
        let pal = Value::Oid(pals[i * 3 % pals.len()]);
        fx.create(
            "F",
            vec![("name", Value::Int(i as i64 % 5)), ("pal", pal)],
            None,
        );
    }
    fx
}

/// The three executors a semi-join run is compared on.
enum Exec<'q> {
    Plan(&'q Plan),
    BigStep(&'q ioql_ast::Query),
    SmallStep(&'q ioql_ast::Query),
}

/// What a run must reproduce: the outcome (the exact error on failure),
/// the cell meter and the chooser's draw count.
type Observed = (
    Result<(ioql_ast::Value, ioql_effects::Effect), EvalError>,
    u64,
    u64,
);

fn observe(
    fx: &Fixture,
    exec: &Exec<'_>,
    mk: fn() -> Box<dyn Chooser>,
    limits: Limits,
    fuel: u64,
) -> Observed {
    use ioql_eval::CountingChooser;
    let draws = ioql_telemetry::MetricsRegistry::new(true).counter("draws", "Chooser draws.");
    let governor = Governor::new(limits);
    let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
    let defs = DefEnv::new();
    let mut store = fx.store.clone();
    let mut inner = mk();
    let ch = &mut CountingChooser::new(&mut *inner, draws.clone());
    let r = match exec {
        Exec::Plan(p) => execute(p, &cfg, &defs, &mut store, ch, fuel).map(|r| (r.value, r.effect)),
        Exec::BigStep(q) => {
            eval_big(&cfg, &defs, &mut store, q, ch, fuel).map(|r| (r.value, r.effect))
        }
        Exec::SmallStep(q) => {
            evaluate(&cfg, &defs, &mut store, q, ch, fuel).map(|r| (r.value, r.effect))
        }
    };
    (r, governor.cells_spent(), draws.get())
}

/// The production lowering: the compile pass on, the store's own
/// statistics.
fn lower_production(fx: &Fixture, q: &ioql_ast::Query) -> Plan {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).unwrap();
    let mut stats = Stats::new();
    for (e, _, members) in fx.store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let spec = ParSpec {
        compile: true,
        ..ParSpec::off()
    };
    lower_with(q, &eff, &DefEnv::new(), &stats, &spec).unwrap()
}

/// Semi-joins through the probe are the naive engines' joins: an
/// int-keyed attribute join with the probe side on either hand, and an
/// oid-keyed one, each lowered as production lowers it (the compile pass
/// on, real statistics) and run over duplicate keys, an empty inner
/// extent, an outer row whose probe side is ill-formed (that drain falls
/// back to the predicate, which sticks like the naive engines), and an
/// inner element whose key cannot be read (the index is abandoned) —
/// under four choosers and cell caps around each run's draw count, the
/// value, runtime effect, cells, draws and exact error equal big-step's
/// (and small-step's on the small store). Fuel is spent on the plan's own
/// schedule: at every budget the plan answers big-step's answer or runs
/// out, never anything else, and the compiled and interpreted plans trip
/// at the same budget with the same observables.
#[test]
fn semi_joins_agree_with_the_interpreters_on_every_meter() {
    use ioql_ast::{Oid, Value};
    const JOINS: [&str; 3] = [
        "{ p.name + f.name | p <- Ps, f <- Fs, f.name = p.name }",
        "{ p.name + q.name | p <- Ps, q <- Ps, p.name = q.name }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal }",
    ];
    let big = join_fixture(40, 30);
    let mut dangling_pal = big.clone();
    let ghost = Value::Oid(Oid::from_raw(77_777));
    dangling_pal.create("F", vec![("name", Value::Int(3)), ("pal", ghost)], None);
    let mut nameless = big.clone();
    nameless.create("P", vec![], None);
    let stores = [
        ("duplicate keys", big.clone(), false),
        ("small", join_fixture(4, 3), true),
        ("empty Fs", join_fixture(40, 0), false),
        ("dangling pal", dangling_pal, false),
        ("nameless person", nameless, false),
    ];
    let mks: [fn() -> Box<dyn Chooser>; 4] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0x5E1)),
        || Box::new(ChaosChooser::new(0x5E1, None)),
    ];
    let tenv = TypeEnv::new(&big.schema);
    for src in JOINS {
        let q = check_query(&tenv, &big.query(src)).unwrap().0;
        let plan = lower_production(&big, &q);
        assert!(
            plan.render().contains("HashIndexProbe"),
            "{}",
            plan.render()
        );
        for (name, fx, small_step) in &stores {
            for mk in mks {
                let want = observe(fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
                let got = observe(fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
                assert_eq!(got, want, "{name}: plan vs big-step on {src}");
                if *small_step {
                    let spec = observe(fx, &Exec::SmallStep(&q), mk, Limits::none(), 1_000_000);
                    assert_eq!(spec, want, "{name}: small-step vs big-step on {src}");
                }
                for cap in [0, 1, want.2 / 2, want.2.saturating_sub(1)] {
                    let limits = Limits::none().with_max_cells(cap);
                    let want = observe(fx, &Exec::BigStep(&q), mk, limits, 1_000_000);
                    let got = observe(fx, &Exec::Plan(&plan), mk, limits, 1_000_000);
                    assert_eq!(got, want, "{name}: {cap} cells, plan vs big-step on {src}");
                }
            }
        }
        // Fuel, on the small store, at every budget up to the answer.
        let (fx, interpreted) = (&stores[1].1, lower_for(&big, &q, true).unwrap());
        assert!(interpreted.render().contains("HashIndexProbe"));
        let answer = observe(fx, &Exec::BigStep(&q), mks[0], Limits::none(), 1_000_000);
        let mut answered = false;
        for fuel in 0..100_000 {
            let got = observe(fx, &Exec::Plan(&plan), mks[0], Limits::none(), fuel);
            let same = observe(fx, &Exec::Plan(&interpreted), mks[0], Limits::none(), fuel);
            assert_eq!(
                got, same,
                "budget {fuel}: compiled vs interpreted plan on {src}"
            );
            answered = got == answer;
            assert!(
                answered || got.0 == Err(EvalError::FuelExhausted),
                "budget {fuel} on {src}: {got:?}"
            );
            if answered {
                break;
            }
        }
        assert!(answered, "{src} never answered");
    }
}

/// The cached "abandoned" verdict: a hand-built probe whose index cannot
/// be built (its `=` meets oid keys) over an extent drained once per
/// outer row. The first drain abandons the index and every later one
/// reads that verdict from the execution's table, falling back to the
/// predicate each time — the naive engines' join, on every meter.
#[test]
fn an_abandoned_index_falls_back_on_every_drain() {
    use ioql::plan::{EqKind, Guard, HashIndexBuild, KeyAccess, Op, OpKind, Stage, StageKind};
    use ioql_ast::{Query, VarName};
    let fx = join_fixture(12, 0);
    let tenv = TypeEnv::new(&fx.schema);
    let src = "{ p.name + q.name | p <- Ps, q <- Ps, q.name = p.name }";
    let q = check_query(&tenv, &fx.query(src)).unwrap().0;
    let scan = |var: &str| StageKind::ExtentScan {
        var: VarName::new(var),
        extent: ioql_ast::ExtentName::new("Ps"),
        est_rows: 14,
    };
    let mut plan = Plan {
        root: Op::new(OpKind::Distinct {
            input: Box::new(Op::new(OpKind::MapProject {
                head: Query::var("p")
                    .attr("name")
                    .add(Query::var("q").attr("name")),
                input: Box::new(Op::new(OpKind::Pipeline {
                    stages: vec![
                        Stage::new(scan("p")),
                        Stage::new(scan("q")),
                        Stage::new(StageKind::HashIndexProbe {
                            var: VarName::new("q"),
                            build: HashIndexBuild {
                                eq: EqKind::Int,
                                key: KeyAccess::Bare,
                                est_rows: 14,
                            },
                            probe: Query::var("p").attr("name"),
                            pred: Query::var("q")
                                .attr("name")
                                .int_eq(Query::var("p").attr("name")),
                            scan_cost: 100,
                            index_cost: 1,
                        }),
                    ],
                })),
            })),
        }),
        guard: Guard {
            effect: ioql_effects::Effect::empty(),
        },
        compiled: Default::default(),
    };
    plan.number();
    let mks: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xAB)),
    ];
    for mk in mks {
        let want = observe(&fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
        assert!(want.0.is_ok() && want.2 == 14 + 14 * 14, "{want:?}");
        let got = observe(&fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
        assert_eq!(got, want, "abandoned index vs big-step on {src}");
    }
}

/// The index lives for one execution: a write between two executions of
/// the same semi-join is seen by the second, exactly as the spec sees it.
#[test]
fn a_write_between_two_executions_reaches_the_probe() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let names: Vec<String> = (1..=20).map(|n| n.to_string()).collect();
    let populate = format!(
        "{{ new Person(name: n, age: a) | n <- {{{}}}, a <- {{1, 2}} }}",
        names.join(", ")
    );
    let join = "{ p.name + q.name | p <- Persons, q <- Persons, q.age = p.name }";
    let mut dbs = [Engine::Plan, Engine::SmallStep].map(|engine| {
        let opts = DbOptions {
            engine,
            cache_capacity: 0,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query(&populate).unwrap();
        db
    });
    let plan = dbs[0].explain(join).unwrap();
    assert!(plan.contains("HashIndexProbe  q.age = p.name"), "{plan}");
    let before = dbs.each_mut().map(|db| db.query(join).unwrap().value);
    assert_eq!(before[0], before[1]);
    for db in &mut dbs {
        db.query("{ new Person(name: 50, age: 3) | n <- {1} }")
            .unwrap();
    }
    let after = dbs.each_mut().map(|db| db.query(join).unwrap().value);
    assert_eq!(after[0], after[1]);
    assert_ne!(
        after[0], before[0],
        "the write must reach the second execution"
    );
}

/// The decision both ways, over the benchmark's statistics (20 000
/// persons, 2 000 employees), as production optimizes and lowers: the
/// join drained once per outer employee amortizes its build and picks the
/// probe; a closed equality drained once keeps its compiled filter.
#[test]
fn the_probe_is_chosen_where_an_extent_is_drained_repeatedly() {
    use ioql_opt::{OptOptions, Optimizer};
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }
        class Employee extends Person (extent Employees) {
            attribute int EmpID;
            attribute int dept;
        }";
    let db = Database::from_ddl(DDL).unwrap();
    let mut stats = Stats::new();
    stats.set("Persons", 20_000);
    stats.set("Employees", 2_000);
    let spec = ParSpec {
        compile: true,
        ..ParSpec::off()
    };
    for (src, chosen) in [
        (
            "{ e.EmpID + f.EmpID | e <- Employees, f <- Employees, e.dept = 7, f.dept = e.dept }",
            "HashIndexProbe  f.dept = e.dept",
        ),
        (
            "{ p.name | p <- Persons, p.age = 42 }",
            "Filter  p.age = 42  [vm]",
        ),
    ] {
        let prepared = db.prepare(src).unwrap();
        let optimized = Optimizer::new(db.schema(), stats.clone(), OptOptions::default())
            .optimize_in_scope([], &prepared.elab);
        let plan = lower_with(&optimized, &prepared.effect, &DefEnv::new(), &stats, &spec)
            .unwrap()
            .render();
        assert!(plan.contains(chosen), "{src}:\n{plan}");
    }
}

/// A probe over a computed source keeps one index per drain: the source
/// reads the outer binder, so each drain indexes different elements.
#[test]
fn a_computed_source_is_indexed_per_drain() {
    let fx = join_fixture(6, 0);
    let tenv = TypeEnv::new(&fx.schema);
    let src = "{ x | p <- Ps, x <- { q.name + p.name | q <- Ps }, x = 4 }";
    let q = check_query(&tenv, &fx.query(src)).unwrap().0;
    let plan = lower_for(&fx, &q, false).unwrap();
    assert!(
        plan.render().contains("HashIndexProbe  x = 4"),
        "{}",
        plan.render()
    );
    let mks: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xC0)),
    ];
    for mk in mks {
        let want = observe(&fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
        let four = ioql_ast::Value::set([ioql_ast::Value::Int(4)]);
        assert_eq!(want.0.as_ref().map(|(v, _)| v), Ok(&four), "{src}");
        let got = observe(&fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
        assert_eq!(got, want, "plan vs big-step on {src}");
    }
}
