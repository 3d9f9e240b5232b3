//! The names `benchmark/` spells and this workspace may not rename
//! (DESIGN.md §6 "Names the harness pins"), spelled here the way the
//! harness spells them, so tier-1 — not only the benchmark build — fails
//! when one moves. Four of them are inert: `DbOptions::parallelism` and
//! `ParSpec::{parallelism, schema, branch_effect}` sized a worker pool
//! that no longer exists, and stay declared (deprecated, read by no
//! code) only because the harness writes them in struct literals. The
//! second test holds them to their old contract: no value of theirs
//! changes an observable. The fourth test spells the reply and counter
//! types `inproc.rs` and `wire.rs` read off a request — the ones a change
//! to how results are shared would be tempted to move. The last spells
//! the method-effect table `ladder.rs` builds from a schema alone.

#![allow(deprecated)] // spelling the four inert fields is the point

use ioql::ast::Program;
use ioql::effects::{infer_query, EffectEnv, MethodEffects};
use ioql::eval::{DefEnv, EvalConfig};
use ioql::opt::{OptOptions, Stats};
use ioql::plan::{execute, execute_with_profile, lower_with, CompileVerdict, ParSpec, Plan};
use ioql::types::{check_query, TypeEnv};
use ioql::{
    Admitted, CacheStats, Database, DbOptions, Durability, Engine, FirstChooser, Governor, Query,
    QueryResult, Session, Value,
};

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }";

/// The literal of `benchmark/src/data.rs::bench_options`, pool size aside.
fn bench_options(parallelism: usize) -> DbOptions {
    DbOptions {
        engine: Engine::Plan,
        compile: true,
        optimize: true,
        parallelism,
        telemetry: false,
        trace_capacity: 0,
        cache_capacity: 1024,
        durability: Durability::Off,
        ..DbOptions::default()
    }
}

fn populated(opts: DbOptions) -> Database {
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} }")
        .unwrap();
    db
}

const QUERIES: &[&str] = &[
    "{ p.age + 1 | p <- Persons, p.name < 7 }",
    "{ p | p <- Persons, p.name = 3 }",
    "{ p.name | p <- Persons } union { q.age | q <- Persons, q.age = 25 }",
    "sum({ p.age | p <- Persons })",
];

/// The ledger measures what ships: on the three fields that choose an
/// execution path, the harness's literal *is* the default.
#[test]
fn the_default_configuration_is_the_one_the_ledger_measures() {
    let (default, bench) = (DbOptions::default(), bench_options(0));
    assert_eq!(Engine::default(), Engine::Plan);
    assert_eq!(
        (default.engine, default.compile, default.optimize),
        (bench.engine, bench.compile, bench.optimize)
    );
}

#[test]
fn database_options_ignore_the_pool_size() {
    let mut zero = populated(bench_options(0));
    let mut four = populated(bench_options(4));
    for q in QUERIES {
        assert_eq!(zero.explain(q).unwrap(), four.explain(q).unwrap(), "{q}");
        let (a, b) = (zero.query(q).unwrap(), four.query(q).unwrap());
        assert_eq!(a.value, b.value, "{q}");
        assert_eq!(a.runtime_effect, b.runtime_effect, "{q}");
        assert_eq!(a.cached, b.cached, "{q}");
    }
}

/// The execution rungs of `benchmark/src/ladder.rs::Ladder::climb`:
/// `optimize`, the `ParSpec` literal, `lower_with`, `plan.compiled`,
/// `CompileVerdict::Vm`, `execute`, `execute_with_profile`.
#[test]
fn a_plan_lowered_for_a_pool_of_four_is_the_plan_lowered_for_none() {
    let db = populated(bench_options(0));
    let schema = db.schema().clone();
    let store = db.store().clone();
    let mut stats = Stats::new();
    for (e, _, members) in store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let def_env = DefEnv::new();
    let eenv = EffectEnv::new(&schema);
    let tenv = TypeEnv::new(&schema);

    for src in QUERIES {
        let raw = ioql::syntax::parse_query(src).unwrap();
        let (elab, _) = check_query(&tenv, &schema.resolve_query(&raw)).unwrap();
        let (_, effect) = infer_query(&eenv, &elab).unwrap();
        let program = Program::new(Vec::new(), elab);
        let (program, _applied) =
            ioql::opt::optimize(&schema, &program, stats.clone(), OptOptions::default());
        let elab: Query = program.query;

        let lowered = |parallelism: usize| -> Plan {
            let branch_effect = |q: &Query| infer_query(&eenv, q).ok().map(|(_, eff)| eff);
            let spec = ParSpec {
                parallelism,
                compile: true,
                schema: Some(&schema),
                branch_effect: Some(&branch_effect),
            };
            lower_with(&elab, &effect, &def_env, &stats, &spec)
                .unwrap_or_else(|| panic!("{src} must lower"))
        };
        let (zero, four) = (lowered(0), lowered(4));
        assert_eq!(zero.render(), four.render(), "{src}");
        let vm_nodes = |plan: &Plan| {
            plan.compiled
                .values()
                .filter(|v| matches!(v, CompileVerdict::Vm(_)))
                .count()
        };
        assert!(vm_nodes(&zero) > 0, "{src}: something must compile");
        assert_eq!(vm_nodes(&zero), vm_nodes(&four), "{src}");
        assert_eq!(zero.compiled.len(), four.compiled.len(), "{src}");

        let run = |plan: &Plan| {
            let governor = Governor::new(db.options().limits);
            let cfg = EvalConfig::new(&schema).with_governor(&governor);
            let mut s = store.clone();
            let r = execute(plan, &cfg, &def_env, &mut s, &mut FirstChooser, 1_000_000).unwrap();
            let (p, profile) =
                execute_with_profile(plan, &cfg, &def_env, &mut s, &mut FirstChooser, 1_000_000)
                    .unwrap();
            assert_eq!(p.value, r.value, "{src}: the profiled run disagrees");
            let scan_rows: u64 = profile
                .entries
                .iter()
                .filter(|e| e.label.starts_with("ExtentScan"))
                .map(|e| e.rows)
                .sum();
            (r.value, r.effect, governor.cells_spent(), scan_rows)
        };
        assert_eq!(run(&zero), run(&four), "{src}");
    }
}

/// What `benchmark/src/{inproc,wire}.rs` read off a request and off the
/// cache, typed the way they type it: an owned `Value` (not a shared
/// one), `cached`, the admission stamp, the three `u64` cache counters,
/// and the per-session options swap `wire.rs::PathSessions` uses to take
/// the miss path on purpose.
#[test]
fn the_reply_and_counter_types_the_harness_reads() {
    let db = populated(bench_options(0));
    let mut hit: Session = db.session("traced-hit");
    let mut miss: Session = db.session("traced-miss");
    miss.set_options(DbOptions {
        cache_capacity: 0,
        ..db.options()
    });
    let before: CacheStats = db.cache_stats();
    for (via_hit, want_cached) in [(true, false), (true, true), (false, false)] {
        let session = if via_hit { &mut hit } else { &mut miss };
        let QueryResult {
            value,
            cached,
            admitted,
            ..
        } = session.query(QUERIES[3]).unwrap();
        let value: Value = value;
        let cached: bool = cached;
        let admitted: Option<Admitted> = admitted;
        assert_eq!(value, Value::Int((21..=32).sum()));
        assert_eq!(cached, want_cached);
        assert!(matches!(admitted, Some(Admitted::Concurrent { .. })));
    }
    let after = db.cache_stats();
    let (hits, misses, evictions): (u64, u64, u64) = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
    );
    assert_eq!((hits, misses, evictions), (1, 1, 0));
}

/// `benchmark/src/ladder.rs::Ladder::new` builds its method table with
/// `ioql::methods::effect_table` from the schema alone and hands it to
/// `EffectEnv::with_method_effects`; the effects it then infers are the
/// ones the database's own analysis reports.
#[test]
fn the_method_table_the_ladder_builds_from_a_schema() {
    let ddl = "
        class Employee extends Object (extent Employees) {
            attribute int GrossSalary;
            int NetSalary(int TaxRate) { return this.GrossSalary * (100 - TaxRate); }
        }";
    let db = Database::from_ddl_with(ddl, bench_options(0)).unwrap();
    let schema = db.schema().clone();
    let method_effects: MethodEffects = ioql::methods::effect_table(&schema);
    let eenv = EffectEnv::new(&schema).with_method_effects(method_effects);
    let tenv = TypeEnv::new(&schema);
    let src = "{ e.NetSalary(30) | e <- Employees }";
    let raw = ioql::syntax::parse_query(src).unwrap();
    let (elab, _) = check_query(&tenv, &schema.resolve_query(&raw)).unwrap();
    let (_, effect) = infer_query(&eenv, &elab).unwrap();
    assert!(effect
        .attr_reads
        .contains(&ioql::ast::ClassName::new("Employee")));
    assert_eq!(effect, db.analyze(src).unwrap().effect);
}
