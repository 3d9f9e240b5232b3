//! The effect-keyed query-result cache, end to end.
//!
//! The contract under test (ISSUE 2 tentpole):
//!
//! * only Theorem 7 queries (`new`-free effect, no `A(C)`, no `U(C)`)
//!   are ever cached;
//! * invalidation is *passive* — any mutation of an extent in the read
//!   set bumps its version and the stale entry dies at next lookup;
//!   mutating unrelated extents leaves entries hot;
//! * `:load` and governor-triggered rollback both move version counters
//!   past every cached fingerprint, so a query after either always sees
//!   the restored data, never a stale value;
//! * a cache hit still passes through the governor: deadline and
//!   cancellation are checked and the original run's cells re-charged;
//! * cached and uncached results agree under every chooser, on the spec
//!   and in production.

#![allow(clippy::result_large_err)]

use ioql::{
    Chooser, Database, DbError, DbOptions, Engine, EvalError, FirstChooser, Governor, LastChooser,
    Limits, RandomChooser, ResourceKind, Value,
};

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }
    class Robot extends Object (extent Robots) {
        attribute int serial;
    }";

fn db_with(engine: Engine, cache_capacity: usize) -> Database {
    let opts = DbOptions {
        engine,
        cache_capacity,
        telemetry: true, // transparency guard: caching behaves the same with metrics on
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
        .unwrap();
    db.query("{ new Robot(serial: n) | n <- {10, 20} }")
        .unwrap();
    db
}

const SCAN: &str = "{ p.age | p <- Persons }";

#[test]
fn second_run_hits_and_mutation_invalidates() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let mut db = db_with(engine, 64);
        let r1 = db.query(SCAN).unwrap();
        assert!(!r1.cached);
        let r2 = db.query(SCAN).unwrap();
        assert!(r2.cached, "identical read-only re-run must hit");
        assert_eq!(r2.value, r1.value);
        assert_eq!(r2.steps, 0);
        assert_eq!(r2.ty, r1.ty);
        assert_eq!(r2.static_effect, r1.static_effect);
        assert_eq!(r2.runtime_effect, r1.runtime_effect);

        // Mutating an *unrelated* extent leaves the entry hot.
        db.query("{ new Robot(serial: n) | n <- {30} }").unwrap();
        assert!(db.query(SCAN).unwrap().cached);

        // Mutating the read set kills it — and the fresh run sees the
        // new data.
        db.query("{ new Person(name: 4, age: 99) | n <- {1} }")
            .unwrap();
        let r3 = db.query(SCAN).unwrap();
        assert!(!r3.cached, "A(Person) must invalidate an R(Person) entry");
        assert_ne!(r3.value, r1.value);
        let stats = db.cache_stats();
        assert!(stats.hits >= 2 && stats.misses >= 2, "{stats:?}");
    }
}

#[test]
fn mutating_and_new_containing_queries_are_never_cached() {
    let mut db = db_with(Engine::Plan, 64);
    let q = "{ (new Person(name: 9, age: 9)).age | n <- {1} }";
    let r1 = db.query(q).unwrap();
    let r2 = db.query(q).unwrap();
    assert!(!r1.cached && !r2.cached, "A(C) queries must re-evaluate");
    // And each run really did create a fresh object.
    assert_eq!(db.extent_len("Persons"), 3 + 2);
}

#[test]
fn load_invalidates_even_when_versions_restart() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let mut db = db_with(engine, 64);
        let snapshot = db.dump();
        let before = db.query(SCAN).unwrap().value;

        // Mutate, re-query (cache now holds the *post-mutation* value).
        db.query("{ new Person(name: 5, age: 55) | n <- {1} }")
            .unwrap();
        let after = db.query(SCAN).unwrap().value;
        assert_ne!(before, after);
        assert!(db.query(SCAN).unwrap().cached);

        // `:load` the old dump: a freshly parsed store restarts version
        // counters, which must NOT resurrect any cached entry.
        db.load(&snapshot).unwrap();
        let r = db.query(SCAN).unwrap();
        assert!(!r.cached, "load must invalidate cached results");
        assert_eq!(r.value, before, "query after load sees loaded data");
    }
}

#[test]
fn governor_rollback_invalidates() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let mut db = db_with(engine, 64);
        let clean = db.query(SCAN).unwrap().value;
        assert!(db.query(SCAN).unwrap().cached);

        // A mutating query that dies on the growth budget after its
        // first `new`: failure atomicity rolls the store back.
        let governor = Governor::new(Limits::none().with_max_store_growth(1));
        let err = db.query_governed(
            "{ new Person(name: n, age: n) | n <- {6, 7, 8} }",
            &mut FirstChooser,
            &governor,
        );
        assert!(
            matches!(
                err,
                Err(DbError::Eval(EvalError::ResourceExhausted {
                    kind: ResourceKind::StoreGrowth,
                    ..
                }))
            ),
            "{err:?}"
        );
        assert_eq!(db.extent_len("Persons"), 3, "rollback restored the store");

        // Post-rollback, the query must return the rolled-back data —
        // recomputed or not, never a value from the aborted run.
        let r = db.query(SCAN).unwrap();
        assert_eq!(r.value, clean, "rollback-then-query sees clean data");
    }
}

#[test]
fn cached_and_uncached_agree_under_every_chooser_and_engine() {
    // Read-only queries (including oid-returning ones). Warm and cold
    // databases share an identical construction history, so oids line up
    // one-to-one and plain value equality is the oid bijection.
    let queries = [
        SCAN,
        "{ p | p <- Persons, p.age = 21 }",
        "sum({ p.age + q.serial | p <- Persons, q <- Robots })",
        "size(Persons union { p | p <- Persons, p.name = 2 })",
    ];
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xC0FFEE)),
    ];
    for engine in [Engine::SmallStep, Engine::Plan] {
        for mk in &mk_choosers {
            let mut warm = db_with(engine, 64);
            let mut cold = db_with(engine, 0); // caching disabled
            for q in queries {
                let w1 = warm.query_with(q, &mut *mk()).unwrap();
                let w2 = warm.query_with(q, &mut *mk()).unwrap();
                let c = cold.query_with(q, &mut *mk()).unwrap();
                assert!(!w1.cached && w2.cached && !c.cached, "on {q}");
                assert_eq!(w2.value, c.value, "cached vs uncached on {q}");
                assert_eq!(w2.runtime_effect, c.runtime_effect, "effect on {q}");
            }
        }
    }
}

#[test]
fn hits_still_pass_through_the_governor() {
    let mut db = db_with(Engine::Plan, 64);
    // Warm the cache and learn the query's cell price.
    let governor = Governor::new(Limits::none());
    db.query_governed(SCAN, &mut FirstChooser, &governor)
        .unwrap();
    let price = governor.cells_spent();
    assert!(price > 0, "scan draws cells");

    // A hit re-charges the recorded cells: a budget below the price must
    // fail even though the value is sitting in the cache.
    let broke = Governor::new(Limits::none().with_max_cells(price - 1));
    let err = db.query_governed(SCAN, &mut FirstChooser, &broke);
    assert!(
        matches!(
            err,
            Err(DbError::Eval(EvalError::ResourceExhausted {
                kind: ResourceKind::Cells,
                ..
            }))
        ),
        "{err:?}"
    );

    // An adequate budget is charged the same price as a cold run.
    let paying = Governor::new(Limits::none().with_max_cells(price));
    let r = db.query_governed(SCAN, &mut FirstChooser, &paying).unwrap();
    assert!(r.cached);
    assert_eq!(paying.cells_spent(), price, "hit re-charges cold cells");

    // Cancellation is still observed on a hit.
    let governed = Governor::new(Limits::none());
    governed.cancel_token().cancel();
    let err = db.query_governed(SCAN, &mut FirstChooser, &governed);
    assert!(
        matches!(err, Err(DbError::Eval(EvalError::Cancelled))),
        "{err:?}"
    );
}

/// Plan-path hit/miss (ISSUE 3 satellite): a query executed by the
/// production path populates the cache under the same pre-optimization
/// key as the spec, and a hit re-charges exactly the cells the cold run
/// spent in *that* configuration. (That the operator pipeline's price is
/// the interpreters' on one query text is `tests/plan.rs`'s; across the
/// optimizer the two prices owe each other nothing.)
#[test]
fn plan_path_hits_recharge_the_plan_run_cells() {
    let q = "{ p.age | p <- Persons, p.name = 2 }";
    for engine in [Engine::Plan, Engine::SmallStep] {
        let mut db = db_with(engine, 64);
        let governor = Governor::new(Limits::none());
        let cold = db.query_governed(q, &mut FirstChooser, &governor).unwrap();
        assert!(!cold.cached);
        let price = governor.cells_spent();
        assert!(price > 0, "{engine:?}: every drawn element is a cell");

        // Broke: a budget one below the recorded price fails the hit.
        let broke = Governor::new(Limits::none().with_max_cells(price - 1));
        let err = db.query_governed(q, &mut FirstChooser, &broke);
        assert!(
            matches!(
                err,
                Err(DbError::Eval(EvalError::ResourceExhausted {
                    kind: ResourceKind::Cells,
                    ..
                }))
            ),
            "{engine:?}: {err:?}"
        );

        // Paying: the hit is served and re-charged at the cold price.
        let paying = Governor::new(Limits::none().with_max_cells(price));
        let hot = db.query_governed(q, &mut FirstChooser, &paying).unwrap();
        assert!(hot.cached, "{engine:?}: second run must hit");
        assert_eq!(hot.value, cold.value);
        assert_eq!(paying.cells_spent(), price, "{engine:?}: hit re-charge");
    }
}

#[test]
fn capacity_bounds_residency_fifo() {
    let mut db = db_with(Engine::Plan, 2);
    let q1 = "{ p.age | p <- Persons }";
    let q2 = "{ p.name | p <- Persons }";
    let q3 = "{ r.serial | r <- Robots }";
    db.query(q1).unwrap();
    db.query(q2).unwrap();
    db.query(q3).unwrap(); // evicts q1 (FIFO)
    assert_eq!(db.cache_stats().entries, 2);
    assert!(!db.query(q1).unwrap().cached, "q1 was evicted");
    assert!(db.query(q3).unwrap().cached, "q3 stayed");
}

/// The acceptance criterion's local stand-in for the criterion benchmark
/// (which is compiled in CI where the registry is reachable): a repeated
/// read-only workload must be at least 10× faster served from the cache
/// than evaluated cold. The workload is a quadratic self-join over 120
/// objects — milliseconds cold, a hash probe plus a value clone hot.
#[test]
fn cache_hit_is_at_least_10x_faster_than_cold() {
    use std::time::Instant;
    let mut db = db_with(Engine::Plan, 64);
    for n in 4..124 {
        db.query(&format!(
            "{{ new Person(name: {n}, age: {n}) | z <- {{1}} }}"
        ))
        .unwrap();
    }
    let join = "sum({ p.age + q.age | p <- Persons, q <- Persons })";

    let t0 = Instant::now();
    let cold = db.query(join).unwrap();
    let cold_time = t0.elapsed();
    assert!(!cold.cached);

    // Median of several hits to keep the measurement stable.
    let mut hit_times = Vec::new();
    for _ in 0..5 {
        let t1 = Instant::now();
        let hit = db.query(join).unwrap();
        hit_times.push(t1.elapsed());
        assert!(hit.cached);
        assert_eq!(hit.value, cold.value);
    }
    hit_times.sort();
    let hit_time = hit_times[hit_times.len() / 2];
    assert!(
        cold_time >= hit_time * 10,
        "expected ≥10× speedup: cold {cold_time:?} vs hit {hit_time:?}"
    );
}

#[test]
fn define_backed_queries_cache_only_when_new_free() {
    let mut db = db_with(Engine::Plan, 64);
    db.define("define ages() as { p.age | p <- Persons };")
        .unwrap();
    db.define("define spawn() as (new Person(name: 0, age: 0)).age;")
        .unwrap();
    db.query("ages()").unwrap();
    assert!(db.query("ages()").unwrap().cached, "pure def result caches");
    db.query("{ spawn() | n <- {1} }").unwrap();
    assert!(
        !db.query("{ spawn() | n <- {1} }").unwrap().cached,
        "a def containing `new` must never be served from cache"
    );
}

#[test]
fn values_round_trip_losslessly_through_the_cache() {
    // Oid-returning and record-returning shapes survive the clone.
    let mut db = db_with(Engine::Plan, 64);
    let q = "{ struct(who: p, how_old: p.age) | p <- Persons }";
    let cold = db.query(q).unwrap();
    let hot = db.query(q).unwrap();
    assert!(hot.cached);
    assert_eq!(cold.value, hot.value);
    match &hot.value {
        Value::Set(s) => assert_eq!(s.len(), 3),
        v => panic!("expected a set, got {v}"),
    }
}
