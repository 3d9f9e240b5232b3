//! Robustness suite: seed-driven fault injection against both
//! configurations — the spec machine and production (which, the fault
//! query being a mutator Theorem 7 refuses, runs it on big-step).
//!
//! Three properties under every injected fault (deadline expiry, budget
//! exhaustion, mid-evaluation cancellation, dump corruption):
//!
//! 1. **Engine parity** — the spec and production fail with the *same*
//!    error class for the same fault and the same chooser decisions.
//! 2. **Failure atomicity** — a query that dies after performing `new`s
//!    never leaves the store half-mutated; the database rolls back to
//!    the pre-query snapshot. Engine panics are contained as
//!    `DbError::Internal` with the same rollback.
//! 3. **Dump integrity** — a damaged dump (bit flip or truncation) is
//!    rejected with a structured diagnostic, never a panic, and a failed
//!    load leaves the in-memory store untouched.

#![allow(clippy::result_large_err)] // cold-path test helpers return DbError

use ioql::{Database, DbError, DbOptions, Engine, EvalError, Governor, Limits, ResourceKind};
use ioql_testkit::faults::{corrupt_dump, Corruption, Fault, FaultPlan};
use ioql_testkit::ChaosChooser;

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }";

/// A query with many choice points (12 chooser draws over the 4-person
/// store), 8 `new`s, and an extent scan of cardinality 4 — every fault
/// axis in the catalogue can trip it.
const FAULT_QUERY: &str =
    "{ (new Person(name: p.name * 10 + x, age: 0)).name | p <- Persons, x <- {1, 2} }";

fn db_with(engine: Engine) -> Database {
    let opts = DbOptions {
        engine,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4} }")
        .unwrap();
    db
}

/// Collapses a pipeline error to the class the parity contract fixes.
fn class(e: &DbError) -> String {
    match e {
        DbError::Eval(EvalError::ResourceExhausted { kind, .. }) => format!("resource:{kind}"),
        DbError::Eval(EvalError::Cancelled) => "cancelled".to_string(),
        DbError::Eval(EvalError::FuelExhausted) => "fuel".to_string(),
        DbError::Eval(e) => format!("eval:{e}"),
        DbError::Internal(_) => "internal".to_string(),
        other => format!("other:{other}"),
    }
}

/// Runs `FAULT_QUERY` on a fresh database under the plan's fault.
fn run_faulted(engine: Engine, plan: &FaultPlan) -> Result<String, DbError> {
    let mut db = db_with(engine);
    let governor = Governor::new(plan.limits());
    let mut chooser = plan.chooser(governor.cancel_token());
    db.query_governed(FAULT_QUERY, &mut chooser, &governor)
        .map(|r| r.value.to_string())
}

/// The error class each fault must produce — the query is sized so that
/// every budget in the catalogue is strictly below what it needs, so
/// every plan fails and fails *predictably*.
fn expected_class(fault: Fault) -> String {
    match fault {
        Fault::DeadlineExpiry => format!("resource:{}", ResourceKind::WallClock),
        Fault::BudgetCells(_) => format!("resource:{}", ResourceKind::Cells),
        Fault::BudgetSetCard(_) => format!("resource:{}", ResourceKind::SetCardinality),
        Fault::BudgetGrowth(_) => format!("resource:{}", ResourceKind::StoreGrowth),
        Fault::CancelAfter(_) => "cancelled".to_string(),
    }
}

#[test]
fn engines_fail_identically_under_injected_faults() {
    for seed in 0..60u64 {
        let plan = FaultPlan::from_seed(seed);
        let small = run_faulted(Engine::SmallStep, &plan);
        let production = run_faulted(Engine::Plan, &plan);
        match (&small, &production) {
            (Err(a), Err(b)) => {
                assert_eq!(
                    class(a),
                    class(b),
                    "seed {seed} ({:?}): engines disagree — {a} vs {b}",
                    plan.fault
                );
                assert_eq!(
                    class(a),
                    expected_class(plan.fault),
                    "seed {seed}: wrong failure class for {:?}: {a}",
                    plan.fault
                );
            }
            (a, b) => panic!(
                "seed {seed} ({:?}): fault did not fail both engines: {a:?} vs {b:?}",
                plan.fault
            ),
        }
    }
}

#[test]
fn aborted_new_query_never_half_mutates_store() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        for seed in 0..30u64 {
            let plan = FaultPlan::from_seed(seed);
            let mut db = db_with(engine);
            let before = db.extent_len("Persons");
            let dump_before = db.dump();
            let governor = Governor::new(plan.limits());
            let mut chooser = plan.chooser(governor.cancel_token());
            let r = db.query_governed(FAULT_QUERY, &mut chooser, &governor);
            assert!(r.is_err(), "seed {seed} {engine:?}: fault did not fire");
            assert_eq!(
                db.extent_len("Persons"),
                before,
                "seed {seed} {engine:?}: aborted query leaked objects"
            );
            assert_eq!(
                db.dump(),
                dump_before,
                "seed {seed} {engine:?}: aborted query mutated the store"
            );
            // The database stays usable after the rollback.
            let ok = db.query("size(Persons)").unwrap();
            assert_eq!(ok.value.to_string(), before.to_string());
        }
    }
}

#[test]
fn unfaulted_run_commits_all_mutations() {
    // Sanity check that the fault query really is a mutator: without a
    // fault it creates exactly 8 objects, so the rollbacks above are
    // undoing real work rather than passing vacuously.
    for engine in [Engine::SmallStep, Engine::Plan] {
        let mut db = db_with(engine);
        let governor = Governor::new(Limits::none());
        let mut chooser = ChaosChooser::new(7, None);
        db.query_governed(FAULT_QUERY, &mut chooser, &governor)
            .unwrap();
        assert_eq!(db.extent_len("Persons"), 4 + 8);
    }
}

/// A chooser that panics after a fixed number of calls — a stand-in for
/// an engine bug striking mid-evaluation, after `new`s have happened.
struct PanicChooser {
    calls: u64,
    panic_at: u64,
}

impl ioql::Chooser for PanicChooser {
    fn choose(&mut self, n: usize) -> usize {
        if self.calls == self.panic_at {
            panic!("injected chooser panic");
        }
        self.calls += 1;
        // Deterministic but non-trivial: walk the arity.
        (self.calls as usize) % n
    }
}

#[test]
fn engine_panic_is_contained_and_rolled_back() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        // Panic on the 4th draw: the outer generator has been chosen and
        // at least one `new` committed, so rollback is doing real work.
        for panic_at in [0u64, 3, 6] {
            let mut db = db_with(engine);
            let before = db.dump();
            let mut chooser = PanicChooser { calls: 0, panic_at };
            let r = db.query_with(FAULT_QUERY, &mut chooser);
            match r {
                Err(DbError::Internal(msg)) => {
                    assert!(
                        msg.contains("injected chooser panic"),
                        "{engine:?}: panic payload lost: {msg}"
                    );
                }
                other => panic!("{engine:?}: panic not contained: {other:?}"),
            }
            assert_eq!(
                db.dump(),
                before,
                "{engine:?} panic_at {panic_at}: store not rolled back"
            );
            // Still usable.
            assert!(db.query("size(Persons)").is_ok());
        }
    }
}

/// A chooser that breaks its `i < n` contract on every draw.
struct OffByOneChooser;

impl ioql::Chooser for OffByOneChooser {
    fn choose(&mut self, n: usize) -> usize {
        n
    }
}

/// `query_with` takes the caller's chooser, so a pick of `n` is outside
/// input, not an engine bug: the spec, big-step (the `new` query Theorem
/// 7 refuses) and the plan (the lowered read) all answer the same
/// `Stuck`, none reaches `DbError::Internal`, and the store is untouched.
#[test]
fn a_chooser_breaking_its_contract_is_stuck_not_internal() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        for src in [
            "{ p.name | p <- Persons }",
            "{ (new Person(name: p.name, age: 0)).name | p <- Persons }",
        ] {
            let mut db = db_with(engine);
            let before = db.dump();
            match db.query_with(src, &mut OffByOneChooser) {
                Err(DbError::Eval(EvalError::Stuck { query, reason })) => {
                    assert_eq!(query, "p <- …", "{engine:?} {src}");
                    assert_eq!(reason, "chooser picked element 4 of 4", "{engine:?} {src}");
                }
                other => panic!("{engine:?} {src}: {other:?}"),
            }
            assert_eq!(db.dump(), before, "{engine:?} {src}: store moved");
        }
    }
}

#[test]
fn corrupt_dumps_rejected_without_panic_and_store_untouched() {
    let mut db = db_with(Engine::Plan);
    let clean = db.dump();
    let before = db.dump();
    let mut header_kinds = std::collections::BTreeSet::new();
    for seed in 0..40u64 {
        let (damaged, kind) = corrupt_dump(&clean, seed);
        match db.load(&damaged) {
            Err(DbError::Dump(e)) => {
                // The diagnostic must match the injury: a flipped byte is
                // caught by the checksum; a cut either drops whole lines
                // (truncation diagnosis) or damages one (checksum); a
                // wounded header trips whichever of its fields took the
                // hit — magic, version, object count, or checksum.
                let k = e.kind;
                match kind {
                    Corruption::BitFlip => assert_eq!(
                        k,
                        ioql::store::DumpErrorKind::ChecksumMismatch,
                        "seed {seed}: bit flip misdiagnosed: {e}"
                    ),
                    Corruption::Truncation => assert!(
                        matches!(
                            k,
                            ioql::store::DumpErrorKind::Truncated
                                | ioql::store::DumpErrorKind::ChecksumMismatch
                        ),
                        "seed {seed}: truncation misdiagnosed: {e}"
                    ),
                    Corruption::Header => {
                        assert!(
                            matches!(
                                k,
                                ioql::store::DumpErrorKind::MissingHeader
                                    | ioql::store::DumpErrorKind::VersionMismatch
                                    | ioql::store::DumpErrorKind::Truncated
                                    | ioql::store::DumpErrorKind::ChecksumMismatch
                                    | ioql::store::DumpErrorKind::Malformed
                            ),
                            "seed {seed}: header damage misdiagnosed: {e}"
                        );
                        // Field-level wounds are diagnosed at line 1; a
                        // flipped checksum digit surfaces as a whole-file
                        // mismatch (line 0). Never deeper into the body.
                        assert!(
                            e.line <= 1,
                            "seed {seed}: header fault blamed the body: {e}"
                        );
                        header_kinds.insert(format!("{k:?}"));
                    }
                }
            }
            Ok(()) => panic!("seed {seed}: damaged dump accepted ({kind:?})"),
            Err(other) => panic!("seed {seed}: unexpected error class: {other}"),
        }
        assert_eq!(db.dump(), before, "seed {seed}: failed load mutated store");
    }
    // The sweep wounds different header fields; the loader must have
    // told them apart rather than collapsing to one catch-all.
    assert!(
        header_kinds.len() >= 2,
        "header attacks all produced the same diagnosis: {header_kinds:?}"
    );
    // The undamaged dump still loads.
    db.load(&clean).unwrap();
}

#[test]
fn generated_stores_roundtrip_through_dump_and_file() {
    // Property: for any store reachable by executing generated
    // well-typed queries, save→load reproduces it up to the oid
    // bijection (`equiv_stores`) — text and file paths both.
    use ioql_testkit::fixtures::jack_jill;
    use ioql_testkit::gen::{GenConfig, QueryGen};

    let fx = jack_jill();
    let path = std::env::temp_dir().join(format!(
        "ioql-robustness-roundtrip-{}.dump",
        std::process::id()
    ));
    for seed in 0..25u64 {
        let mut db = Database::from_schema(fx.schema.clone(), ioql::DbOptions::default()).unwrap();
        *db.store_mut() = fx.store.clone();
        // Grow a seed-specific store: run a handful of generated
        // queries, keeping whichever commit (mutators included —
        // `allow_new` defaults on).
        let mut g = QueryGen::new(&fx.schema, seed, GenConfig::default());
        for i in 0..6 {
            let target = g.target_type();
            let q = g.query(&target).to_string();
            let mut chooser = ioql::RandomChooser::seeded(seed * 31 + i);
            let _ = db.query_with(&q, &mut chooser);
        }

        let text = ioql::store::dump_store(&db.store());
        let loaded = ioql::store::load_store(&fx.schema, &text)
            .unwrap_or_else(|e| panic!("seed {seed}: clean dump rejected: {e}"));
        assert!(
            ioql::store::equiv_stores(&db.store(), &loaded),
            "seed {seed}: text roundtrip broke oid-bijection equivalence"
        );

        ioql::store::save_store(&db.store(), &path).unwrap();
        let from_file = ioql::store::load_store_file(&fx.schema, &path)
            .unwrap_or_else(|e| panic!("seed {seed}: saved file rejected: {e}"));
        assert!(
            ioql::store::equiv_stores(&db.store(), &from_file),
            "seed {seed}: file roundtrip broke oid-bijection equivalence"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn atomic_save_roundtrips_and_failed_file_load_is_harmless() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ioql-robustness-{}.dump", std::process::id()));
    let db = db_with(Engine::Plan);
    db.save_to(&path).unwrap();

    // Round-trip into a sibling database.
    let mut fresh = Database::from_ddl(DDL).unwrap();
    fresh.load_from(&path).unwrap();
    assert_eq!(fresh.dump(), db.dump());

    // Corrupt the file on disk: the load fails, the store stays as-is.
    let text = std::fs::read_to_string(&path).unwrap();
    let (damaged, _) = corrupt_dump(&text, 2);
    std::fs::write(&path, damaged).unwrap();
    let before = fresh.dump();
    assert!(matches!(fresh.load_from(&path), Err(DbError::Dump(_))));
    assert_eq!(fresh.dump(), before);

    // A missing file is an I/O-kind dump error, not a panic.
    let missing = dir.join(format!(
        "ioql-robustness-missing-{}.dump",
        std::process::id()
    ));
    match fresh.load_from(&missing) {
        Err(DbError::Dump(e)) => assert_eq!(e.kind, ioql::store::DumpErrorKind::Io),
        other => panic!("missing file: unexpected result {other:?}"),
    }
    assert_eq!(fresh.dump(), before);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_free_chaos_runs_agree_across_engines() {
    // The harness itself must not perturb semantics: with no fault armed,
    // a ChaosChooser drives both engines to the same value and store.
    for seed in 0..40u64 {
        let run = |engine: Engine| {
            let mut db = db_with(engine);
            let governor = Governor::new(Limits::none());
            let mut chooser = ChaosChooser::new(seed, None);
            let r = db
                .query_governed(FAULT_QUERY, &mut chooser, &governor)
                .unwrap();
            (r.value.to_string(), db.dump())
        };
        let (v1, d1) = run(Engine::SmallStep);
        let (v2, d2) = run(Engine::Plan);
        assert_eq!(v1, v2, "seed {seed}: values differ");
        assert_eq!(d1, d2, "seed {seed}: stores differ");
    }
}
