//! Differential suite for the kernel/session split, the effect-scheduled
//! admission controller, and the TCP query server.
//!
//! The headline contract (RULES.md): **the scheduler changes no
//! observable versus serialized execution.** N concurrent clients
//! produce per-client results byte-identical to a single-threaded
//! serialized replay in which writers run in commit-stamp order and
//! every reader runs at its snapshot stamp, and the final stores are
//! oid-bijection-equivalent (`equiv_stores`). `ioql_sched_admitted_total`
//! plus the in-flight high-water mark prove the read admissions
//! genuinely overlapped rather than accidentally serializing.

#![allow(clippy::result_large_err)]

use ioql::store::equiv_stores;
use ioql::{
    Admitted, Chooser, Client, Database, DbError, DbOptions, Durability, Engine, EvalError,
    FirstChooser, Governor, Limits, Mode, QueryResult,
};
use ioql_testkit::faults::CrashSink;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
        int birthday() {
            this.age = this.age + 1;
            return this.age;
        }
    }";

/// Mutating workload whose resulting stores and values are independent
/// of scheduling given the commit order (deterministic `new` keys,
/// updates applied extent-wide), mirroring `tests/recovery.rs`.
const WRITES: &[&str] = &[
    "size({ new Person(name: n, age: n + 20) | n <- {1, 2, 3} })",
    "size({ new Person(name: n * 10, age: 0) | n <- {4, 5} })",
    "sum({ p.birthday() | p <- Persons })",
    "size({ new Person(name: p.name + 100, age: p.age) | p <- Persons, p.name < 3 })",
];

/// Read-only workload — admitted concurrently under the Theorem 7 guard.
const READS: &[&str] = &[
    "size(Persons)",
    "sum({ p.age | p <- Persons })",
    "sum({ p.name | p <- Persons, p.age < 25 })",
];

fn opts_with(engine: Engine) -> DbOptions {
    DbOptions {
        engine,
        method_mode: Mode::Extended,
        telemetry: true,
        ..DbOptions::default()
    }
}

fn db_with(engine: Engine) -> Database {
    Database::from_ddl_with(DDL, opts_with(engine)).unwrap()
}

/// A production database whose log, once attached, fsyncs under `durability`.
fn durable_db(durability: Durability) -> Database {
    let opts = DbOptions {
        durability,
        ..opts_with(Engine::Plan)
    };
    Database::from_ddl_with(DDL, opts).unwrap()
}

// ---------------------------------------------------------------------
// Std-only temp-directory shim (the workspace is dependency-free).

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        let p = std::env::temp_dir().join(format!("ioql-server-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A chooser that parks on shared barriers, in order, before its first
/// draw — the deterministic way to hold several queries *mid-evaluation*
/// simultaneously (every participant must reach its first `(ND comp)`
/// draw before any may proceed).
struct BarrierChooser {
    barriers: Vec<Arc<Barrier>>,
    waited: bool,
}

impl BarrierChooser {
    fn new(barrier: Arc<Barrier>) -> BarrierChooser {
        BarrierChooser {
            barriers: vec![barrier],
            waited: false,
        }
    }

    /// Parks until `arrived` says it is mid-query, then stays parked
    /// until `release` lets it go.
    fn holding(arrived: Arc<Barrier>, release: Arc<Barrier>) -> BarrierChooser {
        BarrierChooser {
            barriers: vec![arrived, release],
            waited: false,
        }
    }
}

impl Chooser for BarrierChooser {
    fn choose(&mut self, _n: usize) -> usize {
        if !self.waited {
            self.waited = true;
            for barrier in &self.barriers {
                barrier.wait();
            }
        }
        0 // FirstChooser's pick, so results stay canonical
    }
}

// ---------------------------------------------------------------------
// Sessions and admission.

#[test]
fn session_queries_carry_admission_stamps() {
    let mut db = db_with(Engine::Plan);
    let mut s = db.session("t1");
    // A write serializes and is stamped with its commit-order position,
    // witnessed by the interfering atom pair that refused concurrency.
    let w = s.query(WRITES[0]).unwrap();
    match w.admitted {
        Some(Admitted::Serialized {
            commit_seq,
            ref witness,
        }) => {
            assert_eq!(commit_seq, 1);
            assert_eq!(witness.0, "A(Person)");
        }
        other => panic!("expected a serialized stamp, got {other:?}"),
    }
    // A read is admitted against the snapshot reflecting that commit.
    let r = s.query(READS[0]).unwrap();
    assert_eq!(r.value.to_string(), "3");
    assert_eq!(r.admitted, Some(Admitted::Concurrent { snapshot_seq: 1 }));
    // The counters and the witness log agree.
    let m = db.metrics();
    assert_eq!(m.sched.admitted.get(), 1);
    assert_eq!(m.sched.serialized.get(), 1);
    assert_eq!(m.sched.witnesses.get(), 1);
    let (commits, inflight, _, witnesses) = db.kernel().sched_snapshot();
    assert_eq!((commits, inflight), (1, 0));
    assert_eq!(witnesses, vec!["(A(Person), R(Person))".to_string()]);
    // The embedded handle is admitted too: its read ticks the same
    // counter and carries the same snapshot stamp.
    let r = db.query(READS[0]).unwrap();
    assert_eq!(r.admitted, Some(Admitted::Concurrent { snapshot_seq: 1 }));
    assert_eq!(db.metrics().sched.admitted.get(), 2);
}

/// The embedded handle and a session on one kernel share one schedule:
/// their writes (and a `define`) form one gapless commit sequence, every
/// read is stamped with the commits before it, and an embedded write
/// that trips its governor mid-`new` takes no slot and leaves no trace.
#[test]
fn one_stamp_sequence_across_handles() {
    let mut db = db_with(Engine::Plan);
    let mut s = db.session("beside");
    let mut commits = 0;
    let wrote = |r: QueryResult, commits: &mut u64| {
        *commits += 1;
        match r.admitted {
            Some(Admitted::Serialized { commit_seq, .. }) => assert_eq!(commit_seq, *commits),
            other => panic!("expected commit {}, got {other:?}", *commits),
        }
    };
    let read = |r: QueryResult, commits: u64| {
        assert_eq!(
            r.admitted,
            Some(Admitted::Concurrent {
                snapshot_seq: commits
            })
        );
    };
    wrote(db.query(WRITES[0]).unwrap(), &mut commits);
    read(s.query(READS[0]).unwrap(), commits);
    wrote(s.query(WRITES[1]).unwrap(), &mut commits);
    read(db.query(READS[1]).unwrap(), commits);
    // A definition is observable state: it takes the next slot.
    db.define("define young(n: int) as { p | p <- Persons, p.age < n };")
        .unwrap();
    commits += 1;
    assert_eq!(db.kernel().sched_snapshot().0, commits);
    read(s.query("size(young(22))").unwrap(), commits);
    wrote(db.query(WRITES[2]).unwrap(), &mut commits);
    read(db.query("size(young(22))").unwrap(), commits);
    wrote(s.query(WRITES[3]).unwrap(), &mut commits);
    read(db.query(READS[2]).unwrap(), commits);

    // A failed embedded write: the governor allows one new object, the
    // query makes three. No stamp, no commit, nothing left behind.
    let before = db.dump();
    let rollbacks = db.metrics().rollbacks.get();
    let tight = Governor::new(Limits::none().with_max_store_growth(1));
    let err = db
        .query_governed(WRITES[0], &mut FirstChooser, &tight)
        .unwrap_err();
    assert!(
        matches!(err, DbError::Eval(EvalError::ResourceExhausted { .. })),
        "{err}"
    );
    assert_eq!(db.kernel().sched_snapshot().0, commits);
    assert_eq!(db.metrics().rollbacks.get(), rollbacks + 1);
    assert_eq!(db.dump(), before, "the failed write was not rolled back");
    // The sequence goes on without a gap, from either handle.
    read(db.query(READS[0]).unwrap(), commits);
    wrote(s.query(WRITES[0]).unwrap(), &mut commits);
    wrote(db.query(WRITES[1]).unwrap(), &mut commits);
    assert_eq!(db.kernel().sched_snapshot().0, commits);
}

#[test]
fn readers_overlap_and_never_block_each_other() {
    let mut db = db_with(Engine::Plan);
    db.query(WRITES[0]).unwrap();
    const N: usize = 4;
    let barrier = Arc::new(Barrier::new(N));
    let mut threads = Vec::new();
    for i in 0..N {
        let mut s = db.session(format!("reader-{i}"));
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut chooser = BarrierChooser::new(barrier);
            // A comprehension over a populated extent, so every reader
            // draws (and therefore parks) mid-evaluation.
            s.query_with("sum({ p.age | p <- Persons })", &mut chooser)
                .unwrap()
        }));
    }
    let results: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // All N readers were mid-query at one instant — the barrier only
    // releases when every one of them has reached its first draw while
    // registered in-flight. That is only possible if admission never
    // made one reader wait for another.
    let (_, _, max_inflight, _) = db.kernel().sched_snapshot();
    assert_eq!(max_inflight, N as u64, "readers failed to overlap");
    assert_eq!(db.metrics().sched.admitted.get(), N as u64);
    for r in &results {
        assert_eq!(r.value.to_string(), results[0].value.to_string());
        assert!(matches!(r.admitted, Some(Admitted::Concurrent { .. })));
    }
}

/// The satellite bugfix pinned as a regression test: a cache entry
/// inserted from a *stale snapshot* after a writer has already
/// committed must not be served to a session reading the live store.
/// Validation happens against the store the query actually runs on —
/// the admitted snapshot on the way in, the live store for the next
/// session — so the version vectors cannot cross-contaminate.
#[test]
fn cache_isolated_from_concurrent_writers() {
    let db = db_with(Engine::Plan);
    db.session("seed").query(WRITES[0]).unwrap(); // ages {21, 22, 23}
    let q = "sum({ p.age | p <- Persons })";

    // Reader parks mid-evaluation on its snapshot (2 participants: the
    // reader and the orchestrating thread).
    let gate = Arc::new(Barrier::new(2));
    let reader = {
        let mut s = db.session("stale-reader");
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            let mut chooser = BarrierChooser::new(gate);
            s.query_with(q, &mut chooser).unwrap()
        })
    };
    gate.wait(); // the reader is now mid-query on the old snapshot
                 // A writer commits while the reader is still in flight: every age
                 // bumps, the extent version moves.
    db.session("writer").query(WRITES[2]).unwrap();
    let stale = reader.join().unwrap();
    // The reader saw its snapshot (ages 21+22+23), not the new state —
    // and its result was inserted into the shared cache from that
    // stale snapshot.
    assert_eq!(stale.value.to_string(), "66");
    assert!(!stale.cached);

    // A fresh session on the live store must MISS (stale entry's
    // version vector cannot match the bumped extent) and recompute.
    let fresh = db.session("fresh-reader").query(q).unwrap();
    assert!(!fresh.cached, "served a stale snapshot's cache entry");
    assert_eq!(fresh.value.to_string(), "69");

    // And the fresh entry now hits for the next live reader…
    let again = db.session("hit-reader").query(q).unwrap();
    assert!(again.cached);
    assert_eq!(again.value.to_string(), "69");
    // …while a reader admitted before both entries would still verify
    // against its own snapshot (hits validate, they don't trust).

    // COW accounting under the chunked layout: every reader admission
    // (the parked one included) shared the spine instead of deep-copying
    // it, the concurrent writer path-copied at least one chunk it shared
    // with the parked reader's live snapshot, and each admission timed
    // its snapshot acquire. The value assertions above are the semantic
    // half of the same contract: the parked reader's 66 proves the
    // writer's path copies never showed through its snapshot, and the
    // fresh reader's miss proves the frozen version vector on snapshot S
    // kept validating against S, not against the COWed live store.
    let m = db.metrics();
    assert!(
        m.snapshot_chunks_shared.get() > 0,
        "reader admissions recorded no shared chunks"
    );
    assert!(
        m.snapshot_chunks_copied.get() > 0,
        "the concurrent writer's COW path copies went unrecorded"
    );
    assert!(
        m.span(ioql::telemetry::Span::SnapshotAcquire).count() >= 3,
        "each reader admission must observe a snapshot-acquire timing"
    );
}

#[test]
fn session_budget_trips_one_client_not_its_neighbours() {
    let mut options = opts_with(Engine::Plan);
    options.session_budget = Some(Limits {
        max_cells: Some(40),
        ..Limits::none()
    });
    let mut db = Database::from_ddl_with(DDL, options).unwrap();
    db.query(WRITES[0]).unwrap();
    let mut greedy = db.session("greedy");
    let mut modest = db.session("modest");
    // The greedy session burns its *cumulative* budget across queries…
    let mut tripped = false;
    for _ in 0..50 {
        match greedy.query("sum({ p.age * p.age | p <- Persons })") {
            Ok(_) => {}
            Err(DbError::Eval(EvalError::ResourceExhausted { .. })) => {
                tripped = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(tripped, "a 40-cell session budget never tripped");
    assert!(greedy.trips() >= 1);
    assert!(greedy.describe().contains("governor trip"));
    // …while its neighbour, on the same kernel, keeps its own meter.
    for _ in 0..3 {
        modest.query(READS[0]).unwrap();
    }
    assert_eq!(modest.trips(), 0);
    // Sessions without a budget fall back to per-query limits.
    let mut unbounded = db.session("unbounded");
    unbounded.set_options(DbOptions {
        session_budget: None,
        ..unbounded.options()
    });
    for _ in 0..5 {
        unbounded
            .query("sum({ p.age * p.age | p <- Persons })")
            .unwrap();
    }
}

// ---------------------------------------------------------------------
// The wire protocol.

#[test]
fn wire_protocol_round_trips() {
    let mut db = db_with(Engine::Plan);
    db.define("define adults(min: int) as { p | p <- Persons, min <= p.age };")
        .unwrap();
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // A write: serialized, stamped after the pre-serve define's commit
    // slot, with the witness in the payload.
    let w = c.request(WRITES[0]).unwrap();
    assert_eq!(w.status, "ok seq=2 mode=serialized cached=false");
    assert_eq!(w.lines[0], "3");
    assert!(
        w.lines.iter().any(|l| l.starts_with("witness: (A(Person)")),
        "{w:?}"
    );

    // A read: snapshot-admitted at that commit.
    let r = c.request("size(adults(0))").unwrap();
    assert_eq!(r.status, "ok seq=2 mode=snapshot cached=false");
    assert_eq!(r.lines[0], "3");

    // A definition through the wire (serialized, takes a commit slot).
    let d = c
        .request("define minors(max: int) as { p | p <- Persons, p.age < max };")
        .unwrap();
    assert!(d.status.starts_with("ok seq=3 mode=serialized"), "{d:?}");
    let r = c.request("size(minors(100))").unwrap();
    assert_eq!(r.field("mode"), Some("snapshot"));
    assert_eq!(r.lines[0], "3");

    // Errors keep the session usable.
    let e = c.request("1 + true").unwrap();
    assert!(e.status.starts_with("err "), "{e:?}");
    assert!(e.status.contains("type error"), "{e:?}");
    let ok = c.request(READS[0]).unwrap();
    assert!(ok.is_ok());

    // Admin commands.
    let stats = c.request(":stats").unwrap();
    assert!(stats.is_ok());
    let joined = stats.lines.join("\n");
    assert!(joined.contains("sched: "), "{joined}");
    assert!(joined.contains("session client-1:"), "{joined}");
    let metrics = c.request(":metrics").unwrap();
    assert!(
        metrics
            .lines
            .iter()
            .any(|l| l.starts_with("ioql_sched_admitted_total")),
        "{metrics:?}"
    );
    let wal = c.request(":wal status").unwrap();
    assert!(wal.lines[0].starts_with("wal: off"), "{wal:?}");

    // Clean goodbye.
    let bye = c.request(":quit").unwrap();
    assert_eq!(bye.status, "ok bye");
    server.shutdown();
}

/// The headline differential: N concurrent wire clients vs a
/// single-threaded serialized replay. Writers replay in commit-stamp
/// order; every reader re-runs at its snapshot stamp; per-client
/// observables must be byte-identical and the final stores
/// oid-bijection-equivalent — on the spec and in production.
#[test]
fn concurrent_clients_equal_serialized_replay() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let db = Database::from_ddl_with(DDL, opts_with(engine)).unwrap();
        let mut server = db.serve("127.0.0.1:0").unwrap();
        let addr = server.addr();

        const CLIENTS: usize = 6;
        let start = Arc::new(Barrier::new(CLIENTS));
        let mut threads = Vec::new();
        for i in 0..CLIENTS {
            let start = Arc::clone(&start);
            threads.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut log = Vec::new();
                start.wait();
                // Interleave this client's script: writers and readers
                // chosen by index so the mix differs per client.
                for round in 0..4 {
                    let src = if (i + round) % 3 == 0 {
                        WRITES[(i + round) % WRITES.len()]
                    } else {
                        READS[(i + round) % READS.len()]
                    };
                    let frame = c.request(src).unwrap();
                    log.push((src.to_string(), frame));
                }
                let _ = c.request(":quit");
                log
            }));
        }
        let logs: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        server.shutdown();

        // Collect the global write history from the stamps the clients
        // observed (definitions don't appear in this workload).
        let mut writes: Vec<(u64, String)> = Vec::new();
        for log in &logs {
            for (src, frame) in log {
                assert!(frame.is_ok(), "client saw {frame:?}");
                if frame.field("mode") == Some("serialized") {
                    let seq: u64 = frame.field("seq").unwrap().parse().unwrap();
                    writes.push((seq, src.clone()));
                }
            }
        }
        writes.sort();
        let stamps: Vec<u64> = writes.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            stamps,
            (1..=writes.len() as u64).collect::<Vec<_>>(),
            "commit stamps must be a gapless total order"
        );

        // Serialized replay: writers in commit order on a fresh
        // single-caller database, capturing the value at every prefix.
        let mut replay = Database::from_ddl_with(DDL, opts_with(engine)).unwrap();
        let mut write_values = vec![String::new(); writes.len() + 1];
        let mut prefix_stores = vec![replay.store().clone()];
        for (seq, src) in &writes {
            let r = replay.query(src).unwrap();
            write_values[*seq as usize] = r.value.to_string();
            prefix_stores.push(replay.store().clone());
        }

        // Check every client observable against the replay.
        let mut snapshot_reads = 0u64;
        for log in &logs {
            for (src, frame) in log {
                let seq: u64 = frame.field("seq").unwrap().parse().unwrap();
                match frame.field("mode").unwrap() {
                    "serialized" => {
                        assert_eq!(
                            frame.lines[0], write_values[seq as usize],
                            "writer at commit {seq} diverged from replay"
                        );
                    }
                    "snapshot" => {
                        snapshot_reads += 1;
                        // Re-run the read at exactly its snapshot stamp.
                        let mut at = Database::from_ddl_with(DDL, opts_with(engine)).unwrap();
                        for (s, w) in &writes {
                            if *s <= seq {
                                at.query(w).unwrap();
                            }
                        }
                        let expected = at.query(src).unwrap();
                        assert_eq!(
                            frame.lines[0],
                            expected.value.to_string(),
                            "reader at snapshot {seq} diverged from replay of {src}"
                        );
                    }
                    other => panic!("unexpected mode {other}"),
                }
            }
        }
        drop(prefix_stores);

        // Final stores agree up to oid bijection.
        assert!(
            equiv_stores(&db.store(), &replay.store()),
            "final store diverged from serialized replay ({engine:?})"
        );
        // And the run genuinely exercised concurrent admission.
        assert!(snapshot_reads > 0);
        assert_eq!(db.metrics().sched.admitted.get(), snapshot_reads);
        assert_eq!(db.metrics().sched.serialized.get(), writes.len() as u64);
    }
}

/// Crash-mid-serve under `--durable`: the WAL's sink loses its medium
/// partway through a multi-client run (`CrashSink` byte budget). Every
/// write acknowledged over the wire must survive recovery; the client
/// whose append failed got an error and its mutation rolled back.
#[test]
fn crash_mid_serve_recovers_every_acked_write() {
    let dir = TempDir::new("crash");
    let mut db = durable_db(Durability::Commit);
    // Budget for roughly three records, then the "disk" dies.
    db.attach_durable_with(dir.path(), CrashSink::factory(Some(400), None))
        .unwrap();
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let mut acked: Vec<String> = Vec::new();
    let mut failed = 0;
    for i in 0..10 {
        let src = format!("size({{ new Person(name: n + {i} * 10, age: n) | n <- {{1, 2, 3}} }})");
        let frame = c.request(&src).unwrap();
        if frame.is_ok() {
            assert!(failed == 0, "an ack after a poisoned append");
            acked.push(src);
        } else {
            failed += 1;
            assert!(
                frame.status.contains("poisoned") || frame.status.contains("append failed"),
                "{frame:?}"
            );
        }
    }
    assert!(!acked.is_empty(), "no write was acked before the crash");
    assert!(failed > 0, "the crash sink never engaged");
    // Readers still work on the surviving in-memory state.
    let r = c.request(READS[0]).unwrap();
    assert!(r.is_ok());
    let _ = c.request(":quit");
    server.shutdown();
    drop(db); // the "crash": the process state is gone, the disk remains

    // Recovery sees exactly the acked prefix.
    let mut rec = durable_db(Durability::Commit);
    let report = rec.attach_durable(dir.path()).unwrap();
    assert_eq!(report.replayed_queries, acked.len() as u64);
    let mut expected = db_with(Engine::Plan);
    for q in &acked {
        expected.query(q).unwrap();
    }
    assert!(
        equiv_stores(&rec.store(), &expected.store()),
        "recovered store is not the acked prefix"
    );
}

/// Every wire client's write is acknowledged at its own fsync: N
/// clients write under `Commit`, a checkpoint folds the log, and
/// recovery yields every acknowledged commit.
#[test]
fn multi_client_writes_survive_a_checkpoint_and_recovery() {
    let dir = TempDir::new("multi");
    let mut db = durable_db(Durability::Commit);
    db.attach_durable(dir.path()).unwrap();
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut threads = Vec::new();
    for i in 0..4 {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for round in 0..3 {
                let src = format!(
                    "size({{ new Person(name: n + {i} * 100 + {round} * 10, age: n) \
                     | n <- {{1, 2}} }})"
                );
                let frame = c.request(&src).unwrap();
                assert!(frame.is_ok(), "{frame:?}");
            }
            let _ = c.request(":quit");
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(db.metrics().wal_fsyncs.get(), 12, "one fsync per ack");
    // Fold the log through the wire, then stop serving.
    let mut c = Client::connect(addr).unwrap();
    let ck = c.request(":checkpoint").unwrap();
    assert!(ck.is_ok(), "{ck:?}");
    let _ = c.request(":quit");
    server.shutdown();
    assert_eq!(db.extent_len("Persons"), 24);
    drop(db);

    let mut rec = durable_db(Durability::Commit);
    let report = rec.attach_durable(dir.path()).unwrap();
    assert_eq!(report.generation, 1);
    assert!(report.checkpoint_loaded);
    assert_eq!(rec.extent_len("Persons"), 24);
}

/// The fsync policy is the log's, fixed at attach: a server whose
/// sessions were built from other options (`Off`) reports the log's
/// policy and checkpoints under it, so a write after a wire
/// `:checkpoint` is still fsynced before its ack.
#[test]
fn a_checkpoint_keeps_the_logs_fsync_policy() {
    let dir = TempDir::new("policy");
    let mut db = durable_db(Durability::Commit);
    db.attach_durable(dir.path()).unwrap();
    let wire_opts = DbOptions {
        durability: Durability::Off,
        ..opts_with(Engine::Plan)
    };
    let mut server = ioql::serve(Arc::clone(db.kernel()), wire_opts, "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let wire_status = |c: &mut Client| c.request(":wal status").unwrap().lines.join("\n");
    assert!(wire_status(&mut c).contains("mode commit"));
    assert_eq!(db.wal_status().unwrap().mode, Durability::Commit);

    assert!(c.request(":checkpoint").unwrap().is_ok());
    let fsyncs = db.metrics().wal_fsyncs.get();
    assert!(c.request(WRITES[0]).unwrap().is_ok());
    assert_eq!(
        db.metrics().wal_fsyncs.get(),
        fsyncs + 1,
        "the acked write was not fsynced"
    );
    let status = db.wal_status().unwrap();
    assert_eq!((status.generation, status.appended), (1, 1));
    assert_eq!(status.mode, Durability::Commit);
    assert!(wire_status(&mut c).contains("mode commit"));
    let _ = c.request(":quit");
    server.shutdown();
}

/// A serialized writer's witness is its own: the atom pair against the
/// mirror reader of its write set. A reader of another extent parked
/// mid-query changes neither the `Admitted` stamp nor a byte of the wire
/// reply. (When the scheduler named the pair against whichever reader
/// was in flight, a parked `Robots` reader turned this writer's
/// `(A(Person), R(Person))` into `(A(Robot), R(Robot))`.)
#[test]
fn a_writers_witness_does_not_depend_on_a_parked_reader() {
    const DDL2: &str = "
        class Person extends Object (extent Persons) { attribute int name; }
        class Robot extends Object (extent Robots) { attribute int id; }";
    const WRITE: &str = "(new Person(name: 7)).name + (new Robot(id: 7)).id";
    let run = |park: bool| {
        let db = Database::from_ddl_with(DDL2, opts_with(Engine::Plan)).unwrap();
        db.session("seed")
            .query("size({ new Robot(id: n) | n <- {1, 2} })")
            .unwrap();
        let arrived = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        let reader = park.then(|| {
            let mut s = db.session("robots");
            let mut chooser = BarrierChooser::holding(Arc::clone(&arrived), Arc::clone(&release));
            std::thread::spawn(move || {
                s.query_with("sum({ r.id | r <- Robots })", &mut chooser)
                    .unwrap()
            })
        });
        if park {
            arrived.wait();
            assert_eq!(db.kernel().sched_snapshot().1, 1, "no reader in flight");
        }
        let mut server = db.serve("127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let reply = c.request(WRITE).unwrap();
        let admitted = db.session("writer").query(WRITE).unwrap().admitted;
        if let Some(reader) = reader {
            release.wait();
            assert_eq!(reader.join().unwrap().value.to_string(), "3");
        }
        let _ = c.request(":quit");
        server.shutdown();
        (reply, admitted)
    };
    let alone = run(false);
    assert_eq!(
        alone.0.lines.last().map(String::as_str),
        Some("witness: (A(Person), R(Person))")
    );
    assert!(matches!(
        &alone.1,
        Some(Admitted::Serialized { witness, .. }) if witness.0 == "A(Person)"
    ));
    assert_eq!(run(true), alone);
}

/// `:stats` lists the live sessions only: a session's line leaves the
/// board when its connection ends, so a long-running server's reply does
/// not grow with every connection it ever accepted.
#[test]
fn stats_lists_only_live_sessions() {
    let db = db_with(Engine::Plan);
    let mut server = db.serve("127.0.0.1:0").unwrap();
    for _ in 0..3 {
        let mut c = Client::connect(server.addr()).unwrap();
        assert!(c.request(READS[0]).unwrap().is_ok());
        assert_eq!(c.request(":quit").unwrap().status, "ok bye");
        // The server hangs up only once the session has left the board.
        assert!(c.request(READS[0]).is_err(), "the connection stayed open");
    }
    let mut c = Client::connect(server.addr()).unwrap();
    let stats = c.request(":stats").unwrap();
    let sessions: Vec<_> = stats
        .lines
        .iter()
        .filter(|l| l.starts_with("session client-"))
        .collect();
    assert_eq!(sessions.len(), 1, "{sessions:?}");
    server.shutdown();
}

/// Reads one line of a raw connection (`None` once the peer closed).
fn read_raw_line(reader: &mut impl std::io::BufRead) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim_end().to_string()),
        _ => None,
    }
}

/// Each listener serves at most 64 live connections (`MAX_CONNECTIONS`
/// in `server.rs`), each on its own thread. The next one gets its
/// protocol's refusal and is closed; once a held connection ends, a new
/// one is served.
#[test]
fn connections_beyond_the_cap_are_refused_until_one_closes() {
    use std::io::{BufReader, Write};
    use std::net::TcpStream;
    const CAP: usize = 64;
    let db = db_with(Engine::Plan);

    // The query port: the refusal takes the greeting's place.
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let greeting = |addr| {
        let stream = TcpStream::connect(addr).unwrap();
        read_raw_line(&mut BufReader::new(stream)).unwrap()
    };
    let mut held: Vec<Client> = (0..CAP)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    assert_eq!(greeting(server.addr()), "err too many connections");
    let mut last = held.pop().unwrap();
    assert_eq!(last.request(":quit").unwrap().status, "ok bye");
    assert!(
        last.request(READS[0]).is_err(),
        "the connection stayed open"
    );
    assert!(greeting(server.addr()).starts_with("ok ioql-server"));
    assert!(held[0].request(READS[0]).unwrap().is_ok());
    drop(held);
    server.shutdown();

    // The observability port: `503`, then `200` once a request is done.
    let mut obs = db.serve_obs("127.0.0.1:0").unwrap();
    let get = |stream: TcpStream| {
        (&stream)
            .write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
            .unwrap();
        let mut reader = BufReader::new(stream);
        let status = read_raw_line(&mut reader).unwrap();
        while read_raw_line(&mut reader).is_some() {} // to the close
        status
    };
    let mut held: Vec<TcpStream> = (0..CAP)
        .map(|_| TcpStream::connect(obs.addr()).unwrap())
        .collect();
    let refused = get(TcpStream::connect(obs.addr()).unwrap());
    assert_eq!(refused, "HTTP/1.0 503 Service Unavailable");
    assert_eq!(get(held.pop().unwrap()), "HTTP/1.0 200 OK");
    assert_eq!(
        get(TcpStream::connect(obs.addr()).unwrap()),
        "HTTP/1.0 200 OK"
    );
    drop(held);
    obs.shutdown();
}

/// A peer that never sends a newline cannot make the server buffer its
/// input: past the 1 MiB request-line cap the server answers `err request
/// too long` and closes — and only that connection; the other sessions
/// keep answering.
#[test]
fn oversized_request_line_is_refused_not_buffered() {
    use std::io::{BufRead, BufReader, Write};
    let db = db_with(Engine::Plan);
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut neighbour = Client::connect(server.addr()).unwrap();
    assert!(neighbour.request(WRITES[0]).unwrap().is_ok());

    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut lines = std::iter::from_fn(move || {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => Some(line.trim_end().to_string()),
            _ => None, // closed (or reset) by the server
        }
    });
    assert!(lines.next().unwrap().starts_with("ok ioql-server"));
    assert_eq!(lines.next().as_deref(), Some("."));
    // 2 MiB, no newline. The server stops reading half way, so the tail
    // of the write may fail — that is the point.
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        let _ = stream.write_all(&vec![b'x'; 2 << 20]);
    });
    assert_eq!(lines.next().as_deref(), Some("err request too long"));
    assert_eq!(lines.next().as_deref(), Some("."));
    assert_eq!(lines.next(), None, "the connection must be closed");
    writer.join().unwrap();

    // A line just under the cap is still a request (here: a parse error).
    let mut big = Client::connect(server.addr()).unwrap();
    let nearly = format!("1 + {}", "x".repeat((1 << 20) - 16));
    assert!(big.request(&nearly).unwrap().status.starts_with("err "));
    assert!(big.request(READS[0]).unwrap().is_ok());

    let r = neighbour.request(READS[0]).unwrap();
    assert_eq!(r.lines[0], "3");
    server.shutdown();
}

/// A request is one line. A line with a `\n` in it would reach the server
/// as two requests and be answered by two frames, of which `request` read
/// one, leaving every later reply on the connection one behind. It is
/// refused before anything is sent, and the connection stays in step.
#[test]
fn a_request_with_a_newline_is_refused_and_the_connection_stays_in_step() {
    let db = db_with(Engine::Plan);
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.request(WRITES[0]).unwrap().lines[0], "3");
    let err = c.request("size(Persons)\n1 + 1").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(c.request("2 + 2").unwrap().lines[0], "4");
    assert_eq!(c.request(READS[0]).unwrap().lines[0], "3");
    server.shutdown();
}

/// A frame is one write on a `TCP_NODELAY` socket, so for a client that
/// sends each request in one write a round trip costs the work, not a
/// delayed-ACK timer: when a frame went out as several small writes under
/// Nagle's algorithm, every reply waited ≈ 40 ms for the client's delayed
/// ACK of its status line, and these 100 took ≈ 4.5 s.
#[test]
fn a_wire_round_trip_does_not_wait_for_a_delayed_ack() {
    use std::io::{BufRead, BufReader, Write};
    let db = db_with(Engine::Plan);
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut out = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(out.try_clone().unwrap());
    // The lines of one frame, up to its lone `.`.
    let mut frame = || -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            let line = line.trim_end_matches('\n');
            if line == "." {
                return lines;
            }
            lines.push(line.to_string());
        }
    };
    frame(); // greeting
    out.write_all(format!("{}\n", WRITES[0]).as_bytes())
        .unwrap();
    assert!(frame()[0].starts_with("ok"));
    let start = std::time::Instant::now();
    for _ in 0..100 {
        out.write_all(b"size(Persons)\n").unwrap();
        assert_eq!(frame()[1], "3");
    }
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(2),
        "100 round trips took {took:?}"
    );
    server.shutdown();
}
