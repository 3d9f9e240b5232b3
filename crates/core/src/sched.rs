//! The effect-scheduled admission controller.
//!
//! The paper's effect system proves when two computations cannot
//! interfere (`Effect::interference_witness`, Theorems 7/8). This
//! module uses that licence **between whole queries**: every query —
//! embedded ([`Database`](crate::Database)), session
//! ([`Session`](crate::Session)) or wire ([`crate::server`]) — is
//! type-and-effect checked in one pass, and the Theorem 7 verdict on
//! its effect (`Thm7::snapshot_admissible`) decides its admission
//! class:
//!
//! * **Concurrent** — a write-free query (no `A(C)`, no `U(C)` atom;
//!   Theorem 7's guard) cannot interfere with any other
//!   write-free query: the interference witness between two read-only
//!   effects is always `None` (reads commute with reads). Such queries
//!   are admitted immediately against a **version-stamped snapshot** of
//!   the store — the commit sequence number stamps exactly which
//!   committed writers the snapshot reflects — and run fully in
//!   parallel, never blocking writers and never blocked by them.
//! * **Serialized** — a query whose effect carries a write atom could
//!   race a concurrent reader (`R(C)` vs `A(C)`, `Ra(C)` vs `U(C)`).
//!   Writers therefore serialize in arrival order on the state write
//!   lock and run against the live store; each commit is assigned
//!   the next commit sequence number. The refusal-to-run-concurrently
//!   is **explained, not just enforced**: the scheduler names an
//!   interfering atom pair against the mirror reader of the query's own
//!   write set — a writer never waits on a reader, so no in-flight
//!   reader has a say, and the witness is fixed by the query alone —
//!   and carries it into telemetry (`ioql_sched_witnesses_total`,
//!   `:stats`, the wire reply's `witness:` line).
//!
//! The correctness contract (pinned by `tests/server.rs`): concurrent
//! execution is observably equivalent to the serialized replay in which
//! writers run in commit order and each reader runs at its snapshot
//! stamp — a reader stamped `s` sees exactly the effects of commits
//! `1..=s`. Readers are pure (their effect proves it), so this
//! reader/writer discipline is serializable, not merely
//! snapshot-isolated: there is no write skew without writes.

use ioql_effects::Effect;
use ioql_schema::Schema;
use ioql_telemetry::Counter;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The admission controller's telemetry handles (registered in
/// [`DbMetrics`](crate::DbMetrics)). Write-only from the scheduler's
/// side, like every other metric group. The admission *timings* —
/// `ioql_sched_wait_ns`, `ioql_sched_snapshot_ns` — are not handles the
/// kernel writes: they are the `sched-wait` and `snapshot-acquire`
/// spans' histograms, fed by the request's `Tracer`.
#[derive(Clone, Debug)]
pub struct SchedMetrics {
    /// Queries admitted concurrently against a snapshot
    /// (`ioql_sched_admitted_total`).
    pub admitted: Counter,
    /// Queries serialized onto the write path
    /// (`ioql_sched_serialized_total`).
    pub serialized: Counter,
    /// Interference witnesses recorded — one per serialization
    /// (`ioql_sched_witnesses_total`).
    pub witnesses: Counter,
}

/// How the admission controller scheduled a query — stamped onto every
/// successful [`QueryResult`](crate::QueryResult), whichever handle ran
/// it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Admitted {
    /// Admitted concurrently against a snapshot that reflects exactly
    /// the first `snapshot_seq` committed writers.
    Concurrent {
        /// Commit sequence number the snapshot was stamped with.
        snapshot_seq: u64,
    },
    /// Serialized behind the state write lock; this commit is the
    /// `commit_seq`-th in the kernel's total write order. The witness
    /// names the interfering atom pair that refused concurrency.
    Serialized {
        /// Position of this commit in the total write order (1-based).
        commit_seq: u64,
        /// The interfering effect-atom pair `(writer side, reader
        /// side)`, e.g. `("A(Person)", "R(Person)")`.
        witness: (String, String),
    },
}

impl std::fmt::Display for Admitted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admitted::Concurrent { snapshot_seq } => {
                write!(f, "snapshot seq={snapshot_seq}")
            }
            Admitted::Serialized {
                commit_seq,
                witness,
            } => write!(
                f,
                "serialized seq={commit_seq} witness=({}, {})",
                witness.0, witness.1
            ),
        }
    }
}

/// The admission controller's shared state: the commit sequence
/// counter (the kernel's total order on committed writers), the count
/// of in-flight readers and its high-water mark, and the recent
/// serialization witnesses. Admitting a reader takes no lock.
#[derive(Debug, Default)]
pub struct Sched {
    /// Committed writers so far — the version-stamp readers are
    /// admitted against. Bumped under the state write lock, so a reader
    /// holding the read lock observes a value consistent with the store
    /// it snapshots.
    commit_seq: AtomicU64,
    /// Readers currently in flight (a statistic: it publishes nothing).
    inflight: AtomicU64,
    /// High-water mark of simultaneously in-flight readers — the
    /// direct evidence that read admissions genuinely overlapped.
    max_inflight: AtomicU64,
    /// Most recent serialization witnesses, newest last (`:stats`).
    recent_witnesses: Mutex<VecDeque<String>>,
}

/// One admitted reader. Dropping it ends the admission — on return, on
/// `?`, and on unwind alike — so the in-flight count cannot outlive the
/// request that raised it.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    sched: &'a Sched,
    /// The commit sequence number the reader's snapshot is stamped with.
    pub(crate) snapshot_seq: u64,
}

impl Drop for Reader<'_> {
    fn drop(&mut self) {
        self.sched.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Sched {
    pub(crate) fn new() -> Sched {
        Sched::default()
    }

    /// Admits a concurrent reader until the returned guard drops. Must
    /// be called while holding the kernel state read lock so the guard's
    /// snapshot stamp agrees with the store being cloned.
    pub(crate) fn admit_reader(&self) -> Reader<'_> {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_inflight.fetch_max(now, Ordering::Relaxed);
        Reader {
            sched: self,
            snapshot_seq: self.commit_seq.load(Ordering::Acquire),
        }
    }

    /// Assigns the next commit sequence number to a successfully
    /// committed writer. Must be called while still holding the state
    /// write lock, so the total order of stamps is the total order of
    /// commits.
    pub(crate) fn commit_writer(&self) -> u64 {
        self.commit_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The number of writers committed so far.
    pub(crate) fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Readers currently in flight.
    pub(crate) fn inflight_readers(&self) -> usize {
        self.inflight.load(Ordering::Relaxed) as usize
    }

    /// The highest number of readers ever simultaneously in flight.
    pub(crate) fn max_inflight_readers(&self) -> u64 {
        self.max_inflight.load(Ordering::Relaxed)
    }

    fn witnesses(&self) -> MutexGuard<'_, VecDeque<String>> {
        self.recent_witnesses
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Names the interfering atom pair that forces `effect` onto the
    /// serialized path, against the mirror reader of the writer's own
    /// write set (a hypothetical session reading every extent this
    /// query writes — exactly what concurrent admission would permit).
    /// Records the witness for `:stats`.
    pub(crate) fn writer_witness(&self, effect: &Effect, schema: &Schema) -> (String, String) {
        let mut mirror = Effect::empty();
        mirror.reads = effect.adds.clone();
        mirror.attr_reads = effect.updates.clone();
        let witness = effect
            .interference_witness(&mirror, schema)
            .unwrap_or_else(|| ("W".into(), "R".into()));
        let mut recent = self.witnesses();
        recent.push_back(format!("({}, {})", witness.0, witness.1));
        while recent.len() > 8 {
            recent.pop_front();
        }
        witness
    }

    /// The most recent serialization witnesses, newest last.
    pub(crate) fn recent_witnesses(&self) -> Vec<String> {
        self.witnesses().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{ClassDef, ClassName};

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Robot", ClassName::object(), "Robots", []),
        ])
        .unwrap()
    }

    #[test]
    fn reader_registry_tracks_inflight_and_high_water() {
        let s = Sched::new();
        let a = s.admit_reader();
        let b = s.admit_reader();
        assert_eq!((a.snapshot_seq, b.snapshot_seq), (0, 0));
        assert_eq!(s.inflight_readers(), 2);
        assert_eq!(s.max_inflight_readers(), 2);
        drop(a);
        drop(b);
        assert_eq!(s.inflight_readers(), 0);
        // The high-water mark is sticky.
        assert_eq!(s.max_inflight_readers(), 2);
    }

    /// A reader that unwinds — a panic anywhere between admission and
    /// the end of the request, e.g. in the optimizer or the lowering,
    /// which run outside `execute_in`'s `catch_unwind` — still ends its
    /// admission: no phantom reader stays in `:stats`.
    #[test]
    fn an_unwinding_reader_deregisters() {
        let s = Sched::new();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _reader = s.admit_reader();
            assert_eq!(s.inflight_readers(), 1);
            panic!("the optimizer panicked");
        }));
        assert!(unwound.is_err());
        assert_eq!(s.inflight_readers(), 0);
    }

    #[test]
    fn commit_stamps_are_a_total_order_and_stamp_snapshots() {
        let s = Sched::new();
        assert_eq!(s.commit_writer(), 1);
        assert_eq!(s.commit_writer(), 2);
        let reader = s.admit_reader();
        assert_eq!(reader.snapshot_seq, 2); // the snapshot reflects both commits
    }

    /// The witness is the writer's own: the mirror reader of its write
    /// set, whatever reader is in flight.
    #[test]
    fn witness_is_the_writers_own_mirror_reader() {
        let s = Sched::new();
        let sch = schema();
        let _reader = s.admit_reader();
        let w = s.writer_witness(&Effect::add("Robot"), &sch);
        assert_eq!(w, ("A(Robot)".into(), "R(Robot)".into()));
        let w = s.writer_witness(&Effect::update("Person"), &sch);
        assert_eq!(w, ("U(Person)".into(), "Ra(Person)".into()));
        let w = s.writer_witness(&Effect::add("Person").union(&Effect::add("Robot")), &sch);
        assert_eq!(w, ("A(Person)".into(), "R(Person)".into()));
        assert_eq!(s.recent_witnesses().len(), 3);
    }
}
