//! Crash-safe durability: attaching a durable directory, checkpointing,
//! and startup recovery.
//!
//! The moving parts live in `ioql_store::wal` (record framing, torn-tail
//! parsing, fsync policy); this module owns the *database-level*
//! protocol:
//!
//! * **Attach** ([`Database::attach_durable`]) — point a database at a
//!   directory. Recovery runs first: load the newest complete
//!   checkpoint (a v2 dump), then replay the matching log's suffix of
//!   committed queries through a `ScriptedChooser` built from each
//!   record's recorded draw trace. A torn final record is dropped and
//!   counted; mid-log corruption aborts the attach with a line-accurate
//!   diagnostic. After recovery the log is reopened and set, with the
//!   attaching handle's fsync policy, into the kernel's durable slot —
//!   once: every committed mutation on the kernel, whichever handle sent
//!   it, appends to it under that policy.
//! * **Checkpoint** ([`Database::checkpoint`]) — fold the log into a
//!   fresh baseline, re-opened under the log's own policy. The
//!   procedure is crash-safe by ordering alone:
//!   write the next generation's log (header + re-logged definitions)
//!   first, then atomically rename the new checkpoint into place — the
//!   rename is the commit point — then clean up the old generation. A
//!   crash at any step leaves one complete generation on disk.
//! * **Append** (called from the query path) — one record per committed
//!   mutating query, appended and fsynced after the store mutation
//!   succeeds but before the commit is acknowledged to the caller. If the append or its fsync
//!   fails, the commit is rolled back and the log is **poisoned**:
//!   subsequent mutating queries fail fast (the on-disk tail is
//!   suspect) until a checkpoint rebuilds the baseline from memory. A
//!   sink that *panics* poisons the log the same way: the flag is raised
//!   before each sink call and lowered only when it returns `Ok`, so the
//!   durable mutex's own (sticky) poison bit carries no information and
//!   every lock site recovers the guard.
//!
//! The recovery guarantee, checked by `tests/recovery.rs` across crash
//! points × choosers × engines: the recovered store is oid-bijection-
//! equivalent (`store::equiv`) to the store after some *prefix* of the
//! committed queries, and that prefix contains every acknowledged
//! commit — under `Commit`, the only policy that logs, a commit is
//! acknowledged only after its record's `fsync` returned.

use crate::database::{Database, DbOptions};
use crate::error::DbError;
use crate::kernel::{lock, DbKernel};
use ioql_eval::{Governor, Limits, ScriptedChooser};
use ioql_store::wal::{checkpoint_path, parse_wal, scan_generations, wal_path, Wal, WalSink};
use ioql_store::{Durability, WalError, WalErrorKind, WalPayload};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Builds the sink a [`Wal`] appends through, given the log's path. The
/// default factory opens the real file; the fault harness substitutes
/// sinks that lose writes after N bytes or fail their fsyncs. Called
/// again at every checkpoint (each generation gets a fresh sink), so the
/// factory must be reusable.
pub type SinkFactory = Arc<dyn Fn(&Path) -> std::io::Result<Box<dyn WalSink>> + Send + Sync>;

/// The attached log and the fsync policy it was attached under: the
/// kernel's durable slot, set once by [`Database::attach_durable_with`].
/// Every handle on the kernel logs through it under that policy.
pub(crate) struct Durable {
    pub(crate) policy: Durability,
    pub(crate) log: Mutex<DurableLog>,
}

/// The open log, its directory, and the poison flag.
pub struct DurableLog {
    dir: PathBuf,
    wal: Wal,
    poisoned: bool,
    factory: SinkFactory,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("wal", &self.wal)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// What startup recovery found and did — returned by
/// [`Database::attach_durable`] and printed by the REPL's `--durable`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// The generation recovered (newest complete checkpoint, or 0).
    pub generation: u64,
    /// Whether a checkpoint file was loaded (false for the empty
    /// generation-0 baseline).
    pub checkpoint_loaded: bool,
    /// Committed queries replayed from the log suffix.
    pub replayed_queries: u64,
    /// Definitions re-registered from the log.
    pub replayed_defs: u64,
    /// Torn trailing records dropped (0 or 1).
    pub torn_dropped: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered generation {} ({}), replayed {} quer{} + {} definition(s), {} torn record(s) dropped",
            self.generation,
            if self.checkpoint_loaded {
                "checkpoint + log"
            } else {
                "empty baseline + log"
            },
            self.replayed_queries,
            if self.replayed_queries == 1 { "y" } else { "ies" },
            self.replayed_defs,
            self.torn_dropped,
        )
    }
}

/// A snapshot of the durable log's state — the REPL's `:wal status`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalStatus {
    /// The fsync policy in force.
    pub mode: Durability,
    /// The durable directory.
    pub dir: PathBuf,
    /// The live generation.
    pub generation: u64,
    /// Records appended to the live log so far.
    pub appended: u64,
    /// Whether an append failure has poisoned the log (mutating queries
    /// fail fast until a checkpoint).
    pub poisoned: bool,
}

impl std::fmt::Display for WalStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal: mode {}, dir {}, generation {}, {} record(s) appended{}",
            self.mode,
            self.dir.display(),
            self.generation,
            self.appended,
            if self.poisoned {
                " — POISONED (append failed; run :checkpoint to rebuild)"
            } else {
                ""
            },
        )
    }
}

fn io_wal(msg: impl Into<String>) -> WalError {
    WalError {
        kind: WalErrorKind::Io,
        line: 0,
        message: msg.into(),
    }
}

impl Database {
    /// Attaches a durable directory with the production file sink:
    /// recovers its state (replacing this database's in-memory store and
    /// registering the log's definitions), then logs every subsequently
    /// committed mutating query, whichever handle on the kernel sent it,
    /// under this handle's [`crate::DbOptions::durability`] — read here,
    /// once, and fixed for the log's lifetime.
    ///
    /// Attach to a *freshly constructed* database: recovery replaces the
    /// store wholesale and re-registers logged definitions (a name that
    /// is already defined fails the replay).
    pub fn attach_durable(&mut self, dir: &Path) -> Result<RecoveryReport, DbError> {
        self.attach_durable_with(
            dir,
            Arc::new(|path: &Path| {
                Ok(Box::new(ioql_store::wal::FileSink::open_append(path)?) as Box<dyn WalSink>)
            }),
        )
    }

    /// As [`Database::attach_durable`], but appending through sinks built
    /// by `factory` — the fault harness's crash-point entry.
    ///
    /// Recovery itself (checkpoint load, log parse, torn-tail rewrite)
    /// reads and repairs the real files directly; only *appends* flow
    /// through the factory's sinks.
    pub fn attach_durable_with(
        &mut self,
        dir: &Path,
        factory: SinkFactory,
    ) -> Result<RecoveryReport, DbError> {
        if self.kernel().durable.get().is_some() {
            return Err(io_wal("a durable directory is already attached").into());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| io_wal(format!("create {}: {e}", dir.display())))?;
        let gens =
            scan_generations(dir).map_err(|e| io_wal(format!("scan {}: {e}", dir.display())))?;
        let gen = gens.live();

        // 1. Baseline: the newest complete checkpoint, or the empty
        //    (schema-declared) store for generation 0.
        let ckpt = checkpoint_path(dir, gen);
        let checkpoint_loaded = ckpt.exists();
        if checkpoint_loaded {
            // A checkpoint that fails to load is real corruption — the
            // rename was atomic, so a crash cannot leave it half-written.
            self.load_from(&ckpt)?;
        } else {
            let mut fresh = DbKernel::empty_store(self.schema());
            fresh.bump_versions_from(&self.store());
            *self.store_mut() = fresh;
        }

        // 2. Replay the log suffix.
        let log = wal_path(dir, gen);
        let parsed = match std::fs::read_to_string(&log) {
            Ok(text) => parse_wal(&text, gen)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => ioql_store::wal::ParsedWal {
                gen,
                records: Vec::new(),
                torn_dropped: 0,
            },
            Err(e) => return Err(io_wal(format!("read {}: {e}", log.display())).into()),
        };
        let mut replayed_queries = 0u64;
        let mut replayed_defs = 0u64;
        for rec in &parsed.records {
            // Line = seq + 1: the header is line 1 and intact records
            // are consecutive (the parser enforces the sequence chain).
            let line = rec.seq as usize + 1;
            match &rec.payload {
                WalPayload::Define { text } => {
                    // One record per `define` call, however many forms.
                    let before = self.kernel().read_state().catalogue.order.len();
                    self.define(text).map_err(|e| WalError {
                        kind: WalErrorKind::Replay,
                        line,
                        message: format!("replaying definition failed: {e}"),
                    })?;
                    let after = self.kernel().read_state().catalogue.order.len();
                    replayed_defs += (after - before) as u64;
                }
                WalPayload::Query { text, draws } => {
                    self.replay_logged_query(text, draws)
                        .map_err(|e| WalError {
                            kind: WalErrorKind::Replay,
                            line,
                            message: format!("replaying query failed: {e}"),
                        })?;
                    replayed_queries += 1;
                }
            }
            self.metrics().wal_replayed.inc();
        }
        self.metrics().wal_torn_dropped.add(parsed.torn_dropped);

        // 3. Repair: if the tail was torn (or the log never existed),
        //    rewrite the file from the intact records so the partial
        //    bytes can never precede a future append.
        if parsed.torn_dropped > 0 || !log.exists() {
            let mut text = format!("ioql-wal v1 gen={gen}\n");
            for rec in &parsed.records {
                text.push_str(&ioql_store::wal::encode_record(rec.seq, &rec.payload));
            }
            ioql_store::write_atomic(&log, &text)
                .map_err(|e| io_wal(format!("rewrite {}: {e}", log.display())))?;
        }

        // 4. Clean up every other generation's files (the orphan log of
        //    a crashed checkpoint, stale predecessors). Best-effort.
        for g in gens.wals.iter().chain(gens.checkpoints.iter()) {
            if *g != gen {
                let _ = std::fs::remove_file(wal_path(dir, *g));
                let _ = std::fs::remove_file(checkpoint_path(dir, *g));
            }
        }

        // 5. Go live: open the log for appending through the factory.
        let sink = factory(&log).map_err(|e| io_wal(format!("open {}: {e}", log.display())))?;
        let policy = self.options().durability;
        let wal = Wal::open_with_sink(sink, gen, parsed.records.len() as u64 + 1, policy);
        let durable = Durable {
            policy,
            log: Mutex::new(DurableLog {
                dir: dir.to_path_buf(),
                wal,
                poisoned: false,
                factory,
            }),
        };
        self.kernel()
            .durable
            .set(durable)
            .map_err(|_| io_wal("a durable directory is already attached"))?;
        Ok(RecoveryReport {
            generation: gen,
            checkpoint_loaded,
            replayed_queries,
            replayed_defs,
            torn_dropped: parsed.torn_dropped,
        })
    }

    /// Folds the log into a fresh checkpoint: generation `g` → `g+1`.
    /// Also the escape hatch for a poisoned log — the new baseline is
    /// written from the in-memory store, so the suspect tail is
    /// discarded and logging resumes clean.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.kernel().checkpoint()
    }

    /// The durable log's current state, or `None` when no directory is
    /// attached.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.kernel().wal_status()
    }

    /// Replays one logged query: the elaborated text under a
    /// `ScriptedChooser` over the recorded draws, with the optimizer off
    /// (the text is already post-optimization), no resource limits, and
    /// the permissive discipline — the run was legal when it committed.
    fn replay_logged_query(&self, text: &str, draws: &[usize]) -> Result<(), DbError> {
        let replay = DbOptions {
            optimize: false,
            require_deterministic: false,
            limits: Limits::none(),
            ..self.options()
        };
        let governor = Governor::new(replay.limits).with_metrics(self.metrics().governor.clone());
        let mut chooser = ScriptedChooser::new(draws.to_vec());
        self.kernel()
            .run_query(&replay, text, &mut chooser, &governor, None, None)
            .map(|_| ())
    }
}

impl DbKernel {
    /// The kernel-side checkpoint: fold the log into generation `g+1`.
    ///
    /// Lock order: the state **read** guard is taken first and held for
    /// the whole procedure (the checkpoint must capture one consistent
    /// cut of store + definitions, and no writer may commit between the
    /// preamble and the store dump), then the durable mutex — the same
    /// state → durable order the query path uses, so sessions
    /// checkpointing concurrently with committing writers cannot
    /// deadlock.
    pub(crate) fn checkpoint(&self) -> Result<(), DbError> {
        let state = self.read_state();
        let Some(durable) = self.durable.get() else {
            return Err(io_wal("no durable directory attached").into());
        };
        let mut log = lock(&durable.log);
        let gen = log.wal.generation();
        let next = gen + 1;

        // Build the next generation's log: header plus a preamble
        // re-logging every live definition (checkpoints only cover the
        // store; definitions live in the log).
        let next_log_path = wal_path(&log.dir, next);
        std::fs::File::create(&next_log_path)
            .map_err(|e| io_wal(format!("create {}: {e}", next_log_path.display())))?;
        let sink = (log.factory)(&next_log_path)
            .map_err(|e| io_wal(format!("open {}: {e}", next_log_path.display())))?;
        let mut next_wal = Wal::create_with_sink(sink, next, durable.policy)
            .map_err(|e| io_wal(format!("write wal-{next} header: {e}")))?;
        for def in state.catalogue.ordered() {
            next_wal
                .append(&WalPayload::Define {
                    text: def.to_string(),
                })
                .map_err(|e| io_wal(format!("write wal-{next} preamble: {e}")))?;
        }
        next_wal
            .sync()
            .map_err(|e| io_wal(format!("sync wal-{next}: {e}")))?;

        // The commit point: the checkpoint file appears atomically.
        // Until this rename, recovery still picks generation `gen`
        // (wal-{next} is an ignorable orphan); after it, generation
        // `next` — whose log replays exactly the definitions.
        ioql_store::save_store(&state.store, &checkpoint_path(&log.dir, next))?;
        self.metrics().store_saves.inc();

        // Switch and clean up the old generation (best-effort: stale
        // files are harmless, recovery ignores non-live generations).
        log.wal = next_wal;
        log.poisoned = false;
        let _ = std::fs::remove_file(wal_path(&log.dir, gen));
        let _ = std::fs::remove_file(checkpoint_path(&log.dir, gen));
        self.metrics().wal_checkpoints.inc();
        Ok(())
    }

    /// The durable log's current state, or `None` when no directory is
    /// attached. The mode is the log's own policy.
    pub(crate) fn wal_status(&self) -> Option<WalStatus> {
        let durable = self.durable.get()?;
        let log = lock(&durable.log);
        Some(WalStatus {
            mode: durable.policy,
            dir: log.dir.clone(),
            generation: log.wal.generation(),
            appended: log.wal.next_seq() - 1,
            poisoned: log.poisoned,
        })
    }

    /// Appends one committed payload to the log under the poison
    /// protocol and returns its sequence number. Called by the query
    /// path (for mutating queries) and by `define`, only while the log
    /// is active — under `Commit`, so the record is fsynced before this
    /// returns — and in both cases while the state write lock is held:
    /// the state → durable order.
    pub(crate) fn wal_append(&self, payload: &WalPayload) -> Result<u64, DbError> {
        let Some(durable) = self.durable.get() else {
            return Err(io_wal("no durable directory attached").into());
        };
        let mut log = lock(&durable.log);
        if log.poisoned {
            return Err(io_wal(
                "write-ahead log poisoned by an earlier append failure; \
                 run :checkpoint to rebuild the baseline",
            )
            .into());
        }
        // Poisoned until the append returns `Ok`: after an error — or a
        // panic in the sink — the write may be partially on disk and
        // nothing after it can be trusted to append cleanly. Fail every
        // later mutation fast until a checkpoint rebuilds.
        log.poisoned = true;
        let seq = log
            .wal
            .append(payload)
            .map_err(|e| io_wal(format!("wal append failed: {e}")))?;
        log.poisoned = false;
        self.metrics().wal_appends.inc();
        self.metrics().wal_fsyncs.inc();
        Ok(seq)
    }
}
