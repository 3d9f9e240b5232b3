//! The shared database kernel.
//!
//! [`Database`](crate::Database) used to be a 1.4k-line monolith owning
//! schema, store, defs, cache, metrics, and the durable log in one
//! mutable struct — architecturally single-caller. This module is the
//! tentpole of the split: **`DbKernel`** owns all of that state behind
//! interior sharing (an `RwLock` over the mutable `KernelState`, a
//! `Mutex` over the query cache, the durable log once attached), so one kernel
//! can be shared by the embedded [`Database`](crate::Database) facade,
//! any number of [`Session`](crate::Session) handles, and the TCP
//! server ([`crate::server`]) — all at once.
//!
//! Every query enters through `DbKernel::run_query`, whichever handle
//! sent it, and is scheduled by the admission controller
//! ([`crate::sched`]): the statement is found under the state *read*
//! lock (or, cold, judged outside it), and the Theorem 7 verdict on its
//! inferred effect decides whether it runs concurrently against a
//! version-stamped snapshot (write-free queries) or serializes on the
//! write lock with a named interference witness. There is no second
//! schedule: docs/RULES.md's scheduler row (admission changes no
//! observable compared with serialized execution) covers every caller.
//!
//! ## Once per text: one `Prepared`, one catalogue
//!
//! The front end walks a query **once per text**: `DbKernel::prepare_in`
//! parses, resolves, and instantiates the fused Figure 1/3 walker
//! (`ioql_types::Judgement` over `ioql_effects::EffectRules`), then
//! decides Theorem 7's guard with `Thm7::decide`. The result is one
//! immutable [`Prepared`] `{ elab, ty, effect, thm7 }`; admission, the
//! cache gate and its `ineligible(reason)` note, the WAL gate,
//! `analyze`, and `explain` read `thm7`'s fields and never re-inspect
//! the query. None of it reads the store, so the statement cache
//! ([`crate::statements`]) keeps the `Arc<Prepared>` per text and every
//! later request for that text shares it by pointer: its `elab` *is* the
//! result-cache key. Registered definitions live in one `Arc`-shared
//! `Catalogue` built at `define` time — a snapshot clones the pointer,
//! no request rebuilds an environment from it, and a retained statement
//! is valid exactly while that pointer is the one it was judged under.
//!
//! A cold text on the admission path is judged with **no state lock
//! held**: the request clones the catalogue `Arc` under a brief read
//! lock, prepares against it, and re-validates the pointer when it
//! re-locks to be admitted. Only a `define` that slipped in between
//! makes it prepare again under the lock.
//!
//! ## Lock discipline
//!
//! Four locks, always acquired in this order and never reversed:
//! **state → statements → cache → durable**. The statements mutex is
//! held only around a map operation, never while preparing. The durable
//! slot is set once, when a log is attached, and read without a lock;
//! its mutex guards the log alone, and its fsync policy is fixed. The
//! scheduler's internal mutex is a leaf — never held while acquiring any
//! other lock. The snapshot path holds *no* state lock while executing,
//! which is the whole point: readers clone the copy-on-write store under
//! the read lock (`O(extents)`: one pointer per chunk spine — see
//! `ioql_store::env`), drop the lock, and evaluate on the frozen
//! snapshot while writers proceed by path-copying only the chunks they
//! touch.

use crate::cache::{cache_refusal, CacheEntry, CacheStats, Probe, QueryCache};
use crate::database::{DbMetrics, DbOptions, Engine, QueryResult};
use crate::durable::Durable;
use crate::error::DbError;
use crate::sched::{Admitted, Sched};
use crate::statements::{Statement, StatementCache, StatementKey};
use ioql_ast::{DefName, Definition, FnType, Query, Type, Value};
use ioql_effects::{
    effect_extents, Discipline, Effect, EffectEnv, EffectRules, MethodEffects, Thm7,
};
use ioql_eval::{
    eval_big, evaluate, Chooser, CountingChooser, DefEnv, EvalConfig, Governor, RecordingChooser,
};
use ioql_methods::{check_schema_methods, effect_table, Mode};
use ioql_opt::{AppliedRewrite, Optimizer, Stats};
use ioql_schema::Schema;
use ioql_store::{Durability, Store, WalPayload};
use ioql_syntax::parse_definitions;
use ioql_telemetry::{FlightRecorder, Span, Tracer};
use ioql_types::{Judgement, TypeError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// The definition catalogue: every view of the registered definitions a
/// request needs, built once at `define` time and shared by pointer.
#[derive(Clone, Debug, Default)]
pub(crate) struct Catalogue {
    /// Registration order (a later definition may call an earlier one).
    pub(crate) order: Vec<DefName>,
    /// `DE`: the elaborated bodies by name — the only copy, shared by
    /// pointer with every catalogue derived from this one.
    pub(crate) env: DefEnv,
    /// `D`: annotated function types `σ⃗ →ε σ'`, for the front end and
    /// the optimizer.
    pub(crate) sigs: BTreeMap<DefName, (FnType, Effect)>,
}

impl Catalogue {
    /// The definitions in registration order: what checkpoints re-log.
    pub(crate) fn ordered(&self) -> impl Iterator<Item = &Definition> {
        self.order.iter().filter_map(|d| self.env.get(d))
    }
}

/// The mutable half of the kernel: everything a committed query or
/// definition can change. Guarded by one `RwLock`; cloned wholesale to
/// give a concurrently-admitted reader its snapshot — pointer clones:
/// one per chunk spine of the store, and the catalogue `Arc`.
#[derive(Clone, Debug)]
pub(crate) struct KernelState {
    pub(crate) store: Store,
    pub(crate) catalogue: Arc<Catalogue>,
}

/// The front end's one artifact: what a single pass over the query text
/// derives, and every static verdict later stages need. Derived once per
/// text and shared by pointer (see the module docs).
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The elaborated query (projections resolved by subject type) —
    /// also, by pointer, the result-cache key.
    pub elab: Arc<Query>,
    /// Its Figure 1 type.
    pub ty: Type,
    /// Its Figure 3 effect.
    pub effect: Effect,
    /// The Theorem 7 verdict admission, the cache, the WAL gate,
    /// `analyze` and `explain` read.
    pub thm7: Thm7,
}

/// The shared kernel: schema + defs + store + cache + durable log
/// behind interior sharing, plus the admission controller. One kernel,
/// many handles — see the module docs.
pub struct DbKernel {
    pub(crate) schema: Schema,
    /// The §3/§5 design point the schema's methods were checked under.
    method_mode: Mode,
    pub(crate) method_effects: MethodEffects,
    pub(crate) state: RwLock<KernelState>,
    pub(crate) statements: Mutex<StatementCache>,
    pub(crate) cache: Mutex<QueryCache>,
    pub(crate) metrics: DbMetrics,
    /// The attached log and its fsync policy, set once by
    /// `attach_durable_with`.
    pub(crate) durable: OnceLock<Durable>,
    pub(crate) sched: Sched,
}

impl Prepared {
    /// The judgement as the trace shows it: `σ ! {ε}`.
    fn judgement(&self) -> String {
        format!("{} ! {{{}}}", self.ty, self.effect)
    }
}

impl std::fmt::Debug for DbKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbKernel")
            .field("schema", &self.schema)
            .field("sched", &self.sched)
            .finish_non_exhaustive()
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // Engine panics are contained by `catch_unwind` before they can
    // cross a guard, so poisoning here means a bug outside the eval
    // path; the state was either rolled back or untouched — keep going.
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl DbKernel {
    /// A kernel over `schema` with an empty store: checks the schema's
    /// methods under `options.method_mode` and builds the method table,
    /// the telemetry handles and both caches. What it reads of `options`
    /// is fixed for the kernel's lifetime.
    pub(crate) fn new(schema: Schema, options: &DbOptions) -> Result<DbKernel, DbError> {
        check_schema_methods(&schema, options.method_mode)?;
        let metrics = DbMetrics::new(options)?;
        let cache = QueryCache::new(options.cache_capacity).with_metrics(
            metrics.cache_hits.clone(),
            metrics.cache_misses.clone(),
            metrics.cache_evictions.clone(),
        );
        // Statements are bounded by, and retained under the rule of, the
        // result cache.
        let statements = StatementCache::new(options.cache_capacity).with_metrics(
            metrics.statement_hits.clone(),
            metrics.statement_misses.clone(),
            metrics.statement_evictions.clone(),
        );
        Ok(DbKernel {
            method_mode: options.method_mode,
            method_effects: effect_table(&schema),
            state: RwLock::new(KernelState {
                store: DbKernel::empty_store(&schema),
                catalogue: Arc::default(),
            }),
            statements: Mutex::new(statements),
            cache: Mutex::new(cache),
            metrics,
            durable: OnceLock::new(),
            sched: Sched::new(),
            schema,
        })
    }

    /// The store with every extent of `schema` declared and empty.
    pub(crate) fn empty_store(schema: &Schema) -> Store {
        let mut store = Store::new();
        for (e, c) in schema.extents() {
            store.declare_extent(e.clone(), c.clone());
        }
        store
    }

    /// The schema (immutable for the kernel's lifetime).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The query flight recorder, when one is attached
    /// (`DbOptions::trace_capacity > 0` at construction).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.metrics.recorder()
    }

    /// The telemetry handles.
    pub fn metrics(&self) -> &DbMetrics {
        &self.metrics
    }

    /// The admission controller's live state (for `:stats` and tests):
    /// `(committed writers, in-flight readers, max simultaneous
    /// readers, recent serialization witnesses)`.
    pub fn sched_snapshot(&self) -> (u64, usize, u64, Vec<String>) {
        (
            self.sched.commit_seq(),
            self.sched.inflight_readers(),
            self.sched.max_inflight_readers(),
            self.sched.recent_witnesses(),
        )
    }

    /// Hit/miss/occupancy counters of the result cache.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        lock(&self.cache).stats()
    }

    /// Hit/miss/occupancy counters of the statement cache.
    pub(crate) fn statement_stats(&self) -> CacheStats {
        lock(&self.statements).stats()
    }

    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, KernelState> {
        read_lock(&self.state)
    }

    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, KernelState> {
        write_lock(&self.state)
    }

    /// Whether committed writes are logged: a log is attached under a
    /// policy other than `Off`. Reads no lock.
    pub(crate) fn wal_active(&self) -> bool {
        self.durable
            .get()
            .is_some_and(|d| d.policy != Durability::Off)
    }

    // ------------------------------------------------------------------
    // Environments (parameterized by a state borrow, not `self` fields).
    // ------------------------------------------------------------------

    /// The fused Figure 1/3 judgement under this handle's type options,
    /// its algebra borrowing `D` from `catalogue` (nothing is cloned).
    pub(crate) fn judgement<'a>(
        &'a self,
        opts: &DbOptions,
        discipline: Discipline,
        catalogue: &'a Catalogue,
    ) -> Judgement<'a, EffectRules<'a>> {
        Judgement {
            schema: &self.schema,
            store: None,
            options: opts.type_options,
            algebra: EffectRules {
                defs: &catalogue.sigs,
                methods: &self.method_effects,
                discipline,
            },
        }
    }

    /// The evaluator's configuration: the kernel's method mode, the
    /// handle's method fuel.
    pub(crate) fn eval_config<'a>(&'a self, opts: &DbOptions) -> EvalConfig<'a> {
        EvalConfig::new(&self.schema)
            .with_method_mode(self.method_mode)
            .with_method_fuel(opts.method_fuel)
    }

    /// Catalogue statistics seeded from the current extent sizes —
    /// shared by the optimizer's and the plan lowering's cost models.
    pub(crate) fn stats_in(store: &Store) -> Stats {
        let mut stats = Stats::new();
        for (e, _, members) in store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        stats
    }

    /// Parses, resolves, and derives `q : σ ! ε` in one pass, without
    /// running the query — against a catalogue, not the state: nothing
    /// here reads the store, so no state lock need be held. The tracer
    /// gets one span per phase; spans left open by an early error are
    /// closed when the trace is sealed.
    pub(crate) fn prepare_in(
        &self,
        opts: &DbOptions,
        catalogue: &Catalogue,
        src: &str,
        tracer: &mut Tracer,
    ) -> Result<Prepared, DbError> {
        let sp = tracer.begin(Span::Parse, "");
        let raw = ioql_syntax::parse_query(src)?;
        let resolved = self.schema.resolve_query(&raw);
        tracer.end(sp);
        let discipline = if opts.require_deterministic {
            Discipline::deterministic()
        } else {
            Discipline::permissive()
        };
        let sp = tracer.begin(Span::Typecheck, "");
        let judge = |discipline| {
            self.judgement(opts, discipline, catalogue)
                .query(&BTreeMap::new(), &resolved)
        };
        // Error path only: a `⊢'` rejection fires mid-walk, so re-derive
        // under `⊢` — a Figure 1 error anywhere in the query outranks it,
        // as it did when the type checker ran to completion first.
        let (elab, ty, effect) = judge(discipline)
            .map_err(|rejected| judge(Discipline::permissive()).err().unwrap_or(rejected))?;
        let thm7 = Thm7::decide(&elab, &effect, |d| catalogue.env.get(d));
        let prepared = Prepared {
            elab: Arc::new(elab),
            ty,
            effect,
            thm7,
        };
        tracer.end_with(sp, || Some(prepared.judgement()));
        Ok(prepared)
    }

    // ------------------------------------------------------------------
    // The statement cache: a text is judged once per catalogue.
    // ------------------------------------------------------------------

    /// The retained statement for `key`, if it was judged under
    /// `catalogue` — the `statement-cache` span, which on a hit carries
    /// the judgement a cold request's `typecheck` span shows.
    fn retained_statement(
        &self,
        key: &StatementKey,
        catalogue: &Arc<Catalogue>,
        tracer: &mut Tracer,
    ) -> Option<Arc<Prepared>> {
        let sp = tracer.begin(Span::StatementCache, "");
        let probe = lock(&self.statements).lookup(key, catalogue);
        tracer.end_found(sp, || match &probe {
            Probe::Hit(prepared) => (prepared.judgement(), "hit".to_string()),
            Probe::Stale => (String::new(), "stale(catalogue)".to_string()),
            Probe::Miss => (String::new(), "miss".to_string()),
        });
        probe.hit()
    }

    /// Judges `src` under `catalogue` and retains the statement where
    /// the result cache would retain its result (see
    /// [`crate::statements`]). Takes no lock but the statements mutex,
    /// and that only for the insertion.
    fn judge_statement(
        &self,
        opts: &DbOptions,
        key: StatementKey,
        catalogue: &Arc<Catalogue>,
        src: &str,
        tracer: &mut Tracer,
    ) -> Result<Arc<Prepared>, DbError> {
        let prepared = Arc::new(self.prepare_in(opts, catalogue, src, tracer)?);
        match cache_refusal(opts, &prepared.thm7) {
            None => lock(&self.statements).insert(
                key,
                Statement {
                    catalogue: Arc::clone(catalogue),
                    prepared: Arc::clone(&prepared),
                },
            ),
            Some(reason) => tracer.note(Span::StatementCache, || {
                (String::new(), format!("not retained({reason})"))
            }),
        }
        Ok(prepared)
    }

    /// The statement for `src` under `catalogue`: retained, or judged
    /// now — for the catalogue-mismatch retries, which already hold the
    /// state lock they will run under.
    fn statement_in(
        &self,
        opts: &DbOptions,
        key: StatementKey,
        catalogue: &Arc<Catalogue>,
        src: &str,
        tracer: &mut Tracer,
    ) -> Result<Arc<Prepared>, DbError> {
        match self.retained_statement(&key, catalogue, tracer) {
            Some(prepared) => Ok(prepared),
            None => self.judge_statement(opts, key, catalogue, src, tracer),
        }
    }

    /// The state read lock and the statement for `src` judged under the
    /// catalogue it guards. A retained statement is found under the
    /// lock; a cold one is judged with the lock released, against the
    /// catalogue this request saw, and the pointer is re-validated once
    /// the lock is back.
    fn admit_statement(
        &self,
        opts: &DbOptions,
        src: &str,
        tracer: &mut Tracer,
    ) -> Result<(RwLockReadGuard<'_, KernelState>, Arc<Prepared>), DbError> {
        let key = StatementKey::new(opts, src);
        let state = self.read_state_traced(tracer);
        if let Some(prepared) = self.retained_statement(&key, &state.catalogue, tracer) {
            return Ok((state, prepared));
        }
        let seen = Arc::clone(&state.catalogue);
        drop(state);
        let prepared = self.judge_statement(opts, key.clone(), &seen, src, tracer)?;
        let state = self.read_state_traced(tracer);
        if Arc::ptr_eq(&state.catalogue, &seen) {
            return Ok((state, prepared));
        }
        // A `define` committed while this request was preparing: the
        // only preparation that runs under the state lock.
        let prepared = self.statement_in(opts, key, &state.catalogue, src, tracer)?;
        Ok((state, prepared))
    }

    fn read_state_traced(&self, tracer: &mut Tracer) -> RwLockReadGuard<'_, KernelState> {
        let sp = tracer.begin(Span::LockAcquire, "state-read");
        let state = self.read_state();
        tracer.end(sp);
        state
    }

    pub(crate) fn optimize_in(
        &self,
        state: &KernelState,
        elab: &Query,
    ) -> (Query, Vec<AppliedRewrite>) {
        // `D` is the catalogue's: signatures inferred once, at `define`
        // time, with the method table's latent effects.
        let mut env = EffectEnv::new(&self.schema).with_method_effects(self.method_effects.clone());
        env.defs = state.catalogue.sigs.clone();
        let mut optimizer = Optimizer::new(DbKernel::stats_in(&state.store));
        let optimized = optimizer.optimize_query(&env, elab);
        (optimized, optimizer.applied().to_vec())
    }

    /// Lowers a prepared query to a physical plan — shared by execution,
    /// `explain`, and `explain analyze` so the plan the user sees is the
    /// plan that runs.
    pub(crate) fn lower_in(
        &self,
        opts: &DbOptions,
        state: &KernelState,
        elab: &Query,
        static_effect: &Effect,
    ) -> Option<ioql_plan::Plan> {
        #[allow(deprecated)] // the three inert fields; see `ParSpec`
        let spec = ioql_plan::ParSpec {
            parallelism: 0,
            compile: opts.compile,
            schema: None,
            branch_effect: None,
        };
        ioql_plan::lower_with(
            elab,
            static_effect,
            &state.catalogue.env,
            &DbKernel::stats_in(&state.store),
            &spec,
        )
    }

    // ------------------------------------------------------------------
    // The query path.
    // ------------------------------------------------------------------

    /// Runs a query end-to-end under the request's one [`Tracer`]:
    /// admission, then `elapsed`/`wait` read off the tracer's clock. The
    /// single entry point for the facade, sessions, the server and the
    /// durable-replay path. `trace_id` is the caller's correlation ID
    /// (wire clients send `trace=ID`), `session` the session label —
    /// both stamped into the trace record when a recorder is attached,
    /// and both ignored otherwise.
    pub(crate) fn run_query(
        &self,
        opts: &DbOptions,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        trace_id: Option<&str>,
        session: Option<&str>,
    ) -> Result<QueryResult, DbError> {
        self.metrics.queries.inc();
        // The tracer is write-only from the pipeline's view (the
        // transparency guard): it reads the clock unconditionally at
        // its start, at admission and at its finish — `elapsed` and
        // `wait` are observables of every result — and per span only
        // when the registry or a recorder consumes the timing.
        let mut tracer = self.metrics.tracer(src, trace_id, session);
        let mut result = self.run_admitted(opts, src, chooser, governor, &mut tracer);
        let error = result.as_ref().err().map(|e| e as &dyn std::fmt::Display);
        let (elapsed, wait) = tracer.finish(error, opts.slow_query_ms);
        if let Ok(r) = result.as_mut() {
            r.elapsed = elapsed;
            r.wait = wait;
        }
        result
    }

    /// The admission-controlled path: find or judge the statement, let
    /// its inferred effect pick the schedule.
    fn run_admitted(
        &self,
        opts: &DbOptions,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        tracer: &mut Tracer,
    ) -> Result<QueryResult, DbError> {
        let wait_sp = tracer.begin(Span::SchedWait, "");
        let (state, mut prepared) = self.admit_statement(opts, src, tracer)?;
        // Theorem 7's guard, at query granularity: two write-free effects
        // never produce an interference witness, so such a query may run
        // beside any other admitted one.
        if prepared.thm7.snapshot_admissible() {
            // Stamp the reader and clone the snapshot while still
            // holding the read lock: no writer can commit between the
            // stamp and the clone, so the snapshot reflects exactly
            // `snapshot_seq` commits. The store's environments are
            // chunked copy-on-write structures behind shared spines, so
            // the clone is one pointer per environment — admission cost
            // is O(extents), not O(chunks) — and everything stays shared
            // until a writer path-copies it. The admission is a guard:
            // however this request ends, the in-flight count drops.
            let snap_sp = tracer.begin(Span::SnapshotAcquire, "");
            let reader = self.sched.admit_reader();
            let snapshot_seq = reader.snapshot_seq;
            let mut snapshot = state.clone();
            drop(state);
            let shared = snapshot.store.chunk_count();
            self.metrics.snapshot_chunks_shared.add(shared);
            tracer.end_with(snap_sp, || {
                Some(format!("seq={snapshot_seq} chunks_shared={shared}"))
            });
            self.metrics.sched.admitted.inc();
            tracer.end_wait(wait_sp, || {
                Some(format!(
                    "admitted: {}",
                    Admitted::Concurrent { snapshot_seq }
                ))
            });
            let (mut r, _) =
                self.execute_in(opts, &mut snapshot, &prepared, chooser, governor, tracer)?;
            r.admitted = Some(Admitted::Concurrent { snapshot_seq });
            Ok(r)
        } else {
            let seen = Arc::clone(&state.catalogue);
            drop(state);
            // Refused concurrency: name the interfering atom pair
            // (against the writer's own mirror reader) and serialize on
            // the write lock in arrival order.
            let witness = self.sched.writer_witness(&prepared.effect, &self.schema);
            self.metrics.sched.serialized.inc();
            self.metrics.sched.witnesses.inc();
            let lock_sp = tracer.begin(Span::LockAcquire, "state-write");
            let mut state = self.write_state();
            tracer.end(lock_sp);
            tracer.end_wait(wait_sp, || {
                Some(format!(
                    "admitted: serialized witness=({}, {})",
                    witness.0, witness.1
                ))
            });
            // Judged under the read lock's catalogue, executed under the
            // write lock: re-validate the pointer here too. (The verdict
            // cannot change — the catalogue is append-only and a
            // redefinition is rejected at `define` time — so the witness
            // above stands.)
            if !Arc::ptr_eq(&state.catalogue, &seen) {
                let key = StatementKey::new(opts, src);
                prepared = self.statement_in(opts, key, &state.catalogue, src, tracer)?;
            }
            let (mut r, seq) =
                self.execute_in(opts, &mut state, &prepared, chooser, governor, tracer)?;
            // Serialized means not write-free, and such a query takes a
            // commit stamp whenever it succeeds on the live state; a
            // missing stamp is a kernel bug, not commit 0.
            let commit_seq = seq.ok_or_else(|| {
                DbError::Internal("serialized query committed without a commit stamp".into())
            })?;
            r.admitted = Some(Admitted::Serialized {
                commit_seq,
                witness,
            });
            Ok(r)
        }
    }

    /// The pipeline from prepared query to result, against `state` —
    /// the live state under the caller's write guard when the query can
    /// write, a reader's snapshot when it is write-free. Faithful
    /// to the monolith's ordering: WAL gate → choosers → cache → read
    /// fingerprint → optimize → rollback snapshot → lower → execute →
    /// rollback/ack/insert. Returns the result plus the commit sequence
    /// stamp when a live mutation committed.
    fn execute_in(
        &self,
        opts: &DbOptions,
        state: &mut KernelState,
        prepared: &Prepared,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        tracer: &mut Tracer,
    ) -> Result<(QueryResult, Option<u64>), DbError> {
        let Prepared {
            elab,
            ty,
            effect: static_effect,
            thm7,
        } = prepared;
        // The write-ahead-log gate: only queries the effect system says
        // can write (`A(C)`/`U(C)` non-empty) are logged — Theorem 7
        // write-free queries have nothing to persist and skip the log.
        let mutating = !thm7.write_free;
        let wal_active = self.wal_active();
        let log_this = mutating && wal_active;
        if wal_active && !mutating {
            self.metrics.wal_skipped_effect.inc();
        }
        // Record the draw trace for the log (active only when this
        // commit will be logged — inactive recording is transparent
        // delegation), and count draws without touching them: both
        // wrappers delegate every pick to the caller's chooser
        // unchanged.
        let mut recording = RecordingChooser::new(chooser, log_this);
        let mut chooser = CountingChooser::new(&mut recording, self.metrics.chooser_draws.clone());
        let chooser: &mut dyn Chooser = &mut chooser;
        // Theorem 7 guard: only write-free queries (no `A(C)`; for the §5
        // extension, no `U(C)`) are deterministic, hence memoizable.
        // Key on the *pre-optimization* elaborated query: the optimizer's
        // output drifts with catalogue statistics, the elaborated form
        // does not. The key is the statement's own `Arc`: nothing is
        // copied to probe, and a hit on a retained statement compares
        // pointers.
        let cache_key = match cache_refusal(opts, thm7) {
            None => Some(elab),
            Some(reason) => {
                tracer.note(Span::CacheProbe, || {
                    (String::new(), format!("ineligible({reason})"))
                });
                None
            }
        };
        if let Some(key) = cache_key {
            // Validated against `state.store` — the store this query
            // actually runs against. On the snapshot path that is the
            // admitted snapshot, NOT the live store: a hit is only
            // served if the entry's read-set version vector matches the
            // versions this session was admitted on, so a concurrent
            // writer can never leak a too-new value into an old
            // snapshot (see `cache_isolated_from_concurrent_writers`
            // in tests/server.rs).
            let probe_sp = tracer.begin(Span::CacheProbe, "");
            let hit = lock(&self.cache).lookup(key, &state.store);
            tracer.end_with(probe_sp, || {
                Some(if hit.is_some() { "hit" } else { "miss" }.to_string())
            });
            // The entry is shared: the mutex is already released, and
            // the copy into the caller's result happens out here.
            if let Some(entry) = hit {
                // A hit still passes through the governor, so the
                // resource-limit contract is engine-identical.
                governor.checkpoint()?;
                governor.charge_cells(entry.cells)?;
                if let Value::Set(s) = &entry.value {
                    governor.observe_set_card(s.len() as u64)?;
                }
                tracer.note(Span::Governor, || {
                    (
                        String::new(),
                        format!("cells_delta={} {}", entry.cells, governor.charges_report()),
                    )
                });
                return Ok((
                    QueryResult {
                        value: entry.value.clone(),
                        ty: ty.clone(),
                        static_effect: static_effect.clone(),
                        runtime_effect: entry.runtime_effect.clone(),
                        steps: 0,
                        cached: true,
                        elapsed: Duration::ZERO, // stamped by `run_query`
                        wait: Duration::ZERO,    // stamped by `run_query`
                        admitted: None,          // stamped by the caller
                    },
                    None,
                ));
            }
        }
        // Fingerprint the read set *before* evaluation; the Theorem 7
        // guard means evaluation cannot move these counters.
        let read_versions = cache_key.map(|_| {
            effect_extents(&self.schema, static_effect)
                .reads
                .into_iter()
                .map(|e| {
                    let v = state.store.extent_version(&e);
                    (e, v)
                })
                .collect::<BTreeMap<_, _>>()
        });
        let cells_before = governor.cells_spent();
        let engine = opts.engine;
        // Production runs the optimizer's output, the spec (and WAL
        // replay) the shared AST itself: the statement is never copied.
        let optimized;
        let elab: &Query = if engine == Engine::Plan && opts.optimize {
            let sp = tracer.begin(Span::Optimize, "");
            let (rewritten, applied) = self.optimize_in(state, elab);
            tracer.end_with(sp, || Some(format!("{} rewrite(s)", applied.len())));
            optimized = rewritten;
            &optimized
        } else {
            elab
        };
        // Snapshot only when the query can actually mutate the store —
        // the static effect tells us up front (Theorem 5: the runtime
        // trace is covered by it), so read-only queries pay nothing.
        let rollback = mutating.then(|| state.store.clone());
        // The rollback clone shares every chunk with the live store, so
        // from here each first write to a chunk is an `Arc::make_mut`
        // path copy — the delta at commit is this query's COW work.
        let copied_before = state.store.cow_copied_chunks();
        let cfg = self
            .eval_config(opts)
            .with_governor(governor)
            .with_metrics(&self.metrics.eval);
        let defs = &state.catalogue.env;
        let max_steps = opts.max_steps;
        // Lower to a physical plan before taking the store mutably (the
        // lowering reads extent sizes for its cost model). `None` means
        // the Theorem 7 guard refused (big-step runs the query), or the
        // engine is the spec.
        let plan = match engine {
            Engine::Plan => {
                let sp = tracer.begin(Span::Lower, "");
                let plan = self.lower_in(opts, state, elab, static_effect);
                tracer.end_with(sp, || {
                    Some(match &plan {
                        Some(_) => "physical plan".to_string(),
                        None => format!(
                            "no plan — Thm 7 refused: {}",
                            thm7.refusal().unwrap_or_default()
                        ),
                    })
                });
                plan
            }
            Engine::SmallStep => None,
        };
        // Record compile verdicts once per execution (not per `explain`):
        // write-only, like every other counter.
        if let Some(p) = &plan {
            for v in p.compiled.values() {
                match v {
                    ioql_plan::CompileVerdict::Vm(_) => self.metrics.vm_compiles.inc(),
                    ioql_plan::CompileVerdict::Interp(_) => self.metrics.vm_fallbacks.inc(),
                }
            }
        }
        // The verdict bridge: per-node compile decisions into the trace.
        // Every traced query gets a compile verdict — a node-less
        // outcome (the spec engine, no plan, nothing to compile) is
        // itself a verdict with its reason.
        if tracer.is_on() {
            let (verdicts, no_vm) = match (engine, &plan) {
                (Engine::Plan, Some(p)) => {
                    let none = if opts.compile {
                        "no row expression"
                    } else {
                        "compile off"
                    };
                    (p.verdicts(), none)
                }
                (Engine::Plan, None) => (Vec::new(), "no physical plan"),
                (Engine::SmallStep, _) => (Vec::new(), "interpreter engine"),
            };
            for v in &verdicts {
                tracer.note(Span::Compile, || {
                    (format!("{} {}", v.id, v.label), v.compile.clone())
                });
            }
            if verdicts.is_empty() {
                tracer.note(Span::Compile, || {
                    (String::new(), format!("interp({no_vm})"))
                });
            }
        }
        let store = &mut state.store;
        let exec_sp = tracer.begin(Span::Execute, "");
        // Contain engine panics: a bug in either evaluator must not
        // tear down the caller. `AssertUnwindSafe` is justified because
        // on `Err` the only witness of the broken invariants — the
        // store — is discarded and replaced by the snapshot below.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let unstepped = |value, effect| ioql_eval::Evaluated {
                value,
                effect,
                steps: 0,
            };
            match (engine, &plan) {
                (Engine::SmallStep, _) => evaluate(&cfg, defs, store, elab, chooser, max_steps),
                (Engine::Plan, Some(plan)) => {
                    ioql_plan::execute(plan, &cfg, defs, store, chooser, max_steps)
                        .map(|r| unstepped(r.value, r.effect))
                }
                // Theorem 7 refused: big-step, the interpreter the plan
                // executor itself delegates to, runs the whole query.
                (Engine::Plan, None) => eval_big(&cfg, defs, store, elab, chooser, max_steps)
                    .map(|r| unstepped(r.value, r.effect)),
            }
        }));
        tracer.end_with(exec_sp, || Some(format!("{engine:?}")));
        let result = match outcome {
            Ok(r) => r.map_err(DbError::from),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "evaluator panicked".to_string());
                Err(DbError::Internal(msg))
            }
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                self.roll_back(&mut state.store, rollback);
                return Err(e);
            }
        };
        debug_assert!(
            out.effect.covered_by(static_effect, &self.schema),
            "Theorem 5 violated: runtime effect {{{}}} escapes static {{{static_effect}}}",
            out.effect
        );
        tracer.note(Span::Governor, || {
            (
                String::new(),
                format!(
                    "cells_delta={} {}",
                    governor.cells_spent().saturating_sub(cells_before),
                    governor.charges_report()
                ),
            )
        });
        // Acknowledged ⇒ logged: the commit's record (the executed
        // query text plus the recorded draw trace) must be in the log
        // before the caller sees `Ok`. If the append fails the store
        // mutation is rolled back too, so the in-memory state never
        // runs ahead of what a recovery could reconstruct.
        if log_this {
            let payload = WalPayload::Query {
                text: elab.to_string(),
                draws: recording.trace().to_vec(),
            };
            let wal_sp = tracer.begin(Span::WalAppend, "");
            match self.wal_append(&payload) {
                Ok(_) => tracer.end_with(wal_sp, || Some("appended fsync=true".to_string())),
                Err(e) => {
                    tracer.end_with(wal_sp, || Some("append failed — rolled back".to_string()));
                    self.roll_back(&mut state.store, rollback);
                    return Err(e);
                }
            }
        }
        if let (Some(key), Some(versions)) = (cache_key, read_versions) {
            let entry = Arc::new(CacheEntry {
                versions,
                value: out.value.clone(),
                runtime_effect: out.effect.clone(),
                cells: governor.cells_spent().saturating_sub(cells_before),
            });
            lock(&self.cache).insert(Arc::clone(key), entry);
        }
        // A committed mutation takes the next slot in the kernel's total
        // write order; the caller still holds the write lock, so stamps
        // are assigned in exactly commit order.
        let seq = mutating.then(|| {
            self.metrics.snapshot_chunks_copied.add(
                state
                    .store
                    .cow_copied_chunks()
                    .saturating_sub(copied_before),
            );
            self.sched.commit_writer()
        });
        Ok((
            QueryResult {
                value: out.value,
                ty: ty.clone(),
                static_effect: static_effect.clone(),
                runtime_effect: out.effect,
                steps: out.steps,
                cached: false,
                elapsed: Duration::ZERO, // stamped by `run_query`
                wait: Duration::ZERO,    // stamped by `run_query`
                admitted: None,          // stamped by the caller
            },
            seq,
        ))
    }

    /// Puts back the pre-query `snapshot` (`None` for a read, which took
    /// none) after a failed run. Restoring rewinds extent *contents* to
    /// their pre-query state, but the aborted run may have published
    /// intermediate contents under the snapshot's version numbers (e.g.
    /// a partial `new` batch read back by a later governed query). Move
    /// every counter strictly past both histories so no cached
    /// fingerprint can collide.
    fn roll_back(&self, store: &mut Store, snapshot: Option<Store>) {
        if let Some(snap) = snapshot {
            let dirty = std::mem::replace(store, snap);
            store.bump_versions_from(&dirty);
            self.metrics.rollbacks.inc();
        }
    }

    /// Registers `define …;` forms, all or nothing: every form of the
    /// batch is checked, elaborated, and effect-annotated against the
    /// growing catalogue first; only then is the batch logged (as one
    /// record) and the new catalogue swapped in. A successful call that
    /// registered at least one definition takes a commit-sequence slot
    /// (definitions are observable state); a failing one leaves the
    /// catalogue, the log, and the commit sequence untouched.
    pub(crate) fn define(&self, opts: &DbOptions, src: &str) -> Result<Option<u64>, DbError> {
        let parsed = parse_definitions(src)?;
        if parsed.is_empty() {
            return Ok(None);
        }
        let mut state = self.write_state();
        let mut next = Catalogue::clone(&state.catalogue);
        for def in parsed {
            if next.sigs.contains_key(&def.name) {
                return Err(TypeError::DuplicateDef(def.name).into());
            }
            let resolved = self.schema.resolve_def(&def);
            let (elab, fnty, effect) = self
                .judgement(opts, Discipline::permissive(), &next)
                .definition(&BTreeMap::new(), &resolved)?;
            next.sigs.insert(elab.name.clone(), (fnty, effect));
            next.order.push(elab.name.clone());
            next.env.insert(elab);
        }
        // Definitions are replayable state: the batch goes to the log
        // like a committed mutation (checkpoints re-log the live set),
        // and before the swap, so the in-memory catalogue never runs
        // ahead of the log.
        if self.wal_active() {
            let batch = next.ordered().skip(state.catalogue.order.len());
            let text = batch.map(|d| d.to_string()).collect::<Vec<_>>();
            self.wal_append(&WalPayload::Define {
                text: text.join("\n"),
            })?;
        }
        state.catalogue = Arc::new(next);
        Ok(Some(self.sched.commit_writer()))
    }
}
