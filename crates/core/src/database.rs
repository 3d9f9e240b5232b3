//! The embedded database facade: one handle over a shared
//! [`DbKernel`], running text through parse → resolve → one
//! type-and-effect pass (`σ ! ε` plus the Theorem 7 verdict) →
//! optimize → lower → execute (or, as the spec, the Figure 2 machine on
//! the query as written).
//!
//! [`Database`] is the embedded handle. Its queries go through the same
//! effect-scheduled admission as every other caller's (see
//! [`crate::sched`]): a write-free query runs against a snapshot, a
//! writer serializes on the state write lock. Further handles on the
//! same live state come from [`Database::session`] (per-client budgets
//! and counters) and [`Database::serve`] (the TCP server).

use crate::analysis::Analysis;
use crate::cache::CacheStats;
use crate::error::DbError;
use crate::kernel::{DbKernel, KernelState, Prepared};
use crate::sched::{Admitted, SchedMetrics};
use crate::session::Session;
use ioql_ast::{Definition, Query, Type, Value};
use ioql_effects::{Effect, Thm7};
use ioql_eval::{
    Chooser, EvalMetrics, Exploration, FirstChooser, Governor, GovernorMetrics, Limits,
};
use ioql_methods::Mode;
use ioql_opt::AppliedRewrite;
use ioql_schema::Schema;
use ioql_store::{Durability, Store};
use ioql_syntax::parse_schema;
use ioql_telemetry::{
    Counter, EventSink, FlightRecorder, Histogram, MetricsRegistry, Span, SpanHistograms,
    TraceRecord, Tracer,
};
use ioql_types::TypeOptions;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, RwLockReadGuard};
use std::time::Duration;

/// Which of the two configurations runs the query: the specification or
/// production. What they owe each other is docs/RULES.md's "production
/// vs spec" row, checked by `tests/production_vs_spec.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The Figure 2 small-step machine — the executable *specification*
    /// and the only oracle: it evaluates the elaborated query as written
    /// ([`DbOptions::optimize`] and [`DbOptions::compile`] configure
    /// production and are not consulted). Slower (it re-traverses the
    /// evaluation context per step); reports a step count.
    SmallStep,
    /// Production: the effect-guided optimizer, then the physical-plan
    /// executor (`ioql-plan`) — every Theorem-7-eligible query is lowered
    /// to a costed operator pipeline (scans, hash index probes, set
    /// operators, the bytecode VM for row expressions) and executed
    /// there. A query the guard refuses (it mutates or invokes) runs on
    /// the big-step interpreter `ioql_eval::eval_big`, the same one the
    /// executor delegates uncompiled expressions to. On one query text
    /// the executors are observationally identical — same chooser draws,
    /// governor charges, and effects — see `tests/plan.rs`. Step counts
    /// are not reported (0).
    #[default]
    Plan,
}

/// Pipeline configuration.
///
/// Each handle holds its own copy, and most fields are read by every
/// request it sends. A few configure what the handle's requests share
/// and are read once: at construction ([`DbOptions::method_mode`],
/// [`DbOptions::telemetry`], [`DbOptions::telemetry_jsonl`],
/// [`DbOptions::trace_capacity`]), at attach
/// ([`DbOptions::durability`]), and at session creation
/// ([`DbOptions::session_budget`]). `set_options` changes only the
/// fields a request reads.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Figure 1 options (downcast flag).
    pub type_options: TypeOptions,
    /// Method design point: read-only (§3) or extended (§5). Read once,
    /// at construction: the schema's methods are checked under it, and
    /// the kernel runs them under it for every handle.
    pub method_mode: Mode,
    /// Fuel per method invocation.
    pub method_fuel: u64,
    /// Step budget per query evaluation.
    pub max_steps: u64,
    /// Run the effect-guided optimizer before lowering (production only).
    /// On by default and not a user choice: the one caller that turns it
    /// off is WAL replay (`durable.rs`), because a logged text is already
    /// the optimizer's output and the recorded draws are that text's.
    pub optimize: bool,
    /// Reject queries that fail the `⊢'` determinism discipline instead
    /// of evaluating them (off by default — the paper's permissive `⊢`).
    pub require_deterministic: bool,
    /// Which evaluator executes queries.
    pub engine: Engine,
    /// Resource limits enforced per query (deadline, cell/cardinality/
    /// growth budgets). [`Limits::none()`] by default. Each `query*`
    /// call runs under a fresh [`Governor`] built from these limits;
    /// use [`Database::query_governed`] to share one governor (and its
    /// cancellation token) across calls.
    pub limits: Limits,
    /// Capacity (in entries) of the effect-keyed query-result cache;
    /// `0` disables caching. Only queries whose inferred effect passes
    /// the Theorem 7 guard (`new`-free, no `A(C)`, no `U(C)`) are ever
    /// cached, and entries are invalidated by extent version bumps —
    /// see [`crate::cache`]. The statement cache ([`crate::statements`])
    /// has no setting of its own: it is bounded by the kernel's capacity
    /// and retains exactly the statements whose results this cache would
    /// keep, so `0` turns both off.
    pub cache_capacity: usize,
    /// Enable the telemetry registry: cache/governor/engine counters,
    /// per-span lifecycle histograms, `:metrics` exposition. Read once,
    /// at construction. Off by
    /// default; when off every handle is a no-op and (unless
    /// [`DbOptions::trace_capacity`] asks for span trees) no span reads
    /// a clock.
    /// Telemetry is **semantics-transparent** either way — nothing
    /// recorded feeds back into evaluation (see `tests/telemetry.rs`).
    pub telemetry: bool,
    /// Write structured JSONL events (query span begin/end + counter
    /// snapshots) to this path; the sink is opened once, at
    /// construction. Implies nothing about `telemetry`; the
    /// counter snapshots are only non-zero when it is on.
    pub telemetry_jsonl: Option<std::path::PathBuf>,
    /// Ignored. This sized the plan engine's worker pool, which is
    /// gone (EXPERIMENTS.md B10); its contract was "no observable
    /// changes", so every value now behaves as `0` always did. The
    /// benchmark harness spells the field in a struct literal
    /// (DESIGN.md §6); a `benchmark` change that drops it from that
    /// literal releases the declaration.
    #[deprecated(note = "the worker pool is gone; the value is ignored")]
    pub parallelism: usize,
    /// Compile comprehension predicates and projection heads to the
    /// bytecode VM (production only). Lowering annotates each eligible
    /// plan node with a compile verdict — `[vm]` in `:plan` output, or
    /// `[interp(reason)]` naming the construct that kept it interpreted —
    /// and the executor dispatches compiled rows through the VM in batch.
    /// On by default and not a user choice: `false` is the interpreted
    /// plan `tests/compile.rs` holds the VM to, executor against
    /// executor — values, stores, effect traces, governor meters, chooser
    /// draw totals and stuck messages are byte-identical.
    pub compile: bool,
    /// Write-ahead-log fsync policy for committed mutating queries. Read
    /// once, by [`Database::attach_durable`]: it becomes the attached
    /// log's policy, under which every handle on the kernel logs, and a
    /// handle's later options do not change it. `Off` (default) logs nothing and
    /// changes **no observable** — values, stores, effects, meters are
    /// byte-identical to a database with no durability subsystem;
    /// `Commit` fsyncs each commit's record before acknowledging it.
    /// Queries whose inferred effect is write-free (the Theorem 7 guard) skip
    /// the log entirely under every mode — the effect system proves
    /// they have nothing to persist.
    pub durability: Durability,
    /// Cumulative resource budget for one [`Session`], read once, when
    /// the session is created: when set, every
    /// session built from these options meters **all** of its queries
    /// against a single long-lived [`Governor`] constructed from these
    /// limits, so one greedy client exhausts its own budget instead of
    /// starving the others. `None` (the default) gives sessions the
    /// per-query [`DbOptions::limits`] behaviour. Trips are surfaced
    /// per-session (see [`Session::describe`]) and in the shared
    /// governor trip counters. The embedded [`Database`] handle ignores
    /// this field.
    pub session_budget: Option<Limits>,
    /// Capacity of the query flight recorder's in-memory ring, read
    /// once, at construction: when
    /// non-zero, every query run through the kernel captures a structured
    /// [`TraceRecord`] — a span tree over
    /// parse → typecheck → optimize → lower → execute
    /// plus scheduler wait, lock acquisition, cache probe, and WAL
    /// append, each span carrying the decision it witnessed (cache
    /// hit/miss with reason, admission mode with serialization witness,
    /// per-node compile verdicts, governor charges). The last
    /// `trace_capacity` records are retrievable via
    /// [`Database::traces_last`], the `:trace last`/`:trace seq` wire
    /// commands, and `GET /traces` on the observability listener.
    /// `0` (the default) disables recording entirely. The recording
    /// contract matches telemetry's: **no observable changes** — results,
    /// stores, effects, meters, and draw totals are byte-identical to
    /// `trace_capacity = 0` (see `tests/flight_recorder.rs`).
    pub trace_capacity: usize,
    /// Slow-query threshold: when set together with
    /// [`DbOptions::telemetry_jsonl`], any query whose wall-clock
    /// `elapsed` (scheduler wait included) reaches this many
    /// milliseconds has its full [`TraceRecord`] emitted to the JSONL
    /// sink as a `slow_query` event. Requires `trace_capacity > 0`
    /// (the record must exist to be logged). `None` (the default)
    /// disables the slow-query log.
    pub slow_query_ms: Option<u64>,
}

impl Default for DbOptions {
    #[allow(deprecated)]
    fn default() -> Self {
        DbOptions {
            type_options: TypeOptions::default(),
            method_mode: Mode::ReadOnly,
            method_fuel: 1_000_000,
            max_steps: 10_000_000,
            optimize: true,
            require_deterministic: false,
            engine: Engine::default(),
            limits: Limits::none(),
            cache_capacity: 1024,
            telemetry: false,
            telemetry_jsonl: None,
            parallelism: 0,
            compile: true,
            durability: Durability::Off,
            session_budget: None,
            trace_capacity: 0,
            slow_query_ms: None,
        }
    }
}

/// The database's telemetry handles: one [`MetricsRegistry`] with the
/// pre-registered counters every subsystem writes into, plus the three
/// views a request's [`Tracer`] delivers its one measurement to — the
/// per-[`Span`] histograms, the flight recorder, and the JSONL sink.
///
/// All handles are **write-only from the engines' side**: no evaluation,
/// chooser, governor, or cache decision ever reads a recorded value, so
/// telemetry cannot perturb semantics (the transparency guard,
/// enforced differentially by `tests/telemetry.rs`). With
/// [`DbOptions::telemetry`] off, every handle is disabled and records
/// nothing at near-zero cost.
#[derive(Clone, Debug)]
pub struct DbMetrics {
    registry: Arc<MetricsRegistry>,
    spans: SpanHistograms,
    sink: Option<Arc<EventSink>>,
    recorder: Option<Arc<FlightRecorder>>,
    /// Queries started (any engine, cached or not).
    pub queries: Counter,
    /// Failed mutating queries rolled back to their snapshot.
    pub rollbacks: Counter,
    /// `(ND comp)` chooser draws made on behalf of governed queries.
    pub chooser_draws: Counter,
    /// Query-cache hits (mirrors [`crate::cache::CacheStats::hits`]).
    pub cache_hits: Counter,
    /// Query-cache misses.
    pub cache_misses: Counter,
    /// Query-cache evictions (capacity and staleness).
    pub cache_evictions: Counter,
    /// Requests whose text was already judged under the current
    /// catalogue (mirrors [`Database::statement_stats`]).
    pub statement_hits: Counter,
    /// Requests that had to be parsed and judged.
    pub statement_misses: Counter,
    /// Retained statements dropped (capacity, or a `define` made them
    /// stale).
    pub statement_evictions: Counter,
    /// Governor charge/trip counters (shared with every [`Governor`]
    /// built by [`Database::governor`]).
    pub governor: GovernorMetrics,
    /// Engine work-volume counters (small-step steps, big-step
    /// recursions, rows dispatched through the bytecode VM and the wall
    /// time of its batched loops).
    pub eval: EvalMetrics,
    /// Plan nodes whose expression compiled to bytecode at lowering.
    pub vm_compiles: Counter,
    /// Plan nodes that stayed interpreted (a fallback reason exists).
    pub vm_fallbacks: Counter,
    /// Admission-controller counters: queries admitted concurrently and
    /// queries serialized (with their interference witnesses) — see
    /// [`crate::sched`]. The wait and snapshot-acquire timings are the
    /// [`Span::SchedWait`] / [`Span::SnapshotAcquire`] histograms.
    pub sched: SchedMetrics,
    /// Store chunks shared (not copied) by snapshot acquisition — the
    /// spine length at each admission. Together with
    /// `snapshot_chunks_copied` this measures COW effectiveness: shared
    /// counts snapshot cheapness, copied counts writer path-copy work.
    pub snapshot_chunks_shared: Counter,
    /// Store chunks a committed writer had to copy because they were
    /// shared with a live snapshot (`Arc::make_mut` path copies).
    pub snapshot_chunks_copied: Counter,
    /// WAL records appended (one per committed mutating query or logged
    /// definition).
    pub wal_appends: Counter,
    /// Queries that skipped the WAL because their inferred effect is
    /// write-free — the Theorem 7 guard acting as a durability filter.
    pub wal_skipped_effect: Counter,
    /// `fsync`s issued for acknowledged records: one per append, since
    /// the log appends only under `Commit`.
    pub wal_fsyncs: Counter,
    /// Checkpoints taken (`:checkpoint` and load-triggered).
    pub wal_checkpoints: Counter,
    /// Records replayed by startup recovery.
    pub wal_replayed: Counter,
    /// Torn trailing records dropped by startup recovery.
    pub wal_torn_dropped: Counter,
    /// Store dumps written (`:save`, checkpoints).
    pub store_saves: Counter,
    /// Store dumps loaded (`:load`, recovery checkpoint loads).
    pub store_loads: Counter,
}

impl DbMetrics {
    pub(crate) fn new(options: &DbOptions) -> Result<DbMetrics, DbError> {
        let registry = Arc::new(MetricsRegistry::new(options.telemetry));
        let sink = match &options.telemetry_jsonl {
            Some(path) => Some(Arc::new(
                EventSink::create(path, Arc::clone(&registry))
                    .map_err(|e| DbError::Io(e.to_string()))?,
            )),
            None => None,
        };
        let recorder = (options.trace_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(options.trace_capacity)));
        let c = |name: &str, help: &str| registry.counter(name, help);
        let charges = |kind: &str| {
            c(
                &format!("ioql_governor_charges_total{{kind=\"{kind}\"}}"),
                "Governor charges by kind.",
            )
        };
        let trips = |kind: &str| {
            c(
                &format!("ioql_governor_trips_total{{kind=\"{kind}\"}}"),
                "Governor budget trips by kind.",
            )
        };
        Ok(DbMetrics {
            spans: Span::histograms(&registry),
            sink,
            recorder,
            queries: c(
                "ioql_queries_total",
                "Queries started (any engine, cached or not).",
            ),
            rollbacks: c(
                "ioql_rollbacks_total",
                "Failed mutating queries rolled back to their pre-query snapshot.",
            ),
            chooser_draws: c(
                "ioql_chooser_draws_total",
                "Nondeterministic chooser draws across all queries.",
            ),
            cache_hits: c("ioql_cache_hits_total", "Query-result cache hits."),
            cache_misses: c("ioql_cache_misses_total", "Query-result cache misses."),
            cache_evictions: c(
                "ioql_cache_evictions_total",
                "Query-result cache LRU evictions.",
            ),
            statement_hits: c(
                "ioql_statement_cache_hits_total",
                "Requests served a retained statement: no parse, no type-and-effect pass.",
            ),
            statement_misses: c(
                "ioql_statement_cache_misses_total",
                "Requests whose text had to be parsed and judged.",
            ),
            statement_evictions: c(
                "ioql_statement_cache_evictions_total",
                "Retained statements evicted (capacity, or stale after a define).",
            ),
            governor: GovernorMetrics {
                checkpoints: c(
                    "ioql_governor_checkpoints_total",
                    "Governor budget checkpoints.",
                ),
                cell_charges: charges("cells"),
                growth_charges: charges("store-growth"),
                set_card_observations: c(
                    "ioql_governor_observations_total{kind=\"set-cardinality\"}",
                    "Governor observations by kind.",
                ),
                cancellations: c(
                    "ioql_governor_cancellations_total",
                    "Queries cancelled via the governor's token.",
                ),
                trips_wall_clock: trips("wall-clock"),
                trips_cells: trips("cells"),
                trips_set_card: trips("set-cardinality"),
                trips_growth: trips("store-growth"),
            },
            eval: EvalMetrics {
                steps: c(
                    "ioql_eval_steps_total",
                    "Small-step machine reduction steps.",
                ),
                recursions: c(
                    "ioql_eval_recursions_total",
                    "Fuel units spent by production (max_steps minus fuel left), recorded once per execution.",
                ),
                dispatches: c(
                    "ioql_vm_dispatches_total",
                    "Rows dispatched through the bytecode VM.",
                ),
                dispatch_ns: registry.histogram(
                    "ioql_vm_dispatch_ns",
                    "Wall time of batched VM dispatch loops.",
                ),
            },
            vm_compiles: c(
                "ioql_vm_compiles_total",
                "Plan nodes compiled to bytecode at lowering.",
            ),
            vm_fallbacks: c(
                "ioql_vm_fallbacks_total",
                "Plan nodes kept on the interpreter at lowering.",
            ),
            sched: SchedMetrics {
                admitted: c(
                    "ioql_sched_admitted_total",
                    "Write-free queries admitted concurrently against a snapshot.",
                ),
                serialized: c(
                    "ioql_sched_serialized_total",
                    "Writing queries serialized into the kernel's commit order.",
                ),
                witnesses: c(
                    "ioql_sched_witnesses_total",
                    "Interference witnesses recorded at serialization.",
                ),
            },
            snapshot_chunks_shared: c(
                "ioql_snapshot_chunks_shared_total",
                "Store chunks shared (not copied) by snapshot acquisition.",
            ),
            snapshot_chunks_copied: c(
                "ioql_snapshot_chunks_copied_total",
                "Store chunks copied by writers because a live snapshot shared them.",
            ),
            wal_appends: c(
                "ioql_wal_appends_total",
                "Committed records appended to the write-ahead log.",
            ),
            wal_skipped_effect: c(
                "ioql_wal_skipped_effect_total",
                "Commits skipped by the WAL because the effect proved them write-free.",
            ),
            wal_fsyncs: c("ioql_wal_fsyncs_total", "WAL fsync calls."),
            wal_checkpoints: c(
                "ioql_wal_checkpoints_total",
                "Durable checkpoints (baseline rebuilds).",
            ),
            wal_replayed: c(
                "ioql_wal_replayed_total",
                "Records replayed during recovery.",
            ),
            wal_torn_dropped: c(
                "ioql_wal_torn_dropped_total",
                "Torn tail records dropped during recovery.",
            ),
            store_saves: c("ioql_store_saves_total", "Store snapshots saved to disk."),
            store_loads: c(
                "ioql_store_loads_total",
                "Store snapshots loaded from disk.",
            ),
            registry,
        })
    }

    /// The backing registry (counter reads, Prometheus rendering).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The histogram every duration of `span` is observed into (a
    /// disabled handle for annotation-only spans, and for every span
    /// when [`DbOptions::telemetry`] is off).
    pub fn span(&self, span: Span) -> &Histogram {
        &self.spans[span as usize]
    }

    pub(crate) fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The one instrument a request holds: its clock, delivering to
    /// whichever of the histograms, the recorder and the sink are on.
    pub(crate) fn tracer<'a>(
        &'a self,
        src: &'a str,
        trace_id: Option<&'a str>,
        session: Option<&'a str>,
    ) -> Tracer<'a> {
        Tracer::start(
            src,
            trace_id,
            session,
            self.registry.is_enabled().then_some(&self.spans),
            self.recorder.as_deref(),
            self.sink.as_deref(),
        )
    }
}

/// The result of one evaluated query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The value produced.
    pub value: Value,
    /// Static type (Figure 1).
    pub ty: Type,
    /// Statically inferred effect (Figure 3).
    pub static_effect: Effect,
    /// Actual runtime effect trace (Figure 4); always a subeffect of
    /// `static_effect` — that is Theorem 5, and a `debug_assert` checks
    /// it on every query.
    pub runtime_effect: Effect,
    /// Reduction steps taken. `0` when the result was served from the
    /// cache.
    pub steps: u64,
    /// Whether the result was served from the query-result cache rather
    /// than evaluated. Cached results are value-identical to a fresh
    /// evaluation (Theorem 7 — see [`crate::cache`]).
    pub cached: bool,
    /// Wall-clock time of the whole pipeline run, scheduler wait
    /// included (admission through evaluate — what the caller actually
    /// waited). Measured outside the governor's deadline path and
    /// regardless of [`DbOptions::telemetry`] — purely informational;
    /// nothing reads it back.
    pub elapsed: Duration,
    /// The portion of [`QueryResult::elapsed`] spent waiting to be
    /// scheduled: admission-queue time plus kernel state-lock
    /// acquisition, closed when the query is admitted. Always
    /// ≤ `elapsed`. Like `elapsed`, purely informational.
    pub wait: Duration,
    /// How the admission controller scheduled this query: a snapshot
    /// stamp for a concurrently-admitted reader, a commit-order stamp
    /// plus interference witness for a serialized writer. `Some` on
    /// every `Ok`, whichever handle ran the query; the type stays an
    /// `Option` only because the benchmark harness spells it.
    pub admitted: Option<Admitted>,
}

/// Read access to the shared store: a lock guard dereferencing to
/// [`Store`]. Dropping it releases the kernel's state read lock — do
/// not hold one across a `query`/`define` call on the same database.
pub struct StoreRef<'a> {
    pub(crate) guard: std::sync::RwLockReadGuard<'a, KernelState>,
}

impl Deref for StoreRef<'_> {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.guard.store
    }
}

/// Mutable access to the shared store: a lock guard dereferencing to
/// [`Store`]. Dropping it releases the kernel's state write lock — do
/// not hold one across a `query`/`define` call on the same database.
pub struct StoreRefMut<'a> {
    pub(crate) guard: std::sync::RwLockWriteGuard<'a, KernelState>,
}

impl Deref for StoreRefMut<'_> {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.guard.store
    }
}

impl DerefMut for StoreRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Store {
        &mut self.guard.store
    }
}

/// An IOQL database: the embedded handle over a (possibly shared)
/// [`DbKernel`] — schema + store + named query definitions. Its queries
/// are admitted like a [`Session`]'s, each under its own governor.
#[derive(Debug)]
pub struct Database {
    kernel: Arc<DbKernel>,
    options: DbOptions,
}

impl Database {
    /// Builds a database from ODL text with default options.
    pub fn from_ddl(ddl: &str) -> Result<Database, DbError> {
        Database::from_ddl_with(ddl, DbOptions::default())
    }

    /// Builds a database from ODL text.
    pub fn from_ddl_with(ddl: &str, options: DbOptions) -> Result<Database, DbError> {
        let classes = parse_schema(ddl)?;
        let schema = Schema::new(classes)?;
        Database::from_schema(schema, options)
    }

    /// Builds a database from a validated schema.
    pub fn from_schema(schema: Schema, options: DbOptions) -> Result<Database, DbError> {
        Ok(Database {
            kernel: Arc::new(DbKernel::new(schema, &options)?),
            options,
        })
    }

    /// The shared kernel this handle runs against. Clone the `Arc` to
    /// build [`Session`]s (or whole servers) over the same live state.
    pub fn kernel(&self) -> &Arc<DbKernel> {
        &self.kernel
    }

    /// A new admission-scheduled [`Session`] over this database's
    /// kernel, labelled for telemetry. The session starts from this
    /// handle's current options (including [`DbOptions::session_budget`]).
    pub fn session(&self, label: impl Into<String>) -> Session {
        Session::new(Arc::clone(&self.kernel), self.options.clone(), label.into())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.kernel.schema()
    }

    /// The store (read access, behind the kernel's state read lock).
    pub fn store(&self) -> StoreRef<'_> {
        StoreRef {
            guard: self.kernel.read_state(),
        }
    }

    /// The store (mutable access, for direct population in
    /// tests/benches; behind the kernel's state write lock).
    pub fn store_mut(&mut self) -> StoreRefMut<'_> {
        StoreRefMut {
            guard: self.kernel.write_state(),
        }
    }

    /// The options.
    pub fn options(&self) -> DbOptions {
        self.options.clone()
    }

    /// Replaces the options wholesale; takes effect on the next query.
    /// Only the fields a request reads change anything: what the kernel
    /// fixed at construction, and the durability policy a log was
    /// attached under, stay as they were. Options are per-handle:
    /// sessions and other handles on the same kernel keep their own.
    pub fn set_options(&mut self, options: DbOptions) {
        self.options = options;
    }

    /// The registered definitions, in registration order.
    pub fn definitions(&self) -> Vec<Definition> {
        self.kernel
            .read_state()
            .catalogue
            .ordered()
            .cloned()
            .collect()
    }

    /// The telemetry handles (registry, counters, histograms).
    pub fn metrics(&self) -> &DbMetrics {
        self.kernel.metrics()
    }

    /// Prometheus-style text exposition of every registered series —
    /// the `:metrics` REPL command.
    pub fn metrics_text(&self) -> String {
        self.metrics().registry().render_prometheus()
    }

    /// A fresh [`Governor`] built from [`DbOptions::limits`], wired to
    /// this database's telemetry. Every internally created governor
    /// comes from here, so charges and trips always land in the
    /// registry; callers wanting session-wide budgets can take one and
    /// pass it to [`Database::query_governed`].
    pub fn governor(&self) -> Governor {
        Governor::new(self.options.limits).with_metrics(self.metrics().governor.clone())
    }

    /// Registers `define …;` forms. Each definition is type-checked,
    /// elaborated, and effect-annotated before being added to scope; a
    /// call is all or nothing — if any form fails, none is registered.
    pub fn define(&mut self, src: &str) -> Result<(), DbError> {
        self.kernel.define(&self.options, src).map(|_| ())
    }

    /// Parses, resolves, and type-and-effect-checks a query without
    /// running it: the elaborated query, its type, its inferred effect,
    /// and the Theorem 7 verdict every later stage reads.
    pub fn prepare(&self, src: &str) -> Result<Prepared, DbError> {
        self.prepared(&self.options, src)
            .map(|(_, prepared)| prepared)
    }

    /// [`Database::prepare`] under `opts`, keeping the state read guard
    /// the query was prepared under for the caller's next step.
    fn prepared(
        &self,
        opts: &DbOptions,
        src: &str,
    ) -> Result<(RwLockReadGuard<'_, KernelState>, Prepared), DbError> {
        let state = self.kernel.read_state();
        let prepared = self
            .kernel
            .prepare_in(opts, &state.catalogue, src, &mut Tracer::off())?;
        Ok((state, prepared))
    }

    /// Runs a query end-to-end with the canonical deterministic chooser.
    pub fn query(&mut self, src: &str) -> Result<QueryResult, DbError> {
        self.query_with(src, &mut FirstChooser)
    }

    /// Runs a query end-to-end with an explicit `(ND comp)` strategy,
    /// under a fresh per-query [`Governor`] built from
    /// [`DbOptions::limits`].
    pub fn query_with(
        &mut self,
        src: &str,
        chooser: &mut dyn Chooser,
    ) -> Result<QueryResult, DbError> {
        let governor = self.governor();
        self.query_governed(src, chooser, &governor)
    }

    /// Runs a query under a caller-supplied [`Governor`] — the caller
    /// keeps the [`CancelToken`](ioql_eval::CancelToken) and can meter a
    /// whole session with one budget.
    ///
    /// Failure atomicity: if evaluation fails (or panics) after the
    /// query started mutating the store via `new`, the store is rolled
    /// back to its pre-query snapshot — a query is all-or-nothing. A
    /// panic in either engine is contained and surfaced as
    /// [`DbError::Internal`]; the database stays usable.
    pub fn query_governed(
        &mut self,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
    ) -> Result<QueryResult, DbError> {
        self.kernel
            .run_query(&self.options, src, chooser, governor, None, None)
    }

    /// The query flight recorder, when one is attached
    /// ([`DbOptions::trace_capacity`] > 0 at construction). All handles
    /// over the same kernel — sessions, the server, the observability
    /// listener — share this recorder.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.kernel.recorder()
    }

    /// The last `n` flight-recorder trace records, oldest first. Empty
    /// when recording is off ([`DbOptions::trace_capacity`] = 0).
    pub fn traces_last(&self, n: usize) -> Vec<TraceRecord> {
        self.kernel
            .recorder()
            .map(|r| r.last(n))
            .unwrap_or_default()
    }

    /// The flight-recorder record with the given sequence number, if it
    /// is still in the ring.
    pub fn trace_by_seq(&self, seq: u64) -> Option<TraceRecord> {
        self.kernel.recorder().and_then(|r| r.by_seq(seq))
    }

    /// Hit/miss/occupancy counters of the query-result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.kernel.cache_stats()
    }

    /// Hit/miss/occupancy counters of the statement cache: a hit is a
    /// request whose text needed no parse and no type-and-effect pass.
    pub fn statement_stats(&self) -> CacheStats {
        self.kernel.statement_stats()
    }

    /// Static analysis of a query: type, effect, functional-ness, the
    /// `⊢'` determinism verdict, and per-operator commutation verdicts —
    /// all read off one derivation, whatever this handle's discipline. A
    /// Figure 1 error is still an error.
    pub fn analyze(&self, src: &str) -> Result<Analysis, DbError> {
        let mut permissive = self.options.clone();
        permissive.require_deterministic = false;
        let prepared = self.prepared(&permissive, src)?.1;
        Ok(Analysis::of(self.schema(), prepared))
    }

    /// Optimizes a query, returning the rewritten query and the applied
    /// rewrites. Statistics are seeded from the *current* extent sizes.
    pub fn optimize(&self, src: &str) -> Result<(Query, Vec<AppliedRewrite>), DbError> {
        let (state, prepared) = self.prepared(&self.options, src)?;
        Ok(self.kernel.optimize_in(&state, &prepared))
    }

    /// Renders the physical plan production would execute for a query —
    /// the chosen operators with cost estimates and the effect guard
    /// licensing each choice — or, when the Theorem 7 guard refuses, a
    /// diagnosis of which condition failed. Respects
    /// [`DbOptions::optimize`], exactly as production does.
    pub fn explain(&self, src: &str) -> Result<String, DbError> {
        let (state, prepared) = self.prepared(&self.options, src)?;
        Ok(match self.plan_in(&state, prepared) {
            Ok(plan) => plan.render(),
            Err(refusal) => refusal,
        })
    }

    /// The plan execution would run for `prepared`, or the refusal
    /// diagnosis `explain` and `explain_analyze` share.
    fn plan_in(&self, state: &KernelState, prepared: Prepared) -> Result<ioql_plan::Plan, String> {
        let mut elab = Arc::clone(&prepared.elab);
        if self.options.optimize {
            // Both rewrites only reorder: the verdict on the text as
            // prepared is the verdict on its rewrite
            // (`tests/optimizer_soundness.rs`).
            elab = Arc::new(self.kernel.optimize_in(state, &prepared).0);
        }
        self.kernel
            .lower_in(&self.options, state, &elab, &prepared.effect)
            .ok_or_else(|| explain_refusal(&prepared.effect, prepared.thm7))
    }

    /// As [`Database::explain`], but *runs* the plan — against a clone
    /// of the store, under a fresh governor and the canonical
    /// [`FirstChooser`] — and renders per-operator actual rows, calls,
    /// and inclusive wall time next to the cost estimates (the
    /// `:plan analyze` REPL command). The database itself is unchanged;
    /// plan-ineligible queries get the same refusal diagnosis as
    /// `explain`.
    pub fn explain_analyze(&self, src: &str) -> Result<String, DbError> {
        let (state, prepared) = self.prepared(&self.options, src)?;
        let plan = match self.plan_in(&state, prepared) {
            Ok(plan) => plan,
            Err(refusal) => return Ok(refusal),
        };
        let governor = self.governor();
        let cfg = self
            .kernel
            .eval_config(&self.options)
            .with_governor(&governor);
        let mut store = state.store.clone();
        let catalogue = Arc::clone(&state.catalogue);
        drop(state);
        let (result, profile) = ioql_plan::execute_with_profile(
            &plan,
            &cfg,
            &catalogue.env,
            &mut store,
            &mut FirstChooser,
            self.options.max_steps,
        )?;
        let rows = match &result.value {
            Value::Set(s) => s.len(),
            _ => 1,
        };
        Ok(format!("{}returned {rows} row(s)\n", profile.render()))
    }

    /// Exhaustively explores every `(ND comp)` order of a query against a
    /// snapshot of the store — the full outcome set of the paper's
    /// non-deterministic relation.
    pub fn explore(&self, src: &str, max_runs: usize) -> Result<Exploration, DbError> {
        let (state, prepared) = self.prepared(&self.options, src)?;
        let cfg = self.kernel.eval_config(&self.options);
        Ok(ioql_eval::explore_outcomes(
            &cfg,
            &state.catalogue.env,
            &state.store,
            &prepared.elab,
            self.options.max_steps,
            max_runs,
        ))
    }

    /// Serialises the current store (see `ioql_store::dump`).
    pub fn dump(&self) -> String {
        ioql_store::dump_store(&self.store())
    }

    /// Replaces the current store with one loaded from a dump, validated
    /// against this database's schema. On any error — truncated, corrupt,
    /// or schema-mismatched dump — the in-memory store is untouched.
    ///
    /// With a durable directory attached, a successful load is followed
    /// by an immediate [`Database::checkpoint`]: the loaded dump becomes
    /// the new on-disk baseline (the old log described the *replaced*
    /// store and is folded away).
    pub fn load(&mut self, text: &str) -> Result<(), DbError> {
        let mut loaded = ioql_store::load_store(self.schema(), text)?;
        // A freshly parsed store starts all version counters at 0, which
        // could collide with fingerprints cached against the outgoing
        // store; move every counter strictly past both histories.
        loaded.bump_versions_from(&self.store());
        self.install_loaded(loaded)
    }

    /// Atomically saves the current store to `path` (temp file + fsync +
    /// rename — see [`ioql_store::save_store`]).
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), DbError> {
        ioql_store::save_store(&self.store(), path)?;
        self.metrics().store_saves.inc();
        Ok(())
    }

    /// Replaces the current store with one loaded from a dump file. As
    /// with [`Database::load`], a failed load leaves the store untouched
    /// and a durable database checkpoints the loaded state.
    pub fn load_from(&mut self, path: &std::path::Path) -> Result<(), DbError> {
        let mut loaded = ioql_store::load_store_file(self.schema(), path)?;
        loaded.bump_versions_from(&self.store());
        self.install_loaded(loaded)
    }

    /// Swaps in a loaded store, checkpointing first when durable — and
    /// **rolling the swap back** if the checkpoint fails. Without the
    /// rollback, a failed checkpoint (full disk, yanked directory)
    /// would leave memory ahead of the durable baseline: the session
    /// keeps answering from the loaded store while a crash recovers the
    /// *replaced* one — the worst kind of silent desync. Erroring with
    /// the old store intact keeps the documented contract: on any load
    /// error, the in-memory store is untouched.
    ///
    /// Loads are administrative: run them before handing out sessions,
    /// not concurrently with them.
    fn install_loaded(&mut self, loaded: Store) -> Result<(), DbError> {
        let prev = {
            let mut state = self.kernel.write_state();
            std::mem::replace(&mut state.store, loaded)
        };
        if self.kernel.durable.get().is_some() {
            if let Err(e) = self.checkpoint() {
                self.kernel.write_state().store = prev;
                return Err(e);
            }
        }
        self.metrics().store_loads.inc();
        Ok(())
    }

    /// Records a full reduction trace of a query against a *snapshot* of
    /// the store (the database itself is unchanged) — every rule
    /// application and effect label, ready for rendering.
    pub fn trace(&self, src: &str) -> Result<ioql_eval::Trace, DbError> {
        let (state, prepared) = self.prepared(&self.options, src)?;
        let cfg = self.kernel.eval_config(&self.options);
        let mut store = state.store.clone();
        let catalogue = Arc::clone(&state.catalogue);
        drop(state);
        Ok(ioql_eval::trace(
            &cfg,
            &catalogue.env,
            &mut store,
            &prepared.elab,
            &mut FirstChooser,
            self.options.max_steps,
        ))
    }

    /// Number of objects currently in extent `e` (0 if undeclared).
    pub fn extent_len(&self, e: &str) -> usize {
        self.store()
            .extents
            .members(&ioql_ast::ExtentName::new(e))
            .map(|s| s.len())
            .unwrap_or(0)
    }
}

/// The shared `explain`/`explain_analyze` diagnosis of why a query has
/// no physical plan: the Theorem 7 verdict the lowering read, field by
/// field, and the condition it refused on.
fn explain_refusal(static_effect: &Effect, thm7: Thm7) -> String {
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    format!(
        "no physical plan — the interpreter executes this query\n  \
         Thm 7 guard:\n    \
         effect {{{static_effect}}} read-only: {}\n    \
         `new`-free: {}\n    \
         invocation-free: {}\n    \
         called defs pure: {}\n  \
         refused: {}\n",
        yes_no(thm7.write_free),
        yes_no(thm7.new_free),
        yes_no(thm7.invoke_free),
        yes_no(thm7.defs_pure),
        // `lower` declines exactly when the guard does: there is a reason.
        thm7.refusal().unwrap_or_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
            int Doubled() { return this.age * 2; }
        }
        class Employee extends Person (extent Employees) {
            attribute int salary;
        }";

    fn db_with(options: DbOptions) -> Database {
        let mut db = Database::from_ddl_with(DDL, options).unwrap();
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
            .unwrap();
        db
    }

    fn db() -> Database {
        db_with(DbOptions::default())
    }

    #[test]
    fn end_to_end_query() {
        let spec = DbOptions {
            engine: Engine::SmallStep,
            ..DbOptions::default()
        };
        for (mut db, stepped) in [(db_with(spec), true), (db(), false)] {
            let r = db.query("{ p.age | p <- Persons, p.name < 3 }").unwrap();
            assert_eq!(r.value, Value::set([Value::Int(21), Value::Int(22)]));
            assert_eq!(r.ty, Type::set(Type::Int));
            assert!(r.runtime_effect.subeffect(&r.static_effect));
            // Only the spec machine counts steps.
            assert_eq!(r.steps > 0, stepped);
            // The embedded handle is admitted like any other: a read
            // runs against the snapshot of the one committed write.
            assert_eq!(r.admitted, Some(Admitted::Concurrent { snapshot_seq: 1 }));
        }
    }

    #[test]
    fn method_invocation_through_pipeline() {
        let mut db = db();
        let r = db.query("{ p.Doubled() | p <- Persons }").unwrap();
        assert_eq!(
            r.value,
            Value::set([Value::Int(42), Value::Int(44), Value::Int(46)])
        );
    }

    #[test]
    fn definitions_registered_and_used() {
        let mut db = db();
        db.define("define adults(min: int) as { p | p <- Persons, min <= p.age };")
            .unwrap();
        let r = db.query("size(adults(22))").unwrap();
        assert_eq!(r.value, Value::Int(2));
        // Latent effect surfaced.
        let a = db.analyze("adults(0)").unwrap();
        assert!(a.effect.reads.contains(&ioql_ast::ClassName::new("Person")));
    }

    #[test]
    fn analyze_flags_interference() {
        let db = db();
        let a = db
            .analyze(
                "{ if size(Employees) = 0 \
                   then (new Employee(name: 0, age: 0, salary: 1)).salary \
                   else p.age | p <- Persons }",
            )
            .unwrap();
        assert!(!a.deterministic);
        assert!(a.determinism_diagnosis.is_some());
        assert!(!a.functional);
        // A clean scan is deterministic and functional.
        let b = db.analyze("{ p.age | p <- Persons }").unwrap();
        assert!(b.deterministic && b.functional);
    }

    #[test]
    fn commutation_verdicts() {
        let db = db();
        let a = db.analyze("Persons union { e | e <- Employees }").unwrap();
        assert_eq!(a.commutations.len(), 1);
        assert!(a.commutations[0].safe);
        let b = db
            .analyze(
                "Employees union \
                 { new Employee(name: 9, age: 9, salary: 9) | x <- {1} }",
            )
            .unwrap();
        assert_eq!(b.commutations.len(), 1);
        assert!(!b.commutations[0].safe);
    }

    #[test]
    fn require_deterministic_mode_rejects() {
        let opts = DbOptions {
            require_deterministic: true,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query("{ new Person(name: 1, age: 1) | n <- {1} }")
            .unwrap();
        let r = db.query(
            "{ if size(Persons) = 1 then 1 else (new Person(name: 2, age: 2)).age \
             | n <- {1, 2} }",
        );
        assert!(matches!(r, Err(DbError::Effect(_))));
    }

    #[test]
    fn optimizer_integration() {
        let mut db = db();
        db.query("{ new Employee(name: n, age: n, salary: n) | n <- {1} }")
            .unwrap();
        let (q, applied) = db
            .optimize("{ p.age + e.age | p <- Persons, e <- Employees, p.age < 22 }")
            .unwrap();
        assert!(applied.iter().any(|r| r.rule == "promote-predicates"));
        let _ = q;
    }

    #[test]
    fn explore_integration() {
        let db = db();
        let ex = db.explore("{ p.name | p <- Persons }", 10_000).unwrap();
        assert_eq!(ex.runs.len(), 6); // 3! orders
        assert_eq!(ex.distinct_outcomes().len(), 1);
    }

    #[test]
    fn plan_engine_runs_and_falls_back() {
        let opts = DbOptions {
            cache_capacity: 0,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        // A mutating query is refused by the guard: big-step runs it.
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
            .unwrap();
        assert_eq!(db.extent_len("Persons"), 3);
        // An eligible selective scan runs on the plan executor.
        let r = db.query("{ p.age | p <- Persons, p.name = 2 }").unwrap();
        assert_eq!(r.value, Value::set([Value::Int(22)]));
        assert_eq!(r.steps, 0);
        assert!(r.runtime_effect.subeffect(&r.static_effect));
    }

    #[test]
    fn explain_renders_plans_and_diagnoses_refusals() {
        let db = db();
        // A compiled Filter costs less per row than an index build +
        // probe, so the cost model keeps the scan.
        let plan = db.explain("{ p | p <- Persons, p.name = 2 }").unwrap();
        assert!(plan.contains("Filter  p.name = 2  [vm]"), "{plan}");
        assert!(plan.contains("ExtentScan"), "{plan}");
        assert!(plan.contains("Thm 7"), "{plan}");
        let refused = db
            .explain("{ (new Person(name: 9, age: 9)).age | n <- {1} }")
            .unwrap();
        assert!(refused.contains("no physical plan"), "{refused}");
        assert!(refused.contains("`new`-free: no"), "{refused}");
        // A root with no operator of its own passes the guard like any
        // other and is one `Eval` node.
        let scalar = db.explain("1 + 2").unwrap();
        assert!(scalar.ends_with("\n  Eval  1 + 2  (pure operand, interpreted)\n"));
        // Aggregate roots lower: one `Aggregate` over the child plan,
        // under the same Thm 7 guard line.
        for (src, root, child) in [
            (
                "size(Persons)",
                "  Aggregate size\n",
                "    ExtentScan Persons",
            ),
            (
                "sum({ p.age | p <- Persons })",
                "  Aggregate sum\n",
                "    Distinct\n",
            ),
        ] {
            let plan = db.explain(src).unwrap();
            assert!(plan.starts_with("Plan  [guard: Thm 7"), "{plan}");
            assert!(plan.contains(root) && plan.contains(child), "{plan}");
            let analyzed = db.explain_analyze(src).unwrap();
            let row = analyzed.lines().nth(1).unwrap_or_default();
            assert!(
                row.trim_start().starts_with("Aggregate") && row.contains("rows=1 calls=1"),
                "{analyzed}"
            );
            assert!(analyzed.ends_with("returned 1 row(s)\n"), "{analyzed}");
        }
    }

    #[test]
    fn type_errors_surface() {
        let mut db = db();
        assert!(matches!(db.query("1 + true"), Err(DbError::Type(_))));
        assert!(matches!(db.query("1 +"), Err(DbError::Parse(_))));
        assert!(matches!(
            db.query("{ p.ghost | p <- Persons }"),
            Err(DbError::Type(_))
        ));
    }
}
