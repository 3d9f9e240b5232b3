//! The embedded database facade: one handle over a shared
//! [`DbKernel`], running text through parse → resolve → one
//! type-and-effect pass (`σ ! ε` plus the Theorem 7 verdict) →
//! optimize → lower → execute (or, as the spec, the Figure 2 machine on
//! the query as written).
//!
//! [`Database`] is the only handle type. Its queries go through
//! effect-scheduled admission (see [`crate::sched`]): a write-free query
//! runs against a snapshot, a writer serializes on the state write lock.
//! Further handles on the same live state come from
//! [`Database::session`] (a label, a budget when
//! [`DbOptions::session_budget`] is set, query and trip counters) and
//! [`Database::serve`] (the TCP server, one session per connection).

use crate::analysis::Analysis;
use crate::cache::CacheStats;
use crate::error::DbError;
use crate::kernel::{DbKernel, KernelState, Prepared};
use crate::sched::{Admitted, SchedMetrics};
use ioql_ast::{Definition, Query, Type, Value};
use ioql_effects::Effect;
use ioql_eval::{
    Chooser, EvalMetrics, Exploration, FirstChooser, Governor, GovernorMetrics, Limits,
};
use ioql_methods::Mode;
use ioql_opt::AppliedRewrite;
use ioql_schema::Schema;
use ioql_store::{Durability, Store};
use ioql_syntax::parse_schema;
use ioql_telemetry::{
    Counter, EventSink, FlightRecorder, Histogram, MetricsRegistry, Span, SpanHistograms, Tracer,
};
use ioql_types::TypeOptions;
use std::ops::Deref;
use std::sync::Arc;
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
    /// executor (`ioql-plan`) — every query is lowered to a costed
    /// operator pipeline (scans, set operators, the bytecode VM for row
    /// expressions, and hash index probes where Theorem 7 licenses them)
    /// and executed there. What no operator covers runs on big-step's
    /// interpreter, `ioql_eval::Interp`, which the executor holds as
    /// its own state. On one query text
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
    /// Append each request's
    /// [`TraceRecord`](ioql_telemetry::TraceRecord) to this path as one
    /// JSON line, in the form `GET /traces` serves (every request, or
    /// only the slow ones — see [`DbOptions::slow_query_ms`]). The file
    /// is created once, at construction. Implies nothing about
    /// `telemetry` or `trace_capacity`: the records are built for the
    /// sink alone when no recorder keeps them, and then carry `seq` 0.
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
    /// Cumulative resource budget for one session, read once, by
    /// [`Database::session`]: when set, every session built from these
    /// options meters **all** of its queries and inspections against a
    /// single long-lived [`Governor`] constructed from these limits, so
    /// one greedy client exhausts its own budget instead of starving the
    /// others. `None` (the default) gives sessions the per-query
    /// [`DbOptions::limits`] behaviour. Trips are surfaced per handle
    /// (see [`Database::describe`]) and in the shared governor trip
    /// counters. A handle built by `from_ddl*`/`from_schema` has no
    /// budget, whatever this field says.
    pub session_budget: Option<Limits>,
    /// Capacity of the query flight recorder's in-memory ring, read
    /// once, at construction: when
    /// non-zero, every query run through the kernel captures a structured
    /// [`TraceRecord`](ioql_telemetry::TraceRecord) — a span tree over
    /// parse → typecheck → optimize → lower → execute
    /// plus scheduler wait, lock acquisition, cache probe, and WAL
    /// append, each span carrying the decision it witnessed (cache
    /// hit/miss with reason, admission mode with serialization witness,
    /// per-node compile verdicts, governor charges). The last
    /// `trace_capacity` records are retrievable via
    /// [`Database::flight_recorder`], the `:trace last`/`:trace seq`
    /// commands, and `GET /traces` on the observability listener.
    /// `0` (the default) disables recording entirely. The recording
    /// contract matches telemetry's: **no observable changes** — results,
    /// stores, effects, meters, and draw totals are byte-identical to
    /// `trace_capacity = 0` (see `tests/flight_recorder.rs`).
    pub trace_capacity: usize,
    /// Slow-query threshold for the JSONL sink
    /// ([`DbOptions::telemetry_jsonl`]): when set, only requests whose
    /// wall-clock `elapsed` (scheduler wait included) reaches this many
    /// milliseconds are written. `None` (the default) writes every
    /// request. Without a sink it does nothing.
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
    /// definition). Each is fsynced before it is acknowledged, so this
    /// also counts the log's fsyncs.
    pub wal_appends: Counter,
    /// Queries that skipped the WAL because their inferred effect is
    /// write-free — the Theorem 7 guard acting as a durability filter.
    pub wal_skipped_effect: Counter,
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
                EventSink::create(path).map_err(|e| DbError::Io(e.to_string()))?,
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

/// An IOQL database handle over a (possibly shared) [`DbKernel`] —
/// schema + store + named query definitions — with its own options.
///
/// A handle from `from_ddl*`/`from_schema` is a root: no label, no
/// budget, so each query runs under a fresh governor built from
/// [`DbOptions::limits`] and its trace records carry `session: null`.
/// [`Database::session`] makes a labelled handle on the same kernel,
/// metered by one long-lived budget governor when
/// [`DbOptions::session_budget`] is set. Every handle counts its queries
/// and its governor trips.
#[derive(Debug)]
pub struct Database {
    kernel: Arc<DbKernel>,
    options: DbOptions,
    /// The telemetry label; `None` on a root handle.
    label: Option<String>,
    /// The budget governor, when this is a session made under
    /// [`DbOptions::session_budget`]: its meters accumulate across
    /// queries and its trips are this handle's trips.
    budget: Option<Governor>,
    queries: u64,
    trips: u64,
}

/// The name the benchmark harness spells for a session handle
/// (DESIGN.md §6): a session is a [`Database`] with a label.
pub type Session = Database;

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
        let kernel = Arc::new(DbKernel::new(schema, &options)?);
        Ok(Database::handle(kernel, options, None))
    }

    /// A handle on `kernel`; a labelled one gets the budget
    /// [`DbOptions::session_budget`] asks for.
    pub(crate) fn handle(
        kernel: Arc<DbKernel>,
        options: DbOptions,
        label: Option<String>,
    ) -> Database {
        let budget = label
            .as_ref()
            .and(options.session_budget)
            .map(|limits| Governor::new(limits).with_metrics(kernel.metrics().governor.clone()));
        Database {
            kernel,
            options,
            label,
            budget,
            queries: 0,
            trips: 0,
        }
    }

    /// The shared kernel this handle runs against.
    pub fn kernel(&self) -> &Arc<DbKernel> {
        &self.kernel
    }

    /// A new session over this database's kernel, labelled for
    /// telemetry. It starts from this handle's current options, and its
    /// budget is fixed here, from [`DbOptions::session_budget`].
    pub fn session(&self, label: impl Into<String>) -> Database {
        let (kernel, options) = (Arc::clone(&self.kernel), self.options.clone());
        Database::handle(kernel, options, Some(label.into()))
    }

    /// The telemetry label (`None` on a root handle).
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Queries this handle has submitted.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Queries and inspections refused by this handle's resource governor
    /// (budget trips and cancellations). A `:trace <query>` that trips is
    /// not refused — the trip is the trace's last state and the call
    /// succeeds — so it is not counted here, though the budget pays for
    /// the cells it spent.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Cells spent against the session budget, when one is set — the
    /// axis most useful for a starvation diagnosis.
    pub fn budget_spent(&self) -> Option<u64> {
        self.budget.as_ref().map(|g| g.cells_spent())
    }

    /// One-line summary for the server's `:stats` frame.
    pub fn describe(&self) -> String {
        let budget = match self.budget_spent() {
            Some(spent) => format!(", budget cells spent {spent}"),
            None => String::new(),
        };
        format!(
            "session {}: {} quer{}, {} governor trip(s){}",
            self.label().unwrap_or("-"),
            self.queries,
            if self.queries == 1 { "y" } else { "ies" },
            self.trips,
            budget,
        )
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

    /// The options.
    pub fn options(&self) -> DbOptions {
        self.options.clone()
    }

    /// Replaces the options wholesale; takes effect on the next query.
    /// Only the fields a request reads change anything: what the kernel
    /// fixed at construction, the durability policy a log was attached
    /// under, and a session's budget (fixed when the session was made,
    /// otherwise a client could reset its own quota) stay as they were.
    /// Options are per-handle: other handles on the same kernel keep
    /// their own.
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
    /// this database's telemetry, so its charges and trips land in the
    /// registry. Take one to pass to [`Database::query_governed`] and
    /// keep its cancellation token.
    pub fn governor(&self) -> Governor {
        Governor::new(self.options.limits).with_metrics(self.metrics().governor.clone())
    }

    /// Registers `define …;` forms. Each definition is type-checked,
    /// elaborated, and effect-annotated before being added to scope; a
    /// call is all or nothing — if any form fails, none is registered.
    /// Returns the commit sequence stamp when at least one definition
    /// registered.
    pub fn define(&mut self, src: &str) -> Result<Option<u64>, DbError> {
        self.kernel.define(&self.options, src)
    }

    /// Parses, resolves, and type-and-effect-checks a query without
    /// running it: the elaborated query, its type, its inferred effect,
    /// and the Theorem 7 verdict every later stage reads.
    pub fn prepare(&self, src: &str) -> Result<Prepared, DbError> {
        Ok(self.kernel.inspected(&self.options, src)?.1)
    }

    /// Runs a query end-to-end with the canonical deterministic chooser.
    pub fn query(&mut self, src: &str) -> Result<QueryResult, DbError> {
        self.query_traced(src, None)
    }

    /// Like [`Database::query`], stamping the client-supplied trace ID
    /// into the query's flight-recorder record (when the kernel has a
    /// recorder). This is what the server calls for wire queries that
    /// carried a `trace=ID` token.
    pub fn query_traced(
        &mut self,
        src: &str,
        trace_id: Option<&str>,
    ) -> Result<QueryResult, DbError> {
        self.queries += 1;
        self.governed(|kernel, opts, governor, label| {
            kernel.run_query(opts, src, &mut FirstChooser, governor, trace_id, label)
        })
    }

    /// Runs a query end-to-end with an explicit `(ND comp)` strategy,
    /// under the session budget when one is set, otherwise a fresh
    /// per-query [`Governor`] built from [`DbOptions::limits`].
    pub fn query_with(
        &mut self,
        src: &str,
        chooser: &mut dyn Chooser,
    ) -> Result<QueryResult, DbError> {
        self.queries += 1;
        self.governed(|kernel, opts, governor, label| {
            kernel.run_query(opts, src, chooser, governor, None, label)
        })
    }

    /// Runs a query under a caller-supplied [`Governor`] — the caller
    /// keeps the [`CancelToken`](ioql_eval::CancelToken) and can meter
    /// many calls with one budget. The handle's budget and counters are
    /// not consulted.
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
        let label = self.label.as_deref();
        self.kernel
            .run_query(&self.options, src, chooser, governor, None, label)
    }

    /// Runs the `:` command `line` ([`DbKernel::admin`]) under this
    /// handle's options and governor — the session budget when one is
    /// set — so an inspection costs the client what a query would, and a
    /// trip counts as this handle's.
    pub fn admin(&mut self, line: &str) -> Result<(String, String), DbError> {
        self.governed(|kernel, opts, governor, _| kernel.admin(opts, governor, line))
    }

    /// Runs `work` under the session budget, or a fresh governor built
    /// from [`DbOptions::limits`], counting a governor refusal as a trip.
    fn governed<T>(
        &mut self,
        work: impl FnOnce(&DbKernel, &DbOptions, &Governor, Option<&str>) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        let fresh;
        let governor = match &self.budget {
            Some(budget) => budget,
            None => {
                fresh = self.governor();
                &fresh
            }
        };
        let result = work(&self.kernel, &self.options, governor, self.label.as_deref());
        if matches!(&result, Err(DbError::Eval(e)) if e.is_trip()) {
            self.trips += 1;
        }
        result
    }

    /// The query flight recorder, when one is attached
    /// ([`DbOptions::trace_capacity`] > 0 at construction). All handles
    /// over the same kernel — sessions, the server, the observability
    /// listener — share this recorder.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.kernel.recorder()
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

    /// Static analysis of a query (`:analyze`): type, effect,
    /// functional-ness, the `⊢'` determinism verdict, and per-operator
    /// commutation verdicts — all read off one derivation, whatever this
    /// handle's discipline. A Figure 1 error is still an error.
    pub fn analyze(&self, src: &str) -> Result<Analysis, DbError> {
        self.kernel.analyze(&self.options, src)
    }

    /// Optimizes a query (`:optimize`), returning the rewritten query and
    /// the applied rewrites. Statistics are seeded from the *current*
    /// extent sizes.
    pub fn optimize(&self, src: &str) -> Result<(Query, Vec<AppliedRewrite>), DbError> {
        self.kernel.optimize(&self.options, src)
    }

    /// Renders the physical plan this handle's query would execute
    /// (`:plan`) — the chosen operators with cost estimates and the
    /// Theorem 7 guard line (a refused guard names the clause that failed
    /// and says the plan holds no index probes) — or, on the spec engine,
    /// that the interpreter runs the query as written.
    pub fn explain(&self, src: &str) -> Result<String, DbError> {
        self.kernel.explain(&self.options, None, src)
    }

    /// As [`Database::explain`], but *runs* the plan (`:plan analyze`) —
    /// against a clone of the store, under this handle's governor (as
    /// [`Database::admin`] runs an inspection) and the canonical
    /// [`FirstChooser`] — and renders per-operator actual rows, calls,
    /// and inclusive wall time next to the cost estimates. The database
    /// itself is unchanged.
    pub fn explain_analyze(&mut self, src: &str) -> Result<String, DbError> {
        self.governed(|kernel, opts, governor, _| kernel.explain(opts, Some(governor), src))
    }

    /// Exhaustively explores every `(ND comp)` order of a query against a
    /// snapshot of the store (`:explore`) — the full outcome set of the
    /// paper's non-deterministic relation — under this handle's governor.
    /// A governor trip is the call's error, and the handle's trip.
    pub fn explore(&mut self, src: &str, max_runs: usize) -> Result<Exploration, DbError> {
        self.governed(|kernel, opts, governor, _| kernel.explore(opts, governor, src, max_runs))
    }

    /// Serialises the current store (see `ioql_store::dump`).
    pub fn dump(&self) -> String {
        ioql_store::dump_store(&self.store())
    }

    /// Replaces the current store with one loaded from a dump, validated
    /// against this database's schema, and [installs](Database::install)
    /// it. On any error — truncated, corrupt, or schema-mismatched dump,
    /// or a failed checkpoint — the in-memory store is untouched.
    pub fn load(&mut self, text: &str) -> Result<(), DbError> {
        self.install(ioql_store::load_store(self.schema(), text)?)?;
        self.metrics().store_loads.inc();
        Ok(())
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
        self.install(ioql_store::load_store_file(self.schema(), path)?)?;
        self.metrics().store_loads.inc();
        Ok(())
    }

    /// Replaces the whole store with `store` — the one way a store
    /// enters other than through queries. Every extent version of the
    /// installed store moves strictly past the outgoing store's, so no
    /// result cached against the old store is served again.
    ///
    /// With a durable directory attached, the swap is followed by an
    /// immediate [`Database::checkpoint`] — the installed store becomes
    /// the new on-disk baseline (the old log described the *replaced*
    /// store) — and the swap is **rolled back** if the checkpoint fails.
    /// Otherwise memory would run ahead of the durable baseline: the
    /// handle answering from the installed store while a crash recovers
    /// the replaced one.
    ///
    /// Installs are administrative: run them before handing out
    /// sessions, not concurrently with them.
    pub fn install(&mut self, mut store: Store) -> Result<(), DbError> {
        let mut prev = {
            let mut state = self.kernel.write_state();
            store.bump_versions_from(&state.store);
            std::mem::replace(&mut state.store, store)
        };
        if self.kernel.durable.get().is_some() {
            if let Err(e) = self.checkpoint() {
                let mut state = self.kernel.write_state();
                prev.bump_versions_from(&state.store);
                state.store = prev;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Records the reduction trace of a query against a *snapshot* of
    /// the store (`:trace <query>`; the database itself is unchanged) —
    /// each rule application and effect label, under this handle's
    /// governor, at most 1 000 steps, each state cut to the 100
    /// characters the shell shows. A trip ends the trace as its result.
    pub fn trace(&mut self, src: &str) -> Result<ioql_eval::Trace, DbError> {
        self.governed(|kernel, opts, governor, _| kernel.trace(opts, governor, src))
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
        let mut db = db();
        let ex = db.explore("{ p.name | p <- Persons }", 10_000).unwrap();
        assert_eq!(ex.runs.len(), 6); // 3! orders
        assert_eq!(ex.distinct_outcomes().len(), 1);
    }

    /// An inspection is charged like a query: it spends the session's
    /// budget, and its trip is the session's.
    #[test]
    fn inspections_spend_the_session_budget() {
        let root = db_with(DbOptions {
            session_budget: Some(Limits::none().with_max_cells(10)),
            ..DbOptions::default()
        });
        let mut session = root.session("inspector");
        let q = "{ p.name + q.name | p <- Persons, q <- Persons }";
        let tripped = |r: Result<_, DbError>| matches!(r, Err(DbError::Eval(e)) if e.is_trip());
        assert!(tripped(session.explore(q, 50).map(|_| ())));
        assert_eq!(session.trips(), 1);
        assert!(session.budget_spent().unwrap() > 0);
        assert!(tripped(session.explain_analyze(q).map(|_| ())));
        assert_eq!(session.trips(), 2);
        // The trace ends on the spent budget.
        let trace = session.trace(q).unwrap();
        assert!(matches!(trace.result, Err(e) if e.is_trip()));
    }

    #[test]
    fn plan_engine_runs_and_falls_back() {
        let opts = DbOptions {
            cache_capacity: 0,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        // A mutating query runs on its plan too, with no index probe.
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
        let mut db = db();
        // A compiled Filter costs less per row than an index build +
        // probe, so the cost model keeps the scan.
        let plan = db.explain("{ p | p <- Persons, p.name = 2 }").unwrap();
        assert!(plan.contains("Filter  p.name = 2  [vm]"), "{plan}");
        assert!(plan.contains("ExtentScan"), "{plan}");
        assert!(plan.contains("Thm 7"), "{plan}");
        // A writer lowers too; its guard line says why it holds no probe.
        let refused = db
            .explain("{ (new Person(name: 9, age: 9)).age | n <- {1} }")
            .unwrap();
        let guard = "Plan  [guard: Thm 7 refused: effect not read-only; no index probes]\n";
        assert!(refused.starts_with(guard), "{refused}");
        assert!(
            refused.contains("[interp(object construction)]"),
            "{refused}"
        );
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
