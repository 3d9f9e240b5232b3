//! The run shape every workload shares: repeated set-up, a timed window of
//! slices driven by closed-loop clients, and the summaries that turn a
//! window and a traced pass into named metrics.

use crate::ladder::{Climb, Timed, Tracer};
use crate::metrics::Report;
use crate::stats::{median, supports, LatencySink};
use ioql::Database;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One-second slices at the recorded `run_seconds`: short enough that a burst
/// of interference from the host spoils a minority of them, which the medians
/// over slices then ignore.
pub const SLICES: usize = 20;
/// Complete set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    /// Whether to run the traced pass after the window.
    pub traced: bool,
    /// `benchmark/out`, inside the checkout.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// A scratch directory of this process, inside the checkout.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join("tmp")
            .join(format!("{}-{name}", std::process::id()))
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    pub tracer: Option<Tracer>,
}

/// Sets the workload up [`SETUPS`] times, tearing down all but the last, and
/// returns the live environment with the median set-up time in seconds.
pub fn repeated_setup<E>(
    mut setup: impl FnMut(usize) -> Result<E, String>,
    mut teardown: impl FnMut(E),
) -> Result<(E, f64), String> {
    let mut times = Vec::new();
    let mut live = None;
    for round in 0..SETUPS {
        if let Some(env) = live.take() {
            teardown(env);
        }
        let started = Instant::now();
        live = Some(setup(round)?);
        times.push(started.elapsed().as_secs_f64());
    }
    let setup_s = median(&mut times).expect("SETUPS > 0");
    Ok((live.expect("SETUPS > 0"), setup_s))
}

/// The timed window: `seconds` long, in [`SLICES`] equal slices, starting a
/// moment from now so every client thread is waiting at the line.
#[derive(Clone, Copy)]
pub struct Clock {
    start: Instant,
    slice: Duration,
}

impl Clock {
    pub fn new(seconds: u64) -> Clock {
        Clock {
            start: Instant::now() + Duration::from_millis(20),
            slice: Duration::from_secs(seconds) / SLICES as u32,
        }
    }

    fn wait_for_start(&self) {
        std::thread::sleep(self.start.saturating_duration_since(Instant::now()));
    }

    fn running(&self) -> bool {
        Instant::now() < self.start + self.slice * SLICES as u32
    }

    /// The time from the window's start to `t`, in slices.
    fn slices_until(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_secs_f64() / self.slice.as_secs_f64()
    }
}

/// One request of a closed loop.
pub struct Step {
    /// The client-observed interval from sending the request to having its
    /// reply — around the program's entry point only, not the oracle.
    pub at: Timed,
    /// `false` for an admin command, which is attempted and checked but is
    /// not a reply the throughput or the latency pool counts.
    pub is_query: bool,
    /// The reply arrived, was not an error, and matched the oracle.
    pub ok: bool,
}

impl Step {
    pub fn query(at: Timed, ok: bool) -> Step {
        Step {
            at,
            is_query: true,
            ok,
        }
    }

    pub fn admin(at: Timed, ok: bool) -> Step {
        Step {
            at,
            is_query: false,
            ok,
        }
    }
}

/// Runs `client(i, item)` on a thread of its own for each item — one per
/// closed-loop client — and returns their results in order.
pub fn on_threads<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    client: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    std::thread::scope(|scope| {
        let client = &client;
        let threads: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| scope.spawn(move || client(i, item)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread panicked"))
            .collect()
    })
}

/// What the clients of one window measured.
pub struct Window<L> {
    /// Correct replies per slice. A reply is credited to the slices its
    /// request was in flight in, in proportion to the overlap: a closed-loop
    /// client's requests tile its timeline, so a slice's credit is the rate
    /// it sustained there, without the ±1 of counting completions.
    credit: [f64; SLICES],
    /// Latencies of every correct reply of the window, pooled.
    latencies: L,
    pub attempted: u64,
    pub failed: u64,
}

impl<L: LatencySink> Window<L> {
    fn new() -> Window<L> {
        Window {
            credit: [0.0; SLICES],
            latencies: L::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Folds the windows of several client threads into one.
    pub fn merged(clients: impl IntoIterator<Item = Window<L>>) -> Window<L> {
        let mut all: Window<L> = Window::new();
        for w in clients {
            for (total, c) in all.credit.iter_mut().zip(w.credit) {
                *total += c;
            }
            all.latencies.absorb(&w.latencies);
            all.attempted += w.attempted;
            all.failed += w.failed;
        }
        all
    }

    fn book(&mut self, clock: &Clock, at: Timed) {
        self.latencies.record_ns(at.elapsed.as_nanos() as u64);
        let from = clock.slices_until(at.started);
        let to = clock.slices_until(at.started + at.elapsed);
        let last = (to as usize).min(SLICES - 1);
        if to <= from {
            self.credit[last] += 1.0;
            return;
        }
        for i in from as usize..=last {
            let overlap = to.min((i + 1) as f64) - from.max(i as f64);
            self.credit[i] += overlap.max(0.0) / (to - from);
        }
    }
}

/// One closed-loop client: sends its next request only when the previous
/// reply is in, until the window ends.
pub fn closed_loop<L: LatencySink>(clock: &Clock, mut step: impl FnMut() -> Step) -> Window<L> {
    let mut out = Window::new();
    let mut failing = 0;
    clock.wait_for_start();
    // A dead connection fails instantly; do not spin on it for the window.
    while clock.running() && failing < 100 {
        let s = step();
        out.attempted += 1;
        if !s.ok {
            out.failed += 1;
            failing += 1;
            continue;
        }
        failing = 0;
        if s.is_query {
            out.book(clock, s.at);
        }
    }
    out
}

/// The program's own cache and store counters, read before a window so the
/// window's share of them can be told afterwards.
pub struct Counters {
    cache: ioql::CacheStats,
    cow_copied_chunks: u64,
}

impl Counters {
    pub fn of(db: &Database) -> Counters {
        Counters {
            cache: db.cache_stats(),
            cow_copied_chunks: db.store().cow_copied_chunks(),
        }
    }
}

/// Fills in the cache and store metrics of a window that began at `before`
/// and acknowledged `writes` writes.
pub fn fill_counters(report: &mut Report, db: &Database, before: &Counters, writes: u64) {
    let after = Counters::of(db);
    let hits = after.cache.hits - before.cache.hits;
    let probes = hits + (after.cache.misses - before.cache.misses);
    report.set("core.cache.hit_share", hits as f64 / probes.max(1) as f64);
    report.set(
        "core.cache.evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    report.set("store.chunks", db.store().chunk_count() as f64);
    report.set(
        "store.cow_copied_chunks_per_write",
        (after.cow_copied_chunks - before.cow_copied_chunks) as f64 / writes.max(1) as f64,
    );
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Fills in the end-to-end metrics (and the harness's own) from a window.
pub fn fill_end_to_end<L: LatencySink>(
    report: &mut Report,
    clock: &Clock,
    window: &mut Window<L>,
    setup_s: f64,
) -> Result<(), String> {
    let mut rates: Vec<f64> = window
        .credit
        .iter()
        .map(|c| c / clock.slice.as_secs_f64())
        .collect();
    let throughput = median(&mut rates).expect("SLICES > 0");
    report.set("throughput_rps", throughput);
    report.set(
        "harness.slice_spread",
        (rates[SLICES - 1] - rates[0]) / throughput,
    );
    let samples = window.latencies.count();
    let no_reply = "the window completed no request";
    report.set(
        "latency_p50_ms",
        window.latencies.quantile_ms(0.5).ok_or(no_reply)?,
    );
    // The contract wants the metric on every run; a window too short to
    // support it is called out rather than silently trusted.
    if !supports(samples, 0.95) {
        eprintln!(
            "warning: latency_p95_ms rests on {samples} samples, fewer than the 200 it needs"
        );
    }
    report.set(
        "latency_p95_ms",
        window.latencies.quantile_ms(0.95).ok_or(no_reply)?,
    );
    report.set("harness.latency_samples", samples as f64);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(())
}

/// The traced pass: one root span per request around the workload's own
/// entry point, one child span per rung of the ladder.
pub struct TracedPass {
    pub tracer: Tracer,
    climbs: Vec<Climb>,
    root_ns: Vec<f64>,
    session_ns: Vec<f64>,
    self_ns: Vec<f64>,
    wire_ns: Vec<f64>,
    front_share: Vec<f64>,
}

impl TracedPass {
    pub fn new() -> TracedPass {
        TracedPass {
            tracer: Tracer::new(),
            climbs: Vec::new(),
            root_ns: Vec::new(),
            session_ns: Vec::new(),
            self_ns: Vec::new(),
            wire_ns: Vec::new(),
            front_share: Vec::new(),
        }
    }

    /// Books one traced request. `session_ns` is the in-process
    /// `Session::query` of the same text when the root span went over the
    /// wire; when the root span *is* the in-process call, pass `None`.
    /// A cache hit is charged only the rungs it reaches: the front end and
    /// the snapshot.
    pub fn book(&mut self, root_ns: u64, session_ns: Option<u64>, cached: bool, climb: Climb) {
        let inner = session_ns.unwrap_or(root_ns) as f64;
        let on_path = climb.front_ns + climb.snapshot_ns + if cached { 0 } else { climb.back_ns };
        self.root_ns.push(root_ns as f64);
        self.session_ns.push(inner);
        self.self_ns.push(inner - on_path as f64);
        if session_ns.is_some() {
            self.wire_ns.push(root_ns as f64 - inner);
        }
        self.front_share
            .push(climb.front_ns as f64 / root_ns.max(1) as f64);
        self.climbs.push(climb);
    }

    /// The root spans' durations, in request order.
    pub fn root_ns(&self) -> &[f64] {
        &self.root_ns
    }

    pub fn fill(&self, report: &mut Report) {
        let us = |mut v: Vec<f64>| median(&mut v).map(|ns| ns / 1e3);
        for (metric, span) in [
            ("syntax.parse_us", "parse"),
            ("schema.resolve_us", "resolve"),
            ("types.check_us", "typecheck"),
            ("effects.infer_us", "effect-infer"),
            ("store.snapshot_us", "snapshot-acquire"),
            ("opt.optimize_us", "optimize"),
            ("plan.lower_us", "lower"),
            ("plan.exec_us", "execute"),
            ("eval.bigstep_us", "execute-interp"),
            ("store.wal_append_us", "wal-append"),
        ] {
            report.set_opt(metric, us(self.tracer.durations(span)));
        }
        report.set_opt("core.session.query_us", us(self.session_ns.clone()));
        report.set_opt("core.kernel.self_us", us(self.self_ns.clone()));
        report.set_opt("core.server.wire_us", us(self.wire_ns.clone()));
        report.set_opt(
            "frontend.share_of_request",
            median(&mut self.front_share.clone()),
        );
        let n = self.climbs.len() as f64;
        if n == 0.0 {
            return;
        }
        report.set("harness.traced_requests", n);
        let sum = |f: fn(&Climb) -> u64| self.climbs.iter().map(f).sum::<u64>() as f64;
        report.set("opt.rewrites_per_query", sum(|c| c.rewrites) / n);
        report.set("plan.lowered_share", sum(|c| c.lowered as u64) / n);
        let eligible = sum(|c| c.compile_eligible_nodes);
        if eligible > 0.0 {
            report.set("plan.vm_share", sum(|c| c.vm_nodes) / eligible);
        }
        let planned_results = sum(|c| if c.lowered { c.result_elements } else { 0 });
        if planned_results > 0.0 {
            report.set(
                "plan.rows_per_result",
                sum(|c| c.scan_rows) / planned_results,
            );
        }
    }
}

/// The traced pass costs what the window's median request costs, plus the
/// tracing: their ratio minus one is the overhead.
pub fn fill_trace_overhead(report: &mut Report, traced: &TracedPass) {
    let root_median_ns = median(&mut traced.root_ns.clone());
    if let (Some(root_ns), Some(p50_ms)) = (root_median_ns, report.get("latency_p50_ms")) {
        report.set("harness.trace_overhead_share", root_ns / 1e6 / p50_ms - 1.0);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
