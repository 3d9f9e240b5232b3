//! Semantics-transparent runtime telemetry for the IOQL engines.
//!
//! The paper's instrumented semantics (§4, Figure 4) traces *effects*
//! alongside evaluation; this crate extends the same idea to execution
//! telemetry — counters, latency histograms, and one trace record per
//! request — under one hard rule, the **transparency guard**: nothing in
//! here is ever *read* by evaluation. Handles are write-only from the
//! engines' point of view (`inc`/`add`/`observe`), every read surface
//! (`get`, [`MetricsRegistry::render_prometheus`], the JSONL sink) is
//! for operators and tests, and a disabled handle compiles down to one
//! branch on an `Option` — no clock is consulted, no atomic touched.
//! `tests/telemetry.rs` holds the engines to this by running identical
//! workloads with telemetry off and on and asserting byte-identical
//! values, stores, effect traces, and governor meters.
//!
//! One instrument, three views. The request path holds a [`Tracer`]
//! and nothing else: it owns the request's one clock, and each span it
//! closes is measured once and handed, as the same `dur_ns`, to
//!
//! * the span's [`Histogram`] in the [`MetricsRegistry`] (the [`Span`]
//!   table says which family — `docs/TELEMETRY.md` prints it),
//! * the [`TraceRecord`] span tree kept by the [`FlightRecorder`], and
//! * the [`EventSink`], which appends that same record as one JSONL
//!   line (every request, or only the slow ones).
//!
//! Underneath: [`Counter`] / [`Histogram`] are lock-free atomic
//! handles, cheap to clone (an `Arc` each), no-ops when obtained from a
//! disabled registry; histograms use fixed logarithmic nanosecond
//! buckets so recording is two `fetch_add`s, never an allocation. The
//! registry maps names to handles, labels encoded in the stored name
//! (`ioql_governor_trips_total{kind="cells"}`), and renders Prometheus
//! text exposition. All JSON goes through [`JsonObject`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod trace;
pub use json::JsonObject;
pub use trace::{FlightRecorder, Span, SpanHistograms, TraceRecord, TraceSpan, Tracer};

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A monotonically increasing counter.
///
/// Obtained from a [`MetricsRegistry`]; a handle from a disabled
/// registry (or [`Counter::disabled`]) carries no storage and every
/// operation is a single `Option` branch.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter: increments vanish, `get` reports 0.
    pub fn disabled() -> Counter {
        Counter(None)
    }

    /// Whether this handle is backed by storage.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled). A read surface for
    /// operators and tests — the engines never call this.
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram
/// buckets: 1µs to 10s in decades, plus the implicit `+Inf`.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

#[derive(Debug, Default)]
struct HistogramInner {
    /// One cumulative-at-render bucket per bound plus `+Inf` at the end.
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl HistogramInner {
    fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|b| ns <= *b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fixed-bucket latency histogram (nanoseconds). It reads no clock:
/// the request's [`Tracer`] measures, and feeds each span's duration
/// here.
///
/// ```
/// let registry = ioql_telemetry::MetricsRegistry::new(true);
/// let h = registry.histogram("parse_ns", "Parse time.");
/// h.observe_ns(1_500);
/// assert_eq!((h.count(), h.sum_ns()), (1, 1_500));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// A no-op histogram.
    pub fn disabled() -> Histogram {
        Histogram(None)
    }

    /// Whether this handle is backed by storage.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if let Some(h) = &self.0 {
            h.observe_ns(ns);
        }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|h| h.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of all observations in nanoseconds (0 when disabled).
    pub fn sum_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map(|h| h.sum_ns.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A registry of named counters and histograms.
///
/// Series names carry their labels inline, Prometheus-style:
/// `ioql_governor_trips_total{kind="cells"}`. Registration takes the
/// family's `# HELP` text — there is no way to register a series the
/// exposition cannot describe — and is idempotent: asking twice for one
/// name returns handles over the same storage (and keeps the first help
/// text). A registry built disabled hands out no-op
/// handles, so instrumented code is written once and costs one branch
/// when telemetry is off.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    /// Series name → (its family's help text, storage).
    counters: Mutex<BTreeMap<String, (String, Arc<AtomicU64>)>>,
    histograms: Mutex<BTreeMap<String, (String, Arc<HistogramInner>)>>,
}

impl MetricsRegistry {
    /// A registry; `enabled = false` makes every handle a no-op.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry whose handles are all no-ops.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::new(false)
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or retrieves) the counter `name`; `help` is its
    /// family's `# HELP` text.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let (_, cell) = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::default()));
        Counter(Some(Arc::clone(cell)))
    }

    /// Registers (or retrieves) the histogram `name`; `help` is its
    /// family's `# HELP` text.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        if !self.enabled {
            return Histogram::disabled();
        }
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let (_, cell) = map
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::default()));
        Histogram(Some(Arc::clone(cell)))
    }

    /// The current value of counter `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .map(|(_, c)| c.load(Ordering::Relaxed))
    }

    /// Renders every series as Prometheus text exposition: `# HELP`
    /// and `# TYPE` lines per metric family, counters as `name value`,
    /// histograms as cumulative `_bucket{le=…}` series ending in `+Inf` plus
    /// `_sum`/`_count`, with the stored labels preserved. Output is
    /// name-sorted (the maps are `BTreeMap`s), so two renders of the
    /// same state are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let mut last_family = String::new();
        for (name, (help, value)) in counters.iter() {
            let family = family_of(name);
            if family != last_family {
                last_family = family.to_string();
                family_header(family, help, "counter", &mut out);
            }
            out.push_str(&format!("{name} {}\n", value.load(Ordering::Relaxed)));
        }
        drop(counters);
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let mut last_family = String::new();
        for (name, (help, h)) in histograms.iter() {
            let family = family_of(name);
            if family != last_family {
                last_family = family.to_string();
                family_header(family, help, "histogram", &mut out);
            }
            let labels = labels_of(name);
            let mut cumulative = 0u64;
            for (i, bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&series_line(
                    &format!("{family}_bucket"),
                    &with_le(labels, &bound.to_string()),
                    cumulative,
                ));
            }
            cumulative += h.buckets[BUCKET_BOUNDS_NS.len()].load(Ordering::Relaxed);
            out.push_str(&series_line(
                &format!("{family}_bucket"),
                &with_le(labels, "+Inf"),
                cumulative,
            ));
            out.push_str(&series_line(
                &format!("{family}_sum"),
                &labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                h.sum_ns.load(Ordering::Relaxed),
            ));
            out.push_str(&series_line(
                &format!("{family}_count"),
                &labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                h.count.load(Ordering::Relaxed),
            ));
        }
        out
    }
}

/// A family's `# HELP` (from its first series) and `# TYPE` lines.
fn family_header(family: &str, help: &str, kind: &str, out: &mut String) {
    out.push_str(&format!("# HELP {family} {}\n", help_escape(help)));
    out.push_str(&format!("# TYPE {family} {kind}\n"));
}

/// The metric family: the stored name up to its label braces.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label pairs inside the braces, if any (`kind="cells"`).
fn labels_of(name: &str) -> Option<&str> {
    let open = name.find('{')?;
    let close = name.rfind('}')?;
    (close > open).then(|| &name[open + 1..close])
}

/// Splices `le` into an optional existing label set.
fn with_le(labels: Option<&str>, le: &str) -> String {
    match labels {
        Some(l) => format!("{{{l},le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    }
}

fn series_line(name: &str, labels: &str, value: u64) -> String {
    format!("{name}{labels} {value}\n")
}

/// Escapes a `# HELP` string per the text exposition format (backslash
/// and newline).
fn help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// The JSONL sink: one finished [`TraceRecord`] per line, in exactly
/// the form `GET /traces` serves ([`TraceRecord::to_json`]; schema in
/// `docs/TELEMETRY.md`). The [`Tracer`] appends a request's record when
/// it finishes — every request, or only those at or over the slow-query
/// threshold when one is set.
///
/// Each line is written with one `write` call and no buffering, so the
/// log survives `std::process::exit` (which skips destructors).
#[derive(Debug)]
pub struct EventSink {
    out: Mutex<std::fs::File>,
    /// What a record no recorder kept stamps its `t_ns` from.
    epoch: Instant,
}

impl EventSink {
    /// Creates (truncating) the sink file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<EventSink> {
        Ok(EventSink {
            out: Mutex::new(std::fs::File::create(path)?),
            epoch: Instant::now(),
        })
    }

    /// Takes the file's lock, which [`EventSink::write`] appends under;
    /// `None` once a panicking writer poisoned it.
    pub(crate) fn lock(&self) -> Option<MutexGuard<'_, std::fs::File>> {
        self.out.lock().ok()
    }

    /// Appends `record` as one line through the held file lock `out`.
    pub(crate) fn write(out: &mut std::fs::File, record: &TraceRecord) {
        let mut line = record.to_json();
        line.push('\n');
        let _ = out.write_all(line.as_bytes());
    }

    /// Appends `record` as one line.
    pub(crate) fn append(&self, record: &TraceRecord) {
        if let Some(mut out) = self.lock() {
            EventSink::write(&mut out, record);
        }
    }
}

fn saturating_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total", "X.");
        let h = reg.histogram("y_ns", "Y.");
        c.inc();
        c.add(10);
        h.observe_ns(5);
        assert!(!c.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(reg.counter_value("x_total"), None);
        assert!(reg.render_prometheus().is_empty());
    }

    #[test]
    fn counters_share_storage_by_name() {
        let reg = MetricsRegistry::new(true);
        let a = reg.counter("hits_total", "Hits.");
        let b = reg.counter("hits_total", "ignored: the first help stands");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("hits_total"), Some(3));
        assert!(reg
            .render_prometheus()
            .starts_with("# HELP hits_total Hits.\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("lat_ns{phase=\"parse\"}", "Latency.");
        h.observe_ns(500); // ≤ 1_000
        h.observe_ns(5_000); // ≤ 10_000
        h.observe_ns(u64::MAX); // +Inf
        assert_eq!(h.count(), 3);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"1000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"10000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("lat_ns_count{phase=\"parse\"} 3"), "{text}");
    }

    #[test]
    fn prometheus_groups_families_and_keeps_labels() {
        let reg = MetricsRegistry::new(true);
        reg.counter("trips_total{kind=\"cells\"}", "Trips.").inc();
        reg.counter("trips_total{kind=\"wall-clock\"}", "Trips.")
            .add(2);
        reg.counter("draws_total", "Draws.").add(7);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE trips_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("trips_total{kind=\"cells\"} 1"), "{text}");
        assert!(
            text.contains("trips_total{kind=\"wall-clock\"} 2"),
            "{text}"
        );
        assert!(text.contains("draws_total 7"), "{text}");
    }

    #[test]
    fn prometheus_golden_exposition() {
        // Pins the full text format: HELP before TYPE (every family has
        // one — registration takes the text), cumulative buckets ending
        // in +Inf, stable name-sorted output.
        let reg = MetricsRegistry::new(true);
        reg.counter("trips_total{kind=\"cells\"}", "Governor trips")
            .inc();
        reg.counter("draws_total", "Chooser draws").add(7);
        let h = reg.histogram("lat_ns{phase=\"parse\"}", "Phase latency\nby phase");
        h.observe_ns(500);
        h.observe_ns(5_000);
        let expected = "\
# HELP draws_total Chooser draws
# TYPE draws_total counter
draws_total 7
# HELP trips_total Governor trips
# TYPE trips_total counter
trips_total{kind=\"cells\"} 1
# HELP lat_ns Phase latency\\nby phase
# TYPE lat_ns histogram
lat_ns_bucket{phase=\"parse\",le=\"1000\"} 1
lat_ns_bucket{phase=\"parse\",le=\"10000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"100000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"1000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"10000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"100000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"1000000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"10000000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"+Inf\"} 2
lat_ns_sum{phase=\"parse\"} 5500
lat_ns_count{phase=\"parse\"} 2
";
        let text = reg.render_prometheus();
        assert_eq!(text, expected);
        // Rendering twice is byte-identical (stable sort).
        assert_eq!(reg.render_prometheus(), text);
    }

    #[test]
    fn json_escape_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            json::json_escape(s, &mut out);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\u{1}"), "\\u0001");
    }

    #[test]
    fn event_sink_writes_line_delimited_json() {
        let path = std::env::temp_dir().join(format!(
            "ioql-telemetry-test-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let rec = FlightRecorder::new(2);
        {
            let sink = EventSink::create(&path).unwrap();
            let run = |query, trace, recorder, error: Option<&dyn std::fmt::Display>, slow| {
                Tracer::start(query, trace, None, None, recorder, Some(&sink)).finish(error, slow)
            };
            run("size(Ps) \"quoted\"", None, None, None, None);
            run(
                "size(Qs)",
                Some("req-42"),
                Some(&rec),
                Some(&"boom"),
                Some(0),
            );
            // Under the threshold: recorded, not logged.
            run("size(Rs)", None, Some(&rec), None, Some(u64::MAX));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        // A record no recorder kept has no sequence number.
        assert!(
            lines[0].starts_with("{\"seq\":0,\"trace_id\":null,")
                && lines[0].contains("\\\"quoted\\\"")
                && lines[0].contains("\"ok\":true"),
            "{}",
            lines[0]
        );
        assert_eq!(lines[1], rec.by_seq(1).unwrap().to_json());
        assert!(
            lines[1].contains("\"trace_id\":\"req-42\"") && lines[1].contains("\"error\":\"boom\""),
            "{}",
            lines[1]
        );
        assert_eq!(rec.recorded(), 2);
    }
}
