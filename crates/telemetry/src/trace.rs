//! The query flight recorder: per-query decision traces.
//!
//! Aggregate counters (the [`MetricsRegistry`](crate::MetricsRegistry))
//! answer "how often"; the flight recorder answers "why was *this*
//! query slow / serialized / uncached". Every traced query produces one
//! [`TraceRecord`] — a span tree over the pipeline phases (parse →
//! typecheck → optimize → lower → execute) plus the
//! scheduling events around them (scheduler wait, kernel lock
//! acquisition, cache probe, WAL append/fsync), each span carrying the
//! *verdict* the engine reached at that point: cache hit/miss with its
//! reason, admission mode with its interference witness, per-node
//! compile verdicts, governor charges.
//!
//! Records land in a [`FlightRecorder`] — a fixed-capacity in-memory
//! ring, oldest evicted first — and are queryable by recency
//! (`:trace last [N]`, `GET /traces?n=K`) or by sequence number
//! (`:trace seq S`). The JSONL [`EventSink`] appends the same records,
//! one per line.
//!
//! The transparency guard extends to recording: with no recorder, no
//! sink and a disabled registry every [`Tracer`] span call is a single
//! branch (no clock read, no allocation — verdicts are built by closures
//! that never run), and the differential suites hold recording to the same
//! byte-identical off-vs-on contract as the metrics (see
//! `tests/flight_recorder.rs`).

use crate::json::{json_array, JsonObject};
use crate::{saturating_ns, EventSink, Histogram, MetricsRegistry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The spans a request can open — the vocabulary the kernel, the trace
/// tree and the metrics exposition share.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// Submission to admission (sessions only).
    SchedWait,
    /// Waiting for the kernel state lock.
    LockAcquire,
    /// The COW store clone taken for a concurrently admitted reader.
    SnapshotAcquire,
    /// The statement-cache lookup: was this text already judged?
    StatementCache,
    /// Parse and extent resolution.
    Parse,
    /// The fused Figure 1/3 type-and-effect pass.
    Typecheck,
    /// The effect-guided optimizer.
    Optimize,
    /// Lowering to a physical plan.
    Lower,
    /// The query-result cache lookup.
    CacheProbe,
    /// A per-node compile verdict (annotation).
    Compile,
    /// Evaluation proper.
    Execute,
    /// The query's governor charges (annotation).
    Governor,
    /// The write-ahead-log append (and its fsync).
    WalAppend,
}

macro_rules! phase {
    ($name:literal) => {
        (
            $name,
            Some((
                concat!("ioql_phase_duration_ns{phase=\"", $name, "\"}"),
                "Wall-clock nanoseconds per pipeline phase.",
            )),
        )
    };
}

/// The span table, indexed by `Span as usize`: the name a span carries
/// in the trace tree, and the histogram series (with its family's help
/// text) every duration of that span is observed into. `None` marks an
/// annotation-only span. This is the only place the mapping is written.
const SPANS: [(&str, Option<(&str, &str)>); Span::ALL.len()] = [
    (
        "sched-wait",
        Some((
            "ioql_sched_wait_ns",
            "Nanoseconds spent waiting for admission plus state-lock acquisition.",
        )),
    ),
    phase!("lock-acquire"),
    (
        "snapshot-acquire",
        Some((
            "ioql_sched_snapshot_ns",
            "Nanoseconds spent acquiring the COW store snapshot under the read lock.",
        )),
    ),
    phase!("statement-cache"),
    phase!("parse"),
    phase!("typecheck"),
    phase!("optimize"),
    phase!("lower"),
    phase!("cache-probe"),
    ("compile", None),
    phase!("execute"),
    ("governor", None),
    phase!("wal-append"),
];

/// One histogram per [`Span`], indexed by `Span as usize`; annotation-only
/// spans hold a disabled handle.
pub type SpanHistograms = [Histogram; Span::ALL.len()];

impl Span {
    /// Every span, in table order.
    pub const ALL: [Span; 13] = [
        Span::SchedWait,
        Span::LockAcquire,
        Span::SnapshotAcquire,
        Span::StatementCache,
        Span::Parse,
        Span::Typecheck,
        Span::Optimize,
        Span::Lower,
        Span::CacheProbe,
        Span::Compile,
        Span::Execute,
        Span::Governor,
        Span::WalAppend,
    ];

    /// The span's name in trace records (`sched-wait`, `parse`, …).
    pub fn name(self) -> &'static str {
        SPANS[self as usize].0
    }

    /// The histogram series this span's durations feed, if any.
    pub fn series(self) -> Option<&'static str> {
        SPANS[self as usize].1.map(|(series, _)| series)
    }

    /// Registers every span's histogram in `registry`.
    pub fn histograms(registry: &MetricsRegistry) -> SpanHistograms {
        std::array::from_fn(|i| match SPANS[i].1 {
            Some((series, help)) => registry.histogram(series, help),
            None => Histogram::disabled(),
        })
    }
}

/// One timed span of a traced query, with the decision made there.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSpan {
    /// The span name (`parse`, `sched-wait`, `cache-probe`,
    /// `wal-append`, `execute`, …).
    pub name: String,
    /// Free-form detail (e.g. the plan-node label a verdict refers to).
    pub detail: String,
    /// Start offset in nanoseconds from the start of the record.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous annotations).
    pub dur_ns: u64,
    /// Tree depth: spans opened while another span is open nest under
    /// it.
    pub depth: usize,
    /// The verdict reached in this span, when one was: `hit`,
    /// `serialized witness=(A(P), R(P))`, `interp(compile off)`, ….
    pub verdict: Option<String>,
}

/// The complete decision trace of one query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Recorder-assigned sequence number (1-based, monotonic across the
    /// kernel's lifetime; assigned on insertion). 0 on a record no
    /// recorder kept (one only the JSONL sink wrote).
    pub seq: u64,
    /// The caller-supplied correlation ID (wire clients send
    /// `trace=ID`; embedded callers may pass one programmatically).
    pub trace_id: Option<String>,
    /// The session label the query ran under, when it ran in a session.
    pub session: Option<String>,
    /// The query text as submitted.
    pub query: String,
    /// Whether the query succeeded.
    pub ok: bool,
    /// The rendered error, for failed queries.
    pub error: Option<String>,
    /// Monotonic nanoseconds since the recorder's epoch (the sink's,
    /// for a record no recorder kept) at which the request finished
    /// (ordering across records; not wall time).
    pub t_ns: u64,
    /// Total wall-clock nanoseconds, submission to completion
    /// (covers scheduler wait — see `QueryResult::elapsed`).
    pub total_ns: u64,
    /// Nanoseconds spent between submission and admission (scheduler
    /// wait plus, for writers, the state write lock).
    pub wait_ns: u64,
    /// The span tree, in open order.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// The first verdict recorded under a span with this `name`, if
    /// any — convenience for tests and quick queries.
    pub fn verdict_of(&self, name: &str) -> Option<&str> {
        self.spans
            .iter()
            .find(|s| s.name == name && s.verdict.is_some())
            .and_then(|s| s.verdict.as_deref())
    }

    /// Renders the record as one JSON object (the `/traces` wire form —
    /// schema documented in `docs/TELEMETRY.md`).
    pub fn to_json(&self) -> String {
        let spans = json_array(self.spans.iter().map(|s| {
            JsonObject::new()
                .string("name", &s.name)
                .string("detail", &s.detail)
                .number("start_ns", s.start_ns)
                .number("dur_ns", s.dur_ns)
                .number("depth", s.depth as u64)
                .nullable("verdict", s.verdict.as_deref())
                .finish()
        }));
        JsonObject::new()
            .number("seq", self.seq)
            .nullable("trace_id", self.trace_id.as_deref())
            .nullable("session", self.session.as_deref())
            .string("query", &self.query)
            .boolean("ok", self.ok)
            .nullable("error", self.error.as_deref())
            .number("t_ns", self.t_ns)
            .number("total_ns", self.total_ns)
            .number("wait_ns", self.wait_ns)
            .raw("spans", &spans)
            .finish()
    }

    /// Renders the record as an indented text tree (the `:trace last`
    /// REPL output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace #{}{}{}: {} — {} ({:.3} ms total, {:.3} ms wait)\n",
            self.seq,
            match &self.trace_id {
                Some(id) => format!(" [trace={id}]"),
                None => String::new(),
            },
            match &self.session {
                Some(s) => format!(" [{s}]"),
                None => String::new(),
            },
            self.query,
            if self.ok {
                "ok".to_string()
            } else {
                format!("err: {}", self.error.as_deref().unwrap_or("?"))
            },
            self.total_ns as f64 / 1e6,
            self.wait_ns as f64 / 1e6,
        );
        for s in &self.spans {
            for _ in 0..=s.depth {
                out.push_str("  ");
            }
            out.push_str(&s.name);
            if !s.detail.is_empty() {
                out.push_str(&format!(" {}", s.detail));
            }
            out.push_str(&format!("  {:.3} ms", s.dur_ns as f64 / 1e6));
            if let Some(v) = &s.verdict {
                out.push_str(&format!("  → {v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The one instrument the request path holds. It owns the request's
/// clock — [`Tracer::finish`] reports `elapsed` and `wait` off it — and
/// every span it closes is measured once: the same `dur_ns` goes to the
/// span's histogram and to the record's span tree, and the record is
/// what the recorder keeps and the JSONL sink appends.
///
/// Span timing is live when the registry, a flight recorder or a sink
/// is on. With all three off every span call is one branch — no clock
/// read, no allocation, verdict closures never run — and the only clock
/// reads left are the unconditional ones every request makes: the
/// epoch, [`Tracer::end_wait`], and [`Tracer::finish`].
#[derive(Debug)]
pub struct Tracer<'a> {
    epoch: Instant,
    wait_ns: u64,
    query: &'a str,
    trace_id: Option<&'a str>,
    session: Option<&'a str>,
    histograms: Option<&'a SpanHistograms>,
    recorder: Option<&'a FlightRecorder>,
    sink: Option<&'a EventSink>,
    spans: Vec<(Span, TraceSpan)>,
    open: Vec<usize>,
}

impl<'a> Tracer<'a> {
    /// A tracer with no consumers, for paths that only prepare a query.
    pub fn off() -> Tracer<'static> {
        Tracer::start("", None, None, None, None, None)
    }

    /// Starts the request's clock. `histograms` (pass `None` when the
    /// registry is disabled), `recorder` and `sink` are the three views
    /// the measurement will be delivered to.
    pub fn start(
        query: &'a str,
        trace_id: Option<&'a str>,
        session: Option<&'a str>,
        histograms: Option<&'a SpanHistograms>,
        recorder: Option<&'a FlightRecorder>,
        sink: Option<&'a EventSink>,
    ) -> Tracer<'a> {
        Tracer {
            epoch: Instant::now(),
            wait_ns: 0,
            query,
            trace_id,
            session,
            histograms,
            recorder,
            sink,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether a flight recorder or a sink will consume this request's
    /// span tree — verdict and annotation closures only run when one
    /// will.
    pub fn is_on(&self) -> bool {
        self.recorder.is_some() || self.sink.is_some()
    }

    /// Whether span timings have a consumer.
    fn timed(&self) -> bool {
        self.histograms.is_some() || self.is_on()
    }

    fn now_ns(&self) -> u64 {
        saturating_ns(self.epoch.elapsed())
    }

    /// Opens a span; spans opened while another is open nest under it.
    /// Returns a token for [`Tracer::end`] (`None` when untimed).
    pub fn begin(&mut self, span: Span, detail: &str) -> Option<usize> {
        if !self.timed() {
            return None;
        }
        // An unrecorded span is just its timing: no strings are kept.
        let detail = if self.is_on() { detail } else { "" };
        self.push(span, detail.to_string(), None);
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Some(idx)
    }

    /// Appends a span starting now.
    fn push(&mut self, span: Span, detail: String, verdict: Option<String>) {
        let name = if self.is_on() { span.name() } else { "" };
        let tree = TraceSpan {
            name: name.to_string(),
            detail,
            start_ns: self.now_ns(),
            dur_ns: 0,
            depth: self.open.len(),
            verdict,
        };
        self.spans.push((span, tree));
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, token: Option<usize>) {
        self.end_with(token, || None);
    }

    /// Closes a span, attaching the verdict the closure builds.
    pub fn end_with(&mut self, token: Option<usize>, verdict: impl FnOnce() -> Option<String>) {
        if self.timed() {
            let now = self.now_ns();
            self.end_at(token, now, verdict);
        }
    }

    /// Closes a span whose detail is only known at its end — what a
    /// lookup found. The closure builds `(detail, verdict)`.
    pub fn end_found(&mut self, token: Option<usize>, found: impl FnOnce() -> (String, String)) {
        let mut detail = None;
        self.end_with(token, || {
            let (d, verdict) = found();
            detail = Some(d);
            Some(verdict)
        });
        if let (Some(idx), Some(detail)) = (token, detail) {
            self.spans[idx].1.detail = detail;
        }
    }

    /// Closes the span that ends the request's wait (`sched-wait`, at
    /// admission) and stamps the wait off the same clock reading — read
    /// unconditionally, because `QueryResult::wait` is an observable of
    /// every request.
    pub fn end_wait(&mut self, token: Option<usize>, verdict: impl FnOnce() -> Option<String>) {
        let now = self.now_ns();
        self.wait_ns = now;
        self.end_at(token, now, verdict);
    }

    fn end_at(&mut self, token: Option<usize>, now: u64, verdict: impl FnOnce() -> Option<String>) {
        let Some(idx) = token.filter(|idx| self.open.contains(idx)) else {
            return;
        };
        // Spans an error unwound past close with the one that contains them.
        while let Some(top) = self.open.pop() {
            self.close(top, now);
            if top == idx {
                break;
            }
        }
        if self.is_on() {
            if let Some(v) = verdict() {
                self.spans[idx].1.verdict = Some(v);
            }
        }
    }

    /// The single measurement: one `dur_ns`, to the tree and the histogram.
    fn close(&mut self, idx: usize, now: u64) {
        let (span, s) = &mut self.spans[idx];
        s.dur_ns = now.saturating_sub(s.start_ns);
        if let Some(h) = self.histograms {
            h[*span as usize].observe_ns(s.dur_ns);
        }
    }

    /// Records an instantaneous annotation span at the current depth —
    /// a verdict with no meaningful duration (e.g. a per-node compile
    /// verdict); a span that has a histogram observes 0. The closure
    /// builds `(detail, verdict)` and only runs when a recorder is on.
    pub fn note(&mut self, span: Span, f: impl FnOnce() -> (String, String)) {
        if let Some(h) = self.histograms {
            h[span as usize].observe_ns(0);
        }
        if self.is_on() {
            let (detail, verdict) = f();
            self.push(span, detail, Some(verdict));
        }
    }

    /// Ends the request: reads the clock once, closes spans an error
    /// left open, and seals the [`TraceRecord`] — into the recorder,
    /// which assigns its `seq`, and onto the sink when the total reached
    /// `slow_query_ms` (always, when that is `None`). A record only the
    /// sink sees keeps `seq` 0. Returns `(elapsed, wait)` off the same
    /// clock.
    pub fn finish(
        mut self,
        error: Option<&dyn std::fmt::Display>,
        slow_query_ms: Option<u64>,
    ) -> (Duration, Duration) {
        let total_ns = self.now_ns();
        while let Some(idx) = self.open.pop() {
            self.close(idx, total_ns);
        }
        let slow_ns = slow_query_ms.map_or(0, |ms| ms.saturating_mul(1_000_000));
        let sink = self.sink.filter(|_| total_ns >= slow_ns);
        let epoch = self.recorder.map(|r| r.epoch).or(sink.map(|s| s.epoch));
        if let Some(epoch) = epoch {
            let record = TraceRecord {
                seq: 0, // assigned on insertion
                trace_id: self.trace_id.map(String::from),
                session: self.session.map(String::from),
                query: self.query.to_string(),
                ok: error.is_none(),
                error: error.map(|e| e.to_string()),
                t_ns: saturating_ns(self.epoch.saturating_duration_since(epoch)) + total_ns,
                total_ns,
                wait_ns: self.wait_ns,
                spans: self.spans.into_iter().map(|(_, tree)| tree).collect(),
            };
            match (self.recorder, sink) {
                (Some(recorder), sink) => recorder.insert(record, sink),
                (None, Some(sink)) => sink.append(&record),
                (None, None) => {}
            }
        }
        (
            Duration::from_nanos(total_ns),
            Duration::from_nanos(self.wait_ns),
        )
    }
}

/// The fixed-capacity ring of recent [`TraceRecord`]s. Insertion
/// assigns sequence numbers; when full, the oldest record is evicted.
/// Shared (`Arc`) between the kernel, the REPL, and the observability
/// listener.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    epoch: Instant,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<Arc<TraceRecord>>>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records inserted over the recorder's lifetime (not the ring
    /// occupancy — evicted records still count).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Inserts a record, assigning its sequence number under the ring
    /// lock (so ring order is sequence order) and evicting the oldest
    /// when full, then appends it to `sink`. The sink's file lock is
    /// taken before the ring lock is released, so file order is `seq`
    /// order, but the line is serialized and written after it: no other
    /// insert and no reader waits on the file.
    fn insert(&self, mut record: TraceRecord, sink: Option<&EventSink>) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        record.seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let record = Arc::new(record);
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(Arc::clone(&record));
        let out = sink.and_then(EventSink::lock);
        drop(ring);
        if let Some(mut out) = out {
            EventSink::write(&mut out, &record);
        }
    }

    /// The most recent `n` records, oldest first.
    pub fn last(&self, n: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter()
            .rev()
            .take(n)
            .rev()
            .map(|r| (**r).clone())
            .collect()
    }

    /// The record with sequence number `seq`, if still in the ring.
    pub fn by_seq(&self, seq: u64) -> Option<TraceRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().find(|r| r.seq == seq).map(|r| (**r).clone())
    }

    /// Renders the most recent `n` records as a JSON array, oldest
    /// first (the `GET /traces?n=K` body).
    pub fn render_json(&self, n: usize) -> String {
        json_array(self.last(n).iter().map(TraceRecord::to_json))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Traces one canned request into `rec` and returns its record.
    fn sample(rec: &FlightRecorder, trace_id: Option<&str>) -> TraceRecord {
        let mut t = Tracer::start("size(Ps)", trace_id, Some("s1"), None, Some(rec), None);
        let wait = t.begin(Span::SchedWait, "");
        t.end_wait(wait, || Some("admitted: snapshot seq=0".into()));
        let parse = t.begin(Span::Parse, "");
        t.end(parse);
        let exec = t.begin(Span::Execute, "");
        t.note(Span::CacheProbe, || (String::new(), "miss".into()));
        t.end_with(exec, || Some("governor cells=3".into()));
        t.finish(None, None);
        rec.last(1).remove(0)
    }

    #[test]
    fn span_table_is_indexed_by_discriminant() {
        for (i, span) in Span::ALL.into_iter().enumerate() {
            assert_eq!(span as usize, i);
        }
        assert_eq!(Span::SchedWait.series(), Some("ioql_sched_wait_ns"));
        assert_eq!(
            Span::SnapshotAcquire.series(),
            Some("ioql_sched_snapshot_ns")
        );
        assert_eq!(
            Span::WalAppend.series(),
            Some("ioql_phase_duration_ns{phase=\"wal-append\"}")
        );
        assert_eq!(Span::Governor.series(), None);
        assert_eq!(Span::CacheProbe.name(), "cache-probe");
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        let tok = t.begin(Span::Parse, "x");
        assert_eq!(tok, None);
        t.end_with(tok, || panic!("closure must not run when off"));
        t.note(Span::CacheProbe, || panic!("closure must not run when off"));
        // The clock still runs: elapsed and wait are observables.
        t.end_wait(tok, || panic!("closure must not run when off"));
        let (elapsed, wait) = t.finish(None, None);
        assert!(elapsed >= wait);
    }

    #[test]
    fn spans_nest_by_open_order() {
        let rec = FlightRecorder::new(1);
        let mut t = Tracer::start("q", None, None, None, Some(&rec), None);
        let outer = t.begin(Span::Execute, "");
        let inner = t.begin(Span::WalAppend, "");
        t.end(inner);
        t.end(outer);
        let (elapsed, _) = t.finish(None, None);
        let r = rec.last(1).remove(0);
        assert_eq!(r.spans[0].depth, 0);
        assert_eq!(r.spans[1].depth, 1);
        assert!(r.total_ns >= r.spans[0].dur_ns);
        assert_eq!(elapsed.as_nanos(), r.total_ns as u128);
    }

    #[test]
    fn histograms_and_the_tree_share_one_measurement() {
        let reg = MetricsRegistry::new(true);
        let hists = Span::histograms(&reg);
        let rec = FlightRecorder::new(4);
        for fail in [false, true] {
            let mut t = Tracer::start("q", None, None, Some(&hists), Some(&rec), None);
            let parse = t.begin(Span::Parse, "");
            t.end(parse);
            t.note(Span::CacheProbe, || (String::new(), "ineligible()".into()));
            let _left_open_by_an_error = t.begin(Span::Execute, "");
            t.finish(fail.then_some(&"boom" as &dyn std::fmt::Display), None);
        }
        let spans: Vec<TraceSpan> = rec.last(4).into_iter().flat_map(|r| r.spans).collect();
        for span in [Span::Parse, Span::CacheProbe, Span::Execute] {
            let durs: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == span.name())
                .map(|s| s.dur_ns)
                .collect();
            let h = &hists[span as usize];
            assert_eq!(h.count(), 2, "{span:?}");
            assert_eq!(h.sum_ns(), durs.iter().sum::<u64>(), "{span:?}");
        }
        assert!(!hists[Span::Governor as usize].is_enabled());
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let rec = FlightRecorder::new(2);
        for _ in 0..3 {
            sample(&rec, None);
        }
        assert_eq!(rec.recorded(), 3);
        let last = rec.last(10);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].seq, 2);
        assert_eq!(last[1].seq, 3);
        assert!(rec.by_seq(1).is_none());
        assert_eq!(rec.by_seq(3).unwrap().query, "size(Ps)");
        // Insertion timestamps are monotonic.
        assert!(last[0].t_ns <= last[1].t_ns);
    }

    #[test]
    fn json_and_text_renderings_carry_verdicts() {
        let rec = FlightRecorder::new(4);
        let r = sample(&rec, Some("req-9"));
        let json = rec.render_json(1);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"trace_id\":\"req-9\""), "{json}");
        assert!(json.contains("\"session\":\"s1\""), "{json}");
        assert!(json.contains("\"verdict\":\"miss\""), "{json}");
        // The wait is the clock reading that closed the sched-wait span.
        assert_eq!(r.wait_ns, r.spans[0].start_ns + r.spans[0].dur_ns);
        assert!(
            json.contains(&format!("\"wait_ns\":{}", r.wait_ns)),
            "{json}"
        );
        let text = rec.by_seq(1).unwrap().render();
        assert!(
            text.contains("trace #1 [trace=req-9] [s1]: size(Ps) — ok"),
            "{text}"
        );
        assert!(text.contains("→ miss"), "{text}");
        assert!(text.contains("→ governor cells=3"), "{text}");
    }

    #[test]
    fn verdict_of_finds_first_named_verdict() {
        let r = sample(&FlightRecorder::new(1), None);
        assert_eq!(r.verdict_of("cache-probe"), Some("miss"));
        assert_eq!(r.verdict_of("parse"), None);
        assert_eq!(r.verdict_of("missing"), None);
    }

    /// Four threads finishing 50 requests each through one recorder and
    /// one sink write 200 lines whose `seq`s run 1..=200 in file order,
    /// though each line is written after the ring lock is released.
    #[test]
    fn sink_lines_keep_seq_order_under_concurrent_inserts() {
        let path =
            std::env::temp_dir().join(format!("ioql-sink-order-{}.jsonl", std::process::id()));
        let sink = EventSink::create(&path).unwrap();
        let rec = FlightRecorder::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (rec, sink) = (&rec, &sink);
                scope.spawn(move || {
                    let session = format!("t{t}");
                    for _ in 0..50 {
                        let mut tracer = Tracer::start(
                            "size(Ps)",
                            None,
                            Some(&session),
                            None,
                            Some(rec),
                            Some(sink),
                        );
                        let parse = tracer.begin(Span::Parse, "");
                        tracer.end(parse);
                        tracer.finish(None, None);
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let seqs: Vec<u64> = text
            .lines()
            .map(|line| {
                let rest = line.strip_prefix("{\"seq\":").unwrap();
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(seqs, (1..=200).collect::<Vec<u64>>());
        assert_eq!(rec.recorded(), 200);
    }
}
