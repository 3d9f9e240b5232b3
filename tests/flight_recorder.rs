//! Flight-recorder tests: the per-query decision-trace ring, wire
//! trace-ID propagation, the HTTP observability plane, and the
//! **recording transparency guard** — tracing on/off is
//! observationally invisible (byte-identical wire responses,
//! oid-bijection-equivalent stores) in both configurations.
//!
//! The headline acceptance check: a traced write query served over TCP
//! against a durable kernel yields a record that shows the
//! scheduler-wait span, the WAL-append span with its fsync verdict,
//! and all four decision verdicts (cache admission, scheduling,
//! compilation, governor charges) — retrievable both through the
//! `:trace` wire command and through `GET /traces` on the observability
//! listener.

#![allow(clippy::result_large_err)]

use ioql::store::equiv_stores;
use ioql::{Client, Database, DbOptions, Durability, Engine, Mode};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }";

fn opts_with(trace_capacity: usize) -> DbOptions {
    DbOptions {
        method_mode: Mode::Extended,
        telemetry: true,
        trace_capacity,
        ..DbOptions::default()
    }
}

// ---------------------------------------------------------------------
// Std-only temp-directory shim (the workspace is dependency-free).

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        let p = std::env::temp_dir().join(format!("ioql-fr-{tag}-{}-{n}", std::process::id()));
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

/// One blocking HTTP/1.0 GET against the observability listener;
/// returns `(status line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

// ---------------------------------------------------------------------
// The acceptance check: every decision on one traced served write.

#[test]
fn traced_served_write_shows_wait_fsync_and_all_four_verdicts() {
    let dir = TempDir::new("accept");
    let opts = DbOptions {
        durability: Durability::Commit,
        ..opts_with(64)
    };
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.attach_durable(dir.path()).unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let obs = db.serve_obs("127.0.0.1:0").unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let frame = client
        .request("trace=req-7 size({ new Person(name: n, age: n) | n <- {1, 2} })")
        .unwrap();
    // The status line echoes the trace ID and surfaces the scheduler
    // wait; both tokens exist only because the request carried one.
    assert!(frame.is_ok(), "status: {}", frame.status);
    assert_eq!(frame.field("trace"), Some("req-7"));
    assert!(frame.field("wait_ns").is_some(), "status: {}", frame.status);
    assert_eq!(frame.field("mode"), Some("serialized"));

    // Retrieval path 1: the `:trace` wire command.
    let trace = client.request(":trace last 1").unwrap();
    assert!(trace.is_ok(), "status: {}", trace.status);
    let text = trace.lines.join("\n");
    assert!(text.contains("[trace=req-7]"), "record: {text}");
    assert!(text.contains("sched-wait"), "record: {text}");
    assert!(
        text.contains("wal-append") && text.contains("appended fsync=true"),
        "record: {text}"
    );
    // All four decision verdicts on one record.
    assert!(
        text.contains("cache-probe") && text.contains("ineligible(effect not read-only)"),
        "record: {text}"
    );
    assert!(
        text.contains("admitted: serialized witness=("),
        "record: {text}"
    );
    assert!(
        text.contains("compile") && text.contains("interp("),
        "record: {text}"
    );
    assert!(
        text.contains("governor") && text.contains("cells_delta="),
        "record: {text}"
    );

    // Retrieval path 2: the same record by sequence number.
    let by_seq = client.request(":trace seq 1").unwrap();
    assert_eq!(by_seq.lines.join("\n"), text);

    // Retrieval path 3: `GET /traces` on the observability plane.
    let (status, body) = http_get(obs.addr(), "/traces?n=1");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.contains("\"trace_id\":\"req-7\""), "body: {body}");
    assert!(body.contains("\"name\":\"sched-wait\""), "body: {body}");
    assert!(body.contains("\"name\":\"wal-append\""), "body: {body}");
    assert!(body.contains("appended fsync=true"), "body: {body}");
}

// ---------------------------------------------------------------------
// Trace-ID propagation details.

#[test]
fn untraced_requests_carry_no_trace_tokens() {
    let db = Database::from_ddl_with(DDL, opts_with(64)).unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let frame = client.request("size(Persons)").unwrap();
    assert!(frame.is_ok());
    assert!(frame.field("trace").is_none(), "status: {}", frame.status);
    assert!(frame.field("wait_ns").is_none(), "status: {}", frame.status);
    // The record still exists (recorder is on) — just anonymous.
    let trace = client.request(":trace last 1").unwrap();
    assert!(!trace.lines.join("\n").contains("[trace="));
}

#[test]
fn traced_define_echoes_the_id() {
    let db = Database::from_ddl_with(DDL, opts_with(64)).unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let frame = client
        .request("trace=def-1 define ages() as { p.age | p <- Persons };")
        .unwrap();
    assert!(frame.is_ok(), "status: {}", frame.status);
    assert_eq!(frame.field("trace"), Some("def-1"));
}

#[test]
fn trace_commands_error_cleanly_when_recorder_off() {
    let db = Database::from_ddl_with(DDL, opts_with(0)).unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let frame = client.request(":trace last 1").unwrap();
    assert!(frame.status.starts_with("err"), "status: {}", frame.status);
    assert!(frame.status.contains("flight recorder off"));
}

// ---------------------------------------------------------------------
// Embedded recording: verdicts, ring behaviour, the wait observable.

#[test]
fn cache_hit_and_miss_verdicts_are_recorded() {
    let mut db = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    db.query("size({ new Person(name: n, age: n) | n <- {1, 2, 3} })")
        .unwrap();
    db.query("size(Persons)").unwrap();
    db.query("size(Persons)").unwrap();
    let records = db.flight_recorder().unwrap().last(2);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].verdict_of("cache-probe"), Some("miss"));
    assert_eq!(records[1].verdict_of("cache-probe"), Some("hit"));
    assert!(records[1].ok);
    // A cache hit still reports the governor's cumulative meters.
    assert!(records[1]
        .verdict_of("governor")
        .is_some_and(|v| v.contains("cells_delta=")));
}

/// The front end is one pass, so it is one span: `typecheck` closes on
/// the whole judgement `σ ! {ε}`, and no separate effect phase exists.
#[test]
fn the_front_end_is_one_typecheck_span() {
    let mut db = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    db.query("{ p.age | p <- Persons }").unwrap();
    let record = &db.flight_recorder().unwrap().last(1)[0];
    assert_eq!(
        record.verdict_of("typecheck"),
        Some("set(int) ! {R(Person), Ra(Person)}")
    );
    let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(!names.contains(&"effect-infer"), "{names:?}");
    let metrics = db.metrics_text();
    assert!(metrics.contains("phase=\"typecheck\""), "{metrics}");
    assert!(!metrics.contains("effect-infer"), "{metrics}");
}

#[test]
fn ring_keeps_only_the_newest_records() {
    let mut db = Database::from_ddl_with(DDL, opts_with(2)).unwrap();
    for i in 0..5 {
        db.query(&format!("{i} + {i}")).unwrap();
    }
    let records = db.flight_recorder().unwrap().last(10);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].seq, 4);
    assert_eq!(records[1].seq, 5);
    assert!(db.flight_recorder().unwrap().by_seq(1).is_none());
    assert!(db.flight_recorder().unwrap().by_seq(5).is_some());
    assert_eq!(db.flight_recorder().unwrap().capacity(), 2);
}

#[test]
fn failed_queries_are_recorded_with_their_error() {
    let mut db = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    assert!(db.query("{ p.nope | p <- Persons }").is_err());
    let records = db.flight_recorder().unwrap().last(1);
    assert_eq!(records.len(), 1);
    assert!(!records[0].ok);
    assert!(records[0].error.is_some());
}

#[test]
fn elapsed_covers_the_scheduler_wait() {
    let db = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    let mut session = db.session("waiter");
    session
        .query("size({ new Person(name: 1, age: 1) | n <- {1} })")
        .unwrap();
    let r = session.query("size(Persons)").unwrap();
    assert!(
        r.elapsed >= r.wait,
        "elapsed {:?} < wait {:?}",
        r.elapsed,
        r.wait
    );
    // The embedded handle is admitted the same way: its record opens
    // with the scheduler wait, and that span's close is the result's
    // `wait`.
    let mut db2 = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    let r2 = db2.query("size(Persons)").unwrap();
    assert!(r2.elapsed >= r2.wait);
    let record = db2.flight_recorder().unwrap().last(1).pop().unwrap();
    let first = &record.spans[0];
    assert_eq!(first.name, "sched-wait", "spans: {:?}", record.spans);
    let verdict = first.verdict.as_deref().unwrap_or_default();
    assert!(verdict.starts_with("admitted: "), "verdict: {verdict}");
    assert_eq!(r2.wait.as_nanos(), u128::from(record.wait_ns));
}

#[test]
fn slow_query_log_emits_the_full_record() {
    let path = std::env::temp_dir().join(format!("ioql-fr-slow-{}.jsonl", std::process::id()));
    let mut opts = opts_with(8);
    opts.telemetry_jsonl = Some(path.clone());
    opts.slow_query_ms = Some(0); // every query is "slow"
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("size(Persons)").unwrap();
    let log = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    // The log line is the record `:trace seq 1` and `/traces` serve.
    let record = db.flight_recorder().unwrap().by_seq(1).unwrap();
    assert_eq!(log, format!("{}\n", record.to_json()));
    assert!(log.contains("\"query\":\"size(Persons)\""));
    assert!(log.contains("\"name\":\"cache-probe\""));
}

/// A root handle has no label, so its records say `"session":null`; a
/// session made from it stamps its label — in the recorder and in the
/// JSONL sink alike, one record per request.
#[test]
fn records_carry_the_session_label_and_null_for_the_root() {
    let path = std::env::temp_dir().join(format!("ioql-fr-label-{}.jsonl", std::process::id()));
    let mut opts = opts_with(8);
    opts.telemetry_jsonl = Some(path.clone());
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("size(Persons)").unwrap();
    db.admin(":trace { p.name | p <- Persons }").unwrap();
    let mut session = db.session("labelled");
    session.query("1 + 1").unwrap();
    let log = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    let records = db.flight_recorder().unwrap().last(8);
    let sessions: Vec<_> = records.iter().map(|r| r.session.as_deref()).collect();
    assert_eq!(sessions, [None, Some("labelled")]);
    let lines: Vec<_> = log.lines().collect();
    assert_eq!(lines.len(), 2, "{log}");
    assert!(lines[0].contains("\"session\":null"), "{}", lines[0]);
    assert!(
        lines[1].contains("\"session\":\"labelled\""),
        "{}",
        lines[1]
    );
    for (line, record) in lines.iter().zip(&records) {
        assert_eq!(*line, record.to_json());
    }
}

// ---------------------------------------------------------------------
// The HTTP observability plane.

#[test]
fn obs_endpoints_serve_metrics_health_and_traces() {
    let mut db = Database::from_ddl_with(DDL, opts_with(8)).unwrap();
    db.query("size({ new Person(name: 1, age: 30) | n <- {1} })")
        .unwrap();
    let obs = db.serve_obs("127.0.0.1:0").unwrap();

    let (status, body) = http_get(obs.addr(), "/metrics");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.contains("# HELP ioql_queries_total"), "body: {body}");
    assert!(body.contains("# TYPE ioql_queries_total counter"));
    assert!(body.contains("ioql_queries_total 1"));

    let (status, body) = http_get(obs.addr(), "/healthz");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.contains("\"status\":\"ok\""), "body: {body}");
    assert!(body.contains("\"traces_recorded\":1"));
    assert!(body.contains("\"wal\":null")); // no durable log attached

    let (status, body) = http_get(obs.addr(), "/traces?n=5");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(body.starts_with('[') && body.ends_with(']'), "body: {body}");
    assert!(body.contains("\"seq\":1"));

    let (status, _) = http_get(obs.addr(), "/nope");
    assert_eq!(status, "HTTP/1.0 404 Not Found");
}

#[test]
fn obs_traces_404s_when_recorder_off() {
    let db = Database::from_ddl_with(DDL, opts_with(0)).unwrap();
    let obs = db.serve_obs("127.0.0.1:0").unwrap();
    let (status, body) = http_get(obs.addr(), "/traces");
    assert_eq!(status, "HTTP/1.0 404 Not Found");
    assert!(body.contains("flight recorder off"), "body: {body}");
}

// ---------------------------------------------------------------------
// The recording transparency guard: tracing on vs off is byte-identical
// on the wire and in the final store — N clients, spec and production.

/// Runs a deterministic round-robin workload over `n_clients` wire
/// clients (none of which send `trace=`), returning every response
/// transcript plus the final store.
fn served_workload(engine: Engine, trace_capacity: usize) -> (Vec<String>, Database) {
    let opts = DbOptions {
        engine,
        ..opts_with(trace_capacity)
    };
    let db = Database::from_ddl_with(DDL, opts).unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(server.addr()).unwrap())
        .collect();
    let requests = [
        "size({ new Person(name: n, age: n + 20) | n <- {1, 2, 3} })",
        "size(Persons)",
        "sum({ p.age | p <- Persons })",
        "size({ new Person(name: n * 10, age: 0) | n <- {4, 5} })",
        "sum({ p.name | p <- Persons, p.age < 25 })",
        "size(Persons)",
    ];
    let mut transcript = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let slot = i % clients.len();
        let client = &mut clients[slot];
        let frame = client.request(req).unwrap();
        transcript.push(format!(
            "client-{slot} {} | {}",
            frame.status,
            frame.lines.join(" / ")
        ));
    }
    drop(clients);
    drop(server);
    (transcript, db)
}

#[test]
fn recording_changes_no_wire_observable() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let (off, db_off) = served_workload(engine, 0);
        let (on, db_on) = served_workload(engine, 64);
        assert_eq!(off, on, "transcripts diverged on {engine:?}");
        assert!(
            equiv_stores(&db_off.store(), &db_on.store()),
            "stores diverged on {engine:?}"
        );
        // Recording was actually on in the second run — the guard must
        // not pass vacuously.
        assert_eq!(
            db_on.flight_recorder().unwrap().recorded(),
            6,
            "recorder missed queries on {engine:?}"
        );
        assert!(db_off.flight_recorder().is_none());
    }
}

// ---------------------------------------------------------------------
// Hostile HTTP peers: the request head is read under a bound.

/// Sends `head` (ignoring write errors — the server may hang up first)
/// and returns the status line, or `None` if the connection was reset
/// before a response could be read.
fn http_raw(addr: SocketAddr, head: impl IntoIterator<Item = String>) -> Option<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    for chunk in head {
        if stream.write_all(chunk.as_bytes()).is_err() {
            break;
        }
    }
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response.lines().next().map(String::from)
}

#[test]
fn oversized_http_heads_are_refused_not_buffered() {
    let db = Database::from_ddl_with(DDL, opts_with(0)).unwrap();
    let obs = db.serve_obs("127.0.0.1:0").unwrap();
    let too_large = "HTTP/1.0 431 Request Header Fields Too Large";

    // A request line past the 8 KiB head budget.
    let long_line = format!("GET /{} HTTP/1.0\r\n\r\n", "a".repeat(9 * 1024));
    assert_eq!(
        http_raw(obs.addr(), [long_line]).as_deref(),
        Some(too_large)
    );
    // More than 64 header lines, each small.
    let many = std::iter::once("GET /healthz HTTP/1.0\r\n".to_string())
        .chain((0..80).map(|i| format!("X-{i}: y\r\n")))
        .chain(["\r\n".to_string()]);
    assert_eq!(http_raw(obs.addr(), many).as_deref(), Some(too_large));
    // An endless header stream (no blank line, ever): refused after 8 KiB,
    // then dropped — the peer's writes start failing.
    let endless = std::iter::once("GET /healthz HTTP/1.0\r\n".to_string())
        .chain((0..).map(|i| format!("X-Endless-{i}: {}\r\n", "z".repeat(100))));
    let status = http_raw(obs.addr(), endless);
    assert!(
        status.is_none() || status.as_deref() == Some(too_large),
        "{status:?}"
    );

    // A head at the limits is served, and the listener is still up.
    let at_limit = std::iter::once("GET /healthz HTTP/1.0\r\n".to_string())
        .chain((0..64).map(|i| format!("X-{i}: y\r\n")))
        .chain(["\r\n".to_string()]);
    assert_eq!(
        http_raw(obs.addr(), at_limit).as_deref(),
        Some("HTTP/1.0 200 OK")
    );
    assert_eq!(http_get(obs.addr(), "/healthz").0, "HTTP/1.0 200 OK");
}
