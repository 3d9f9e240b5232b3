//! A live HTTP observability plane over one shared kernel.
//!
//! Hand-rolled HTTP/1.0 on `std::net` — no dependencies, no async
//! runtime, exactly like the query server ([`crate::server`]): one
//! accept loop, one short-lived thread per request, `Connection:
//! close` on every response so a plain `curl` (or a Prometheus
//! scraper) needs no keep-alive logic. The listener is **read-only**:
//! every endpoint renders state other subsystems already maintain, so
//! scraping it changes no observable — results, stores, meters, and
//! traces are byte-identical whether or not anyone is watching.
//!
//! ## Endpoints
//!
//! * `GET /metrics` — the telemetry registry in Prometheus text
//!   exposition format (`# HELP`/`# TYPE` per family, cumulative
//!   histogram buckets ending at `+Inf`). Empty when the kernel was
//!   built with [`DbOptions::telemetry`](crate::DbOptions::telemetry)
//!   off.
//! * `GET /healthz` — a one-object JSON liveness report: commit count,
//!   in-flight readers, and the WAL's poison status. Returns `200`
//!   when healthy and `503 Service Unavailable` when the write-ahead
//!   log is poisoned (mutations are failing fast until a checkpoint).
//! * `GET /traces?n=K` — the last `K` (default 16) query
//!   flight-recorder records as a JSON array (see
//!   [`TraceRecord::to_json`](ioql_telemetry::TraceRecord::to_json)).
//!   `404` with a JSON error when the kernel has no recorder
//!   ([`DbOptions::trace_capacity`](crate::DbOptions::trace_capacity)
//!   is 0).
//!
//! Anything else is a `404`. Only `GET` is served — the plane observes;
//! it never mutates. A request head (request line plus headers) over
//! 8 KiB or 64 header lines is refused with `431` without being buffered,
//! and a connection beyond the 64 live ones with `503`.

use crate::admin::RECORDER_OFF;
use crate::database::Database;
use crate::kernel::DbKernel;
use crate::server::{linger_close, listen, read_line_capped, Line};
use ioql_telemetry::JsonObject;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A running observability listener is the same handle the query server
/// returns: bound address, shutdown, wait, shutdown on drop.
pub use crate::server::ServerHandle as ObsHandle;

/// The request line and header block together may take this many bytes…
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// …and this many header lines.
const MAX_HEADERS: usize = 64;

/// Starts the observability listener over `kernel` on `addr` (e.g.
/// `127.0.0.1:9090`, or port `0` to pick a free one — read it back from
/// [`ObsHandle::addr`]).
pub fn serve_obs(kernel: Arc<DbKernel>, addr: &str) -> std::io::Result<ObsHandle> {
    let refusal =
        "HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    listen(addr, refusal, move |_, stream| {
        let _ = handle_request(stream, &kernel);
    })
}

impl Database {
    /// Serves this database's kernel on `addr` as a read-only HTTP
    /// observability plane — see [`crate::obs`].
    pub fn serve_obs(&self, addr: &str) -> std::io::Result<ObsHandle> {
        serve_obs(Arc::clone(self.kernel()), addr)
    }
}

/// One HTTP response, ready to serialize.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn json(status: &'static str, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    fn error(status: &'static str, message: &str) -> Response {
        Response::json(status, JsonObject::new().string("error", message).finish())
    }
}

/// Reads the request line and drains the headers (nothing in them
/// changes what we serve) under the head bounds. Answers as
/// [`read_line_capped`] does: the request line, `Eof` for a peer that
/// closed without sending anything, `TooLong` for a head that outgrew
/// `MAX_HEAD_BYTES` / `MAX_HEADERS`.
fn read_head(reader: &mut impl BufRead) -> std::io::Result<Line> {
    let mut budget = MAX_HEAD_BYTES;
    let mut request = None;
    // The request line, at most MAX_HEADERS headers, the blank line.
    for _ in 0..MAX_HEADERS + 2 {
        let line = match read_line_capped(reader, budget)? {
            Line::Text(line) => line,
            // A peer that stops sending mid-head has said all it will.
            Line::Eof => return Ok(request.map_or(Line::Eof, Line::Text)),
            Line::TooLong => return Ok(Line::TooLong),
        };
        budget -= line.len();
        match request {
            None => request = Some(line),
            Some(request) if line.trim_end().is_empty() => return Ok(Line::Text(request)),
            Some(_) => {}
        }
        if budget == 0 {
            return Ok(Line::TooLong);
        }
    }
    Ok(Line::TooLong) // more than MAX_HEADERS header lines
}

fn handle_request(stream: &TcpStream, kernel: &Arc<DbKernel>) -> std::io::Result<()> {
    let mut out = stream;
    let head = read_head(&mut BufReader::new(stream))?;
    let response = match &head {
        Line::Text(request) => route(request, kernel),
        Line::Eof => return Ok(()),
        Line::TooLong => Response::error(
            "431 Request Header Fields Too Large",
            "request head too large",
        ),
    };
    // Head and body in one write, like a wire frame.
    let message = format!(
        "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        response.content_type,
        response.body.len(),
        response.body,
    );
    out.write_all(message.as_bytes())?;
    if matches!(head, Line::TooLong) {
        linger_close(stream);
    }
    Ok(())
}

fn route(request: &str, kernel: &Arc<DbKernel>) -> Response {
    let mut parts = request.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return Response::error("405 Method Not Allowed", "only GET is served");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => Response {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: kernel.metrics().registry().render_prometheus(),
        },
        "/healthz" => healthz(kernel),
        "/traces" => traces(kernel, query),
        _ => Response::error("404 Not Found", "no such endpoint"),
    }
}

/// The liveness report: scheduler commit/in-flight counts plus the
/// WAL's state under its own fsync policy. `503` while the log is
/// poisoned — mutating queries are failing fast, which is exactly what
/// a load balancer should know.
fn healthz(kernel: &Arc<DbKernel>) -> Response {
    let (commits, inflight, _, _) = kernel.sched_snapshot();
    let status = kernel.wal_status();
    let poisoned = status.as_ref().is_some_and(|s| s.poisoned);
    let wal = status.map_or("null".to_string(), |s| {
        JsonObject::new()
            .string("mode", &s.mode.to_string())
            .number("generation", s.generation)
            .number("appended", s.appended)
            .boolean("poisoned", s.poisoned)
            .finish()
    });
    let body = JsonObject::new()
        .string("status", if poisoned { "poisoned" } else { "ok" })
        .number("commits", commits)
        .number("inflight", inflight as u64)
        .number(
            "traces_recorded",
            kernel.recorder().map_or(0, |r| r.recorded()),
        )
        .raw("wal", &wal)
        .finish();
    if poisoned {
        Response::json("503 Service Unavailable", body)
    } else {
        Response::json("200 OK", body)
    }
}

/// The last `n` flight-recorder records (`?n=K`, default 16) as a JSON
/// array, oldest first.
fn traces(kernel: &Arc<DbKernel>, query: Option<&str>) -> Response {
    let Some(recorder) = kernel.recorder() else {
        return Response::error("404 Not Found", RECORDER_OFF);
    };
    let n = query
        .iter()
        .flat_map(|q| q.split('&'))
        .find_map(|kv| kv.strip_prefix("n=")?.parse::<usize>().ok())
        .unwrap_or(16);
    Response::json("200 OK", recorder.render_json(n))
}
