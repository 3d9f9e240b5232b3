//! A multi-client TCP query server over one shared kernel.
//!
//! Hand-rolled on `std::net` — no dependencies, no async runtime: one
//! accept loop, one thread and one session ([`Database::session`]) per
//! connection, the admission controller ([`crate::sched`]) doing the
//! actual multiplexing. Write-free queries from different clients run
//! genuinely in parallel against version-stamped snapshots; writers
//! serialize in arrival order; with `--durable`, each client's mutation
//! is acknowledged only after its own WAL record's fsync. At most 64
//! connections are live at once; one more is answered `err too many
//! connections` and closed.
//!
//! ## Wire protocol
//!
//! Line-oriented and human-typeable (`nc`-able). The client sends one
//! request per line:
//!
//! * `define …;` — register definitions (serialized, like any write).
//! * `:stats`, `:metrics`, `:wal status`, `:checkpoint` — admin
//!   commands.
//! * `:trace last [N]`, `:trace seq <S>` — flight-recorder retrieval
//!   (requires the server to run with `trace_capacity > 0`).
//! * `:plan <q>`, `:plan analyze <q>`, `:analyze <q>`, `:optimize <q>`,
//!   `:explore <q>`, `:trace <q>` — the inspections, under the session's
//!   options and governor (its budget, when one is set: a trip counts as
//!   the session's), each on a copy-on-write clone of the state. A trip
//!   during `:trace <q>` is the trace's result, the frame's last line,
//!   and not a trip of the session's, though the budget pays for it.
//! * `:schema`, `:extents`, `:help` — the catalogue and the command list.
//! * `:quit` — close the connection.
//!
//! Every `:` command but `:quit` is `DbKernel::admin`'s, so its payload
//! is the REPL's output for the same line, byte for byte. Any other `:`
//! line — `:save`, `:load`, `:serve` and `:obs` are the shell's — is
//! `err unknown command …`.
//! * anything else — an IOQL query. A query (or `define`) may be
//!   prefixed with `trace=<id> ` to stamp the client's trace ID into
//!   the query's flight-recorder record; the ID is echoed back in the
//!   status line so a caller can correlate across systems.
//!
//! Every server→client message is a **frame**: one status line, zero
//! or more payload lines, then a line containing a single `.`. Payload
//! lines that start with `.` are dot-stuffed (doubled) à la SMTP; the
//! client undoes it. Status lines:
//!
//! * `ok seq=<n> mode=<snapshot|serialized> cached=<bool>` — a query
//!   result. `mode=snapshot` means the query was admitted concurrently
//!   and `seq` stamps the snapshot it saw (the effects of commits
//!   `1..=seq` and nothing else); `mode=serialized` means it took the
//!   write path and `seq` is its position in the kernel's total commit
//!   order. Payload: the value, then `: <type>`, and for serialized
//!   queries the interference `witness: (…)` that refused concurrency.
//!   When the request carried `trace=<id>`, the status line ends with
//!   ` wait_ns=<n> trace=<id>` — the scheduler-wait observation and the
//!   echoed ID. (These tokens appear **only** for traced requests, so
//!   untraced traffic stays byte-identical run to run.)
//! * `ok <word>` — an admin command succeeded; payload varies.
//! * `err <message>` — the request failed; the session stays usable.
//!   The exceptions are `err request too long` (a request line over
//!   1 MiB is never buffered — the server answers and closes) and `err
//!   too many connections`, sent in place of the greeting.
//!
//! The greeting on connect is a frame too:
//! `ok ioql-server proto=1 session=<label>`.

use crate::database::Database;
use crate::sched::Admitted;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line the wire protocol accepts, terminator
/// included.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The most connections one listener serves at once, each on its own
/// thread: 32× the benchmark's wire clients, 8× CI's server smoke.
pub(crate) const MAX_CONNECTIONS: usize = 64;

/// A running listener — the query server or the observability plane:
/// its bound address and shutdown/join controls. Dropping the handle
/// shuts the listener down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    running: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (port 0 resolves here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. Already
    /// established connections finish their in-flight request and are
    /// closed when the client disconnects.
    pub fn shutdown(&mut self) {
        self.running.store(false, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops (the foreground `--serve` mode).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

/// Holds one of a listener's `MAX_CONNECTIONS` slots until its
/// connection thread ends, however it ends.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Binds `addr` and runs the accept loop both listeners share: every
/// connection gets its own thread running `on_conn(n, &stream)`, where
/// `n` counts connections from 1 in accept order. The thread frees its
/// slot before it closes the stream, so a peer that saw the close can
/// connect again at once. A connection beyond the `MAX_CONNECTIONS`
/// live ones is sent `refusal` and closed by the accept loop itself, so
/// no thread is spawned for it (and while the cap is reached, the
/// loop's lingering close paces further connects).
pub(crate) fn listen(
    addr: &str,
    refusal: &'static str,
    on_conn: impl Fn(u64, &TcpStream) + Send + Sync + 'static,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let running = Arc::new(AtomicBool::new(true));
    let on_conn = Arc::new(on_conn);
    let live = Arc::new(AtomicUsize::new(0));
    let accept = {
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            let mut n = 0;
            for stream in listener.incoming() {
                if !running.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Both protocols are request/reply ping-pong with one
                // write per message: Nagle's algorithm would only hold a
                // reply back until the peer's delayed ACK of the last one.
                let _ = stream.set_nodelay(true);
                if live.fetch_add(1, Ordering::Relaxed) >= MAX_CONNECTIONS {
                    live.fetch_sub(1, Ordering::Relaxed);
                    let _ = (&stream).write_all(refusal.as_bytes());
                    linger_close(&stream);
                    continue;
                }
                let slot = Slot(Arc::clone(&live));
                n += 1;
                let on_conn = Arc::clone(&on_conn);
                // Connection threads are not joined: they exit when
                // their peer disconnects, and they touch nothing the
                // accept loop owns.
                std::thread::spawn(move || {
                    on_conn(n, &stream);
                    drop(slot);
                });
            }
        })
    };
    Ok(ServerHandle {
        addr,
        running,
        accept: Some(accept),
    })
}

/// What [`read_line_capped`] found.
pub(crate) enum Line {
    /// A line, terminator included (absent only on a final line cut
    /// short by end of stream).
    Text(String),
    /// End of stream before any byte.
    Eof,
    /// `cap` bytes arrived without a line terminator.
    TooLong,
}

/// Reads one `\n`-terminated line of at most `cap` bytes — the bounded
/// read both listeners take peer input through: whatever the peer
/// sends, no more than `cap` bytes of it are ever buffered.
pub(crate) fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    reader.take(cap as u64).read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(Line::Eof);
    }
    if buf.len() == cap && !buf.ends_with(b"\n") {
        return Ok(Line::TooLong);
    }
    String::from_utf8(buf)
        .map(Line::Text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// How long a refused peer's remaining input is discarded before the
/// connection is dropped.
const LINGER: Duration = Duration::from_secs(1);

/// Hangs up on a peer whose request or connection was refused, without
/// losing the refusal: closing a socket that still has unread input
/// resets the connection, and a reset discards whatever the peer has
/// not read yet — the error reply included. So: half-close, discard what
/// the peer is still sending (nothing is buffered) until it closes or
/// `LINGER` is up, then drop.
pub(crate) fn linger_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut discard = [0u8; 8192];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!((&*stream).read(&mut discard), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// Per-connection bookkeeping shared with `:stats`: the latest
/// [`Database::describe`] line of every live session. A line leaves the
/// board when its connection ends, before the socket closes.
type SessionBoard = Arc<Mutex<BTreeMap<String, String>>>;

impl Database {
    /// Serves this database's kernel on `addr` (e.g. `127.0.0.1:7583`,
    /// or port `0` to pick a free one — read it back from
    /// [`ServerHandle::addr`]) — see [`crate::server`]. Each connection
    /// gets a session labelled `client-N`, made from this handle's
    /// current options (engine, [`DbOptions::session_budget`], …).
    ///
    /// [`DbOptions::session_budget`]: crate::DbOptions::session_budget
    pub fn serve(&self, addr: &str) -> std::io::Result<ServerHandle> {
        let root = Database::handle(Arc::clone(self.kernel()), self.options(), None);
        let board: SessionBoard = Arc::new(Mutex::new(BTreeMap::new()));
        listen(addr, "err too many connections\n.\n", move |n, stream| {
            let label = format!("client-{n}");
            let _ = handle_client(stream, root.session(label.clone()), &label, &board);
            board
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&label);
        })
    }
}

/// Writes one protocol frame — status line, dot-stuffed payload, `.` —
/// rendered first and sent with one write, so a reply leaves as one
/// segment rather than a burst of small ones.
fn frame(out: &mut impl Write, status: &str, payload: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(status.len() + payload.len() + 8);
    buf.push_str(status);
    buf.push('\n');
    for line in payload.lines() {
        if line.starts_with('.') {
            buf.push('.');
        }
        buf.push_str(line);
        buf.push('\n');
    }
    buf.push_str(".\n");
    out.write_all(buf.as_bytes())
}

fn one_line(msg: impl std::fmt::Display) -> String {
    msg.to_string().replace('\n', "; ")
}

fn handle_client(
    stream: &TcpStream,
    mut session: Database,
    label: &str,
    board: &SessionBoard,
) -> std::io::Result<()> {
    let mut out = stream;
    let mut reader = BufReader::new(stream);
    frame(
        &mut out,
        &format!("ok ioql-server proto=1 session={label}"),
        "",
    )?;
    loop {
        let line = match read_line_capped(&mut reader, MAX_REQUEST_BYTES)? {
            Line::Text(line) => line,
            Line::Eof => break,
            Line::TooLong => {
                frame(&mut out, "err request too long", "")?;
                linger_close(stream);
                break;
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            frame(&mut out, "ok bye", "")?;
            break;
        }
        let result = run_request(&mut session, label, board, line);
        // Publish this session's line for every client's `:stats`.
        board
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(label.to_string(), session.describe());
        match result {
            Ok((status, payload)) => frame(&mut out, &status, &payload)?,
            Err(msg) => frame(&mut out, &format!("err {}", one_line(msg)), "")?,
        }
    }
    Ok(())
}

/// Runs one request line; returns `(status line, payload)`.
fn run_request(
    session: &mut Database,
    label: &str,
    board: &SessionBoard,
    line: &str,
) -> Result<(String, String), String> {
    // A `:` line is a command, run under this session's options and
    // governor; queries skip the probe.
    if line.starts_with(':') {
        let (tag, mut payload) = session.admin(line).map_err(one_line)?;
        if line == ":stats" {
            // Every session this server has seen, own line freshest.
            let mut entries = board.lock().unwrap_or_else(|e| e.into_inner()).clone();
            entries.insert(label.to_string(), session.describe());
            for line in entries.values() {
                payload.push_str(line);
                payload.push('\n');
            }
        }
        return Ok((format!("ok {tag}"), payload));
    }
    // A `trace=<id>` prefix stamps the client's trace ID into the
    // request's flight-recorder record and switches the status line to
    // the traced form (wait_ns + echoed ID).
    let (trace_id, line) = match line
        .strip_prefix("trace=")
        .and_then(|rest| rest.split_once(char::is_whitespace))
    {
        Some((id, rest)) if !id.is_empty() => (Some(id), rest.trim_start()),
        _ => (None, line),
    };
    if line.starts_with("define ") {
        let seq = session.define(line).map_err(one_line)?;
        let trace = match trace_id {
            Some(id) => format!(" trace={id}"),
            None => String::new(),
        };
        return Ok((
            format!(
                "ok seq={} mode=serialized cached=false{trace}",
                seq.unwrap_or(0)
            ),
            "defined.\n".into(),
        ));
    }
    let r = session.query_traced(line, trace_id).map_err(one_line)?;
    let (seq, mode, witness) = match &r.admitted {
        Some(Admitted::Concurrent { snapshot_seq }) => (*snapshot_seq, "snapshot", None),
        Some(Admitted::Serialized {
            commit_seq,
            witness,
        }) => (*commit_seq, "serialized", Some(witness.clone())),
        None => return Err("internal error: reply without an admission stamp".into()),
    };
    let mut payload = format!("{}\n: {}\n", r.value, r.ty);
    if let Some((a, b)) = witness {
        payload.push_str(&format!("witness: ({a}, {b})\n"));
    }
    // The traced tokens are appended only when the client asked for
    // them: untraced responses must stay byte-identical across runs
    // (and across tracing on/off), and `wait_ns` is wall-clock jitter.
    let trace = match trace_id {
        Some(id) => format!(" wait_ns={} trace={id}", r.wait.as_nanos()),
        None => String::new(),
    };
    Ok((
        format!("ok seq={seq} mode={mode} cached={}{trace}", r.cached),
        payload,
    ))
}

/// A minimal blocking client for the wire protocol — used by the tests
/// and handy for scripting. Reads one greeting frame on connect.
#[derive(Debug)]
pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One response frame, parsed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The status line (`ok …` / `err …`).
    pub status: String,
    /// Payload lines, dot-unstuffed.
    pub lines: Vec<String>,
}

impl Frame {
    /// Whether the status line starts with `ok`.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("ok")
    }

    /// Parses `key=value` tokens out of the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }
}

impl Client {
    /// Connects and consumes the greeting frame.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        let mut c = Client { out, reader };
        c.read_frame()?; // greeting
        Ok(c)
    }

    /// Sends one request line and reads its response frame. A `line`
    /// containing `\n` would be two requests answered by two frames, and
    /// is refused with [`std::io::ErrorKind::InvalidInput`] before
    /// anything is sent.
    ///
    /// The line and its newline still leave as two writes under Nagle's
    /// algorithm, so each round trip waits once for the server's delayed
    /// ACK (≈ 40 ms); ROADMAP.md item 2(a) says why that is not yet taken
    /// out.
    pub fn request(&mut self, line: &str) -> std::io::Result<Frame> {
        if line.contains('\n') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a request is one line: it may not contain a newline",
            ));
        }
        writeln!(self.out, "{line}")?;
        self.out.flush()?;
        self.read_frame()
    }

    fn read_frame(&mut self) -> std::io::Result<Frame> {
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = status.trim_end().to_string();
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            let line = line.trim_end_matches('\n');
            if line == "." {
                break;
            }
            let line = line.strip_prefix('.').unwrap_or(line);
            lines.push(line.to_string());
        }
        Ok(Frame { status, lines })
    }
}
