//! Write-ahead logging: crash-safe durability between checkpoints.
//!
//! Persistence by dumps alone (`dump.rs`) is all-or-nothing: every
//! mutation between explicit saves dies with the process. The WAL closes
//! that gap with **logical logging** — one CRC-32-framed record per
//! committed mutating query, carrying the elaborated query text plus the
//! chooser draw trace recorded during execution, so recovery replays the
//! exact `(ND comp)` path the original run took (through a
//! `ScriptedChooser`). Queries whose inferred effect is write-free never
//! reach the log at all — that is the Theorem 7 guard working as a
//! durability filter.
//!
//! ```text
//! ioql-wal v1 gen=3
//! !1 crc32=7f9a0c21 def=define adults(min: int) as { p | p <- Ps };
//! !2 crc32=42b0196e draws=0,2,1 q={ new P(name: n) | n <- {1, 2} }
//! ```
//!
//! Framing: each record line carries its 1-based sequence number and the
//! CRC-32 (IEEE, shared with `dump.rs`) of everything after the
//! `crc32=XXXXXXXX ` field. The parser distinguishes a **torn tail** — a
//! final record that is incomplete, malformed, or CRC-failing, the
//! expected residue of a crash mid-append — from **mid-log corruption**
//! (any earlier record failing, or a sequence break), which is rejected
//! with a line-accurate diagnostic exactly as `dump.rs` rejects damaged
//! dumps. A torn tail is dropped silently and counted; it never hides
//! an acknowledged commit because acknowledgement requires the record's
//! `fsync` to have returned.
//!
//! On disk a durable directory holds one **generation** at a time:
//! `checkpoint-<g>.ioql` (a v2 dump — the baseline) and `wal-<g>.log`
//! (the suffix of commits since). A checkpoint writes `wal-<g+1>.log`
//! first (header plus re-logged definitions), then atomically renames
//! `checkpoint-<g+1>.ioql` into place — the rename is the commit point,
//! so a crash anywhere in the procedure leaves either generation `g`
//! or generation `g+1` fully intact, never a hybrid. Generation 0 has
//! no checkpoint file; its baseline is the empty (schema-declared)
//! store.
//!
//! Appends go through a [`WalSink`] so the fault harness can inject
//! crash points (a sink that loses writes after N bytes); production
//! uses [`FileSink`] — `O_APPEND` writes, and under
//! [`Durability::Commit`] one `fsync` per record before [`Wal::append`]
//! returns, so every acknowledged commit is on disk.

use crate::dump::crc32;
use std::collections::BTreeSet;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// When (and whether) committed mutations are made durable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Durability {
    /// No write-ahead logging at all — the pre-WAL behaviour. With this
    /// mode every observable (values, stores, effects, meters) is
    /// byte-identical to a build without the durability subsystem.
    #[default]
    Off,
    /// Append **and fsync** one record per committed mutating query
    /// before the commit is acknowledged: recovery never loses an
    /// acknowledged commit.
    Commit,
}

impl fmt::Display for Durability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Durability::Off => write!(f, "off"),
            Durability::Commit => write!(f, "commit"),
        }
    }
}

/// The failure class of a WAL parse/replay problem — mirrors
/// [`crate::dump::DumpErrorKind`] so callers never string-match.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalErrorKind {
    /// The first line is not a recognised `ioql-wal` header.
    MissingHeader,
    /// The header names a format version this reader does not speak.
    VersionMismatch,
    /// The header's generation disagrees with the file's name — the
    /// directory was hand-edited.
    GenerationMismatch,
    /// A non-final record failed to parse (bad seq, bad field, bad
    /// escape) — mid-log damage, never silently skipped.
    Malformed,
    /// A non-final record failed its CRC, or a sequence number broke the
    /// chain — mid-log corruption.
    Corrupt,
    /// An I/O operation on the log or durable directory failed.
    Io,
    /// Replaying a logged record against the recovered store failed.
    Replay,
}

impl fmt::Display for WalErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WalErrorKind::MissingHeader => "missing header",
            WalErrorKind::VersionMismatch => "version mismatch",
            WalErrorKind::GenerationMismatch => "generation mismatch",
            WalErrorKind::Malformed => "malformed",
            WalErrorKind::Corrupt => "corrupt",
            WalErrorKind::Io => "io",
            WalErrorKind::Replay => "replay failed",
        })
    }
}

/// A failure while parsing, appending to, or replaying a write-ahead
/// log. `line` is 1-based within the log file (0 when no single line is
/// at fault), exactly as in [`crate::dump::DumpError`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalError {
    /// The failure class.
    pub kind: WalErrorKind,
    /// 1-based line number (0 when no single line is at fault).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "wal ({}): {}", self.kind, self.message)
        } else {
            write!(
                f,
                "wal, line {} ({}): {}",
                self.line, self.kind, self.message
            )
        }
    }
}

impl std::error::Error for WalError {}

fn fail<T>(kind: WalErrorKind, line: usize, message: impl Into<String>) -> Result<T, WalError> {
    Err(WalError {
        kind,
        line,
        message: message.into(),
    })
}

/// One logged commit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalPayload {
    /// A committed mutating query: the elaborated text *as executed*
    /// (post-optimization, so replay runs the identical shape with the
    /// optimizer off) plus every chooser pick the run consumed, in
    /// order. Replaying `text` under a `ScriptedChooser(draws)` against
    /// the same starting store reproduces the commit exactly — that is
    /// the `ScriptedChooser` replay contract.
    Query {
        /// Elaborated query text, single line (escaped).
        text: String,
        /// The `(ND comp)` picks consumed, in draw order.
        draws: Vec<usize>,
    },
    /// A registered definition (`define … as …;`). Definitions are part
    /// of the replayable catalogue: a checkpoint re-logs every live
    /// definition into the fresh generation's log so post-checkpoint
    /// queries that call them still replay.
    Define {
        /// The definition source text, single line (escaped).
        text: String,
    },
}

/// A parsed record: its sequence number plus payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord {
    /// 1-based position in this generation's log.
    pub seq: u64,
    /// What was committed.
    pub payload: WalPayload,
}

/// The result of parsing a log file: the surviving records plus how
/// many trailing torn writes were dropped (0 or 1 — a crash tears at
/// most the final append).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParsedWal {
    /// The log's generation (from the verified header).
    pub gen: u64,
    /// Every intact record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Trailing torn writes dropped (truncated or CRC-failing final
    /// record, or a torn header on an otherwise empty log).
    pub torn_dropped: u64,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

fn header_line(gen: u64) -> String {
    format!("ioql-wal v1 gen={gen}")
}

fn render_payload(payload: &WalPayload) -> String {
    match payload {
        WalPayload::Query { text, draws } => {
            let draws: Vec<String> = draws.iter().map(|d| d.to_string()).collect();
            format!("draws={} q={}", draws.join(","), esc(text))
        }
        WalPayload::Define { text } => format!("def={}", esc(text)),
    }
}

/// Renders one record line (with trailing newline): sequence number,
/// CRC-32 of the payload, payload.
pub fn encode_record(seq: u64, payload: &WalPayload) -> String {
    let body = render_payload(payload);
    format!("!{seq} crc32={:08x} {body}\n", crc32(body.as_bytes()))
}

/// Why one record line failed — used to decide torn-tail vs mid-log.
enum LineFault {
    Malformed(String),
    Crc(String),
    SeqBreak(String),
}

fn parse_record_line(line: &str, expected_seq: u64) -> Result<WalRecord, LineFault> {
    let Some(rest) = line.strip_prefix('!') else {
        return Err(LineFault::Malformed(format!(
            "expected `!<seq>`, found `{}`",
            line.chars().take(20).collect::<String>()
        )));
    };
    let Some((seq_txt, rest)) = rest.split_once(' ') else {
        return Err(LineFault::Malformed("record has no fields".into()));
    };
    let Ok(seq) = seq_txt.parse::<u64>() else {
        return Err(LineFault::Malformed(format!("bad sequence `{seq_txt}`")));
    };
    let Some(crc_field) = rest.strip_prefix("crc32=") else {
        return Err(LineFault::Malformed("missing crc32 field".into()));
    };
    let Some((crc_txt, body)) = crc_field.split_once(' ') else {
        return Err(LineFault::Malformed("record has no payload".into()));
    };
    let Ok(expected_crc) = u32::from_str_radix(crc_txt, 16) else {
        return Err(LineFault::Malformed(format!("bad crc32 `{crc_txt}`")));
    };
    let actual = crc32(body.as_bytes());
    if actual != expected_crc {
        return Err(LineFault::Crc(format!(
            "record crc32 {actual:08x} does not match framed {expected_crc:08x}"
        )));
    }
    // CRC verified: a sequence break now means a *lost* record, not a
    // torn write — callers must reject it even at the tail.
    if seq != expected_seq {
        return Err(LineFault::SeqBreak(format!(
            "sequence break: expected record {expected_seq}, found {seq}"
        )));
    }
    let payload = if let Some(def) = body.strip_prefix("def=") {
        match unesc(def) {
            Some(text) => WalPayload::Define { text },
            None => return Err(LineFault::Malformed("bad escape in def text".into())),
        }
    } else if let Some(rest) = body.strip_prefix("draws=") {
        let Some((draws_txt, q)) = rest.split_once(" q=") else {
            return Err(LineFault::Malformed("query record has no q= field".into()));
        };
        let mut draws = Vec::new();
        if !draws_txt.is_empty() {
            for d in draws_txt.split(',') {
                match d.parse::<usize>() {
                    Ok(n) => draws.push(n),
                    Err(_) => {
                        return Err(LineFault::Malformed(format!("bad draw `{d}`")));
                    }
                }
            }
        }
        match unesc(q) {
            Some(text) => WalPayload::Query { text, draws },
            None => return Err(LineFault::Malformed("bad escape in query text".into())),
        }
    } else {
        return Err(LineFault::Malformed(
            "payload is neither `def=` nor `draws=… q=`".into(),
        ));
    };
    Ok(WalRecord { seq, payload })
}

/// Parses a log file's text. `expected_gen` is the generation named by
/// the file's own name; a complete header naming a different generation
/// is rejected (the directory was hand-edited).
///
/// Torn-tail tolerance: a final line that is incomplete (no trailing
/// newline), malformed, or CRC-failing is dropped and counted — the
/// residue of a crash mid-append. Any *earlier* line failing, or a
/// CRC-valid line whose sequence number breaks the chain (a lost
/// record), is mid-log corruption and fails with its line number.
pub fn parse_wal(text: &str, expected_gen: u64) -> Result<ParsedWal, WalError> {
    let expected_header = header_line(expected_gen);
    let Some((header, body)) = text.split_once('\n') else {
        // No complete header line. A prefix of the expected header is
        // the residue of a crash during log creation — before any
        // record could have been acknowledged — so it parses as an
        // empty log with one torn write. Anything else never was a WAL.
        if expected_header.starts_with(text) {
            return Ok(ParsedWal {
                gen: expected_gen,
                records: Vec::new(),
                torn_dropped: u64::from(!text.is_empty()),
            });
        }
        return fail(WalErrorKind::MissingHeader, 1, "missing `ioql-wal` header");
    };
    if header != expected_header {
        if !header.starts_with("ioql-wal ") {
            return fail(WalErrorKind::MissingHeader, 1, "missing `ioql-wal` header");
        }
        if !header.starts_with("ioql-wal v1 ") {
            let version = header
                .strip_prefix("ioql-wal ")
                .unwrap_or_default()
                .split_whitespace()
                .next()
                .unwrap_or_default();
            return fail(
                WalErrorKind::VersionMismatch,
                1,
                format!("unsupported wal version `{version}` (this reader speaks v1)"),
            );
        }
        return fail(
            WalErrorKind::GenerationMismatch,
            1,
            format!("header `{header}` does not match expected generation {expected_gen}"),
        );
    }
    let complete_tail = body.is_empty() || body.ends_with('\n');
    let lines: Vec<&str> = body.lines().collect();
    let mut records = Vec::new();
    let mut torn_dropped = 0u64;
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 2; // 1-based, after the header line
        let is_final = idx + 1 == lines.len();
        let torn_candidate = is_final; // a crash tears only the tail
        match parse_record_line(line, records.len() as u64 + 1) {
            Ok(rec) => {
                if is_final && !complete_tail {
                    // Parsed, but the newline never made it to disk: the
                    // write may still be partial (the lost suffix could
                    // have been part of this record's text). Drop it.
                    torn_dropped += 1;
                } else {
                    records.push(rec);
                }
            }
            Err(LineFault::Malformed(msg)) if !torn_candidate => {
                return fail(WalErrorKind::Malformed, lineno, msg);
            }
            Err(LineFault::Crc(msg)) if !torn_candidate => {
                return fail(WalErrorKind::Corrupt, lineno, msg);
            }
            Err(LineFault::Malformed(_) | LineFault::Crc(_)) => {
                torn_dropped += 1;
            }
            // A CRC-valid record with a broken sequence number is a
            // *lost* earlier record — corruption even at the tail.
            Err(LineFault::SeqBreak(msg)) => {
                return fail(WalErrorKind::Corrupt, lineno, msg);
            }
        }
    }
    Ok(ParsedWal {
        gen: expected_gen,
        records,
        torn_dropped,
    })
}

/// Where appended bytes go. Production uses [`FileSink`]; the fault
/// harness substitutes a sink that loses writes after N bytes or fails
/// its fsyncs, modelling a crash at an exact byte offset.
pub trait WalSink: Send {
    /// Appends `bytes` to the log. Partial persistence on failure is
    /// allowed (that is what a crash does); the parser's torn-tail rule
    /// absorbs it.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// The production sink: a real file opened for appending, `fsync` on
/// [`WalSink::sync`].
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<FileSink> {
        Ok(FileSink {
            file: std::fs::File::create(path)?,
        })
    }

    /// Opens the file at `path` for appending (creating it if absent).
    pub fn open_append(path: &Path) -> std::io::Result<FileSink> {
        Ok(FileSink {
            file: std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?,
        })
    }
}

impl WalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// An open write-ahead log: appends framed records through a sink,
/// fsyncing each one under [`Durability::Commit`].
pub struct Wal {
    sink: Box<dyn WalSink>,
    gen: u64,
    next_seq: u64,
    durability: Durability,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("gen", &self.gen)
            .field("next_seq", &self.next_seq)
            .field("durability", &self.durability)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Creates a fresh log at `path`: writes and fsyncs the header.
    pub fn create(path: &Path, gen: u64, durability: Durability) -> std::io::Result<Wal> {
        Wal::create_with_sink(Box::new(FileSink::create(path)?), gen, durability)
    }

    /// As [`Wal::create`], through an arbitrary sink (the fault
    /// harness's entry point).
    pub fn create_with_sink(
        mut sink: Box<dyn WalSink>,
        gen: u64,
        durability: Durability,
    ) -> std::io::Result<Wal> {
        sink.append(format!("{}\n", header_line(gen)).as_bytes())?;
        sink.sync()?;
        Ok(Wal::open_with_sink(sink, gen, 1, durability))
    }

    /// Re-opens an existing, already-parsed log for appending through
    /// `sink`. `next_seq` is one past the last intact record.
    pub fn open_with_sink(
        sink: Box<dyn WalSink>,
        gen: u64,
        next_seq: u64,
        durability: Durability,
    ) -> Wal {
        Wal {
            sink,
            gen,
            next_seq,
            durability,
        }
    }

    /// The log's generation.
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and returns its sequence number. Under
    /// [`Durability::Commit`] the record is fsynced before this returns,
    /// so an `Ok` survives a crash; under `Off` it is not synced until
    /// [`Wal::sync`]. On `Err` the log must be considered poisoned (the
    /// failed write may be partially persisted) until the next
    /// checkpoint rebuilds it.
    pub fn append(&mut self, payload: &WalPayload) -> std::io::Result<u64> {
        let seq = self.next_seq;
        self.sink.append(encode_record(seq, payload).as_bytes())?;
        self.next_seq += 1;
        if self.durability == Durability::Commit {
            self.sink.sync()?;
        }
        Ok(seq)
    }

    /// Makes every record appended so far durable.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.sink.sync()
    }
}

/// `wal-<g>.log` under `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen}.log"))
}

/// `checkpoint-<g>.ioql` under `dir`.
pub fn checkpoint_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("checkpoint-{gen}.ioql"))
}

/// The generations present in a durable directory.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Generations {
    /// Generations with a `checkpoint-<g>.ioql` file.
    pub checkpoints: BTreeSet<u64>,
    /// Generations with a `wal-<g>.log` file.
    pub wals: BTreeSet<u64>,
}

impl Generations {
    /// The generation recovery should load: the newest checkpointed one,
    /// or 0 (empty baseline) when no checkpoint has ever completed. A
    /// `wal-<g+1>.log` without its checkpoint is the orphan of a crashed
    /// checkpoint — its records were never live, so it is ignored.
    pub fn live(&self) -> u64 {
        self.checkpoints.iter().next_back().copied().unwrap_or(0)
    }
}

/// Scans `dir` for checkpoint/wal files.
pub fn scan_generations(dir: &Path) -> std::io::Result<Generations> {
    let mut out = Generations::default();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix("checkpoint-")
            .and_then(|r| r.strip_suffix(".ioql"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            out.checkpoints.insert(g);
        } else if let Some(g) = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".log"))
            .and_then(|g| g.parse::<u64>().ok())
        {
            out.wals.insert(g);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn q(text: &str, draws: &[usize]) -> WalPayload {
        WalPayload::Query {
            text: text.to_string(),
            draws: draws.to_vec(),
        }
    }

    fn log_text(gen: u64, payloads: &[WalPayload]) -> String {
        let mut out = format!("{}\n", header_line(gen));
        for (i, p) in payloads.iter().enumerate() {
            out.push_str(&encode_record(i as u64 + 1, p));
        }
        out
    }

    #[test]
    fn encode_parse_roundtrip() {
        let payloads = vec![
            WalPayload::Define {
                text: "define f() as 1;".into(),
            },
            q("{ new P(name: n) | n <- {1, 2} }", &[0, 1, 3]),
            q("size(Ps)", &[]),
        ];
        let text = log_text(7, &payloads);
        let parsed = parse_wal(&text, 7).unwrap();
        assert_eq!(parsed.gen, 7);
        assert_eq!(parsed.torn_dropped, 0);
        assert_eq!(
            parsed
                .records
                .iter()
                .map(|r| &r.payload)
                .collect::<Vec<_>>(),
            payloads.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            parsed.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn escapes_roundtrip_through_framing() {
        let weird = "line one\nline \\ two";
        let text = log_text(0, &[q(weird, &[2])]);
        // The file itself stays one line per record.
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_wal(&text, 0).unwrap();
        match &parsed.records[0].payload {
            WalPayload::Query { text, draws } => {
                assert_eq!(text, weird);
                assert_eq!(draws, &[2]);
            }
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn truncated_final_record_is_dropped_silently() {
        let full = log_text(3, &[q("a", &[0]), q("b", &[1])]);
        for cut in 1..10 {
            let torn = &full[..full.len() - cut];
            let parsed = parse_wal(torn, 3).unwrap();
            assert_eq!(parsed.records.len(), 1, "cut {cut}");
            assert_eq!(parsed.torn_dropped, 1, "cut {cut}");
        }
    }

    #[test]
    fn crc_failing_final_record_is_dropped_but_counted() {
        let full = log_text(3, &[q("aa", &[0]), q("bb", &[1])]);
        // Flip a byte inside the *last* record's payload.
        let damaged = full.replacen("q=bb", "q=bx", 1);
        assert_ne!(damaged, full);
        let parsed = parse_wal(&damaged, 3).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.torn_dropped, 1);
    }

    #[test]
    fn mid_log_corruption_rejected_with_line() {
        let full = log_text(3, &[q("aa", &[0]), q("bb", &[1])]);
        // Flip a byte inside the *first* record's payload — line 2.
        let damaged = full.replacen("q=aa", "q=ax", 1);
        let e = parse_wal(&damaged, 3).unwrap_err();
        assert_eq!(e.kind, WalErrorKind::Corrupt);
        assert_eq!(e.line, 2, "{e}");
    }

    #[test]
    fn sequence_break_rejected_even_at_tail() {
        // Records 1 and 3: record 2 was lost wholesale (not a torn
        // tail — a torn tail only ever removes a suffix).
        let mut text = format!("{}\n", header_line(0));
        text.push_str(&encode_record(1, &q("a", &[])));
        text.push_str(&encode_record(3, &q("c", &[])));
        let e = parse_wal(&text, 0).unwrap_err();
        assert_eq!(e.kind, WalErrorKind::Corrupt);
        assert_eq!(e.line, 3);
        assert!(e.message.contains("sequence break"), "{e}");
    }

    #[test]
    fn header_damage_and_version_and_generation() {
        let text = log_text(2, &[]);
        assert_eq!(
            parse_wal(&text.replacen("ioql-wal", "ioqlXwal", 1), 2)
                .unwrap_err()
                .kind,
            WalErrorKind::MissingHeader
        );
        assert_eq!(
            parse_wal(&text.replacen("v1", "v9", 1), 2)
                .unwrap_err()
                .kind,
            WalErrorKind::VersionMismatch
        );
        assert_eq!(
            parse_wal(&text, 5).unwrap_err().kind,
            WalErrorKind::GenerationMismatch
        );
    }

    #[test]
    fn torn_header_is_an_empty_log() {
        let header = format!("{}\n", header_line(4));
        for cut in 1..header.len() {
            let parsed = parse_wal(&header[..header.len() - cut], 4).unwrap();
            assert!(parsed.records.is_empty());
            assert_eq!(parsed.torn_dropped, 1, "cut {cut}");
        }
        // A zero-byte file is a clean empty log (create never started).
        let parsed = parse_wal("", 4).unwrap();
        assert_eq!(parsed.torn_dropped, 0);
    }

    /// A sink recording into a shared buffer and counting its fsyncs —
    /// the in-memory stand-in for a file in these unit tests.
    struct BufSink(Arc<Mutex<(Vec<u8>, u64)>>);

    impl WalSink for BufSink {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().0.extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.0.lock().unwrap().1 += 1;
            Ok(())
        }
    }

    #[test]
    fn commit_mode_syncs_every_append() {
        let buf = Arc::new(Mutex::new((Vec::new(), 0)));
        let mut wal =
            Wal::create_with_sink(Box::new(BufSink(buf.clone())), 0, Durability::Commit).unwrap();
        assert_eq!(buf.lock().unwrap().1, 1, "the header is synced");
        assert_eq!(wal.append(&q("x", &[])).unwrap(), 1);
        assert_eq!(
            buf.lock().unwrap().1,
            2,
            "record 1 is synced before its ack"
        );
        assert_eq!(wal.append(&q("y", &[0])).unwrap(), 2);
        assert_eq!(
            buf.lock().unwrap().1,
            3,
            "record 2 is synced before its ack"
        );
        let text = String::from_utf8(buf.lock().unwrap().0.clone()).unwrap();
        assert_eq!(parse_wal(&text, 0).unwrap().records.len(), 2);
    }

    /// Under `Off` (a log written without acknowledgements, such as a
    /// checkpoint's preamble) appends are not synced until `sync`.
    #[test]
    fn off_mode_syncs_only_when_asked() {
        let buf = Arc::new(Mutex::new((Vec::new(), 0)));
        let mut wal =
            Wal::create_with_sink(Box::new(BufSink(buf.clone())), 0, Durability::Off).unwrap();
        assert_eq!(wal.append(&q("a", &[])).unwrap(), 1);
        assert_eq!(wal.append(&q("b", &[])).unwrap(), 2);
        assert_eq!(buf.lock().unwrap().1, 1, "only the header was synced");
        wal.sync().unwrap();
        assert_eq!(buf.lock().unwrap().1, 2);
        assert_eq!(wal.next_seq(), 3);
    }

    #[test]
    fn file_sink_roundtrip_and_paths() {
        let dir = std::env::temp_dir().join(format!("ioql-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = wal_path(&dir, 0);
        let mut wal = Wal::create(&path, 0, Durability::Commit).unwrap();
        wal.append(&q("{ new P(name: 1) }", &[0])).unwrap();
        drop(wal);
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_wal(&text, 0).unwrap();
        assert_eq!(parsed.records.len(), 1);
        // Re-open and extend.
        let sink = Box::new(FileSink::open_append(&path).unwrap());
        let mut wal = Wal::open_with_sink(sink, 0, 2, Durability::Commit);
        wal.append(&q("size(Ps)", &[])).unwrap();
        drop(wal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse_wal(&text, 0).unwrap().records.len(), 2);
        // Generation scan sees the wal and (no) checkpoints.
        std::fs::write(
            checkpoint_path(&dir, 1),
            "ioql-store v2 objects=0 crc32=0\n",
        )
        .unwrap();
        let gens = scan_generations(&dir).unwrap();
        assert_eq!(gens.wals.iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            gens.checkpoints.iter().copied().collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(gens.live(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn live_generation_ignores_orphan_wals() {
        // A wal-(g+1) without checkpoint-(g+1) is a crashed checkpoint's
        // orphan; the live generation stays g.
        let gens = Generations {
            checkpoints: [3].into_iter().collect(),
            wals: [3, 4].into_iter().collect(),
        };
        assert_eq!(gens.live(), 3);
        let none = Generations {
            checkpoints: BTreeSet::new(),
            wals: [0].into_iter().collect(),
        };
        assert_eq!(none.live(), 0);
    }
}
