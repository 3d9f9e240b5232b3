//! Store persistence: a compact, human-readable text format with a
//! checksummed, crash-detecting header.
//!
//! The data model restricts attribute values to φ types (`int`, `bool`,
//! object references — paper Note 1), so a store serialises as one line
//! per object under a self-describing header:
//!
//! ```text
//! ioql-store v2 objects=3 crc32=7f9a0c21
//! @0 P name=1
//! @1 P name=2
//! @2 F name=0 pal=@0
//! ```
//!
//! The header carries the body's object count and its CRC-32 (IEEE), so
//! the loader distinguishes three failure classes with line-accurate
//! diagnostics: a *truncated* dump (fewer object lines than promised — a
//! crash mid-write), a *corrupt* dump (checksum mismatch — bit rot or a
//! concurrent writer), and a *malformed* dump (syntax/validation errors
//! in a line). Legacy `v1` dumps (no count, no checksum) still load;
//! anything else is a version mismatch, never a guess.
//!
//! [`save_store`] writes atomically — temp file, `fsync`, rename, then
//! `fsync` of the parent directory — so a crash during save leaves
//! either the old dump or the new one, never a torn file.
//!
//! Extent membership is *not* stored: it is reconstructed from each
//! object's class through the schema on load (which also revalidates
//! class and attribute names). Oids are preserved verbatim so external
//! references remain stable; the allocator resumes above the maximum.

use crate::env::Object;
use crate::store::Store;
use ioql_ast::{AttrName, ClassName, Oid, Value};
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// The class of a dump failure — lets callers distinguish "the file is
/// damaged" from "the file disagrees with the schema" without string
/// matching.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DumpErrorKind {
    /// The first line is not a recognised `ioql-store` header.
    MissingHeader,
    /// The header names a format version this loader does not speak.
    VersionMismatch,
    /// The body has fewer object lines than the header promised —
    /// typically a crash mid-write of a non-atomic copy.
    Truncated,
    /// The body's CRC-32 does not match the header's.
    ChecksumMismatch,
    /// A line failed to parse (bad oid, bad value, stray token).
    Malformed,
    /// The dump parsed but contradicts the schema or itself (unknown
    /// class/attribute, dangling or duplicate oid).
    Validation,
    /// An I/O operation failed while saving or loading a dump file.
    Io,
}

impl fmt::Display for DumpErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DumpErrorKind::MissingHeader => "missing header",
            DumpErrorKind::VersionMismatch => "version mismatch",
            DumpErrorKind::Truncated => "truncated",
            DumpErrorKind::ChecksumMismatch => "checksum mismatch",
            DumpErrorKind::Malformed => "malformed",
            DumpErrorKind::Validation => "validation failed",
            DumpErrorKind::Io => "io",
        })
    }
}

/// A failure while parsing, validating, saving, or loading a store dump.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DumpError {
    /// The failure class.
    pub kind: DumpErrorKind,
    /// 1-based line number (0 when no single line is at fault).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "store dump ({}): {}", self.kind, self.message)
        } else {
            write!(
                f,
                "store dump, line {} ({}): {}",
                self.line, self.kind, self.message
            )
        }
    }
}

impl std::error::Error for DumpError {}

fn fail<T>(kind: DumpErrorKind, line: usize, message: impl Into<String>) -> Result<T, DumpError> {
    Err(DumpError {
        kind,
        line,
        message: message.into(),
    })
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, DumpError> {
    fail(DumpErrorKind::Malformed, line, message)
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), bitwise — the dump body
/// is small and cold, so a table buys nothing over clarity.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn render_body(store: &Store) -> String {
    let mut out = String::new();
    for (o, obj) in store.objects.iter() {
        out.push_str(&format!("{o} {}", obj.class));
        for (a, v) in &obj.attrs {
            let rendered = match v {
                Value::Int(i) => i.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Oid(p) => p.to_string(),
                // Unreachable for schema-conformant stores; kept total so
                // dumps never panic on hand-built test stores.
                other => format!("<{other}>"),
            };
            out.push_str(&format!(" {a}={rendered}"));
        }
        out.push('\n');
    }
    out
}

/// Serialises the store's objects in the v2 format (extents are
/// derivable — see module docs). The header records the object count
/// and the CRC-32 of everything after the header line.
pub fn dump_store(store: &Store) -> String {
    let body = render_body(store);
    format!(
        "ioql-store v2 objects={} crc32={:08x}\n{body}",
        store.objects.len(),
        crc32(body.as_bytes()),
    )
}

/// Parsed form of a v2 header line.
struct HeaderV2 {
    objects: usize,
    crc32: u32,
}

fn parse_v2_header(line: &str) -> Result<HeaderV2, DumpError> {
    let rest = line
        .strip_prefix("ioql-store v2")
        .expect("caller checked the prefix");
    let mut objects = None;
    let mut crc = None;
    for field in rest.split_whitespace() {
        match field.split_once('=') {
            Some(("objects", n)) => match n.parse::<usize>() {
                Ok(n) => objects = Some(n),
                Err(_) => return err(1, format!("bad object count `{n}` in header")),
            },
            Some(("crc32", h)) => match u32::from_str_radix(h, 16) {
                Ok(c) => crc = Some(c),
                Err(_) => return err(1, format!("bad crc32 `{h}` in header")),
            },
            _ => return err(1, format!("unrecognised header field `{field}`")),
        }
    }
    match (objects, crc) {
        (Some(objects), Some(crc32)) => Ok(HeaderV2 { objects, crc32 }),
        _ => err(1, "v2 header must carry `objects=` and `crc32=` fields"),
    }
}

/// Reconstructs a store from a dump, validating against the schema:
/// every class must exist, every attribute must be declared (at its
/// class or an ancestor), and object references must resolve. Extent
/// membership is rebuilt via `extents_for_new` (so the schema's
/// `inherited_extents` option applies).
///
/// Accepts the current `v2` format (count- and checksum-verified) and
/// the legacy unchecksummed `v1`. Truncation, corruption, and version
/// mismatch each produce their own [`DumpErrorKind`], and a failed load
/// never half-builds: the function returns a complete store or an
/// error.
pub fn load_store(schema: &ioql_schema::Schema, text: &str) -> Result<Store, DumpError> {
    let (header_line, body) = match text.split_once('\n') {
        Some((h, b)) => (h, b),
        None => (text, ""),
    };
    let expected = if header_line.starts_with("ioql-store v2") {
        let header = parse_v2_header(header_line)?;
        let object_lines = body
            .lines()
            .filter(|l| {
                let l = l.trim();
                !l.is_empty() && !l.starts_with('#')
            })
            .count();
        // Count first: a clean truncation (lost tail lines) gets the
        // sharper diagnostic; the checksum then catches everything else
        // (bit flips, mid-line cuts, edits).
        if object_lines < header.objects {
            return fail(
                DumpErrorKind::Truncated,
                object_lines + 1,
                format!(
                    "dump truncated: header promises {} objects, found {object_lines}",
                    header.objects
                ),
            );
        }
        let actual = crc32(body.as_bytes());
        if actual != header.crc32 {
            return fail(
                DumpErrorKind::ChecksumMismatch,
                0,
                format!(
                    "dump corrupt: body crc32 {actual:08x} does not match header {:08x}",
                    header.crc32
                ),
            );
        }
        Some(header.objects)
    } else if header_line.trim() == "ioql-store v1" {
        None // legacy: no integrity metadata to verify
    } else if header_line.starts_with("ioql-store ") {
        let version = header_line
            .strip_prefix("ioql-store ")
            .unwrap_or_default()
            .split_whitespace()
            .next()
            .unwrap_or_default();
        return fail(
            DumpErrorKind::VersionMismatch,
            1,
            format!("unsupported dump version `{version}` (this loader speaks v1 and v2)"),
        );
    } else {
        return fail(
            DumpErrorKind::MissingHeader,
            1,
            "missing `ioql-store` header",
        );
    };

    let mut store = Store::new();
    for (e, c) in schema.extents() {
        store.declare_extent(e.clone(), c.clone());
    }
    type PendingObject = (usize, Oid, ClassName, Vec<(AttrName, Value)>);
    let mut max_oid = 0u64;
    let mut pending: Vec<PendingObject> = Vec::new();
    for (idx, line) in body.lines().enumerate() {
        let lineno = idx + 2; // 1-based, after the header line
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let oid_txt = parts.next().unwrap_or_default();
        let oid = parse_oid(oid_txt)
            .ok_or(())
            .or_else(|_| err(lineno, format!("bad oid `{oid_txt}`")))?;
        let class_txt = parts
            .next()
            .ok_or(())
            .or_else(|_| err(lineno, "missing class name"))?;
        let class = ClassName::new(class_txt);
        if schema.class(&class).is_none() {
            return fail(
                DumpErrorKind::Validation,
                lineno,
                format!("unknown class `{class}`"),
            );
        }
        let mut attrs = Vec::new();
        for kv in parts {
            let Some((a, v)) = kv.split_once('=') else {
                return err(lineno, format!("expected attr=value, found `{kv}`"));
            };
            let attr = AttrName::new(a);
            if schema.atype(&class, &attr).is_none() {
                return fail(
                    DumpErrorKind::Validation,
                    lineno,
                    format!("class `{class}` has no attribute `{a}`"),
                );
            }
            let value = if v == "true" {
                Value::Bool(true)
            } else if v == "false" {
                Value::Bool(false)
            } else if let Some(o) = parse_oid(v) {
                Value::Oid(o)
            } else if let Ok(i) = v.parse::<i64>() {
                Value::Int(i)
            } else {
                return err(lineno, format!("bad value `{v}`"));
            };
            attrs.push((attr, value));
        }
        max_oid = max_oid.max(oid.raw() + 1);
        pending.push((lineno, oid, class, attrs));
    }
    if let Some(expected) = expected {
        // The count was >= earlier; extra lines mean the file was edited
        // past the header's promise — fail rather than load silently.
        if pending.len() != expected {
            return fail(
                DumpErrorKind::Validation,
                0,
                format!(
                    "header promises {expected} objects, found {}",
                    pending.len()
                ),
            );
        }
    }
    // Insert all objects, then validate references (forward refs are
    // legal) and rebuild extents.
    for (lineno, oid, class, attrs) in &pending {
        if store.objects.contains(*oid) {
            return fail(
                DumpErrorKind::Validation,
                *lineno,
                format!("duplicate oid {oid}"),
            );
        }
        store
            .objects
            .insert(*oid, Object::new(class.clone(), attrs.clone()));
    }
    for (lineno, oid, class, attrs) in &pending {
        for (a, v) in attrs {
            if let Value::Oid(target) = v {
                if !store.objects.contains(*target) {
                    return fail(
                        DumpErrorKind::Validation,
                        *lineno,
                        format!("object {oid} attribute `{a}` references missing {target}"),
                    );
                }
            }
        }
        for e in schema.extents_for_new(class) {
            store.extents.add(&e, *oid);
        }
    }
    // Resume oid allocation above everything loaded.
    store.bump_oid_floor(max_oid);
    Ok(store)
}

fn io_err<T>(context: &str, e: std::io::Error) -> Result<T, DumpError> {
    fail(DumpErrorKind::Io, 0, format!("{context}: {e}"))
}

/// Atomically writes `text` to `path`: written to a sibling temp file,
/// flushed to disk (`fsync`), renamed over `path` (the temp file is
/// removed if that fails), and the parent directory is fsynced so the
/// rename itself survives a crash. Readers of `path` therefore always see
/// a complete file — either the previous one or the new one. An error
/// names the step that failed.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let step = |what: &str, at: &Path, e: std::io::Error| {
        std::io::Error::new(e.kind(), format!("{what} {}: {e}", at.display()))
    };
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| step("create", &tmp, e))?;
        f.write_all(text.as_bytes())
            .map_err(|e| step("write", &tmp, e))?;
        f.sync_all().map_err(|e| step("fsync", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        step(&format!("rename {} ->", tmp.display()), path, e)
    })?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Persist the rename. Directories can legitimately refuse fsync
        // on some filesystems; the data file itself is already durable.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically writes the store's dump to `path` ([`write_atomic`]).
pub fn save_store(store: &Store, path: &Path) -> Result<(), DumpError> {
    write_atomic(path, &dump_store(store)).or_else(|e| fail(DumpErrorKind::Io, 0, e.to_string()))
}

/// Loads a store dump from a file, validating against the schema as
/// [`load_store`] does.
pub fn load_store_file(schema: &ioql_schema::Schema, path: &Path) -> Result<Store, DumpError> {
    let text = std::fs::read_to_string(path)
        .or_else(|e| io_err(&format!("read {}", path.display()), e))?;
    load_store(schema, &text)
}

fn parse_oid(s: &str) -> Option<Oid> {
    s.strip_prefix('@')
        .and_then(|n| n.parse::<u64>().ok())
        .map(Oid::from_raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::ClassDef;
    use ioql_schema::Schema;

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain(
                "P",
                ClassName::object(),
                "Ps",
                [ioql_ast::AttrDef::new("name", ioql_ast::Type::Int)],
            ),
            ClassDef::plain(
                "F",
                ClassName::object(),
                "Fs",
                [
                    ioql_ast::AttrDef::new("name", ioql_ast::Type::Int),
                    ioql_ast::AttrDef::new("pal", ioql_ast::Type::class("P")),
                ],
            ),
        ])
        .unwrap()
    }

    fn sample_store(schema: &Schema) -> Store {
        let mut store = Store::new();
        for (e, c) in schema.extents() {
            store.declare_extent(e.clone(), c.clone());
        }
        let p = store
            .create(
                Object::new("P", [("name", Value::Int(1))]),
                [ioql_ast::ExtentName::new("Ps")],
            )
            .unwrap();
        store
            .create(
                Object::new("F", [("name", Value::Int(0)), ("pal", Value::Oid(p))]),
                [ioql_ast::ExtentName::new("Fs")],
            )
            .unwrap();
        store
    }

    #[test]
    fn roundtrip() {
        let schema = schema();
        let store = sample_store(&schema);
        let text = dump_store(&store);
        let loaded = load_store(&schema, &text).unwrap();
        assert_eq!(store.objects, loaded.objects);
        assert_eq!(store.extents, loaded.extents);
        // Fresh oids resume above loaded ones.
        let mut l2 = loaded;
        let fresh = l2.fresh_oid();
        assert!(!l2.objects.contains(fresh));
        assert!(fresh.raw() >= 2);
    }

    #[test]
    fn v2_header_carries_count_and_checksum() {
        let schema = schema();
        let text = dump_store(&sample_store(&schema));
        let header = text.lines().next().unwrap();
        assert!(
            header.starts_with("ioql-store v2 objects=2 crc32="),
            "{header}"
        );
    }

    #[test]
    fn header_required() {
        let schema = schema();
        let e = load_store(&schema, "@0 P name=1\n").unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::MissingHeader);
    }

    #[test]
    fn legacy_v1_still_loads() {
        let schema = schema();
        let loaded = load_store(&schema, "ioql-store v1\n@0 P name=1\n").unwrap();
        assert_eq!(loaded.objects.len(), 1);
    }

    #[test]
    fn future_version_rejected_not_guessed() {
        let schema = schema();
        let e = load_store(&schema, "ioql-store v9 objects=0 crc32=00000000\n").unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::VersionMismatch);
        assert!(e.message.contains("v9"), "{e}");
    }

    #[test]
    fn truncated_dump_detected_with_line() {
        let schema = schema();
        let full = dump_store(&sample_store(&schema));
        // Drop the last object line entirely — a crash mid-copy.
        let cut = full.trim_end_matches('\n').rsplit_once('\n').unwrap().0;
        let cut = format!("{cut}\n");
        let e = load_store(&schema, &cut).unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Truncated);
        assert!(e.message.contains("promises 2"), "{e}");
    }

    #[test]
    fn bit_flip_detected_by_checksum() {
        let schema = schema();
        let full = dump_store(&sample_store(&schema));
        // Flip a digit inside the body (the value of `name`).
        let corrupted = full.replacen("name=1", "name=7", 1);
        assert_ne!(corrupted, full);
        let e = load_store(&schema, &corrupted).unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::ChecksumMismatch);
    }

    #[test]
    fn extra_lines_beyond_count_rejected() {
        let schema = schema();
        // Rebuild a consistent checksum over a body with an extra line,
        // but keep the original (smaller) object count.
        let body = "@0 P name=1\n@1 P name=2\n";
        let text = format!(
            "ioql-store v2 objects=1 crc32={:08x}\n{body}",
            crc32(body.as_bytes())
        );
        let e = load_store(&schema, &text).unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Validation);
    }

    #[test]
    fn unknown_class_rejected() {
        let schema = schema();
        let r = load_store(&schema, "ioql-store v1\n@0 Ghost name=1\n");
        let e = r.unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Validation);
        assert!(e.message.contains("unknown class"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_attr_rejected() {
        let schema = schema();
        let r = load_store(&schema, "ioql-store v1\n@0 P ghost=1\n");
        assert!(r.unwrap_err().message.contains("no attribute"));
    }

    #[test]
    fn dangling_reference_rejected() {
        let schema = schema();
        let r = load_store(&schema, "ioql-store v1\n@0 F name=0 pal=@9\n");
        assert!(r.unwrap_err().message.contains("missing @9"));
    }

    #[test]
    fn duplicate_oid_rejected_with_line() {
        let schema = schema();
        let r = load_store(&schema, "ioql-store v1\n@0 P name=1\n@0 P name=2\n");
        let e = r.unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Validation);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn forward_references_ok() {
        let schema = schema();
        let text = "ioql-store v1\n@5 F name=0 pal=@9\n@9 P name=1\n";
        let loaded = load_store(&schema, text).unwrap();
        assert_eq!(loaded.objects.len(), 2);
        assert!(loaded
            .extents
            .members(&ioql_ast::ExtentName::new("Fs"))
            .unwrap()
            .contains(&Oid::from_raw(5)));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let schema = schema();
        let text = "ioql-store v1\n\n# a comment\n@0 P name=3\n";
        let loaded = load_store(&schema, text).unwrap();
        assert_eq!(loaded.objects.len(), 1);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value from the specification.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let schema = schema();
        let store = sample_store(&schema);
        let dir = std::env::temp_dir().join(format!("ioql-dump-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ioql");
        save_store(&store, &path).unwrap();
        // No temp residue, and the file loads back identically.
        assert!(!dir.join("store.tmp").exists());
        let loaded = load_store_file(&schema, &path).unwrap();
        assert_eq!(store.objects, loaded.objects);
        // Overwriting is also atomic (rename over the existing file).
        save_store(&store, &path).unwrap();
        assert!(load_store_file(&schema, &path).is_ok());
        // A rename that fails (the target is a non-empty directory)
        // reports the step and leaves no temp file behind.
        let taken = dir.join("taken.ioql");
        std::fs::create_dir_all(taken.join("occupant")).unwrap();
        let e = save_store(&store, &taken).unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Io);
        assert!(e.message.starts_with("rename "), "{e}");
        assert!(!dir.join("taken.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let schema = schema();
        let e = load_store_file(&schema, Path::new("/nonexistent/ioql-store")).unwrap_err();
        assert_eq!(e.kind, DumpErrorKind::Io);
    }
}
