//! docs/RULES.md cannot drift from the tree: every test name and every
//! `path::item` its tables put in backticks names something that exists.
//! A renamed test, function, variant or file fails here instead of
//! leaving the rule-to-code map pointing at nothing. Std only.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root (this file lives in `tests/`, built by `crates/core`).
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/`, as (path
/// relative to the root, contents).
fn sources() -> Vec<(String, String)> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = format!("{rel}/{name}");
            let path = entry.path();
            if path.is_dir() && name != "target" {
                walk(&path, &rel, out);
            } else if name.ends_with(".rs") {
                out.push((rel, fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        walk(&root().join(top), top, &mut out);
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` has `keyword name` with `name` ending at a word boundary.
fn declares(text: &str, keyword: &str, name: &str) -> bool {
    let needle = format!("{keyword} {name}");
    text.match_indices(&needle).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + needle.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

/// The names the tree defines: functions, types, modules, constants and
/// public fields by their declaring keyword, enum variants as a
/// capitalized name opening a line, source files by stem, and crates.
fn items(sources: &[(String, String)]) -> HashSet<String> {
    let keywords = [
        "fn", "struct", "enum", "trait", "mod", "type", "const", "pub",
    ];
    let mut out: HashSet<String> = fs::read_dir(root().join("crates"))
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    for (path, text) in sources {
        let stem = path.rsplit('/').next().unwrap().trim_end_matches(".rs");
        out.insert(stem.to_string());
        let words: Vec<&str> = text
            .split(|c| !is_ident_char(c))
            .filter(|w| !w.is_empty())
            .collect();
        out.extend(
            words
                .windows(2)
                .filter(|w| keywords.contains(&w[0]))
                .map(|w| w[1].to_string()),
        );
        for line in text.lines() {
            let line = line.trim_start();
            let end = line.find(|c| !is_ident_char(c)).unwrap_or(line.len());
            let opens = matches!(
                line[end..].chars().next(),
                None | Some(',' | '{' | '(' | ' ')
            );
            if line.starts_with(|c: char| c.is_ascii_uppercase()) && opens {
                out.insert(line[..end].to_string());
            }
        }
    }
    out
}

/// The backticked spans of the table rows, with their line numbers.
fn table_spans(doc: &str) -> Vec<(usize, &str)> {
    doc.lines()
        .enumerate()
        .filter(|(_, line)| line.starts_with('|'))
        .flat_map(|(i, line)| line.split('`').skip(1).step_by(2).map(move |s| (i + 1, s)))
        .collect()
}

#[test]
fn every_item_the_rules_tables_name_exists() {
    let doc = fs::read_to_string(root().join("docs/RULES.md")).unwrap();
    let items = items(&sources());
    let (mut checked, mut missing) = (0, Vec::new());
    for (line, span) in table_spans(&doc) {
        let snake = |s: &str| s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
        let ok = if let Some((file, item)) = span.split_once(".rs::") {
            // `tests/plan.rs::name`: the file exists and defines `name`.
            fs::read_to_string(root().join(format!("{file}.rs")))
                .is_ok_and(|text| declares(&text, "fn", item))
        } else if span.contains("::") {
            // `Type::item`, `module::tests::name`: every segment is an
            // item of the tree (`Arc` is std's).
            let segments: Vec<&str> = span.split("::").collect();
            if !segments
                .iter()
                .all(|s| !s.is_empty() && s.chars().all(is_ident_char))
            {
                continue;
            }
            segments[0] == "Arc" || segments.iter().all(|s| items.contains(*s))
        } else if snake(span) && span.chars().all(is_ident_char) && span != "if" {
            // A test or function name (`if` is the query language's).
            items.contains(span)
        } else {
            continue;
        };
        checked += 1;
        if !ok {
            missing.push(format!("docs/RULES.md:{line}: `{span}`"));
        }
    }
    assert!(
        missing.is_empty(),
        "names nothing in the tree:\n{}",
        missing.join("\n")
    );
    assert!(
        checked >= 150,
        "only {checked} spans checked — did the tables move?"
    );
}
