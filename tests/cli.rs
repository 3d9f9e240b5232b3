//! End-to-end tests of the `ioql` interactive shell, driving the real
//! binary over pipes.

use std::io::Write;
use std::process::{Command, Stdio};

const DDL: &str = "
class P extends Object (extent Ps) {
    attribute int name;
}
class F extends Object (extent Fs) {
    attribute int name;
    attribute P pal;
}
";

fn run_session(args: &[&str], script: &str) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ioql"));
    cmd.args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn ioql");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("wait ioql");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn schema_file() -> tempfile::TempPath {
    let mut f = tempfile::Builder::new()
        .suffix(".odl")
        .tempfile()
        .expect("tempfile");
    f.write_all(DDL.as_bytes()).unwrap();
    f.into_temp_path()
}

// Minimal tempfile shim: std-only (no external crate) — write to a
// unique path under the target tmpdir.
mod tempfile {
    use std::path::PathBuf;

    pub struct Builder {
        suffix: String,
    }

    pub struct NamedTemp {
        pub path: PathBuf,
        file: std::fs::File,
    }

    pub struct TempPath(PathBuf);

    impl Builder {
        pub fn new() -> Self {
            Builder {
                suffix: String::new(),
            }
        }
        pub fn suffix(mut self, s: &str) -> Self {
            self.suffix = s.to_string();
            self
        }
        pub fn tempfile(self) -> std::io::Result<NamedTemp> {
            let pid = std::process::id();
            let n = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let path = std::env::temp_dir().join(format!("ioql-cli-{pid}-{n}{}", self.suffix));
            let file = std::fs::File::create(&path)?;
            Ok(NamedTemp { path, file })
        }
    }

    impl NamedTemp {
        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTemp {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = std::path::Path;
        fn deref(&self) -> &Self::Target {
            &self.0
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

#[test]
fn repl_session_evaluates_and_analyzes() {
    let schema = schema_file();
    let script = "\
{ new P(name: n) | n <- {1, 2} }
size(Ps)
:analyze { if size(Fs) = 0 then (new F(name: 0, pal: p)).name else p.name | p <- Ps }
:quit
";
    let (stdout, stderr, ok) = run_session(&[schema.to_str().unwrap()], script);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains(": int   effect {R(P)}"), "{stdout}");
    assert!(stdout.contains("deterministic : false"), "{stdout}");
    assert!(stdout.contains("reads and adds"), "{stdout}");
}

#[test]
fn one_shot_query_mode() {
    let schema = schema_file();
    let (stdout, _, ok) = run_session(&[schema.to_str().unwrap(), "-e", "sum({1, 2, 3})"], "");
    assert!(ok);
    assert!(stdout.contains('6'), "{stdout}");
}

#[test]
fn one_shot_error_exits_nonzero() {
    let schema = schema_file();
    let (_, stderr, ok) = run_session(&[schema.to_str().unwrap(), "-e", "1 + true"], "");
    assert!(!ok);
    assert!(stderr.contains("type error"), "{stderr}");
}

#[test]
fn explore_and_trace_commands() {
    let schema = schema_file();
    let script = "\
{ new P(name: n) | n <- {1, 2} }
:explore { if size(Fs) = 0 then (new F(name: 0, pal: p)).name else p.name | p <- Ps }
:trace size(Ps)
:quit
";
    let (stdout, _, ok) = run_session(&[schema.to_str().unwrap()], script);
    assert!(ok);
    assert!(stdout.contains("2 distinct outcome(s)"), "{stdout}");
    assert!(stdout.contains("─(Extent) [R(P)]→"), "{stdout}");
    assert!(stdout.contains("─(Size)→"), "{stdout}");
}

#[test]
fn plan_command_renders_operators_and_costs() {
    let schema = schema_file();
    // A predicate the VM takes is one dispatch per row, which undercuts
    // an index build + probe; the cost model picks the hash probe where
    // the predicate stays interpreted (here: it reads an extent) and its
    // probe side is loop-invariant.
    let script = "\
:help
{ new P(name: n) | n <- {1, 2, 3, 4, 5, 6} }
:plan { p | p <- Ps, p.name = 2 }
:plan { p | p <- Ps, p.name = size(Ps) }
:plan { new P(name: 1) | n <- {1} }
:compile on
:quit
";
    let (stdout, stderr, ok) = run_session(&[schema.to_str().unwrap()], script);
    assert!(ok, "stderr: {stderr}");
    // `:help` documents the command.
    assert!(stdout.contains(":plan <query>"), "{stdout}");
    // The eligible query renders a costed operator pipeline under the
    // Theorem 7 guard.
    assert!(stdout.contains("Filter  p.name = 2  [vm]"), "{stdout}");
    assert!(stdout.contains("HashIndexProbe"), "{stdout}");
    assert!(stdout.contains("HashIndexBuild"), "{stdout}");
    assert!(stdout.contains("ExtentScan p <- Ps"), "{stdout}");
    assert!(stdout.contains("Thm 7"), "{stdout}");
    assert!(stdout.contains("cost:"), "{stdout}");
    // The mutating query is refused with a guard diagnosis.
    assert!(stdout.contains("no physical plan"), "{stdout}");
    assert!(stdout.contains("`new`-free: no"), "{stdout}");
    // There is one configuration: no tier to toggle.
    assert!(stdout.contains("unknown command `:compile`"), "{stdout}");
}

#[test]
fn one_shot_plan_on_malformed_input_exits_nonzero() {
    let schema = schema_file();
    let (_, stderr, ok) = run_session(&[schema.to_str().unwrap(), "-e", ":plan { p | p <- "], "");
    assert!(!ok, "malformed `:plan` input must exit nonzero");
    assert!(!stderr.is_empty(), "the parse error is reported");
    // And a well-formed one-shot `:plan` succeeds.
    let (stdout, _, ok) = run_session(
        &[schema.to_str().unwrap(), "-e", ":plan { p.name | p <- Ps }"],
        "",
    );
    assert!(ok);
    assert!(stdout.contains("ExtentScan p <- Ps"), "{stdout}");
}

#[test]
fn save_and_load_roundtrip_via_cli() {
    let schema = schema_file();
    let dump = std::env::temp_dir().join(format!(
        "ioql-cli-dump-{}-{}.txt",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let script = format!(
        "{{ new P(name: 7) }}\n:save {d}\n:load {d}\nsize(Ps)\n:quit\n",
        d = dump.display()
    );
    let (stdout, _, ok) = run_session(&[schema.to_str().unwrap()], &script);
    assert!(ok);
    assert!(stdout.contains("saved."), "{stdout}");
    assert!(stdout.contains("loaded."), "{stdout}");
    let _ = std::fs::remove_file(&dump);
}

/// Pulls the `:`-prefixed command signatures out of a help listing: the
/// text before the first run of two-or-more spaces on each line.
fn command_signatures<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut out: Vec<String> = lines
        .filter_map(|l| {
            let l = l.trim();
            if !l.starts_with(':') {
                return None;
            }
            Some(match l.find("  ") {
                Some(i) => l[..i].to_string(),
                None => l.to_string(),
            })
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn help_text_matches_module_docs() {
    // Drift guard: the command list in the bin's module docs (the
    // ```text block) and the live `:help` output must agree, so the
    // rustdoc page can't silently fall behind the shell.
    let src =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin/ioql.rs")).unwrap();
    let doc_block: Vec<&str> = src
        .lines()
        .skip_while(|l| !l.contains("```text"))
        .skip(1)
        .take_while(|l| !l.contains("```"))
        .map(|l| l.trim_start().trim_start_matches("//!"))
        .collect();
    let docs = command_signatures(doc_block.into_iter());
    assert!(
        docs.len() >= 10,
        "module-doc command block not found or truncated: {docs:?}"
    );
    let (stdout, stderr, ok) = run_session(&[], ":help\n:quit\n");
    assert!(ok, "stderr: {stderr}");
    let live = command_signatures(stdout.lines());
    assert_eq!(
        docs, live,
        "bin/ioql.rs module docs drifted from the live `:help` output"
    );
    for must in [":metrics", ":stats", ":plan analyze <query>"] {
        assert!(live.contains(&must.to_string()), "{live:?}");
    }
}

#[test]
fn stats_metrics_and_plan_analyze_commands() {
    let schema = schema_file();
    let jsonl =
        std::env::temp_dir().join(format!("ioql-cli-telemetry-{}.jsonl", std::process::id()));
    let script = "\
{ new P(name: n) | n <- {1, 2, 3, 4, 5, 6} }
{ p.name | p <- Ps }
{ p.name | p <- Ps }
:plan analyze { p.name | p <- Ps, p.name = 2 }
:stats
:metrics
:quit
";
    let (stdout, stderr, ok) = run_session(
        &[
            schema.to_str().unwrap(),
            "--telemetry-jsonl",
            jsonl.to_str().unwrap(),
        ],
        script,
    );
    assert!(ok, "stderr: {stderr}");
    // Plain queries report wall-clock elapsed and cache status.
    assert!(stdout.contains("ms, cached: false)"), "{stdout}");
    assert!(stdout.contains("ms, cached: true)"), "{stdout}");
    // `:plan analyze` prints per-operator estimates next to actuals.
    assert!(stdout.contains("Plan analyze"), "{stdout}");
    assert!(stdout.contains("(est ~6 rows)"), "{stdout}");
    assert!(stdout.contains("actual:"), "{stdout}");
    assert!(stdout.contains("returned 1 row(s)"), "{stdout}");
    // `:stats` shows cache counters and per-extent versions.
    assert!(stdout.contains("cache: 1 hit(s), 1 miss(es)"), "{stdout}");
    assert!(
        stdout.contains("extent Ps: 6 object(s), version "),
        "{stdout}"
    );
    assert!(
        stdout.contains("extent Fs: 0 object(s), version "),
        "{stdout}"
    );
    // `:metrics` emits Prometheus-style text.
    assert!(
        stdout.contains("# TYPE ioql_queries_total counter"),
        "{stdout}"
    );
    assert!(stdout.contains("ioql_cache_hits_total 1"), "{stdout}");
    assert!(
        stdout.contains("ioql_phase_duration_ns_count{phase=\"execute\"}"),
        "{stdout}"
    );
    // The JSONL sink wrote one object per line.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(text.lines().count() > 0, "sink is empty");
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    let _ = std::fs::remove_file(&jsonl);
}

#[test]
fn bad_schema_file_is_reported() {
    let (_, stderr, ok) = run_session(&["/definitely/missing.odl"], "");
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn durable_session_survives_restart_and_checkpoints() {
    let schema = schema_file();
    let dir = std::env::temp_dir().join(format!("ioql-cli-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().unwrap().to_string();

    // Session 1: mutate under `--durable`; the WAL records the commit.
    let script = "{ new P(name: n) | n <- {1, 2, 3} }\n:wal status\n:quit\n";
    let (stdout, stderr, ok) =
        run_session(&[schema.to_str().unwrap(), "--durable", &dir_arg], script);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("durable: recovered generation 0"),
        "{stdout}"
    );
    assert!(stdout.contains("wal: mode commit"), "{stdout}");
    assert!(stdout.contains("1 record(s) appended"), "{stdout}");

    // Session 2: recovery replays the log; `:checkpoint` folds it.
    let script = "size(Ps)\n:checkpoint\n:wal status\n:quit\n";
    let (stdout, stderr, ok) =
        run_session(&[schema.to_str().unwrap(), "--durable", &dir_arg], script);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("replayed 1 query"), "{stdout}");
    assert!(stdout.contains("checkpointed."), "{stdout}");
    assert!(stdout.contains("generation 1"), "{stdout}");

    // Session 3: the checkpoint is the baseline now; the store is back.
    let (stdout, _, ok) = run_session(
        &[
            schema.to_str().unwrap(),
            "--durable",
            &dir_arg,
            "-e",
            "size(Ps)",
        ],
        "",
    );
    assert!(ok);
    assert!(stdout.contains("recovered generation 1"), "{stdout}");
    assert!(stdout.contains('3'), "{stdout}");

    // Without `--durable` the commands explain themselves.
    let (stdout, _, ok) = run_session(&[schema.to_str().unwrap(), "-e", ":wal status"], "");
    assert!(ok);
    assert!(stdout.contains("wal: off"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--serve` turns the binary into the TCP query server: the announced
/// address is live, speaks the line protocol, and reports admission
/// decisions per request. (The drift guard above already keeps the
/// `:serve` help line in sync between `:help` and the module docs.)
#[test]
fn serve_flag_binds_and_speaks_the_line_protocol() {
    use std::io::{BufRead, BufReader, Read};

    let schema = schema_file();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ioql"))
        .args([schema.to_str().unwrap(), "--serve", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ioql --serve");

    // Scrape the bound address from the announcement line.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();

    let mut c = ioql::Client::connect(addr.parse().unwrap()).unwrap();
    let w = c.request("size({ new P(name: n) | n <- {1, 2} })").unwrap();
    assert_eq!(w.status, "ok seq=1 mode=serialized cached=false");
    assert_eq!(w.lines[0], "2");
    let r = c.request("size(Ps)").unwrap();
    assert_eq!(r.status, "ok seq=1 mode=snapshot cached=false");
    assert_eq!(r.lines[0], "2");
    let stats = c.request(":stats").unwrap();
    let joined = stats.lines.join("\n");
    assert!(joined.contains("admitted 1, serialized 1"), "{joined}");
    let bye = c.request(":quit").unwrap();
    assert_eq!(bye.status, "ok bye");

    child.kill().unwrap();
    let status = child.wait().unwrap();
    assert!(!status.success()); // killed, by design
    let mut err = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut err)
        .unwrap();
    assert!(err.is_empty(), "server wrote to stderr: {err}");
}

/// `--serve` without an address is a usage error, reported on stderr
/// with exit code 2 like every other malformed invocation.
#[test]
fn serve_flag_requires_an_address() {
    let schema = schema_file();
    let (_, stderr, ok) = run_session(&[schema.to_str().unwrap(), "--serve"], "");
    assert!(!ok);
    assert!(stderr.contains("--serve"), "{stderr}");
}

/// An argument that looks like a flag but is not one — misspelt, or
/// removed like `--parallelism` — is a usage error (exit 2), never the
/// schema path.
#[test]
fn unknown_flags_are_usage_errors_not_schema_paths() {
    let schema = schema_file();
    for args in [
        &["--parallelism", "2"][..],
        &["--compile"][..],
        &["--no-such-flag"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ioql"))
            .arg(schema.to_str().unwrap())
            .args(args)
            .args(["-e", "{ p.name | p <- Ps }"])
            .output()
            .expect("spawn ioql");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: ioql"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run the query");
    }
}

/// The worker pool left no trace on the shell: `:parallel` is an unknown
/// command like any other misspelling, `--help` lists neither spelling,
/// and a scan the pool used to license plans and reports without a
/// `par` anywhere.
#[test]
fn the_shell_has_no_pool_surface() {
    let schema = schema_file();
    let script = "\
{ new P(name: n) | n <- {1, 2, 3, 4, 5, 6} }
:parallel 2
:plan { p.name | p <- Ps }
:stats
:quit
";
    let (stdout, stderr, ok) = run_session(&[schema.to_str().unwrap()], script);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("error: unknown command `:parallel`"),
        "{stdout}"
    );
    let after = &stdout[stdout.find("Plan  [guard").expect("the :plan output")..];
    assert!(after.contains("ExtentScan p <- Ps"), "{stdout}");
    assert!(after.contains("extent Ps: 6 object(s)"), "{stdout}");
    assert!(!after.contains("par"), "{stdout}");
    // One-shot: the unknown command is a failure, not a parse of `:`.
    let (_, stderr, ok) = run_session(&[schema.to_str().unwrap(), "-e", ":parallel 2"], "");
    assert!(!ok);
    assert!(stderr.contains("unknown command `:parallel`"), "{stderr}");
    let (help, _, ok) = run_session(&["--help"], "");
    assert!(ok);
    assert!(!help.contains("parallel"), "{help}");
}
