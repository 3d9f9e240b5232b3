//! `ioql` — an interactive shell for the IOQL database.
//!
//! ```sh
//! ioql schema.odl              # load a schema, start the REPL
//! ioql schema.odl --extended   # §5 extended methods
//! ioql schema.odl -e '{ p.name | p <- Ps }'   # one-shot query
//! ioql schema.odl --telemetry-jsonl traces.jsonl   # one trace record per request
//! ioql schema.odl --durable state/  # crash-safe: WAL + checkpoints, recovery on start
//! ioql schema.odl --serve 127.0.0.1:7583   # multi-client TCP server (line protocol)
//! ioql schema.odl --serve 127.0.0.1:7583 --obs 127.0.0.1:9090   # + HTTP observability
//! ioql schema.odl --slow-query 50 --telemetry-jsonl slow.jsonl  # only requests ≥ 50 ms
//! ```
//!
//! REPL commands (same list as `:help`):
//!
//! ```text
//! <query>            evaluate (type- and effect-checked first)
//! define d(…) as q;  register a named query definition
//! :analyze <query>   type, effect, determinism and commutation verdicts
//! :explore <query>   enumerate every (ND comp) order; list outcomes
//! :trace last [n]    last n flight-recorder records (decision span trees)
//! :trace seq <s>     the flight-recorder record with sequence number s
//! :trace <query>     step-by-step derivation with rule names
//! :optimize <query>  show the effect-guided rewrite result
//! :plan <query>      show the physical plan (operators, costs, guard)
//! :plan analyze <query>  run the plan; per-operator est vs actual rows/time
//! :metrics           Prometheus-style dump of the telemetry registry
//! :stats             cache/VM/scheduler counters and per-extent sizes/versions
//! :save <file>       dump the store to a file (atomic write + checksum)
//! :load <file>       load a store dump (replaces current contents)
//! :checkpoint        fold the WAL into a fresh checkpoint (durable mode)
//! :wal status        write-ahead log mode, generation, appends, poison state
//! :serve <addr>      serve this database to TCP clients (admission-scheduled)
//! :obs <addr>        serve /metrics, /healthz, /traces over HTTP
//! :schema            list classes, attributes, methods
//! :extents           list extents and their sizes
//! :help              this text
//! :quit              exit
//! ```
//!
//! In one-shot mode (`-e`) any failure — including a failed `:save` or
//! `:load` — exits with a nonzero status.

#![allow(clippy::result_large_err)] // cold-path REPL errors

use ioql::{Database, DbError, DbOptions, Mode, HELP};
use std::error::Error;
use std::io::{BufRead, Write};

const USAGE: &str = "usage: ioql [SCHEMA.odl] [--extended] [--telemetry-jsonl FILE] \
                     [--durable DIR] [--serve ADDR] [--obs ADDR] [--slow-query MS] [-e QUERY]";

fn main() {
    let mut args = std::env::args().skip(1);
    let mut ddl_path: Option<String> = None;
    let mut one_shot: Option<String> = None;
    let mut extended = false;
    let mut jsonl: Option<String> = None;
    let mut durable: Option<String> = None;
    let mut serve: Option<String> = None;
    let mut obs: Option<String> = None;
    let mut slow_query: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--extended" => extended = true,
            "-e" => one_shot = args.next(),
            "--telemetry-jsonl" => jsonl = args.next(),
            "--durable" => durable = Some(required(args.next(), "--durable needs a directory")),
            "--serve" => {
                serve = Some(required(
                    args.next(),
                    "--serve needs an address (e.g. 127.0.0.1:7583)",
                ))
            }
            "--obs" => {
                obs = Some(required(
                    args.next(),
                    "--obs needs an address (e.g. 127.0.0.1:9090)",
                ))
            }
            "--slow-query" => {
                let raw = args.next();
                slow_query = match raw.as_deref().map(str::parse) {
                    Some(Ok(ms)) => Some(ms),
                    _ => {
                        eprintln!(
                            "--slow-query needs a threshold in milliseconds, got {}",
                            raw.as_deref()
                                .map(|v| format!("`{v}`"))
                                .unwrap_or_else(|| "nothing".into())
                        );
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}\n\n{HELP}");
                return;
            }
            // A misspelt or removed flag must not be read as the schema
            // path.
            flag if flag.starts_with('-') => {
                eprintln!("unknown option `{flag}`\n{USAGE}");
                std::process::exit(2);
            }
            other => ddl_path = Some(other.to_string()),
        }
    }

    // The shell always records metrics so `:metrics`/`:stats` have
    // data, and keeps a flight recorder so `:trace last` and the
    // observability plane's `/traces` have records; both are
    // transparent, so this changes no query observable.
    let mut opts = DbOptions {
        telemetry: true,
        telemetry_jsonl: jsonl.map(std::path::PathBuf::from),
        trace_capacity: 256,
        slow_query_ms: slow_query,
        ..DbOptions::default()
    };
    if extended {
        opts.method_mode = Mode::Extended;
    }
    if durable.is_some() {
        // Per-commit fsync: every acknowledged mutation survives kill -9.
        opts.durability = ioql::Durability::Commit;
    }
    let ddl = match &ddl_path {
        Some(p) => or_exit(std::fs::read_to_string(p), &format!("cannot read `{p}`: ")),
        None => String::new(),
    };
    let mut db = or_exit(Database::from_ddl_with(&ddl, opts), "schema error: ");
    if let Some(dir) = durable {
        let report = or_exit(
            db.attach_durable(std::path::Path::new(&dir)),
            &format!("--durable {dir}: "),
        );
        println!("durable: {report}");
    }
    if let Some(q) = one_shot {
        or_exit(run_line(&mut db, &q), "");
        return;
    }
    // The observability plane is orthogonal to the serving mode: it
    // reads the same kernel whether queries arrive over TCP or stdin.
    if let Some(addr) = obs {
        let handle = or_exit(db.serve_obs(&addr), &format!("--obs {addr}: "));
        println!("observability on http://{}", handle.addr());
        std::mem::forget(handle); // lives until the process exits
    }
    if let Some(addr) = serve {
        // Foreground server: block until killed. Stdout is line-buffered
        // noise-free so scripts can scrape the bound address.
        let mut handle = or_exit(db.serve(&addr), &format!("--serve {addr}: "));
        println!("serving on {}", handle.addr());
        handle.wait();
        return;
    }

    println!("ioql — executable semantics of object queries (SIGMOD 2003). :help for commands.");
    if ddl_path.is_none() {
        println!("(no schema loaded — start with `ioql schema.odl` to get extents)");
    }
    let stdin = std::io::stdin();
    loop {
        print!("ioql> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":quit" || line == ":q" {
            break;
        }
        if let Err(e) = run_line(&mut db, line) {
            println!("error: {e}");
        }
    }
}

/// `result`'s value, or — after printing `context` and the error — exit
/// status 1.
fn or_exit<T>(result: Result<T, impl std::fmt::Display>, context: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{context}{e}");
        std::process::exit(1)
    })
}

/// A flag's value, or a usage error (exit 2) saying what it needs.
fn required(value: Option<String>, need: &str) -> String {
    value.unwrap_or_else(|| {
        eprintln!("{need}");
        std::process::exit(2)
    })
}

fn run_line(db: &mut Database, line: &str) -> Result<(), Box<dyn Error>> {
    if let Some(rest) = line.strip_prefix(":save ") {
        // Atomic: temp file + fsync + rename, so a crash mid-save never
        // leaves a torn dump behind.
        db.save_to(std::path::Path::new(rest.trim()))?;
        println!("saved.");
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":load ") {
        // Validated before swap-in: a truncated/corrupt/mismatched dump
        // is rejected here and the current store stays as it was.
        db.load_from(std::path::Path::new(rest.trim()))?;
        println!("loaded.");
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":serve ") {
        let handle = db
            .serve(rest.trim())
            .map_err(|e| DbError::Io(format!(":serve {}: {e}", rest.trim())))?;
        println!("serving on {} (runs until the shell exits)", handle.addr());
        // Keep the server alive for the rest of the session: dropping
        // the handle would shut it down.
        std::mem::forget(handle);
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":obs ") {
        let handle = db
            .serve_obs(rest.trim())
            .map_err(|e| DbError::Io(format!(":obs {}: {e}", rest.trim())))?;
        println!(
            "observability on http://{} (runs until the shell exits)",
            handle.addr()
        );
        std::mem::forget(handle);
        return Ok(());
    }
    // Every other `:` line is the kernel's to interpret, as it is on the
    // wire: the shell prints the text the server would frame.
    if line.starts_with(':') {
        let (_, text) = db.admin(line)?;
        print!("{text}");
        return Ok(());
    }
    if line.starts_with("define ") {
        db.define(line)?;
        println!("defined.");
        return Ok(());
    }
    // A plain query.
    let r = db.query(line)?;
    println!("{}", r.value);
    println!(
        "  : {}   effect {{{}}} (runtime {{{}}}) ({:.2} ms, cached: {})",
        r.ty,
        r.static_effect,
        r.runtime_effect,
        r.elapsed.as_secs_f64() * 1e3,
        r.cached
    );
    Ok(())
}
