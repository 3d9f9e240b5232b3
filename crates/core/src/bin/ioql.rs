//! `ioql` — an interactive shell for the IOQL database.
//!
//! ```sh
//! ioql schema.odl              # load a schema, start the REPL
//! ioql schema.odl --extended   # §5 extended methods
//! ioql schema.odl -e '{ p.name | p <- Ps }'   # one-shot query
//! ioql schema.odl --telemetry-jsonl events.jsonl   # structured event log
//! ioql schema.odl --durable state/  # crash-safe: WAL + checkpoints, recovery on start
//! ioql schema.odl --serve 127.0.0.1:7583   # multi-client TCP server (line protocol)
//! ioql schema.odl --serve 127.0.0.1:7583 --obs 127.0.0.1:9090   # + HTTP observability
//! ioql schema.odl --slow-query 50 --telemetry-jsonl events.jsonl  # slow-query log
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

use ioql::{Database, DbError, DbOptions, Mode};
use std::error::Error;
use std::io::{BufRead, Write};

const USAGE: &str = "usage: ioql [SCHEMA.odl] [--extended] [--telemetry-jsonl FILE] \
                     [--durable DIR] [--serve ADDR] [--obs ADDR] [--slow-query MS] [-e QUERY]";

const HELP: &str = "\
commands:
  <query>            evaluate (type- and effect-checked first)
  define d(..) as q; register a named query definition
  :analyze <query>   type, effect, determinism and commutation verdicts
  :explore <query>   enumerate every (ND comp) order; list outcomes
  :trace last [n]    last n flight-recorder records (decision span trees)
  :trace seq <s>     the flight-recorder record with sequence number s
  :trace <query>     step-by-step derivation with rule names
  :optimize <query>  show the effect-guided rewrite result
  :plan <query>      show the physical plan (operators, costs, guard)
  :plan analyze <query>  run the plan; per-operator est vs actual rows/time
  :metrics           Prometheus-style dump of the telemetry registry
  :stats             cache/VM/scheduler counters and per-extent sizes/versions
  :save <file>       dump the store to a file (atomic write + checksum)
  :load <file>       load a store dump (replaces current contents)
  :checkpoint        fold the WAL into a fresh checkpoint (durable mode)
  :wal status        write-ahead log mode, generation, appends, poison state
  :serve <addr>      serve this database to TCP clients (admission-scheduled)
  :obs <addr>        serve /metrics, /healthz, /traces over HTTP
  :schema            list classes, attributes, methods
  :extents           list extents and their sizes
  :help              this text
  :quit              exit";

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
            "--durable" => {
                durable = args.next();
                if durable.is_none() {
                    eprintln!("--durable needs a directory");
                    std::process::exit(2);
                }
            }
            "--serve" => {
                serve = args.next();
                if serve.is_none() {
                    eprintln!("--serve needs an address (e.g. 127.0.0.1:7583)");
                    std::process::exit(2);
                }
            }
            "--obs" => {
                obs = args.next();
                if obs.is_none() {
                    eprintln!("--obs needs an address (e.g. 127.0.0.1:9090)");
                    std::process::exit(2);
                }
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
        Some(p) => match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read `{p}`: {e}");
                std::process::exit(1);
            }
        },
        None => String::new(),
    };
    let mut db = match Database::from_ddl_with(&ddl, opts) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("schema error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(dir) = durable {
        match db.attach_durable(std::path::Path::new(&dir)) {
            Ok(report) => println!("durable: {report}"),
            Err(e) => {
                eprintln!("--durable {dir}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(q) = one_shot {
        if let Err(e) = run_line(&mut db, &q) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    // The observability plane is orthogonal to the serving mode: it
    // reads the same kernel whether queries arrive over TCP or stdin.
    if let Some(addr) = obs {
        match db.serve_obs(&addr) {
            Ok(handle) => {
                println!("observability on http://{}", handle.addr());
                std::mem::forget(handle); // lives until the process exits
            }
            Err(e) => {
                eprintln!("--obs {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(addr) = serve {
        // Foreground server: block until killed. Stdout is line-buffered
        // noise-free so scripts can scrape the bound address.
        match db.serve(&addr) {
            Ok(mut handle) => {
                println!("serving on {}", handle.addr());
                handle.wait();
                return;
            }
            Err(e) => {
                eprintln!("--serve {addr}: {e}");
                std::process::exit(1);
            }
        }
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

fn run_line(db: &mut Database, line: &str) -> Result<(), Box<dyn Error>> {
    // The commands shared with the wire protocol: the kernel interprets
    // them, the shell prints the text (or, for a silent one, its tag).
    if let Some(reply) = db.kernel().admin(line) {
        let (tag, text) = reply?;
        if text.is_empty() {
            println!("{tag}.");
        } else {
            print!("{text}");
        }
        return Ok(());
    }
    if line == ":help" {
        println!("{HELP}");
        return Ok(());
    }
    if line == ":schema" {
        for cd in db.schema().classes() {
            println!(
                "class {} extends {} (extent {})",
                cd.name, cd.parent, cd.extent
            );
            for ad in &cd.attrs {
                println!("    attribute {} {};", ad.ty, ad.name);
            }
            for md in &cd.methods {
                let params: Vec<String> =
                    md.params.iter().map(|(x, t)| format!("{t} {x}")).collect();
                println!("    {} {}({});", md.ret, md.name, params.join(", "));
            }
        }
        return Ok(());
    }
    if line == ":extents" {
        for (e, c) in db.schema().extents() {
            println!("{e} : set({c}) — {} object(s)", db.extent_len(e.as_str()));
        }
        return Ok(());
    }
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
    if let Some(rest) = line.strip_prefix(":analyze ") {
        let a = db.analyze(rest)?;
        println!("type          : {}", a.ty);
        println!("effect        : {{{}}}", a.effect);
        println!("functional    : {}", a.functional);
        println!("deterministic : {}", a.deterministic);
        if let Some(d) = &a.determinism_diagnosis {
            println!("diagnosis     : {d}");
        }
        for v in &a.commutations {
            println!(
                "commutable    : {} — {} (left {{{}}}, right {{{}}})",
                v.expr,
                if v.safe { "yes" } else { "NO" },
                v.left,
                v.right
            );
        }
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":explore ") {
        let ex = db.explore(rest, 20_000)?;
        let distinct = ex.distinct_outcomes();
        println!(
            "{} run(s), {} distinct outcome(s) up to oid bijection{}:",
            ex.runs.len(),
            distinct.len(),
            if ex.truncated { " (truncated)" } else { "" }
        );
        for o in distinct {
            println!("  {}", o.value);
        }
        let failures = ex.runs.iter().filter(|r| r.is_err()).count();
        if failures > 0 {
            println!("  ({failures} path(s) failed/diverged)");
        }
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":trace ") {
        let t = db.trace(rest)?;
        print!("{}", t.render(100));
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":optimize ") {
        let (q, applied) = db.optimize(rest)?;
        if applied.is_empty() {
            println!("no rewrites apply");
        }
        for r in &applied {
            println!("{:<28} {}", r.rule, r.note);
        }
        println!("result: {q}");
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":plan analyze ") {
        print!("{}", db.explain_analyze(rest)?);
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix(":plan ") {
        print!("{}", db.explain(rest)?);
        return Ok(());
    }
    if line.starts_with("define ") {
        db.define(line)?;
        println!("defined.");
        return Ok(());
    }
    // No query starts with `:`, so what is left is a misspelt or removed
    // command, or one missing its argument.
    if line.starts_with(':') {
        let name = line.split_whitespace().next().unwrap_or(line);
        return Err(format!("unknown command `{name}` — :help lists the commands").into());
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
