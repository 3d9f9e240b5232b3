//! The repo's one benchmark: four closed-loop workloads over the whole
//! service, end-to-end metrics with regression bounds, and a per-crate layer
//! ladder measured from outside. See `README.md` beside this package;
//! `run.sh` builds and runs it.

#![forbid(unsafe_code)]
// The program's error enums are large by design (see `crates/core/src/lib.rs`);
// the harness only passes them through.
#![allow(clippy::result_large_err)]

mod check;
mod data;
mod harness;
mod inproc;
mod json;
mod ladder;
mod metrics;
mod query;
mod rng;
mod stats;
mod wire;

use harness::{Outcome, RunConfig};
use json::Json;
use metrics::{Emit, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed `run.sh` uses when none is given.
const DEFAULT_SEED: u64 = 20_030_609;
/// The window length `BENCHMARK.json` records as `run_seconds`.
const RUN_SECONDS: u64 = 20;
/// Relative to the checkout root, where `run.sh` starts the program.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  ioql-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1|2]
  ioql-benchmark all [--seed N] [--seconds S] [--runs K] [--out FILE]
  ioql-benchmark check <base.json> <new.json>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: u64,
    runs: u64,
    out: PathBuf,
    words: Vec<String>,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: 0,
        runs: 1,
        out: Path::new(OUT_DIR).join("results.json"),
        words: Vec::new(),
    };
    let mut raw = raw;
    while let Some(arg) = raw.next() {
        let mut value = |name: &str| raw.next().ok_or(format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: {v:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => args.seconds = number("--seconds", value("--seconds")?)?,
            "--trace" => args.trace = number("--trace", value("--trace")?)?,
            "--runs" => args.runs = number("--runs", value("--runs")?)?,
            "--out" => args.out = value("--out")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => args.words.push(arg),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(args)
}

/// Two closed-loop clients need two cores; on fewer the numbers would mean
/// something else, so the harness refuses rather than reports them.
fn require_two_cores() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!(
            "this host offers {cores} core; the benchmark drives 2 client threads and needs at least 2"
        ));
    }
    Ok(())
}

fn print_metrics(workload: &str, metrics: &Json) {
    println!("workload {workload}");
    for (name, m) in metrics.members() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<34} {value:>16.4} {unit}");
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_workload(args: &Args, workload: &str) -> Result<bool, String> {
    let emit = match args.trace {
        0 => Emit::EndToEnd,
        1 => Emit::PerLayer,
        2 => Emit::Both,
        other => return Err(format!("--trace {other}: expected 0, 1 or 2")),
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: emit != Emit::EndToEnd,
        out_dir: OUT_DIR.into(),
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let run = match workload {
        "wire_point" => wire::wire_point,
        "embedded_analytic" => inproc::embedded_analytic,
        "session_hot" => inproc::session_hot,
        "wire_mixed_durable" => wire::wire_mixed_durable,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let Outcome {
        attempted,
        failed,
        mut report,
        tracer,
    } = run(&cfg)?;
    report.set("failed_share", failed as f64 / attempted.max(1) as f64);
    if let Some(tracer) = tracer {
        let path = cfg.out_dir.join(format!("{workload}.trace.jsonl"));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    // Nothing of this process's scratch space outlives it.
    let _ = std::fs::remove_dir(cfg.out_dir.join("tmp"));
    let metrics = report.metrics_json(emit)?;
    print_metrics(workload, &metrics);
    let correct = failed == 0;
    println!(
        "{}",
        Json::Object(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Number(attempted as f64)),
            ("failed".into(), Json::Number(failed as f64)),
            ("metrics".into(), metrics),
        ])
    );
    Ok(correct)
}

fn env_or_unknown(name: &str) -> Json {
    Json::String(std::env::var(name).unwrap_or_else(|_| "unknown".into()))
}

/// Runs every workload, each in a process of its own, `--runs` times, and
/// writes the results file `check` compares.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..args.runs {
        for (workload, _) in WORKLOADS {
            let seed = args.seed + round;
            let child = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", "2"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let (table, line) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{table}");
            let Ok(Json::Object(mut result)) = json::parse(line) else {
                return Err(format!(
                    "{workload}: no result line (exit {})",
                    child.status
                ));
            };
            all_correct &= child.status.success()
                && result
                    .iter()
                    .any(|(k, v)| k == "correct" && v.as_bool() == Some(true));
            result.insert(0, ("seed".into(), Json::Number(seed as f64)));
            result.insert(0, ("workload".into(), Json::String(workload.into())));
            runs.push(Json::Object(result));
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let results = Json::Object(vec![
        ("git_rev".into(), env_or_unknown("BENCH_GIT_REV")),
        (
            "host".into(),
            Json::Object(vec![
                ("nproc".into(), Json::Number(cores as f64)),
                ("rustc".into(), env_or_unknown("BENCH_RUSTC")),
                ("os".into(), env_or_unknown("BENCH_OS")),
            ]),
        ),
        ("seed".into(), Json::Number(args.seed as f64)),
        ("seconds".into(), Json::Number(args.seconds as f64)),
        ("runs".into(), Json::Array(runs)),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, results.pretty())
        .map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("results written to {}", args.out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    let done = match (&args.workload, words.as_slice()) {
        (Some(workload), []) => require_two_cores()
            .map_err(|e| (2, e))
            .and_then(|()| run_workload(&args, workload).map_err(|e| (1, e))),
        (None, ["all"]) => require_two_cores()
            .map_err(|e| (2, e))
            .and_then(|()| run_all(&args).map_err(|e| (1, e))),
        (None, ["check", base, new]) => check::check(base, new).map_err(|e| (1, e)),
        _ => Err((2, USAGE.to_string())),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err((code, message)) => {
            eprintln!("ioql-benchmark: {message}");
            ExitCode::from(code)
        }
    }
}
