//! Telemetry tests: the **transparency guard** (telemetry on/off is
//! observationally invisible — same values, stores, effect traces, and
//! governor meters) plus coverage of the metrics series, the JSONL
//! event sink, `explain_analyze`, and the `elapsed` field.
//!
//! The transparency runs deliberately use cell/cardinality limits and
//! never wall-clock deadlines: a deadline verdict depends on timing
//! jitter, which would make off-vs-on comparison flaky for reasons that
//! have nothing to do with telemetry.

use ioql::{Database, DbOptions, Engine, Limits, RandomChooser, Value};
use ioql_testkit::workloads;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ioql-telemetry-{}-{name}.jsonl",
        std::process::id()
    ));
    p
}

fn db_with(opts: DbOptions, n: usize, seed: u64) -> Database {
    let fx = workloads::p_store(n, seed);
    let mut db = Database::from_schema(fx.schema.clone(), opts).unwrap();
    *db.store_mut() = fx.store.clone();
    db
}

/// Runs a fixed mixed workload (scans, filtered scans, a join shape, a
/// mutating batch, repeats that exercise both caches) under a
/// session-wide governor and renders every observable: per-query
/// outcome lines plus final meters and the store dump. `telemetry`
/// turns on the registry *and* the flight recorder. Every second ask is
/// a warm statement; the last text is warm with a stale result (the
/// batch before it moved its read set), so it executes from the shared
/// artifact.
fn run_workload(engine: Engine, telemetry: bool, jsonl: Option<PathBuf>) -> Vec<String> {
    let opts = DbOptions {
        engine,
        telemetry,
        trace_capacity: if telemetry { 4 } else { 0 },
        telemetry_jsonl: jsonl,
        // Budget limits only — never deadlines (see module docs).
        limits: Limits::none()
            .with_max_cells(20_000)
            .with_max_set_card(10_000),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 12, 42);
    let governor = db.governor();
    let queries = [
        "{ x.name | x <- Ps }",
        "{ x.name | x <- Ps, x.name < 7 }",
        "{ x.name + y.name | x <- Ps, y <- Ps, x.name < 3 }",
        "{ new P(name: x.name + 100) | x <- Ps, x.name < 3 }",
        "{ x.name | x <- Ps }",
    ];
    let mut lines = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        // Twice per query: the second run of a cacheable query hits.
        for round in 0..2u64 {
            let mut chooser = RandomChooser::seeded(1_000 + i as u64 * 10 + round);
            match db.query_governed(q, &mut chooser, &governor) {
                Ok(r) => lines.push(format!(
                    "ok value={} ty={} static={{{}}} runtime={{{}}} steps={} cached={}",
                    r.value, r.ty, r.static_effect, r.runtime_effect, r.steps, r.cached
                )),
                Err(e) => lines.push(format!("err {e}")),
            }
        }
    }
    lines.push(format!(
        "meters cells={} growth={}",
        governor.cells_spent(),
        governor.growth_spent()
    ));
    let s = db.cache_stats();
    lines.push(format!(
        "cache hits={} misses={} evictions={} entries={}",
        s.hits, s.misses, s.evictions, s.entries
    ));
    let s = db.statement_stats();
    lines.push(format!(
        "statements hits={} misses={} evictions={} entries={}",
        s.hits, s.misses, s.evictions, s.entries
    ));
    lines.push(db.dump());
    lines
}

#[test]
fn telemetry_is_observationally_transparent() {
    for engine in [Engine::SmallStep, Engine::Plan] {
        let off = run_workload(engine, false, None);
        let path = temp_path(&format!("transparent-{engine:?}"));
        let on = run_workload(engine, true, Some(path.clone()));
        assert_eq!(
            off, on,
            "telemetry must not change any observable ({engine:?})"
        );
        // The sink really wrote events while staying transparent.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 0);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn workload_queries_cover_cache_hits_and_mutation() {
    // Guard the fixture itself: the workload must contain at least one
    // cache hit and one mutating query, or the transparency run is
    // weaker than it claims.
    let lines = run_workload(Engine::Plan, false, None);
    assert!(
        lines.iter().any(|l| l.contains("cached=true")),
        "{lines:#?}"
    );
    assert!(lines.iter().any(|l| l.contains("A(P)")), "{lines:#?}");
    // Warm statements both ways: three texts retained (the batch is
    // not); their second asks hit, and so do both asks of the repeated
    // first text — the first of those with a stale result.
    assert!(
        lines.contains(&"statements hits=5 misses=5 evictions=0 entries=3".to_string()),
        "{lines:#?}"
    );
    assert!(
        lines.contains(&"cache hits=4 misses=4 evictions=1 entries=3".to_string()),
        "{lines:#?}"
    );
}

#[test]
fn metrics_series_cover_cache_governor_and_phases() {
    let opts = DbOptions {
        telemetry: true,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 8, 7);
    db.query("{ x.name | x <- Ps }").unwrap();
    let r = db.query("{ x.name | x <- Ps }").unwrap();
    assert!(r.cached);
    let reg = db.metrics().registry();
    assert_eq!(reg.counter_value("ioql_queries_total"), Some(2));
    assert_eq!(reg.counter_value("ioql_cache_hits_total"), Some(1));
    assert_eq!(reg.counter_value("ioql_cache_misses_total"), Some(1));
    // 8 draws for the fresh run; the cache hit draws nothing.
    assert_eq!(reg.counter_value("ioql_chooser_draws_total"), Some(8));
    // 8 cells charged per run — the hit re-charges the original's bill.
    assert_eq!(
        reg.counter_value("ioql_governor_charges_total{kind=\"cells\"}"),
        Some(16)
    );
    assert_eq!(
        reg.counter_value("ioql_eval_recursions_total")
            .map(|n| n > 0),
        Some(true)
    );
    let text = db.metrics_text();
    for series in [
        "# TYPE ioql_queries_total counter",
        "# TYPE ioql_cache_hits_total counter",
        "# TYPE ioql_governor_trips_total counter",
        "# TYPE ioql_phase_duration_ns histogram",
        "ioql_phase_duration_ns_bucket{phase=\"parse\"",
        "ioql_phase_duration_ns_count{phase=\"execute\"}",
        "ioql_governor_charges_total{kind=\"cells\"}",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
}

/// The saving sits where the statement cache says it does: over R
/// requests drawn from T distinct cacheable texts the front end runs T
/// times, not R — exact counts, off the same spans the ledger reads.
#[test]
fn a_text_is_parsed_and_judged_once() {
    use ioql::telemetry::Span;
    let opts = DbOptions {
        telemetry: true,
        trace_capacity: 4,
        ..DbOptions::default()
    };
    let db = db_with(opts, 8, 7);
    let texts: Vec<String> = (0..5)
        .map(|n| format!("{{ x.name + {n} | x <- Ps }}"))
        .collect();
    let (t, r) = (texts.len() as u64, 60u64);
    let mut session = db.session("loop");
    let front_end = |db: &Database| {
        [Span::Parse, Span::Typecheck, Span::StatementCache].map(|s| db.metrics().span(s).count())
    };
    let reg = db.metrics().registry();
    assert_eq!(front_end(&db), [0, 0, 0]);
    for i in 0..r as usize {
        session.query(&texts[(i * 7) % texts.len()]).unwrap();
    }
    assert_eq!(front_end(&db), [t, t, r]);
    assert_eq!(
        reg.counter_value("ioql_statement_cache_hits_total"),
        Some(r - t)
    );
    assert_eq!(
        reg.counter_value("ioql_statement_cache_misses_total"),
        Some(t)
    );
    assert_eq!(
        reg.counter_value("ioql_statement_cache_evictions_total"),
        Some(0)
    );
    assert_eq!(reg.counter_value("ioql_cache_hits_total"), Some(r - t));

    // "Why was this statement (not) reused" from the record alone: a
    // warm request's tree has the lookup — carrying the judgement a cold
    // request's `typecheck` span shows — and no front-end spans.
    let warm = &db.traces_last(1)[0];
    let names: Vec<&str> = warm.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        !names.contains(&"parse") && !names.contains(&"typecheck"),
        "{names:?}"
    );
    let lookup = warm
        .spans
        .iter()
        .find(|s| s.name == "statement-cache")
        .unwrap();
    assert_eq!(lookup.verdict.as_deref(), Some("hit"));
    assert_eq!(lookup.detail, "set(int) ! {R(P), Ra(P)}");
    // Cold and cacheable: a miss, then the front end.
    session.query("{ x.name | x <- Ps, x.name < 3 }").unwrap();
    let cold = &db.traces_last(1)[0];
    assert_eq!(cold.verdict_of("statement-cache"), Some("miss"));
    assert_eq!(
        cold.verdict_of("typecheck"),
        Some("set(int) ! {R(P), Ra(P)}")
    );
    // A write is judged every time, and says why.
    session.query("(new P(name: 99)).name").unwrap();
    let write = &db.traces_last(1)[0];
    let verdicts: Vec<&str> = write
        .spans
        .iter()
        .filter(|s| s.name == "statement-cache")
        .filter_map(|s| s.verdict.as_deref())
        .collect();
    assert_eq!(verdicts, ["miss", "not retained(effect not read-only)"]);
    // A `define` in between: stale, by name.
    session.define("define one() as 1;").unwrap();
    session.query(&texts[0]).unwrap();
    assert_eq!(
        db.traces_last(1)[0].verdict_of("statement-cache"),
        Some("stale(catalogue)")
    );
    // `:stats` says the same in one line.
    let (_, stats) = db.kernel().admin(":stats").unwrap().unwrap();
    assert!(
        stats.contains("statements: 55 hit(s), 8 miss(es), 1 eviction(s), 6 live\n"),
        "{stats}"
    );
}

#[test]
fn governor_trips_are_counted_per_kind() {
    let opts = DbOptions {
        telemetry: true,
        limits: Limits::none().with_max_cells(3),
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 10, 3);
    let err = db.query("{ x.name | x <- Ps }");
    assert!(err.is_err());
    let reg = db.metrics().registry();
    assert_eq!(
        reg.counter_value("ioql_governor_trips_total{kind=\"cells\"}"),
        Some(1)
    );
    assert_eq!(
        reg.counter_value("ioql_governor_trips_total{kind=\"wall-clock\"}"),
        Some(0)
    );
}

#[test]
fn small_step_engine_reports_steps_counter() {
    let opts = DbOptions {
        telemetry: true,
        engine: Engine::SmallStep,
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 5, 11);
    let r = db.query("{ x.name | x <- Ps }").unwrap();
    assert!(r.steps > 0);
    assert_eq!(
        db.metrics()
            .registry()
            .counter_value("ioql_eval_steps_total"),
        Some(r.steps)
    );
}

#[test]
fn disabled_registry_reports_nothing() {
    let mut db = db_with(DbOptions::default(), 5, 11);
    db.query("{ x.name | x <- Ps }").unwrap();
    let reg = db.metrics().registry();
    assert!(!reg.is_enabled());
    assert_eq!(reg.counter_value("ioql_queries_total"), None);
    assert_eq!(db.metrics_text(), "");
}

/// A minimal structural check that each sink line is one self-contained
/// JSON object: object-delimited, no raw control characters, balanced
/// quotes/braces outside strings.
fn assert_jsonish(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for c in line.chars() {
        assert!(!c.is_control(), "raw control char in {line}");
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in {line}");
    assert!(!in_str, "unterminated string in {line}");
}

#[test]
fn jsonl_sink_writes_spans_and_counter_snapshots() {
    let path = temp_path("sink");
    let opts = DbOptions {
        telemetry: true,
        telemetry_jsonl: Some(path.clone()),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 6, 5);
    db.query("{ x.name | x <- Ps }").unwrap();
    assert!(db.query("{ x.name | }").is_err()); // parse error: span ends ok=false
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 6, "{text}");
    for line in &lines {
        assert_jsonish(line);
    }
    assert!(text.contains("\"event\":\"span_begin\""), "{text}");
    assert!(text.contains("\"event\":\"span_end\""), "{text}");
    assert!(text.contains("\"event\":\"counters\""), "{text}");
    assert!(text.contains("\"ok\":false"), "{text}");
    assert!(text.contains("ioql_queries_total"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explain_analyze_prints_estimates_and_actuals() {
    let mut db = db_with(DbOptions::default(), 15, 9);
    let out = db
        .explain_analyze("{ x.name | x <- Ps, x.name = 3 }")
        .unwrap();
    assert!(out.contains("Thm 7"), "{out}");
    assert!(out.contains("(est ~15 rows)"), "{out}");
    assert!(out.contains("actual:"), "{out}");
    assert!(out.contains("rows=15"), "{out}");
    assert!(out.contains("time="), "{out}");
    assert!(out.contains("returned 1 row(s)"), "{out}");
    // Diagnostic run leaves the database untouched and works with
    // telemetry fully off.
    assert_eq!(db.extent_len("Ps"), 15);
    // A refused query gets the explain diagnosis, not an error.
    let refused = db.explain_analyze("{ new P(name: 1) | x <- {1} }").unwrap();
    assert!(refused.contains("no physical plan"), "{refused}");
    // The analyzed query still runs normally afterwards.
    let r = db.query("{ x.name | x <- Ps, x.name = 3 }").unwrap();
    assert_eq!(r.value, Value::set([Value::Int(3)]));
}

#[test]
fn elapsed_is_reported_outside_the_governor_path() {
    let mut db = db_with(DbOptions::default(), 10, 1);
    let r = db.query("{ x.name + y.name | x <- Ps, y <- Ps }").unwrap();
    assert!(r.elapsed.as_nanos() > 0);
    assert!(!r.cached);
    let hit = db.query("{ x.name + y.name | x <- Ps, y <- Ps }").unwrap();
    assert!(hit.cached);
    // Cached results still report a (small) wall-clock elapsed.
    assert!(hit.elapsed.as_nanos() > 0);
}

// ---------------------------------------------------------------------
// One span, one clock, one record.

/// A fresh, empty directory for a durable log.
fn temp_dir(name: &str) -> PathBuf {
    let dir = temp_path(name).with_extension("d");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The one-clock proof. Every span the kernel closes is measured once:
/// the histogram of a span name and the recorded span trees are two
/// views of the same `dur_ns`, so they agree *to the nanosecond* — which
/// two clocks bracketing the same phase never do.
#[test]
fn histograms_and_span_trees_are_views_of_one_measurement() {
    use ioql::telemetry::Span;
    let dir = temp_dir("one-clock");
    let opts = DbOptions {
        telemetry: true,
        trace_capacity: 8,
        durability: ioql::Durability::Commit,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 6, 5);
    db.attach_durable(&dir).unwrap();
    let mut session = db.session("one-clock");
    // Serialized durable writes, snapshot reads, a cache hit, and a
    // query Theorem 7 refuses: every timed span occurs at least once, and
    // the ring (capacity 8) still holds every record.
    for q in [
        "size({ new P(name: x.name + 100) | x <- Ps, x.name < 3 })",
        "{ x.name | x <- Ps, x.name < 7 }",
        "{ x.name | x <- Ps, x.name < 7 }",
        "sum({ x.name | x <- Ps })",
        "(new P(name: 999)).name",
        "1 + 2",
    ] {
        session.query(q).unwrap();
    }
    let records = db.traces_last(8);
    assert_eq!(records.len(), 6);
    let mut timed = 0;
    for span in Span::ALL {
        let h = db.metrics().span(span);
        let durs: Vec<u64> = records
            .iter()
            .flat_map(|r| &r.spans)
            .filter(|s| s.name == span.name())
            .map(|s| s.dur_ns)
            .collect();
        if span.series().is_none() {
            assert!(!h.is_enabled(), "{span:?} is annotation-only");
            continue;
        }
        assert!(!durs.is_empty(), "the workload never opened {span:?}");
        assert_eq!(h.count(), durs.len() as u64, "{span:?} count");
        assert_eq!(h.sum_ns(), durs.iter().sum::<u64>(), "{span:?} sum");
        timed += 1;
    }
    assert_eq!(timed, 11);
    // The same clock stamps the result: `wait` is the reading that closed
    // the sched-wait span, `elapsed` the one that sealed the record.
    let r = session.query("size(Ps)").unwrap();
    let record = &db.traces_last(1)[0];
    assert_eq!(r.elapsed.as_nanos(), record.total_ns as u128);
    assert_eq!(r.wait.as_nanos(), record.wait_ns as u128);
    let wait = &record.spans[0];
    assert_eq!(wait.name, "sched-wait");
    assert_eq!(record.wait_ns, wait.start_ns + wait.dur_ns);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spans that never had a hand-registered histogram get one from the
/// span table: a cached read times its cache probe, a durable write its
/// WAL append — and every family the database registers is described,
/// because registration takes the help text.
#[test]
fn every_timed_span_is_a_described_series() {
    let dir = temp_dir("for-free");
    let opts = DbOptions {
        telemetry: true,
        durability: ioql::Durability::Commit,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 4, 2);
    db.attach_durable(&dir).unwrap();
    db.query("size({ new P(name: 50) | x <- {1} })").unwrap();
    db.query("size(Ps)").unwrap();
    assert!(db.query("size(Ps)").unwrap().cached);
    let text = db.metrics_text();
    for phase in ["cache-probe", "wal-append", "lock-acquire"] {
        let series = format!("ioql_phase_duration_ns_count{{phase=\"{phase}\"}} ");
        let count: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&series))
            .unwrap_or_else(|| panic!("no {series} in:\n{text}"))
            .parse()
            .unwrap();
        assert!(count > 0, "{series}is zero");
    }
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split(' ').next().unwrap();
            let help = format!("# HELP {family} ");
            assert!(
                i > 0 && lines[i - 1].len() > help.len() && lines[i - 1].starts_with(&help),
                "family {family} has no help text"
            );
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
