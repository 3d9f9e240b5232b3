//! The two in-process workloads: `embedded_analytic` (one caller of
//! `Database::query`, cache off) and `session_hot` (two `Session`s on one
//! shared kernel, drawing from a cached hot set).

use crate::data::{bench_options, open, spec_check, Mirror, FULL};
use crate::harness::{
    closed_loop, fill_counters, fill_end_to_end, fill_trace_overhead, on_threads, repeated_setup,
    Clock, Counters, Outcome, RunConfig, Step, TracedPass, Window,
};
use crate::ladder::{timed, Ladder};
use crate::metrics::Report;
use crate::query::{hot_set, AnalyticStream, Answer, Tpl, ZipfStream, SHAPES};
use crate::stats::{median, LogHistogram};
use ioql::{Admitted, Database, DbOptions, Session};

/// Traced requests: ten cycles of the eight shapes, and 200 hot-set draws.
const ANALYTIC_TRACED: usize = 80;
const HOT_TRACED: usize = 200;

/// `telemetry: true, trace_capacity: 256` — what `telemetry.on_cost_share`
/// turns on.
fn observed(options: DbOptions) -> DbOptions {
    DbOptions {
        telemetry: true,
        trace_capacity: 256,
        ..options
    }
}

/// Request by request, the observed twin's latency over the unobserved
/// root span of the same text; the median ratio, minus one. (A ratio of two
/// medians would compare whichever of the workload's latency modes each
/// median happened to fall in.)
fn on_cost_share(report: &mut Report, traced: &TracedPass, observed_ns: Vec<f64>) {
    let mut ratios: Vec<f64> = observed_ns
        .iter()
        .zip(traced.root_ns())
        .map(|(on, off)| on / off)
        .collect();
    report.set_opt(
        "telemetry.on_cost_share",
        median(&mut ratios).map(|r| r - 1.0),
    );
}

// ---------------------------------------------------------------------------
// embedded_analytic
// ---------------------------------------------------------------------------

fn analytic_options() -> DbOptions {
    DbOptions {
        // The stated exception: every request executes.
        cache_capacity: 0,
        ..bench_options()
    }
}

struct Analytic {
    db: Database,
    mirror: Mirror,
    stream: AnalyticStream,
}

/// Sends one request and checks the reply against the mirror.
fn analytic_request(db: &mut Database, mirror: &Mirror, tpl: &Tpl) -> Step {
    let text = tpl.text();
    let (reply, at) = timed(|| db.query(&text));
    let ok = reply.is_ok_and(|r| tpl.answer(&mirror.persons, &mirror.emps).matches(&r.value));
    Step::query(at, ok)
}

fn analytic_setup(options: DbOptions, seed: u64) -> Result<Analytic, String> {
    let mut stream = AnalyticStream::new(seed);
    let warm: Vec<Tpl> = stream.by_ref().take(SHAPES.len()).collect();
    let texts: Vec<String> = warm.iter().map(Tpl::text).collect();
    spec_check(&options, &texts, seed)?;
    let (mut db, mirror) = open(options, FULL, seed)?;
    for tpl in &warm {
        if !analytic_request(&mut db, &mirror, tpl).ok {
            return Err(format!("warm-up: wrong or failed reply to {}", tpl.text()));
        }
    }
    Ok(Analytic { db, mirror, stream })
}

pub fn embedded_analytic(cfg: &RunConfig) -> Result<Outcome, String> {
    let (mut env, setup_s) =
        repeated_setup(|_| analytic_setup(analytic_options(), cfg.seed), drop)?;
    let mut report = Report::default();

    let before = Counters::of(&env.db);
    let clock = Clock::new(cfg.seconds);
    let mut per_shape: Vec<Vec<f64>> = vec![Vec::new(); SHAPES.len()];
    let mut sent = 0usize;
    let mut window: Window<Vec<u64>> = closed_loop(&clock, || {
        let tpl = env.stream.next().expect("endless stream");
        let step = analytic_request(&mut env.db, &env.mirror, &tpl);
        if step.ok {
            per_shape[sent % SHAPES.len()].push(step.at.elapsed.as_secs_f64() * 1e3);
        }
        sent += 1;
        step
    });
    fill_end_to_end(&mut report, &clock, &mut window, setup_s)?;
    for (shape, ms) in SHAPES.iter().zip(&mut per_shape) {
        report.set_opt(&format!("shape.{shape}.p50_ms"), median(ms));
    }
    fill_counters(&mut report, &env.db, &before, 0);

    let mut attempted = window.attempted;
    let mut failed = window.failed;
    let mut tracer = None;
    if cfg.traced {
        let ladder = Ladder::new(&env.db)?;
        let mut traced = TracedPass::new();
        let requests: Vec<Tpl> = env.stream.by_ref().take(ANALYTIC_TRACED).collect();
        // Root spans back to back, as the window ran them; then the ladder,
        // whose executions would otherwise leave each next request a cold
        // processor cache. Nothing writes, so the state is the same.
        let mut roots = Vec::new();
        for (req, tpl) in requests.iter().enumerate() {
            let step = analytic_request(&mut env.db, &env.mirror, tpl);
            attempted += 1;
            failed += !step.ok as u64;
            roots.push(traced.tracer.record(req as u64, "db-query", "", step.at));
        }
        for (req, (tpl, root_ns)) in requests.iter().zip(roots).enumerate() {
            let climb = ladder.climb(
                &env.db,
                &mut traced.tracer,
                req as u64,
                "db-query",
                &tpl.text(),
            )?;
            traced.book(root_ns, None, false, climb);
        }
        traced.fill(&mut report);
        fill_trace_overhead(&mut report, &traced);
        // The same requests on a second, identical database with telemetry
        // and the flight recorder on.
        let mut twin = analytic_setup(observed(analytic_options()), cfg.seed)?;
        let observed_ns = requests
            .iter()
            .map(|tpl| {
                let step = analytic_request(&mut twin.db, &twin.mirror, tpl);
                failed += !step.ok as u64;
                step.at.elapsed.as_nanos() as f64
            })
            .collect();
        attempted += requests.len() as u64;
        on_cost_share(&mut report, &traced, observed_ns);
        tracer = Some(traced.tracer);
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// session_hot
// ---------------------------------------------------------------------------

const HOT_CLIENTS: usize = 2;

struct Hot {
    db: Database,
    texts: Vec<String>,
    answers: Vec<Answer>,
}

/// Sends hot-set text `rank` and checks the reply against the mirror's
/// precomputed answer (the workload never writes, so it cannot go stale).
/// Counts replies admitted on a snapshot; says whether this one was cached.
fn hot_request(session: &mut Session, env: &Hot, rank: usize, snapshots: &mut u64) -> (Step, bool) {
    let (reply, at) = timed(|| session.query(&env.texts[rank]));
    let Ok(reply) = reply else {
        return (Step::query(at, false), false);
    };
    *snapshots += matches!(reply.admitted, Some(Admitted::Concurrent { .. })) as u64;
    let ok = env.answers[rank].matches(&reply.value);
    (Step::query(at, ok), reply.cached)
}

fn hot_setup(options: DbOptions, seed: u64) -> Result<Hot, String> {
    let hot = hot_set(seed);
    let texts: Vec<String> = hot.iter().map(Tpl::text).collect();
    spec_check(&options, &texts, seed)?;
    let (db, mirror) = open(options, FULL, seed)?;
    let answers = hot
        .iter()
        .map(|t| t.answer(&mirror.persons, &mirror.emps))
        .collect();
    let env = Hot { db, texts, answers };
    let mut session = env.db.session("warm-up");
    for rank in 0..env.texts.len() {
        if !hot_request(&mut session, &env, rank, &mut 0).0.ok {
            return Err(format!(
                "warm-up: wrong or failed reply to {}",
                env.texts[rank]
            ));
        }
    }
    Ok(env)
}

pub fn session_hot(cfg: &RunConfig) -> Result<Outcome, String> {
    let (env, setup_s) = repeated_setup(|_| hot_setup(bench_options(), cfg.seed), drop)?;
    let mut report = Report::default();

    let before = Counters::of(&env.db);
    let clock = Clock::new(cfg.seconds);
    let sessions = (0..HOT_CLIENTS).map(|c| env.db.session(format!("hot-{c}")));
    let loops: Vec<(Window<LogHistogram>, u64)> = on_threads(sessions, |client, mut session| {
        let mut stream = ZipfStream::new(cfg.seed, client as u64, env.texts.len());
        let mut snapshots = 0;
        let run = closed_loop(&clock, || {
            hot_request(&mut session, &env, stream.next_rank(), &mut snapshots).0
        });
        (run, snapshots)
    });
    let (runs, snapshots): (Vec<_>, Vec<u64>) = loops.into_iter().unzip();
    let mut window = Window::merged(runs);
    let (mut attempted, mut failed) = (window.attempted, window.failed);
    fill_end_to_end(&mut report, &clock, &mut window, setup_s)?;
    fill_counters(&mut report, &env.db, &before, 0);
    report.set(
        "core.sched.snapshot_share",
        snapshots.iter().sum::<u64>() as f64 / attempted.max(1) as f64,
    );

    let mut tracer = None;
    if cfg.traced {
        let ladder = Ladder::new(&env.db)?;
        let mut traced = TracedPass::new();
        let mut stream = ZipfStream::new(cfg.seed, HOT_CLIENTS as u64, env.texts.len());
        let ranks: Vec<usize> = (0..HOT_TRACED).map(|_| stream.next_rank()).collect();
        let mut session = env.db.session("traced");
        // Root spans first, the ladder after — see `embedded_analytic`.
        let mut roots = Vec::new();
        for (req, &rank) in ranks.iter().enumerate() {
            let (step, cached) = hot_request(&mut session, &env, rank, &mut 0);
            attempted += 1;
            failed += !step.ok as u64;
            let root_ns = traced
                .tracer
                .record(req as u64, "session-query", "", step.at);
            roots.push((root_ns, cached));
        }
        for (req, (&rank, (root_ns, cached))) in ranks.iter().zip(roots).enumerate() {
            let climb = ladder.climb(
                &env.db,
                &mut traced.tracer,
                req as u64,
                "session-query",
                &env.texts[rank],
            )?;
            traced.book(root_ns, None, cached, climb);
        }
        traced.fill(&mut report);
        fill_trace_overhead(&mut report, &traced);
        let twin = hot_setup(observed(bench_options()), cfg.seed)?;
        let mut session = twin.db.session("observed");
        let observed_ns = ranks
            .iter()
            .map(|&rank| {
                let step = hot_request(&mut session, &twin, rank, &mut 0).0;
                failed += !step.ok as u64;
                step.at.elapsed.as_nanos() as f64
            })
            .collect();
        attempted += ranks.len() as u64;
        on_cost_share(&mut report, &traced, observed_ns);
        tracer = Some(traced.tracer);
    }
    Ok(Outcome {
        attempted,
        failed,
        report,
        tracer,
    })
}
