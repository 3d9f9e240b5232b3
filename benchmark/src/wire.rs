//! The two wire workloads: `wire_point` (unique-key probes) and
//! `wire_mixed_durable` (reads racing fsynced writes, checkpoints, then
//! recovery). Both drive an in-process `Database::serve` with two
//! `ioql::Client` TCP connections, one thread each.

use crate::data::{bench_options, populate, spec_check, Mirror, DDL, FULL};
use crate::harness::{
    closed_loop, dir_bytes, fill_counters, fill_end_to_end, fill_trace_overhead, on_threads,
    repeated_setup, Clock, Counters, Outcome, RunConfig, Step, TracedPass, Window,
};
use crate::ladder::{timed, Ladder, Timed};
use crate::metrics::Report;
use crate::query::{fresh_name, mixed_reads, written_age, PointStream, Tpl, ZipfStream};
use crate::stats::median;
use ioql::store::{Wal, WalPayload};
use ioql::{Admitted, Client, Database, DbOptions, Durability, Frame, ServerHandle, Session};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLIENTS: usize = 2;
const TRACED: usize = 64;
const POINT_WARMUP: usize = 32;
/// Every 8th request of a `wire_mixed_durable` client is a write.
const WRITE_EVERY: u64 = 8;
/// Client 0 of `wire_mixed_durable` checkpoints after this many requests:
/// at ~11 requests a second per client, every 4.5 s or so, so a window sees
/// background work complete several cycles.
const CHECKPOINT_EVERY: u64 = 50;
/// Writer lanes beyond the window's two clients (see [`fresh_name`]).
const TRACED_WIRE_LANE: i64 = 2;
const TRACED_SESSION_LANE: i64 = 3;

/// Sends one line; `None` when the connection failed.
fn send(client: &mut Client, line: &str) -> (Option<Frame>, Timed) {
    timed(|| client.request(line).ok())
}

/// What the status lines of a window's query replies said.
#[derive(Default)]
struct WireTally {
    replies: u64,
    snapshot: u64,
    bytes: u64,
}

impl WireTally {
    fn see(&mut self, frame: &Frame) {
        self.replies += 1;
        self.snapshot += (frame.field("mode") == Some("snapshot")) as u64;
        // Status line, payload lines and the terminating `.`, each with its
        // newline.
        self.bytes += (frame.status.len() + 1) as u64
            + frame.lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>()
            + 2;
    }

    fn add(&mut self, other: &WireTally) {
        self.replies += other.replies;
        self.snapshot += other.snapshot;
        self.bytes += other.bytes;
    }

    fn sum<'a>(tallies: impl IntoIterator<Item = &'a WireTally>) -> WireTally {
        let mut all = WireTally::default();
        tallies.into_iter().for_each(|t| all.add(t));
        all
    }

    fn fill(&self, report: &mut Report) {
        let replies = self.replies.max(1) as f64;
        report.set("core.sched.snapshot_share", self.snapshot as f64 / replies);
        report.set("core.server.reply_bytes", self.bytes as f64 / replies);
    }
}

fn was_cached(frame: &Frame) -> bool {
    frame.field("cached") == Some("true")
}

fn stamp(frame: &Frame) -> Option<u64> {
    frame.field("seq")?.parse().ok()
}

/// The value line of an `ok` query reply.
fn value_line(frame: &Frame) -> Option<&str> {
    if frame.is_ok() {
        frame.lines.first().map(String::as_str)
    } else {
        None
    }
}

/// The two sessions the traced pass re-issues a wire request through: one
/// that probes the cache (for a request the server answered from it) and one
/// that cannot (for a request the server executed), so the in-process call
/// takes the path the wire call took.
struct PathSessions {
    hit: Session,
    miss: Session,
}

impl PathSessions {
    fn new(db: &Database) -> PathSessions {
        let mut miss = db.session("traced-miss");
        miss.set_options(DbOptions {
            cache_capacity: 0,
            ..db.options()
        });
        PathSessions {
            hit: db.session("traced-hit"),
            miss,
        }
    }

    fn pick(&mut self, cached: bool) -> &mut Session {
        if cached {
            &mut self.hit
        } else {
            &mut self.miss
        }
    }
}

// ---------------------------------------------------------------------------
// wire_point
// ---------------------------------------------------------------------------

struct Point {
    db: Database,
    server: ServerHandle,
    clients: Vec<Client>,
    mirror: Mirror,
}

/// Sends one probe and checks its one-line reply against the mirror.
fn point_request(
    client: &mut Client,
    mirror: &Mirror,
    tpl: &Tpl,
    tally: &mut WireTally,
) -> (Step, bool) {
    let (frame, at) = send(client, &tpl.text());
    let want = tpl.answer(&mirror.persons, &mirror.emps).render();
    let ok = frame.as_ref().and_then(value_line) == Some(want.as_str());
    if let Some(frame) = &frame {
        tally.see(frame);
    }
    (Step::query(at, ok), frame.as_ref().is_some_and(was_cached))
}

fn connect(server: &ServerHandle) -> Result<Vec<Client>, String> {
    (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect()
}

fn point_setup(seed: u64) -> Result<Point, String> {
    let sample: Vec<String> = PointStream::new(seed, 0)
        .take(8)
        .map(|t| t.text())
        .collect();
    spec_check(&bench_options(), &sample, seed)?;
    let (db, mirror) = crate::data::open(bench_options(), FULL, seed)?;
    let server = db.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let mut clients = connect(&server)?;
    let warm = on_threads(&mut clients, |c, client| {
        PointStream::new(seed, 100 + c as u64)
            .take(POINT_WARMUP / CLIENTS)
            .all(|tpl| {
                point_request(client, &mirror, &tpl, &mut WireTally::default())
                    .0
                    .ok
            })
    });
    if warm.contains(&false) {
        return Err("warm-up: a probe failed or returned the wrong answer".into());
    }
    Ok(Point {
        db,
        server,
        clients,
        mirror,
    })
}

fn point_teardown(env: Point) {
    let Point {
        clients,
        mut server,
        ..
    } = env;
    // Connection threads end when their client hangs up.
    drop(clients);
    server.shutdown();
}

pub fn wire_point(cfg: &RunConfig) -> Result<Outcome, String> {
    let (mut env, setup_s) = repeated_setup(|_| point_setup(cfg.seed), point_teardown)?;
    let mut report = Report::default();

    let before = Counters::of(&env.db);
    let clock = Clock::new(cfg.seconds);
    let mirror = &env.mirror;
    let loops: Vec<(Window<Vec<u64>>, WireTally)> = on_threads(&mut env.clients, |c, client| {
        let mut stream = PointStream::new(cfg.seed, c as u64);
        let mut tally = WireTally::default();
        let run = closed_loop(&clock, || {
            let tpl = stream.next().expect("endless stream");
            point_request(client, mirror, &tpl, &mut tally).0
        });
        (run, tally)
    });
    let (runs, tallies): (Vec<_>, Vec<_>) = loops.into_iter().unzip();
    let mut window = Window::merged(runs);
    let (mut attempted, mut failed) = (window.attempted, window.failed);
    fill_end_to_end(&mut report, &clock, &mut window, setup_s)?;
    WireTally::sum(&tallies).fill(&mut report);
    fill_counters(&mut report, &env.db, &before, 0);

    let mut tracer = None;
    if cfg.traced {
        let ladder = Ladder::new(&env.db)?;
        let mut traced = TracedPass::new();
        let mut sessions = PathSessions::new(&env.db);
        let client = &mut env.clients[0];
        for (req, tpl) in PointStream::new(cfg.seed, CLIENTS as u64)
            .take(TRACED)
            .enumerate()
        {
            let req = req as u64;
            let text = tpl.text();
            let (step, cached) =
                point_request(client, &env.mirror, &tpl, &mut WireTally::default());
            let root_ns = traced.tracer.record(req, "wire-request", "", step.at);
            let session = sessions.pick(cached);
            let (reply, session_ns) =
                traced
                    .tracer
                    .span(req, "session-query", "wire-request", || {
                        session.query(&text)
                    });
            let same = reply.is_ok_and(|r| {
                tpl.answer(&env.mirror.persons, &env.mirror.emps)
                    .matches(&r.value)
            });
            attempted += 2;
            failed += !step.ok as u64 + !same as u64;
            let climb = ladder.climb(&env.db, &mut traced.tracer, req, "wire-request", &text)?;
            traced.book(root_ns, Some(session_ns), cached, climb);
        }
        traced.fill(&mut report);
        fill_trace_overhead(&mut report, &traced);
        tracer = Some(traced.tracer);
    }
    point_teardown(env);
    Ok(Outcome {
        attempted,
        failed,
        report,
        tracer,
    })
}

// ---------------------------------------------------------------------------
// wire_mixed_durable
// ---------------------------------------------------------------------------

fn mixed_options() -> DbOptions {
    DbOptions {
        // The stated exception: every commit is fsynced before it is acked.
        durability: Durability::Commit,
        ..bench_options()
    }
}

struct Mixed {
    db: Database,
    server: ServerHandle,
    clients: Vec<Client>,
    mirror: Mirror,
    dir: PathBuf,
    reads: Vec<Tpl>,
    texts: Vec<String>,
    /// The reply line of each read over `Employees`, which no write changes;
    /// `None` for reads over `Persons`, checked against their stamp later.
    fixed_lines: Vec<Option<String>>,
    /// The commit stamp when the window opens.
    s0: u64,
}

/// An acknowledged write and its place in the kernel's commit order.
struct Ack {
    commit_seq: u64,
    /// The `Person.name` the write created.
    name: i64,
}

/// A read over `Persons`, to be checked against the state at its stamp
/// once every commit's position is known.
struct StampedRead {
    rank: usize,
    stamp: u64,
    line: String,
}

#[derive(Default)]
struct MixedLog {
    tally: WireTally,
    acks: Vec<Ack>,
    reads: Vec<StampedRead>,
    write_ns: Vec<f64>,
    checkpoint_ns: Vec<f64>,
}

impl Mixed {
    fn read(&self, client: &mut Client, rank: usize, log: &mut MixedLog) -> (Step, bool) {
        let (frame, at) = send(client, &self.texts[rank]);
        let mut ok = false;
        let mut cached = false;
        if let Some(frame) = &frame {
            log.tally.see(frame);
            cached = was_cached(frame);
            if let (Some(line), Some(stamp)) = (value_line(frame), stamp(frame)) {
                ok = frame.field("mode") == Some("snapshot");
                match &self.fixed_lines[rank] {
                    Some(want) => ok &= want == line,
                    None => log.reads.push(StampedRead {
                        rank,
                        stamp,
                        line: line.to_string(),
                    }),
                }
            }
        }
        (Step::query(at, ok), cached)
    }

    fn write(&self, client: &mut Client, name: i64, log: &mut MixedLog) -> Step {
        let (frame, at) = send(client, &Tpl::Write(name).text());
        let mut ok = false;
        if let Some(frame) = &frame {
            log.tally.see(frame);
            if let (Some("1"), Some(commit_seq)) = (value_line(frame), stamp(frame)) {
                ok = frame.field("mode") == Some("serialized");
                log.acks.push(Ack { commit_seq, name });
                log.write_ns.push(at.elapsed.as_nanos() as f64);
            }
        }
        Step::query(at, ok)
    }

    fn checkpoint(&self, client: &mut Client, log: &mut MixedLog) -> Step {
        let (frame, at) = send(client, ":checkpoint");
        let ok = frame.is_some_and(|f| f.status == "ok checkpointed");
        if ok {
            log.checkpoint_ns.push(at.elapsed.as_nanos() as f64);
        }
        Step::admin(at, ok)
    }
}

/// Checks every stamped read against the mirror's state at its stamp: the
/// base population plus the acked writes whose commit position is at or
/// before it. Returns how many disagreed, plus one per hole in the commit
/// order (a commit the harness did not make would put every later stamp in
/// doubt).
fn check_stamped_reads(env: &Mixed, acks: &mut [Ack], reads: &mut [StampedRead]) -> u64 {
    acks.sort_by_key(|a| a.commit_seq);
    reads.sort_by_key(|r| r.stamp);
    let holes = acks
        .iter()
        .zip(env.s0 + 1..)
        .filter(|(a, want)| a.commit_seq != *want)
        .count() as u64;
    if holes > 0 {
        eprintln!(
            "{holes} acked writes are not where the commit order from stamp {} puts them",
            env.s0
        );
    }
    let mut persons = env.mirror.persons.clone();
    let mut applied = 0;
    let mut wrong = 0;
    for read in reads.iter() {
        while applied < acks.len() && acks[applied].commit_seq <= read.stamp {
            let name = acks[applied].name;
            persons.push((name, written_age(name)));
            applied += 1;
        }
        let want = env.reads[read.rank]
            .answer(&persons, &env.mirror.emps)
            .render();
        if want != read.line {
            wrong += 1;
            eprintln!(
                "mismatch at stamp {}: {} returned {}, the mirror says {want}",
                read.stamp, env.texts[read.rank], read.line
            );
        }
    }
    holes + wrong
}

fn mixed_setup(seed: u64, dir: PathBuf) -> Result<Mixed, String> {
    let reads = mixed_reads(seed);
    let texts: Vec<String> = reads.iter().map(Tpl::text).collect();
    let mut spec_texts = texts.clone();
    spec_texts.push(Tpl::Write(fresh_name(0, 0)).text());
    spec_check(&mixed_options(), &spec_texts, seed)?;

    let _ = std::fs::remove_dir_all(&dir);
    let mut db =
        Database::from_ddl_with(DDL, mixed_options()).map_err(|e| format!("schema: {e}"))?;
    db.attach_durable(&dir)
        .map_err(|e| format!("attach_durable: {e}"))?;
    let mirror = populate(&mut db, FULL, seed)?;
    let fixed_lines = reads
        .iter()
        .map(|t| (!t.reads_persons()).then(|| t.answer(&mirror.persons, &mirror.emps).render()))
        .collect();

    // The stamp arithmetic of the oracle needs a checkpoint to leave the
    // commit stamp alone.
    let seq_of = |db: &Database| -> Result<u64, String> {
        match db
            .session("probe")
            .query("size(Employees)")
            .map(|r| r.admitted)
        {
            Ok(Some(Admitted::Concurrent { snapshot_seq })) => Ok(snapshot_seq),
            other => Err(format!("stamp probe: unexpected {other:?}")),
        }
    };
    let s0 = seq_of(&db)?;
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    if seq_of(&db)? != s0 {
        return Err("a checkpoint advanced the commit stamp".into());
    }

    let server = db.serve("127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    let clients = connect(&server)?;
    let mut env = Mixed {
        db,
        server,
        clients,
        mirror,
        dir,
        reads,
        texts,
        fixed_lines,
        s0,
    };
    // Warm-up: one pass over the hot set, half per client.
    let mut clients = std::mem::take(&mut env.clients);
    let mut logs: Vec<MixedLog> = on_threads(&mut clients, |c, client| {
        let mut log = MixedLog::default();
        let share = env.texts.len() / CLIENTS;
        let ok = (c * share..(c + 1) * share).all(|rank| env.read(client, rank, &mut log).0.ok);
        ok.then_some(log)
    })
    .into_iter()
    .collect::<Option<_>>()
    .ok_or("warm-up: a read failed or returned the wrong answer")?;
    env.clients = clients;
    let mut warm_reads: Vec<StampedRead> =
        logs.iter_mut().flat_map(|l| l.reads.drain(..)).collect();
    if check_stamped_reads(&env, &mut [], &mut warm_reads) != 0 {
        return Err("warm-up: a read over Persons returned the wrong answer".into());
    }
    Ok(env)
}

fn mixed_teardown(env: Mixed) -> PathBuf {
    let Mixed {
        clients,
        mut server,
        dir,
        ..
    } = env;
    drop(clients);
    server.shutdown();
    dir
}

/// Reopens `dir` in a fresh database, times the recovery, and counts the
/// acked `Person.name`s that are not there exactly once.
fn recover(dir: &Path, mirror: &Mirror, acks: &[Ack], report: &mut Report) -> Result<u64, String> {
    let mut db =
        Database::from_ddl_with(DDL, mixed_options()).map_err(|e| format!("schema: {e}"))?;
    let started = Instant::now();
    let recovery = db
        .attach_durable(dir)
        .map_err(|e| format!("recovery: {e}"))?;
    report.set(
        "core.durable.recovery_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    report.set(
        "core.durable.replayed",
        (recovery.replayed_queries + recovery.replayed_defs) as f64,
    );
    let want: BTreeSet<i64> = mirror
        .persons
        .iter()
        .map(|(name, _)| *name)
        .chain(acks.iter().map(|a| a.name))
        .collect();
    let got = db
        .query("{ p.name | p <- Persons }")
        .map_err(|e| format!("recovery check: {e}"))?
        .value;
    let got: BTreeSet<i64> = match got {
        ioql::Value::Set(items) => items
            .into_iter()
            .filter_map(|v| match v {
                ioql::Value::Int(n) => Some(n),
                _ => None,
            })
            .collect(),
        _ => BTreeSet::new(),
    };
    // Missing names, then names present more than once or never acked.
    let missing = want.difference(&got).count();
    let surplus = db.extent_len("Persons").abs_diff(want.len());
    let employees_off = db.extent_len("Employees").abs_diff(mirror.emps.len());
    if missing + surplus + employees_off > 0 {
        eprintln!(
            "after recovery: {missing} acked names missing, Persons off by {surplus}, Employees off by {employees_off}"
        );
    }
    Ok((missing + surplus + employees_off) as u64)
}

pub fn wire_mixed_durable(cfg: &RunConfig) -> Result<Outcome, String> {
    let (mut env, setup_s) = repeated_setup(
        |round| mixed_setup(cfg.seed, cfg.scratch(&format!("durable-{round}"))),
        |env| {
            let _ = std::fs::remove_dir_all(mixed_teardown(env));
        },
    )?;
    let mut report = Report::default();

    let before = Counters::of(&env.db);
    let clock = Clock::new(cfg.seconds);
    let mut clients = std::mem::take(&mut env.clients);
    let loops: Vec<(Window<Vec<u64>>, MixedLog)> = on_threads(&mut clients, |c, client| {
        let mut stream = ZipfStream::new(cfg.seed, c as u64, env.texts.len());
        let mut log = MixedLog::default();
        let (mut sent, mut written, mut since_checkpoint) = (0u64, 0i64, 0u64);
        let run = closed_loop(&clock, || {
            if c == 0 && since_checkpoint == CHECKPOINT_EVERY {
                since_checkpoint = 0;
                return env.checkpoint(client, &mut log);
            }
            sent += 1;
            since_checkpoint += 1;
            if sent % WRITE_EVERY == 0 {
                let name = fresh_name(c as i64, written);
                written += 1;
                env.write(client, name, &mut log)
            } else {
                env.read(client, stream.next_rank(), &mut log).0
            }
        });
        (run, log)
    });
    env.clients = clients;
    let (runs, logs): (Vec<_>, Vec<_>) = loops.into_iter().unzip();
    let mut window = Window::merged(runs);
    let (mut attempted, mut failed) = (window.attempted, window.failed);
    fill_end_to_end(&mut report, &clock, &mut window, setup_s)?;
    let mut log = MixedLog::default();
    for l in logs {
        log.tally.add(&l.tally);
        log.acks.extend(l.acks);
        log.reads.extend(l.reads);
        log.write_ns.extend(l.write_ns);
        log.checkpoint_ns.extend(l.checkpoint_ns);
    }
    log.tally.fill(&mut report);
    fill_counters(&mut report, &env.db, &before, log.acks.len() as u64);
    report.set_opt("write_p50_ms", median(&mut log.write_ns).map(|ns| ns / 1e6));

    let mut tracer = None;
    if cfg.traced {
        let ladder = Ladder::new(&env.db)?;
        let mut traced = TracedPass::new();
        let mut sessions = PathSessions::new(&env.db);
        let mut clients = std::mem::take(&mut env.clients);
        let client = &mut clients[0];
        // A checkpoint first, so the pass always times one and recovery
        // replays exactly the pass's own commits.
        attempted += 1;
        failed += !env.checkpoint(client, &mut log).ok as u64;
        let bytes_before = dir_bytes(&env.dir);
        let acks_before = log.acks.len();
        let mut stream = ZipfStream::new(cfg.seed, CLIENTS as u64, env.texts.len());
        let mut payloads = Vec::new();
        for req in 0..TRACED as u64 {
            let written = (req / WRITE_EVERY) as i64;
            // The rank of the read to send; `None` when it is a write's turn.
            let rank = ((req + 1) % WRITE_EVERY != 0).then(|| stream.next_rank());
            let (text, step, cached) = match rank {
                Some(rank) => {
                    let (step, cached) = env.read(client, rank, &mut log);
                    (env.texts[rank].clone(), step, cached)
                }
                None => {
                    let name = fresh_name(TRACED_WIRE_LANE, written);
                    let step = env.write(client, name, &mut log);
                    (Tpl::Write(name).text(), step, false)
                }
            };
            let root_ns = traced.tracer.record(req, "wire-request", "", step.at);
            // The same request in-process. A write commits again, so it gets
            // a fresh name of its own and is booked as one more acked write.
            let session = sessions.pick(cached);
            let session_name = fresh_name(TRACED_SESSION_LANE, written);
            let session_text = match rank {
                Some(_) => text.clone(),
                None => Tpl::Write(session_name).text(),
            };
            let (reply, session_ns) =
                traced
                    .tracer
                    .span(req, "session-query", "wire-request", || {
                        session.query(&session_text)
                    });
            let same = match (rank, reply.map(|r| (r.admitted, r.value))) {
                (None, Ok((Some(Admitted::Serialized { commit_seq, .. }), value))) => {
                    log.acks.push(Ack {
                        commit_seq,
                        name: session_name,
                    });
                    value == ioql::Value::Int(1)
                }
                (Some(rank), Ok((Some(Admitted::Concurrent { snapshot_seq }), value))) => {
                    let line = value.to_string();
                    match &env.fixed_lines[rank] {
                        Some(want) => *want == line,
                        None => {
                            log.reads.push(StampedRead {
                                rank,
                                stamp: snapshot_seq,
                                line,
                            });
                            true
                        }
                    }
                }
                _ => false,
            };
            attempted += 2;
            failed += !step.ok as u64 + !same as u64;
            let climb = ladder.climb(&env.db, &mut traced.tracer, req, "wire-request", &text)?;
            if rank.is_none() {
                payloads.push(WalPayload::Query {
                    text: climb.elab_text.clone(),
                    draws: vec![0],
                });
            }
            traced.book(root_ns, Some(session_ns), cached, climb);
        }
        env.clients = clients;
        let commits = (log.acks.len() - acks_before).max(1) as f64;
        report.set(
            "store.wal_bytes_per_commit",
            (dir_bytes(&env.dir) - bytes_before) as f64 / commits,
        );
        // The run's own records, appended and fsynced into a scratch log.
        let probe = cfg.scratch("wal-probe");
        std::fs::create_dir_all(&probe).map_err(|e| format!("{}: {e}", probe.display()))?;
        let mut wal = Wal::create(&probe.join("wal-0.log"), 0, Durability::Commit)
            .map_err(|e| format!("scratch WAL: {e}"))?;
        for (req, payload) in payloads.iter().enumerate() {
            let (ack, _) = traced
                .tracer
                .span(req as u64, "wal-append", "", || wal.append(payload));
            ack.map_err(|e| format!("scratch WAL append: {e}"))?;
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&probe);
        traced.fill(&mut report);
        fill_trace_overhead(&mut report, &traced);
        tracer = Some(traced.tracer);
    }

    // Now that every commit's position is known, check the reads that raced
    // them; then shut down, reopen the directory and check what survived.
    failed += check_stamped_reads(&env, &mut log.acks, &mut log.reads);
    report.set_opt(
        "core.durable.checkpoint_ms",
        median(&mut log.checkpoint_ns).map(|ns| ns / 1e6),
    );
    report.set("harness.acked_writes", log.acks.len() as f64);
    let mirror = env.mirror.clone();
    let dir = mixed_teardown(env);
    failed += recover(&dir, &mirror, &log.acks, &mut report)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome {
        attempted,
        failed,
        report,
        tracer,
    })
}
