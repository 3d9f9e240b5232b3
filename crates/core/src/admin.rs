//! The one command surface: every `:` command that reads kernel state,
//! for the REPL and the wire protocol alike.
//!
//! The counters (`:stats`, `:metrics`, `:wal status`), the checkpoint,
//! the flight recorder (`:trace last [n]`, `:trace seq <s>`), the
//! catalogue (`:schema`, `:extents`, `:help`) and the paper's static and
//! dynamic inspections (`:analyze`, `:optimize`, `:plan [analyze]`,
//! `:explore`, `:trace <query>`) are interpreted here, once, under the
//! caller's options and governor: the REPL prints the text, the server
//! frames it. Only what needs the local process (`:save`, `:load`,
//! `:serve`, `:obs`, `:quit`) stays in the shell.
//!
//! An inspection takes no admission stamp: it runs on a copy-on-write
//! clone of the state taken under the read lock, so it neither waits for
//! nor delays a writer, and nothing it does reaches the shared store.

use crate::analysis::Analysis;
use crate::database::DbOptions;
use crate::error::DbError;
use crate::kernel::{DbKernel, KernelState, Prepared};
use ioql_ast::{Query, Value};
use ioql_eval::{Exploration, FirstChooser, Governor, Trace};
use ioql_opt::AppliedRewrite;
use ioql_telemetry::{Span, Tracer};
use std::fmt::Write as _;

/// The command list `:help` prints — on the wire too — and the shell's
/// `--help` after its usage line.
pub const HELP: &str = "\
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

/// What every flight-recorder surface answers when there is no recorder.
pub(crate) const RECORDER_OFF: &str = "flight recorder off (trace_capacity is 0)";

/// What `:plan` says on the spec engine, the one handle with no plan.
const SPEC_RUNS_AS_WRITTEN: &str =
    "no physical plan — the interpreter engine (SmallStep) runs this query as written\n";

/// The most runs `:explore` enumerates: the outcome tree is exponential
/// in the draws.
const EXPLORE_RUNS: usize = 20_000;

/// The most steps `:trace <query>` records (fewer when the handle's
/// `max_steps` is lower).
const TRACE_STEPS: u64 = 1_000;

/// The characters of each `:trace` state kept, before the `…` that marks
/// a cut.
const TRACE_WIDTH: usize = 100;

impl DbKernel {
    /// Runs the `:` command `line` under `opts`, metered by `governor`
    /// as the caller's query would be. A command answers `(tag, text)`:
    /// a one-word tag (the wire status is `ok <tag>`) and the text both
    /// front ends show. A line that names no command here — a query, a
    /// shell-only command, a command without its argument — is an error.
    ///
    /// A governor trip during `:plan analyze` or `:explore` is this
    /// call's error. During `:trace <query>` it is the trace's result,
    /// rendered as its last line: the call succeeds, so the caller's
    /// handle counts no trip, though `governor` keeps what was charged.
    pub fn admin(
        &self,
        opts: &DbOptions,
        governor: &Governor,
        line: &str,
    ) -> Result<(String, String), DbError> {
        let (name, arg) = line.split_once(' ').unwrap_or((line, ""));
        let text = match (name, arg) {
            (":help", "") => format!("{HELP}\n"),
            (":stats", "") => self.stats(),
            (":metrics", "") => self.metrics().registry().render_prometheus(),
            (":wal", "status") => match self.wal_status() {
                Some(status) => format!("{status}\n"),
                None => "wal: off (start with --durable <dir> to enable)\n".into(),
            },
            (":checkpoint", "") => {
                self.checkpoint()?;
                return Ok(("checkpointed".into(), "checkpointed.\n".into()));
            }
            (":schema", "") => self.schema_text(),
            (":extents", "") => self.extents_text(),
            (":plan", q) if !q.is_empty() => match q.strip_prefix("analyze ") {
                Some(q) => self.explain(opts, Some(governor), q)?,
                None => self.explain(opts, None, q)?,
            },
            (":analyze", q) if !q.is_empty() => self.analyze(opts, q)?.to_string(),
            (":optimize", q) if !q.is_empty() => {
                let (query, applied) = self.optimize(opts, q)?;
                let mut text = String::new();
                if applied.is_empty() {
                    text.push_str("no rewrites apply\n");
                }
                for r in &applied {
                    let _ = writeln!(text, "{r}");
                }
                let _ = writeln!(text, "result: {query}");
                text
            }
            (":explore", q) if !q.is_empty() => {
                self.explore(opts, governor, q, EXPLORE_RUNS)?.to_string()
            }
            (":trace", q) if !q.is_empty() => {
                let selector = q.trim();
                if selector == "last"
                    || selector.starts_with("last ")
                    || selector.starts_with("seq ")
                {
                    return self.traces(selector);
                }
                self.trace(opts, governor, q)?.render(TRACE_WIDTH)
            }
            _ => {
                let name = line.split_whitespace().next().unwrap_or(line);
                return Err(DbError::Command(format!(
                    "unknown command `{name}` — :help lists the commands"
                )));
            }
        };
        Ok((name[1..].to_string(), text))
    }

    /// The state an inspection reads — a copy-on-write clone, taken under
    /// the read lock and released at once — and `src` prepared against
    /// its catalogue.
    pub(crate) fn inspected(
        &self,
        opts: &DbOptions,
        src: &str,
    ) -> Result<(KernelState, Prepared), DbError> {
        let state = self.read_state().clone();
        let prepared = self.prepare_in(opts, &state.catalogue, src, &mut Tracer::off())?;
        Ok((state, prepared))
    }

    /// `:analyze`: the verdicts read off one derivation under the
    /// permissive discipline, so a `require_deterministic` handle still
    /// gets the `⊢'` diagnosis. A Figure 1 error is still an error.
    pub(crate) fn analyze(&self, opts: &DbOptions, src: &str) -> Result<Analysis, DbError> {
        let mut permissive = opts.clone();
        permissive.require_deterministic = false;
        let (_, prepared) = self.inspected(&permissive, src)?;
        Ok(Analysis::of(&self.schema, prepared))
    }

    /// `:optimize`: the rewritten query and the rewrites applied, with
    /// statistics from the current extent sizes.
    pub(crate) fn optimize(
        &self,
        opts: &DbOptions,
        src: &str,
    ) -> Result<(Query, Vec<AppliedRewrite>), DbError> {
        let (state, prepared) = self.inspected(opts, src)?;
        Ok(self.optimize_in(&state, &prepared))
    }

    /// `:plan`: the plan execution would run — every query has one, except
    /// on the spec engine. With a governor, `:plan analyze`: runs that
    /// plan on the clone under it and the canonical [`FirstChooser`], and
    /// renders per-operator actual rows, calls and inclusive wall time
    /// beside the estimates. A writer's run writes only the clone.
    pub(crate) fn explain(
        &self,
        opts: &DbOptions,
        run: Option<&Governor>,
        src: &str,
    ) -> Result<String, DbError> {
        let (mut state, prepared) = self.inspected(opts, src)?;
        let Some(plan) = self.plan_in(opts, &state, &prepared, &mut Tracer::off()).1 else {
            return Ok(SPEC_RUNS_AS_WRITTEN.to_string());
        };
        let Some(governor) = run else {
            return Ok(plan.render());
        };
        let cfg = self.eval_config(opts).with_governor(governor);
        let (result, profile) = ioql_plan::execute_with_profile(
            &plan,
            &cfg,
            &state.catalogue.env,
            &mut state.store,
            &mut FirstChooser,
            opts.max_steps,
        )?;
        let rows = match &result.value {
            Value::Set(s) => s.len(),
            _ => 1,
        };
        Ok(format!("{}returned {rows} row(s)\n", profile.render()))
    }

    /// `:explore`: every `(ND comp)` order of the query as written, up to
    /// `max_runs` runs, each metered by `governor`. A trip is the
    /// command's error, not one more outcome.
    pub(crate) fn explore(
        &self,
        opts: &DbOptions,
        governor: &Governor,
        src: &str,
        max_runs: usize,
    ) -> Result<Exploration, DbError> {
        let (state, prepared) = self.inspected(opts, src)?;
        let cfg = self.eval_config(opts).with_governor(governor);
        let explored = ioql_eval::explore_outcomes(
            &cfg,
            &state.catalogue.env,
            &state.store,
            &prepared.elab,
            opts.max_steps,
            max_runs,
        );
        match explored.runs.last() {
            Some(Err(e)) if e.is_trip() => Err(e.clone().into()),
            _ => Ok(explored),
        }
    }

    /// `:trace <query>`: the Figure 2 derivation of the query as written,
    /// under `governor` and at most `TRACE_STEPS` steps, each state kept
    /// cut to `TRACE_WIDTH` characters. A trip ends the trace with the
    /// trip in its result.
    pub(crate) fn trace(
        &self,
        opts: &DbOptions,
        governor: &Governor,
        src: &str,
    ) -> Result<Trace, DbError> {
        let (mut state, prepared) = self.inspected(opts, src)?;
        let cfg = self.eval_config(opts).with_governor(governor);
        Ok(ioql_eval::trace_clipped(
            &cfg,
            &state.catalogue.env,
            &mut state.store,
            &prepared.elab,
            &mut FirstChooser,
            opts.max_steps.min(TRACE_STEPS),
            TRACE_WIDTH,
        ))
    }

    /// `:schema`: every class with its attributes and method signatures.
    fn schema_text(&self) -> String {
        let mut out = String::new();
        for cd in self.schema.classes() {
            let _ = writeln!(
                out,
                "class {} extends {} (extent {})",
                cd.name, cd.parent, cd.extent
            );
            for ad in &cd.attrs {
                let _ = writeln!(out, "    attribute {} {};", ad.ty, ad.name);
            }
            for md in &cd.methods {
                let params: Vec<String> =
                    md.params.iter().map(|(x, t)| format!("{t} {x}")).collect();
                let _ = writeln!(out, "    {} {}({});", md.ret, md.name, params.join(", "));
            }
        }
        out
    }

    /// `:extents`: every extent with its class and size.
    fn extents_text(&self) -> String {
        let state = self.read_state();
        let mut out = String::new();
        for (e, c) in self.schema.extents() {
            let n = state.store.extents.members(e).map_or(0, |s| s.len());
            let _ = writeln!(out, "{e} : set({c}) — {n} object(s)");
        }
        out
    }

    /// `:stats`: cache, statement, VM, scheduler and snapshot counters,
    /// then every extent's size and version. The VM, admission and
    /// snapshot counters are the registry's, printed only when it is on:
    /// off, it counts nothing, and a note says so.
    fn stats(&self) -> String {
        let m = self.metrics();
        let kept = m.registry().is_enabled();
        let s = self.cache_stats();
        let mut out = format!(
            "cache: {} hit(s), {} miss(es), {} eviction(s), {} live entr{}\n",
            s.hits,
            s.misses,
            s.evictions,
            s.entries,
            if s.entries == 1 { "y" } else { "ies" }
        );
        let s = self.statement_stats();
        out.push_str(&format!(
            "statements: {} hit(s), {} miss(es), {} eviction(s), {} live\n",
            s.hits, s.misses, s.evictions, s.entries
        ));
        if kept {
            out.push_str(&format!(
                "vm: {} node(s) compiled, {} interpreted, {} row(s) dispatched\n",
                m.vm_compiles.get(),
                m.vm_fallbacks.get(),
                m.eval.dispatches.get()
            ));
        }
        let (commits, inflight, max_inflight, witnesses) = self.sched_snapshot();
        let (admitted, serialized) = (m.sched.admitted.get(), m.sched.serialized.get());
        out.push_str(&format!(
            "sched: {commits} committed writer(s), {inflight} in-flight reader(s), \
             max concurrent {max_inflight}{}\n",
            if kept {
                format!(", admitted {admitted}, serialized {serialized}")
            } else {
                String::new()
            }
        ));
        if !witnesses.is_empty() {
            out.push_str(&format!("recent witnesses: {}\n", witnesses.join(" ")));
        }
        let snapshot = m.span(Span::SnapshotAcquire);
        out.push_str(&if kept {
            format!(
                "snapshot: {} acquire(s) in {} ns, chunks shared {}, copied {}\n",
                snapshot.count(),
                snapshot.sum_ns(),
                m.snapshot_chunks_shared.get(),
                m.snapshot_chunks_copied.get(),
            )
        } else {
            "vm, admission and snapshot counters: not kept (telemetry off)\n".to_string()
        });
        let state = self.read_state();
        for (e, _) in self.schema.extents() {
            out.push_str(&format!(
                "extent {e}: {} object(s), version {}\n",
                state.store.extents.members(e).map_or(0, |s| s.len()),
                state.store.extent_version(e)
            ));
        }
        out
    }

    /// `last [n]` / `seq <s>`: the matching flight-recorder records as
    /// text trees.
    fn traces(&self, selector: &str) -> Result<(String, String), DbError> {
        let recorder = self.recorder();
        let recorder = recorder.ok_or_else(|| DbError::Command(RECORDER_OFF.into()))?;
        let (which, arg) = selector
            .split_once(' ')
            .map_or((selector, "1"), |(w, a)| (w, a.trim()));
        let needs = if which == "seq" { "number" } else { "count" };
        let bad = || DbError::Command(format!(":trace {which} needs a {needs}, got `{arg}`"));
        let n = arg.parse().map_err(|_| bad())?;
        let records = match which {
            "seq" => recorder.by_seq(n).into_iter().collect(),
            _ => recorder.last(n as usize),
        };
        if records.is_empty() {
            return Err(DbError::Command("no matching trace record".into()));
        }
        let trees: Vec<String> = records.iter().map(|r| r.render()).collect();
        Ok((format!("traces count={}", records.len()), trees.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Engine};
    use ioql_eval::{EvalError, Limits, ResourceKind};

    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
        }";

    fn db_with(options: DbOptions, people: usize) -> Database {
        let mut db = Database::from_ddl_with(DDL, options).unwrap();
        let names: Vec<String> = (0..people).map(|n| n.to_string()).collect();
        db.query(&format!(
            "{{ new Person(name: n) | n <- {{{}}} }}",
            names.join(", ")
        ))
        .unwrap();
        db
    }

    fn cells(spent: u64, limit: u64) -> DbError {
        DbError::Eval(EvalError::ResourceExhausted {
            kind: ResourceKind::Cells,
            spent,
            limit,
        })
    }

    /// `explore` and `trace` run under the handle's governor, as a query
    /// does: a cell budget a query trips on ends both.
    #[test]
    fn explore_and_trace_honour_the_handles_limits() {
        let mut db = db_with(DbOptions::default(), 4);
        db.set_options(DbOptions {
            limits: Limits::none().with_max_cells(3),
            ..DbOptions::default()
        });
        let q = "{ p.name + q.name | p <- Persons, q <- Persons }";
        let trip = cells(4, 3);
        assert_eq!(db.query(q).unwrap_err().to_string(), trip.to_string());
        assert_eq!(
            db.explain_analyze(q).unwrap_err().to_string(),
            trip.to_string()
        );
        // A trip is the command's error, not one more explored outcome.
        assert_eq!(db.explore(q, 50).unwrap_err().to_string(), trip.to_string());
        // It ends the trace, with the trip as its result.
        let t = db.trace(q).unwrap();
        assert_eq!(
            t.result,
            Err(EvalError::ResourceExhausted {
                kind: ResourceKind::Cells,
                spent: 4,
                limit: 3,
            })
        );
        assert!(t.steps.len() < 114, "{} steps", t.steps.len());
    }

    /// On the spec engine nothing is lowered: `:plan` says so, naming the
    /// engine, and `:plan analyze` runs no plan.
    #[test]
    fn the_spec_engine_has_no_physical_plan() {
        let spec = DbOptions {
            engine: Engine::SmallStep,
            ..DbOptions::default()
        };
        let mut db = db_with(spec, 3);
        let q = "{ p.name | p <- Persons, p.name = 2 }";
        for shown in [db.explain(q).unwrap(), db.explain_analyze(q).unwrap()] {
            assert!(shown.starts_with("no physical plan"), "{shown}");
            assert!(shown.contains("interpreter engine (SmallStep)"), "{shown}");
            assert!(!shown.contains("Plan"), "{shown}");
        }
    }

    /// A writer's `:plan analyze` runs its plan on the inspection's
    /// copy-on-write clone: the profile counts the rows it created, and
    /// the shared store, its extent versions and later queries see none.
    #[test]
    fn a_writers_plan_analyze_writes_only_the_inspections_clone() {
        let mut db = db_with(DbOptions::default(), 4);
        let persons = ioql_ast::ExtentName::new("Persons");
        let (before, version) = (db.store().clone(), db.store().extent_version(&persons));
        let line = ":plan analyze { new Person(name: n) | n <- {7, 8} }";
        let (tag, text) = db.admin(line).unwrap();
        assert_eq!(tag, "plan");
        let guard = "Plan analyze  [guard: Thm 7 refused: effect not read-only; no index probes]\n";
        assert!(text.starts_with(guard), "{text}");
        assert!(text.ends_with("returned 2 row(s)\n"), "{text}");
        assert!(*db.store() == before);
        assert_eq!(db.store().extent_version(&persons), version);
        assert_eq!(db.query("size(Persons)").unwrap().value, Value::Int(4));
    }

    /// `:trace` is bounded whatever the state: at most `TRACE_STEPS`
    /// steps, each state kept cut to `TRACE_WIDTH` characters plus the
    /// `…` that marks the cut.
    #[test]
    fn a_trace_over_a_large_extent_is_bounded() {
        let mut db = db_with(DbOptions::default(), 2_000);
        let t = db.trace("{ p.name | p <- Persons }").unwrap();
        assert_eq!(t.steps.len() as u64, TRACE_STEPS);
        assert_eq!(t.result, Err(EvalError::FuelExhausted));
        for step in &t.steps {
            assert!(
                step.state.chars().count() <= TRACE_WIDTH + 1,
                "{}",
                step.state
            );
        }
        assert!(t.steps.iter().any(|s| s.state.ends_with('…')));
        let (opts, governor) = (db.options(), db.governor());
        let line = ":trace { p.name | p <- Persons }";
        let (tag, text) = db.kernel().admin(&opts, &governor, line).unwrap();
        assert_eq!((tag.as_str(), text), ("trace", t.render(TRACE_WIDTH)));
    }

    /// With telemetry off the registry counts nothing, so `:stats` prints
    /// none of its counters as zeros: the VM, admission and snapshot
    /// fields are left out and a note says why. With it on, they count.
    #[test]
    fn stats_print_no_counter_the_registry_does_not_keep() {
        let on = DbOptions {
            telemetry: true,
            ..DbOptions::default()
        };
        for (options, kept) in [(DbOptions::default(), false), (on, true)] {
            let mut db = db_with(options, 3);
            for _ in 0..6 {
                db.query("{ p.name + 1 | p <- Persons }").unwrap();
            }
            let (_, text) = db.admin(":stats").unwrap();
            let sched = "sched: 1 committed writer(s), 0 in-flight reader(s), max concurrent 1";
            assert!(text.contains(sched), "{text}");
            for field in ["vm: ", "admitted ", "snapshot: "] {
                assert_eq!(text.contains(field), kept, "{field}: {text}");
            }
            assert_eq!(text.contains("not kept (telemetry off)"), !kept, "{text}");
            if kept {
                assert!(text.contains("admitted 6, serialized 1"), "{text}");
                assert!(text.contains("row(s) dispatched"), "{text}");
            }
        }
    }

    /// Every other `:` line is the one `unknown command` error, shell-only
    /// commands included.
    #[test]
    fn unknown_and_argumentless_commands_are_errors() {
        let db = db_with(DbOptions::default(), 1);
        let (opts, governor) = (db.options(), db.governor());
        for line in [":save x", ":plan", ":explore", ":quit", ":wal"] {
            let name = line.split(' ').next().unwrap();
            let err = db.kernel().admin(&opts, &governor, line).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("unknown command `{name}` — :help lists the commands")
            );
        }
    }
}
