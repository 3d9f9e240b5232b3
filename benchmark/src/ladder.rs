//! The traced pass's spans, and the per-crate ladder: for one request text,
//! the harness re-issues each layer's public entry point against the same
//! state and times it from outside. No crate is edited; span names shadow
//! the flight recorder's, so a later issue can switch the source to
//! in-program spans without renaming a metric.

use crate::data::DEFINE;
use ioql::ast::{DefName, Definition, FnType, Program, Value};
use ioql::effects::{infer_definition, infer_query, Discipline, EffectEnv, MethodEffects};
use ioql::eval::{eval_big, DefEnv, EvalConfig};
use ioql::opt::{OptOptions, Stats};
use ioql::plan::{execute, execute_with_profile, lower_with, CompileVerdict, ParSpec};
use ioql::schema::Schema;
use ioql::store::Store;
use ioql::types::{check_definition, check_query, TypeEnv};
use ioql::{Database, DbOptions, Effect, FirstChooser, Governor, Query};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval of the traced pass. Spans of one request share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    /// The span that caused this one; empty for a request's root span.
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A measured interval.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub started: Instant,
    pub elapsed: Duration,
}

/// Runs `f` and reports when it started and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed();
    (out, Timed { started, elapsed })
}

/// Spans are kept in memory and written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result with the duration in ns.
    pub fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let (out, at) = timed(f);
        (out, self.record(req, name, parent, at))
    }

    /// Books an interval measured elsewhere — a request's own latency clock —
    /// as a span, and returns its duration in ns.
    pub fn record(&mut self, req: u64, name: &'static str, parent: &'static str, at: Timed) -> u64 {
        let start_ns = at.started.saturating_duration_since(self.origin).as_nanos() as u64;
        let ns = at.elapsed.as_nanos() as u64;
        self.spans.push(Span {
            req,
            name,
            parent,
            start_ns,
            end_ns: start_ns + ns,
        });
        ns
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"req\": {}, \"name\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Runs `f` inside a span when tracing, bare (and reporting 0 ns) when not.
fn rung<T>(
    tracer: &mut Option<&mut Tracer>,
    req: u64,
    name: &'static str,
    parent: &'static str,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(tracer) => tracer.span(req, name, parent, f),
        None => (f(), 0),
    }
}

/// What one climb of the ladder measured, in ns and exact counts.
#[derive(Clone, Debug, Default)]
pub struct Climb {
    /// `parse + resolve + typecheck + effect-infer`.
    pub front_ns: u64,
    pub snapshot_ns: u64,
    /// `optimize + lower + execute` — the rungs a cache hit never reaches.
    pub back_ns: u64,
    /// Whether lowering produced a physical plan.
    pub lowered: bool,
    pub rewrites: u64,
    pub vm_nodes: u64,
    pub compile_eligible_nodes: u64,
    /// Rows drawn by the plan's extent scans.
    pub scan_rows: u64,
    pub result_elements: u64,
    /// The elaborated text — what the WAL logs for a mutating query.
    pub elab_text: String,
}

/// The environments the kernel builds per request, rebuilt here from the
/// database's public surface.
pub struct Ladder {
    schema: Schema,
    options: DbOptions,
    method_effects: MethodEffects,
    defs: Vec<Definition>,
    def_types: BTreeMap<DefName, FnType>,
    def_effects: BTreeMap<DefName, (FnType, Effect)>,
    def_env: DefEnv,
}

impl Ladder {
    /// For a database holding the harness's one definition, [`DEFINE`].
    pub fn new(db: &Database) -> Result<Ladder, String> {
        let schema = db.schema().clone();
        let options = db.options();
        let method_effects = ioql::methods::effect_table(&schema);
        let mut ladder = Ladder {
            schema,
            options,
            method_effects,
            defs: Vec::new(),
            def_types: BTreeMap::new(),
            def_effects: BTreeMap::new(),
            def_env: DefEnv::new(),
        };
        for def in ioql::syntax::parse_definitions(DEFINE).map_err(|e| e.to_string())? {
            let resolved = ladder.schema.resolve_def(&def);
            let (elab, fnty) =
                check_definition(&ladder.type_env(), &resolved).map_err(|e| e.to_string())?;
            let (_, eff) =
                infer_definition(&ladder.effect_env(), &elab).map_err(|e| e.to_string())?;
            ladder.def_types.insert(elab.name.clone(), fnty.clone());
            ladder.def_effects.insert(elab.name.clone(), (fnty, eff));
            ladder.def_env.insert(elab.clone());
            ladder.defs.push(elab);
        }
        Ok(ladder)
    }

    fn type_env(&self) -> TypeEnv<'_> {
        let mut env = TypeEnv::with_options(&self.schema, self.options.type_options);
        env.defs = self.def_types.clone();
        env
    }

    fn effect_env(&self) -> EffectEnv<'_> {
        let mut env = EffectEnv::new(&self.schema)
            .with_discipline(Discipline::permissive())
            .with_method_effects(self.method_effects.clone());
        env.defs = self.def_effects.clone();
        env
    }

    fn stats(store: &Store) -> Stats {
        let mut stats = Stats::new();
        for (e, _, members) in store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        stats
    }

    /// The four front-end rungs: parse → resolve → typecheck → effect-infer.
    /// Returns the elaborated query, its effect, and the rungs' total ns
    /// (0 when untraced).
    fn front_end(
        &self,
        mut tracer: Option<&mut Tracer>,
        req: u64,
        parent: &'static str,
        src: &str,
    ) -> Result<(Query, Effect, u64), String> {
        let mut total = 0;
        let (raw, ns) = rung(&mut tracer, req, "parse", parent, || {
            ioql::syntax::parse_query(src)
        });
        let raw = raw.map_err(|e| format!("ladder parse: {e}"))?;
        total += ns;
        let (resolved, ns) = rung(&mut tracer, req, "resolve", parent, || {
            self.schema.resolve_query(&raw)
        });
        total += ns;
        let (checked, ns) = rung(&mut tracer, req, "typecheck", parent, || {
            check_query(&self.type_env(), &resolved)
        });
        let (elab, _) = checked.map_err(|e| format!("ladder typecheck: {e}"))?;
        total += ns;
        let (inferred, ns) = rung(&mut tracer, req, "effect-infer", parent, || {
            infer_query(&self.effect_env(), &elab)
        });
        let (_, effect) = inferred.map_err(|e| format!("ladder effect-infer: {e}"))?;
        Ok((elab, effect, total + ns))
    }

    /// One child span per rung, each re-issued against `db`'s current state;
    /// execution runs on a clone of the store, so a write's text can be
    /// climbed without committing anything.
    pub fn climb(
        &self,
        db: &Database,
        tracer: &mut Tracer,
        req: u64,
        parent: &'static str,
        src: &str,
    ) -> Result<Climb, String> {
        // Each front-end rung runs once untimed first: in the program these
        // layers run right after the previous request's, warm, whereas here
        // the previous climb's execution rung has just emptied the cache.
        self.front_end(None, req, parent, src)?;
        let (elab, effect, front_ns) = self.front_end(Some(tracer), req, parent, src)?;
        let mut c = Climb {
            front_ns,
            elab_text: elab.to_string(),
            ..Climb::default()
        };

        let (mut store, ns) = tracer.span(req, "snapshot-acquire", parent, || db.store().clone());
        c.snapshot_ns = ns;

        let (optimized, ns) = tracer.span(req, "optimize", parent, || {
            let program = Program::new(self.defs.clone(), elab.clone());
            ioql::opt::optimize(
                &self.schema,
                &program,
                Ladder::stats(&store),
                OptOptions::default(),
            )
        });
        c.back_ns += ns;
        let (program, applied) = optimized;
        c.rewrites = applied.len() as u64;
        let elab: Query = program.query;

        let (plan, ns) = tracer.span(req, "lower", parent, || {
            let branch_effect =
                |q: &Query| infer_query(&self.effect_env(), q).ok().map(|(_, eff)| eff);
            let spec = ParSpec {
                parallelism: self.options.parallelism,
                compile: self.options.compile,
                schema: Some(&self.schema),
                branch_effect: Some(&branch_effect),
            };
            lower_with(&elab, &effect, &self.def_env, &Ladder::stats(&store), &spec)
        });
        c.back_ns += ns;

        let governor = Governor::new(self.options.limits);
        let cfg = EvalConfig::new(&self.schema)
            .with_method_mode(self.options.method_mode)
            .with_method_fuel(self.options.method_fuel)
            .with_governor(&governor);
        let max_steps = self.options.max_steps;
        let value = match &plan {
            Some(plan) => {
                c.lowered = true;
                c.compile_eligible_nodes = plan.compiled.len() as u64;
                c.vm_nodes = plan
                    .compiled
                    .values()
                    .filter(|v| matches!(v, CompileVerdict::Vm(_)))
                    .count() as u64;
                // Timed without the profiler, whose per-row clocks would be
                // charged to the rung; a second, untimed run on the same
                // clone counts the rows.
                let (run, ns) = tracer.span(req, "execute", parent, || {
                    execute(
                        plan,
                        &cfg,
                        &self.def_env,
                        &mut store,
                        &mut FirstChooser,
                        max_steps,
                    )
                });
                c.back_ns += ns;
                let result = run.map_err(|e| format!("ladder execute: {e}"))?;
                let (_, profile) = execute_with_profile(
                    plan,
                    &cfg,
                    &self.def_env,
                    &mut store,
                    &mut FirstChooser,
                    max_steps,
                )
                .map_err(|e| format!("ladder profile: {e}"))?;
                c.scan_rows = profile
                    .entries
                    .iter()
                    .filter(|e| e.label.starts_with("ExtentScan"))
                    .map(|e| e.rows)
                    .sum();
                result.value
            }
            None => {
                let (run, ns) = tracer.span(req, "execute-interp", parent, || {
                    eval_big(
                        &cfg,
                        &self.def_env,
                        &mut store,
                        &elab,
                        &mut FirstChooser,
                        max_steps,
                    )
                });
                c.back_ns += ns;
                run.map_err(|e| format!("ladder execute-interp: {e}"))?
                    .value
            }
        };
        c.result_elements = match &value {
            Value::Set(s) => s.len() as u64,
            _ => 1,
        };
        Ok(c)
    }
}
