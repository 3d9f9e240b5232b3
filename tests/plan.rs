//! Differential parity for the physical-plan executor (ISSUE 3
//! tentpole): for every workload the plan layer accepts, executing the
//! lowered operator pipeline must be observationally identical to both
//! interpreters — same values and stores (up to oid bijection), same
//! effect traces, same pass/fail verdicts under every chooser (including
//! the fault-injecting [`ChaosChooser`]) and under tight governor
//! budgets, with no resource charges leaking through (or skipped by)
//! any operator.

#![allow(clippy::result_large_err)]

use ioql::plan::{execute, lower, lower_with, ParSpec, Plan};
use ioql::{Database, DbOptions, Engine, Mode};
use ioql_effects::{infer_query, EffectEnv};
use ioql_eval::{
    eval_big, evaluate, Chooser, DefEnv, EvalConfig, EvalError, FirstChooser, Governor,
    LastChooser, Limits, RandomChooser,
};
use ioql_opt::Stats;
use ioql_store::{equiv_outcomes, Outcome};
use ioql_testkit::fixtures::{jack_jill, Fixture};
use ioql_testkit::gen::{GenConfig, QueryGen};
use ioql_testkit::{ChaosChooser, FaultPlan};
use ioql_types::{check_query, TypeEnv};

fn class(e: &EvalError) -> String {
    match e {
        EvalError::Stuck { .. } => "stuck".to_string(),
        EvalError::MethodDiverged { .. } => "diverged".to_string(),
        EvalError::FuelExhausted => "fuel".to_string(),
        EvalError::ResourceExhausted { kind, .. } => format!("resource:{kind}"),
        EvalError::Cancelled => "cancelled".to_string(),
        EvalError::Store(_) => "store".to_string(),
    }
}

/// Lowers `q` with the fixture's real extent statistics, falling back to
/// the probe-friendly defaults (every unknown extent estimated at 1000
/// rows) when `real_stats` is false — so each shape is exercised under
/// both cost-model outcomes.
fn lower_for(fx: &Fixture, q: &ioql_ast::Query, real_stats: bool) -> Option<Plan> {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).ok()?;
    let stats = if real_stats {
        let mut s = Stats::new();
        for (e, _, members) in fx.store.extents.iter() {
            s.set(e.clone(), members.len());
        }
        s
    } else {
        Stats::new()
    };
    lower(q, &eff, &DefEnv::new(), &stats)
}

/// Runs the plan executor and both interpreters with sequence-identical
/// choosers and asserts agreement: values and stores up to oid
/// bijection, effects exactly, error classes on failure.
fn plan_agrees(fx: &Fixture, q: &ioql_ast::Query, plan: &Plan, seed: u64, note: &str) {
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let mk: [fn(u64) -> Box<dyn Chooser>; 4] = [
        |_| Box::new(FirstChooser),
        |_| Box::new(LastChooser),
        |s| Box::new(RandomChooser::seeded(s)),
        |s| Box::new(ChaosChooser::new(s, None)),
    ];
    for (strategy, mk) in mk.iter().enumerate() {
        let mut s1 = fx.store.clone();
        let mut s2 = fx.store.clone();
        let mut s3 = fx.store.clone();
        let p = execute(plan, &cfg, &defs, &mut s1, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        let b = eval_big(&cfg, &defs, &mut s2, q, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        let s = evaluate(&cfg, &defs, &mut s3, q, &mut *mk(seed), 1_000_000)
            .map(|r| (r.value, r.effect));
        match (p, b, s) {
            (Ok((pv, pe)), Ok((bv, be)), Ok((sv, se))) => {
                assert!(
                    equiv_outcomes(
                        &Outcome::new(s1.clone(), pv.clone()),
                        &Outcome::new(s2, bv.clone())
                    ),
                    "{note} strategy {strategy}: plan vs big-step outcome on {q}: {pv} vs {bv}"
                );
                assert!(
                    equiv_outcomes(&Outcome::new(s1, pv), &Outcome::new(s3, sv)),
                    "{note} strategy {strategy}: plan vs small-step outcome on {q}"
                );
                assert_eq!(pe, be, "{note} strategy {strategy}: effect on {q}");
                assert_eq!(
                    pe, se,
                    "{note} strategy {strategy}: effect vs machine on {q}"
                );
            }
            (Err(pe), Err(be), Err(se)) => {
                assert_eq!(class(&pe), class(&be), "{note}: {pe} vs {be} on {q}");
                assert_eq!(class(&pe), class(&se), "{note}: {pe} vs {se} on {q}");
            }
            (p, b, s) => panic!(
                "{note} strategy {strategy}: engines disagree on {q}:\n  \
                 plan={p:?}\n  big={b:?}\n  small={s:?}"
            ),
        }
    }
}

/// Handwritten shapes that exercise every operator: extent scans, bare
/// and attribute equality probes, the cross-generator hash semi-join,
/// set operators over mixed operands, nested comprehension sources, and
/// plain filters.
fn operator_zoo(fx: &Fixture) -> Vec<ioql_ast::Query> {
    let tenv = TypeEnv::new(&fx.schema);
    [
        "{ p | p <- Ps, p.name = 2 }",
        "{ p.name | p <- Ps, p.name = 1 }",
        "{ x | x <- {1, 2, 3}, x = 2 }",
        "{ x | x <- {1, 2, 3}, 2 = x }",
        "{ f.name | f <- Fs, p <- Ps, f.pal == p }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal, p.name = 1 }",
        "Ps union { p | p <- Ps, p.name = 1 }",
        "(Ps union Ps) intersect Ps",
        "{ p.name | p <- Ps } except {1}",
        "{ x + y | x <- { p.name | p <- Ps }, y <- {10, 20} }",
        "{ p | p <- Ps, p.name < 3 }",
        "{ size({ q | q <- Ps, q.name = p.name }) | p <- Ps }",
    ]
    .into_iter()
    .map(|src| check_query(&tenv, &fx.query(src)).unwrap().0)
    .collect()
}

#[test]
fn plan_agrees_on_the_operator_zoo() {
    let fx = jack_jill();
    for (i, q) in operator_zoo(&fx).iter().enumerate() {
        let mut lowered = 0;
        for real_stats in [true, false] {
            if let Some(plan) = lower_for(&fx, q, real_stats) {
                lowered += 1;
                plan_agrees(&fx, q, &plan, 41 + i as u64, &format!("zoo {i}"));
            }
        }
        assert!(lowered > 0, "zoo query {i} ({q}) must lower");
    }
    // The zoo must actually exercise the probe operator, including the
    // cross-generator semi-join, under the default statistics.
    let probes = operator_zoo(&fx)
        .iter()
        .filter_map(|q| lower_for(&fx, q, false))
        .filter(|p| p.render().contains("HashIndexProbe"))
        .count();
    assert!(probes >= 4, "only {probes} zoo plans chose the probe");
}

#[test]
fn plan_agrees_on_generated_queries() {
    // `testkit::gen` workloads: every generated query that passes the
    // Theorem 7 guard must execute identically on the plan layer. The
    // generator's default config includes `new`, so ineligible queries
    // also flow through here and must simply fail to lower.
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let mut lowered = 0usize;
    for seed in 0..250u64 {
        let pure = GenConfig {
            allow_new: seed % 2 == 0,
            ..GenConfig::default()
        };
        let mut g = QueryGen::new(&fx.schema, seed, pure);
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        for real_stats in [true, false] {
            if let Some(plan) = lower_for(&fx, &elab, real_stats) {
                lowered += 1;
                plan_agrees(&fx, &elab, &plan, seed, &format!("gen seed {seed}"));
            }
        }
    }
    assert!(
        lowered >= 40,
        "only {lowered} generated queries lowered — the guard is refusing too much"
    );
}

/// Over generated payroll queries, method invocations included, every
/// query lowers, and agrees with both interpreters: a mutating query too,
/// to a plan that holds no probe.
#[test]
fn mutating_generated_queries_lower_without_probes_and_agree() {
    let fx = ioql_testkit::fixtures::payroll();
    let tenv = TypeEnv::new(&fx.schema);
    let eenv = EffectEnv::new(&fx.schema);
    let cfg = GenConfig {
        allow_invoke: true,
        max_depth: 4,
        ..Default::default()
    };
    let (mut invoking, mut mutating) = (0, 0);
    for seed in 0..150u64 {
        let mut g = QueryGen::new(&fx.schema, seed, cfg);
        let target = g.target_type();
        let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
        let (_, effect) = infer_query(&eenv, &elab).unwrap();
        let readable = effect.is_read_only() && !elab.contains_new();
        for real_stats in [true, false] {
            let plan = lower_for(&fx, &elab, real_stats)
                .unwrap_or_else(|| panic!("seed {seed}: {elab} must lower"));
            if !readable {
                assert!(!has_probe(&plan), "seed {seed}: {}", plan.render());
                mutating += 1;
            }
            plan_agrees(&fx, &elab, &plan, seed, &format!("payroll seed {seed}"));
            invoking += usize::from(elab.contains_invoke());
        }
    }
    assert!(invoking > 0 && mutating > 0, "{invoking} / {mutating}");
}

/// Whether a plan holds a hash-index probe.
fn has_probe(plan: &Plan) -> bool {
    plan.render().contains("HashIndexProbe")
}

/// `lower_with` is total, and plans a probe only where `Thm7::decide`
/// licenses one — whatever the root's shape, with the compile pass on or
/// off, under the probe-friendly default statistics. A refused plan says
/// why on its guard line. Each read below probes, and its writing twin —
/// the same qualifiers under a head that creates — keeps the equality a
/// `Filter`.
#[test]
fn lowering_is_total_and_probes_only_under_theorem_7() {
    const TWINS: [(&str, &str); 3] = [
        (
            "{ p | p <- Ps, p.name = 2 }",
            "{ new F(name: p.name, pal: p) | p <- Ps, p.name = 2 }",
        ),
        (
            "{ f.name | f <- Fs, p <- Ps, f.pal == p }",
            "{ (new F(name: f.name, pal: p)).name | f <- Fs, p <- Ps, f.pal == p }",
        ),
        (
            "{ p.name + q.name | p <- Ps, q <- Ps, q.name = p.name }",
            "{ (new P(name: p.name + q.name)).name | p <- Ps, q <- Ps, q.name = p.name }",
        ),
    ];
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    for (read, write) in TWINS {
        let [read, write] = [read, write].map(|src| {
            let q = check_query(&tenv, &fx.query(src)).unwrap().0;
            lower_for(&fx, &q, false).unwrap()
        });
        assert!(has_probe(&read), "{}", read.render());
        assert!(!has_probe(&write), "{}", write.render());
        assert!(write.render().contains("  Filter  "), "{}", write.render());
    }
    let mut refused = 0;
    for (fx, allow_invoke) in [(jack_jill(), false), (ioql_testkit::payroll(), true)] {
        let tenv = TypeEnv::new(&fx.schema);
        let eenv = EffectEnv::new(&fx.schema);
        let defs = DefEnv::new();
        for seed in 0..200u64 {
            let cfg = GenConfig {
                allow_new: seed % 2 == 0,
                allow_invoke,
                ..GenConfig::default()
            };
            let mut g = QueryGen::new(&fx.schema, seed, cfg);
            let target = g.target_type();
            let (elab, _) = check_query(&tenv, &g.query(&target)).unwrap();
            let (_, effect) = infer_query(&eenv, &elab).unwrap();
            let thm7 = ioql::Thm7::decide(&elab, &effect);
            for compile in [false, true] {
                let spec = ParSpec {
                    compile,
                    ..ParSpec::off()
                };
                let plan = lower_with(&elab, &effect, &defs, &Stats::new(), &spec)
                    .unwrap_or_else(|| panic!("seed {seed}: {elab} must lower"));
                assert_eq!(plan.guard.thm7, thm7, "seed {seed} on {elab}");
                match thm7.refusal() {
                    Some(why) => {
                        assert!(!has_probe(&plan), "seed {seed}: {}", plan.render());
                        let line = format!("Thm 7 refused: {why}; no index probes");
                        assert_eq!(plan.guard.to_string(), line, "seed {seed}");
                    }
                    None => assert!(plan.guard.to_string().ends_with("; new-free")),
                }
            }
            refused += usize::from(!thm7.indexable());
        }
    }
    assert!(refused >= 100, "{refused} refused");
}

/// A store, the definitions in scope and the method design point, as a
/// `Database` judged them: what the invoking-query tests lower and run
/// the executors under.
struct Bed {
    db: Database,
    defs: DefEnv,
    mode: Mode,
}

impl Bed {
    /// `fx`'s schema and store under `mode`, with `defines` registered.
    fn of(fx: &Fixture, mode: Mode, defines: &str) -> Bed {
        let opts = DbOptions {
            method_mode: mode,
            ..DbOptions::default()
        };
        let mut db = Database::from_schema(fx.schema.clone(), opts).unwrap();
        db.install(fx.store.clone()).unwrap();
        Bed::with_defines(db, mode, defines)
    }

    fn with_defines(mut db: Database, mode: Mode, defines: &str) -> Bed {
        if !defines.is_empty() {
            db.define(defines).unwrap();
        }
        let mut defs = DefEnv::new();
        for d in db.definitions() {
            defs.insert(d);
        }
        Bed { db, defs, mode }
    }

    /// The elaborated query and its inferred effect.
    fn judge(&self, src: &str) -> (ioql_ast::Query, ioql_effects::Effect) {
        let prepared = self.db.prepare(src).unwrap();
        ((*prepared.elab).clone(), prepared.effect)
    }

    /// `src` judged and lowered with the compile pass `compile`, under
    /// the store's own statistics or the defaults.
    fn lower(&self, src: &str, compile: bool, real_stats: bool) -> Option<Plan> {
        let (q, effect) = self.judge(src);
        let mut stats = Stats::new();
        if real_stats {
            for (e, _, members) in self.db.store().extents.iter() {
                stats.set(e.clone(), members.len());
            }
        }
        let spec = ParSpec {
            compile,
            ..ParSpec::off()
        };
        lower_with(&q, &effect, &self.defs, &stats, &spec)
    }

    /// One run at the default step budget: the observables, and the store
    /// it leaves.
    fn run(
        &self,
        exec: &Exec<'_>,
        mk: fn() -> Box<dyn Chooser>,
        limits: Limits,
        method_fuel: u64,
    ) -> (Observed, ioql_store::Store) {
        let cfg = EvalConfig::new(self.db.schema())
            .with_method_mode(self.mode)
            .with_method_fuel(method_fuel);
        let store = self.db.store();
        observe_in(cfg, &self.defs, &store, exec, mk, limits, 10_000_000)
    }

    /// Asserts that every text in `zoo` lowers — with the compile pass on
    /// and off, under real and default statistics — and that each plan
    /// equals big-step on value, store, effect, exact error, cells and
    /// draws under four choosers, four cell budgets and three method
    /// fuels, while big-step's value and effect equal the small-step
    /// machine's, and a read leaves the store as it found it. Returns how
    /// many unlimited runs answered and how many failed, so a zoo that
    /// never answers, or never diverges, shows.
    fn plans_agree(&self, zoo: &[&str]) -> (usize, usize) {
        let mks: [fn() -> Box<dyn Chooser>; 4] = [
            || Box::new(FirstChooser),
            || Box::new(LastChooser),
            || Box::new(RandomChooser::seeded(0x1A7)),
            || Box::new(ChaosChooser::new(0x1A7, None)),
        ];
        let (mut answered, mut failed) = (0, 0);
        for src in zoo {
            let (q, effect) = self.judge(src);
            let mut plans = Vec::new();
            for compile in [false, true] {
                for real_stats in [true, false] {
                    let plan = self.lower(src, compile, real_stats);
                    plans.push(plan.unwrap_or_else(|| panic!("{src} must lower")));
                }
            }
            for mk in mks {
                for method_fuel in [1, 40, 5_000] {
                    let (want, want_store) =
                        self.run(&Exec::BigStep(&q), mk, Limits::none(), method_fuel);
                    let (spec, _) = self.run(&Exec::SmallStep(&q), mk, Limits::none(), method_fuel);
                    match (&want.0, &spec.0) {
                        (Ok(b), Ok(s)) => assert_eq!(b, s, "{src}: big-step vs machine"),
                        (Err(b), Err(s)) => {
                            assert_eq!(class(b), class(s), "{src}: {b} vs machine {s}")
                        }
                        (b, s) => panic!("{src}: big-step {b:?} vs machine {s:?}"),
                    }
                    answered += usize::from(want.0.is_ok());
                    failed += usize::from(want.0.is_err());
                    for cap in [None, Some(0), Some(1), Some(want.1 / 2)] {
                        let limits =
                            cap.map_or(Limits::none(), |c| Limits::none().with_max_cells(c));
                        let want = self.run(&Exec::BigStep(&q), mk, limits, method_fuel);
                        for plan in &plans {
                            let got = self.run(&Exec::Plan(plan), mk, limits, method_fuel);
                            assert_eq!(
                                got, want,
                                "{src}: plan vs big-step, cells {cap:?}, method fuel {method_fuel}"
                            );
                        }
                    }
                    if effect.is_read_only() {
                        assert_eq!(want_store, *self.db.store(), "{src}: a read wrote");
                    }
                }
            }
        }
        (answered, failed)
    }
}

/// Invocations on the plan, over the divergent `P.loop()`: in the head,
/// in a filter, after a probe (hit and missed), in a semi-join, in
/// either union branch and on a path receiver.
const LOOP_ZOO: [&str; 8] = [
    "{ p.loop() | p <- Ps }",
    "{ p.name | p <- Ps, p.loop() = 0 }",
    "{ p.name | p <- Ps, p.name = 3, p.loop() = 0 }",
    "{ p.name | p <- Ps, p.name = 5, p.loop() = 0 }",
    "{ f.name + p.loop() | f <- Fs, p <- Ps, p == f.pal }",
    "{ p.loop() | p <- Ps, p.name = 3 } union { p.name | p <- Ps }",
    "{ p.name | p <- Ps, p.name < 2 } union { p.loop() | p <- Ps, p.name = 6 }",
    "{ if f.name = 2 then f.pal.loop() else f.name | f <- Fs }",
];

/// …and over the terminating `NetSalary`, which runs out of method fuel
/// at the smallest budget: the same places, plus an aggregate and a
/// probe-shaped equality whose probe side invokes (it stays a filter).
const PAYROLL_ZOO: [&str; 8] = [
    "{ e.NetSalary(10) | e <- Employees }",
    "{ e.name | e <- Employees, 500000 < e.NetSalary(10) }",
    "{ e.name | e <- Employees, e.EmpID = 2, e.NetSalary(e.EmpID) < 1000000 }",
    "{ e.UniqueManager.NetSalary(5) | e <- Employees }",
    "{ e.NetSalary(1) | e <- Employees } union { m.NetSalary(2) | m <- Managers }",
    "sum({ e.NetSalary(e.EmpID) | e <- Employees })",
    "{ e.NetSalary(m.EmpID) | m <- Managers, e <- Employees, e.UniqueManager == m }",
    "{ e.name | m <- Managers, e <- Employees, e.GrossSalary = m.NetSalary(0) }",
];

#[test]
fn invoking_queries_lower_and_agree_on_every_meter() {
    let loops = Bed::of(&join_fixture(4, 3), Mode::ReadOnly, "");
    let payroll = Bed::of(&ioql_testkit::payroll(), Mode::ReadOnly, "");
    for (bed, zoo) in [(&loops, LOOP_ZOO), (&payroll, PAYROLL_ZOO)] {
        let (answered, failed) = bed.plans_agree(&zoo);
        assert!(
            answered > 0 && failed > 0,
            "{answered} answered, {failed} failed"
        );
    }
    // Production lowers them too.
    for (bed, zoo) in [(&loops, LOOP_ZOO), (&payroll, PAYROLL_ZOO)] {
        for src in zoo {
            let shown = bed.db.explain(src).unwrap();
            assert!(shown.starts_with("Plan  [guard: Thm 7"), "{src}: {shown}");
        }
    }
}

/// Invocations on the plan: a §5 method whose latent effect only reads
/// (it iterates an extent), and a definition whose body invokes — called
/// with literal arguments (the plan inlines it) and with computed ones
/// (the interpreter runs the call). A method or a definition that writes
/// lowers too, and agrees on every meter, but its guard is refused and its
/// plan holds no probe.
#[test]
fn read_only_methods_and_invoking_definitions_lower_and_agree() {
    let opts = DbOptions {
        method_mode: Mode::Extended,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(
        "class Counter extends Object (extent Counters) {
            attribute int n;
            int countPeers() {
                int c = 0;
                for (x in Counters) { c = c + x.n; }
                return c;
            }
            int bump() {
                this.n = this.n + 1;
                return this.n;
            }
        }",
        opts,
    )
    .unwrap();
    db.query("{ new Counter(n: i) | i <- {10, 20, 30} }")
        .unwrap();
    let counters = Bed::with_defines(
        db,
        Mode::Extended,
        "define peers(c: Counter) as c.countPeers(); \
         define total() as sum({ c.countPeers() | c <- Counters });",
    );
    let (counted, _) = counters.plans_agree(&[
        "{ c.n + c.countPeers() | c <- Counters }",
        "{ c.n | c <- Counters, c.countPeers() = 60 }",
        "sum({ c.countPeers() | c <- Counters, c.n = 10 })",
        "{ peers(c) | c <- Counters }",
        "total()",
    ]);
    let payroll = Bed::of(
        &ioql_testkit::payroll(),
        Mode::ReadOnly,
        "define net(e: Employee, rate: int) as e.NetSalary(rate); \
         define bill(rate: int) as sum({ e.NetSalary(rate) | e <- Employees });",
    );
    let (billed, _) = payroll.plans_agree(&[
        "{ net(e, 10) | e <- Employees }",
        "{ e.name | e <- Employees, 500000 < net(e, e.EmpID) }",
        "bill(10)",
        "{ bill(e.EmpID) | e <- Employees }",
    ]);
    assert!(counted > 0 && billed > 0, "{counted} / {billed} answered");
    // `bill(10)`'s body is the plan's own operators, not an `Eval`.
    let rendered = payroll.lower("bill(10)", true, true).unwrap().render();
    assert!(rendered.contains("InlineDef"), "{rendered}");
    const BUMPS: [&str; 3] = [
        "{ c.bump() | c <- Counters }",
        "{ peers(c) + c.bump() | c <- Counters }",
        "{ c.bump() | c <- Counters, c.n = 20 }",
    ];
    let (bumped, _) = counters.plans_agree(&BUMPS);
    assert!(bumped > 0, "no bump answered");
    for src in BUMPS {
        for real_stats in [true, false] {
            let plan = counters.lower(src, true, real_stats).unwrap();
            assert!(!has_probe(&plan), "{src}: {}", plan.render());
        }
        let shown = counters.db.explain(src).unwrap();
        assert!(
            shown
                .starts_with("Plan  [guard: Thm 7 refused: effect not read-only; no index probes]"),
            "{src}: {shown}"
        );
    }
}

/// `payroll` with a §5 method that updates (`U(Employee)`), for
/// `Mode::Extended`: the store is payroll's own.
fn payroll_with_raise() -> Fixture {
    let mut fx = ioql_testkit::payroll();
    let ddl = "
        class Person extends Object (extent Persons) {
            attribute int name;
        }
        class Employee extends Person (extent Employees) {
            attribute int EmpID;
            attribute int GrossSalary;
            attribute Manager UniqueManager;
            int NetSalary(int TaxRate) {
                return this.GrossSalary * (100 - TaxRate);
            }
            int Raise(int amount) {
                this.GrossSalary = this.GrossSalary + amount;
                return this.GrossSalary;
            }
        }
        class Manager extends Employee (extent Managers) {
        }";
    let classes = ioql::syntax::parse_schema(ddl).unwrap();
    fx.schema = ioql_schema::Schema::new(classes).unwrap();
    fx
}

/// Payroll writers that raise a salary through the updating `Raise`
/// (`U(Employee)`): in a head, in a filter, after a probe-shaped equality
/// and in a semi-join (both would probe in a read), inside a `new`, and
/// in the left operand of a set operator whose right operand reads what
/// it wrote.
const RAISE_ZOO: [&str; 7] = [
    "{ e.Raise(10) | e <- Employees }",
    "{ e.name | e <- Employees, 5005 < e.Raise(e.EmpID) }",
    "{ e.Raise(1) | e <- Employees, e.EmpID = 2 }",
    "{ m.Raise(e.EmpID) | m <- Managers, e <- Employees, e.UniqueManager == m }",
    "sum({ e.Raise(1) + e.NetSalary(10) | e <- Employees })",
    "{ (new Employee(name: e.name, EmpID: e.EmpID + 10, GrossSalary: e.Raise(5), \
       UniqueManager: e.UniqueManager)).GrossSalary | e <- Employees }",
    "{ e.Raise(1) | e <- Employees } union { e.GrossSalary | e <- Employees }",
];

/// Writers run on the plan with big-step's every meter. Generated
/// `jack_jill` writers, generated payroll writers that may invoke the
/// updating `Raise` under `Mode::Extended`, and [`RAISE_ZOO`] are lowered
/// as production lowers them — the store's statistics, the compile pass
/// on and off — and hold no probe. Under the first and last choosers and
/// cell caps none, 0, 3 and 10, each plan's value, post-run store,
/// runtime effect, exact error, cells and chooser draws equal big-step's.
#[test]
fn writers_run_on_the_plan_with_big_steps_every_meter() {
    use ioql::methods::check_schema_methods;
    let invoking = GenConfig {
        allow_invoke: true,
        max_depth: 4,
        ..GenConfig::default()
    };
    let beds = [
        (
            jack_jill(),
            Mode::ReadOnly,
            GenConfig::default(),
            0..300u64,
            &[][..],
        ),
        (
            payroll_with_raise(),
            Mode::Extended,
            invoking,
            0..300,
            &RAISE_ZOO[..],
        ),
    ];
    let mks: [fn() -> Box<dyn Chooser>; 2] = [|| Box::new(FirstChooser), || Box::new(LastChooser)];
    let (mut writers, mut raises, mut runs, mut errors) = (0, 0, 0, 0);
    let mut generated_raises = 0;
    for (fx, mode, gen, seeds, zoo) in beds {
        let tenv = TypeEnv::new(&fx.schema);
        let methods = check_schema_methods(&fx.schema, mode).unwrap();
        let eenv = EffectEnv::new(&fx.schema).with_method_effects(methods);
        let mut stats = Stats::new();
        for (e, _, members) in fx.store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        let defs = DefEnv::new();
        let generated = seeds.map(|seed| {
            let mut g = QueryGen::new(&fx.schema, seed, gen);
            let target = g.target_type();
            (g.query(&target), true)
        });
        let written = zoo.iter().map(|src| (fx.query(src), false));
        for (q, is_generated) in generated.chain(written) {
            let (elab, _) = check_query(&tenv, &q).unwrap();
            let (_, effect) = infer_query(&eenv, &elab).unwrap();
            if effect.is_read_only() {
                continue;
            }
            writers += 1;
            let raising = !effect.updates.is_empty();
            raises += usize::from(raising);
            generated_raises += usize::from(raising && is_generated);
            for compile in [false, true] {
                let spec = ParSpec {
                    compile,
                    ..ParSpec::off()
                };
                let plan = lower_with(&elab, &effect, &defs, &stats, &spec)
                    .unwrap_or_else(|| panic!("{elab} must lower"));
                assert!(!has_probe(&plan), "{elab}: {}", plan.render());
                for mk in mks {
                    for cap in [None, Some(0), Some(3), Some(10)] {
                        let limits =
                            cap.map_or(Limits::none(), |c| Limits::none().with_max_cells(c));
                        let run = |exec: &Exec<'_>| {
                            let cfg = EvalConfig::new(&fx.schema).with_method_mode(mode);
                            observe_in(cfg, &defs, &fx.store, exec, mk, limits, 1_000_000)
                        };
                        let want = run(&Exec::BigStep(&elab));
                        assert_eq!(
                            run(&Exec::Plan(&plan)),
                            want,
                            "compile {compile}, cells {cap:?}: plan vs big-step on {elab}"
                        );
                        runs += 1;
                        errors += usize::from(want.0 .0.is_err());
                    }
                }
            }
        }
    }
    assert!(
        writers >= 150 && raises >= RAISE_ZOO.len() && errors > 0 && errors < runs,
        "{writers} writers, {raises} raising, {errors} of {runs} runs failed"
    );
    // The generator reaches `U(C)` writers of its own, not only the zoo.
    assert!(
        generated_raises >= 3,
        "{generated_raises} generated writers raise"
    );
}

/// Tight budgets and injected faults: verdicts (pass/fail *and* error
/// class) must match the interpreters, and on success the governor must
/// have been charged exactly the same number of cells — no operator may
/// leak a charge or skip one.
#[test]
fn budgets_and_faults_hold_identically_through_operators() {
    let fx = jack_jill();
    let zoo = operator_zoo(&fx);
    for seed in 0..60u64 {
        let plan_spec = FaultPlan::from_seed(seed);
        let q = &zoo[(seed as usize) % zoo.len()];
        for real_stats in [true, false] {
            let Some(phys) = lower_for(&fx, q, real_stats) else {
                continue;
            };
            let cfg = EvalConfig::new(&fx.schema);
            let defs = DefEnv::new();
            let run = |engine: u8| {
                let governor = Governor::new(plan_spec.limits());
                let mut chooser = plan_spec.chooser(governor.cancel_token());
                let gcfg = cfg.with_governor(&governor);
                let mut store = fx.store.clone();
                let r = match engine {
                    0 => execute(&phys, &gcfg, &defs, &mut store, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                    1 => eval_big(&gcfg, &defs, &mut store, q, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                    _ => evaluate(&gcfg, &defs, &mut store, q, &mut chooser, 1_000_000)
                        .map(|r| (r.value, r.effect)),
                };
                (r, governor.cells_spent())
            };
            let (p, p_cells) = run(0);
            let (b, b_cells) = run(1);
            let (s, s_cells) = run(2);
            match (&p, &b, &s) {
                (Ok((pv, pe)), Ok((bv, be)), Ok((sv, _))) => {
                    assert_eq!(pv, bv, "seed {seed} value on {q}");
                    assert_eq!(pv, sv, "seed {seed} value vs machine on {q}");
                    assert_eq!(pe, be, "seed {seed} effect on {q}");
                    assert_eq!(
                        p_cells, b_cells,
                        "seed {seed}: plan leaked cells on {q} (plan {p_cells} vs big {b_cells})"
                    );
                    assert_eq!(
                        p_cells, s_cells,
                        "seed {seed}: plan vs machine cells on {q}"
                    );
                }
                (Err(pe), Err(be), Err(se)) => {
                    assert_eq!(class(pe), class(be), "seed {seed}: {pe} vs {be} on {q}");
                    assert_eq!(class(pe), class(se), "seed {seed}: {pe} vs {se} on {q}");
                    // Budget faults also pin the cell meter: the cells
                    // axis trips at the same draw in every engine.
                    if class(pe) == "resource:cells" {
                        assert_eq!(p_cells, b_cells, "seed {seed}: cells at trip on {q}");
                    }
                }
                _ => panic!(
                    "seed {seed}: verdicts diverge on {q}:\n  plan={p:?}\n  big={b:?}\n  small={s:?}"
                ),
            }
        }
    }
}

/// Through the `Database` facade: production must agree with the spec
/// on a mixed workload — eligible queries (plan executor) and mutating
/// ones (Theorem 7 refuses; big-step runs them) — under every chooser.
/// Warm/cold construction histories are identical, so plain value
/// equality is the oid bijection.
#[test]
fn database_engine_plan_agrees_end_to_end() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let build = |engine: Engine| {
        let opts = DbOptions {
            engine,
            cache_capacity: 0,
            telemetry: true, // transparency guard: engines must agree with metrics on
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4, 5, 6} }")
            .unwrap();
        db
    };
    let workload = [
        "{ p.age | p <- Persons, p.name = 3 }",
        "{ p | p <- Persons, p.name = 2 }",
        "size(Persons union { p | p <- Persons, p.name = 1 })",
        "{ new Person(name: 9, age: 9) | n <- {1} }", // refused: mutates
        "{ p.age | p <- Persons }",
        "sum({ p.age + q.age | p <- Persons, q <- Persons, p.name = q.name })",
    ];
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xBEEF)),
    ];
    for mk in &mk_choosers {
        let mut dbs = [build(Engine::Plan), build(Engine::SmallStep)];
        for q in workload {
            let rp = dbs[0].query_with(q, &mut *mk()).unwrap();
            let rs = dbs[1].query_with(q, &mut *mk()).unwrap();
            assert_eq!(rp.value, rs.value, "production vs spec on {q}");
            assert_eq!(rp.static_effect, rs.static_effect, "static effect on {q}");
            assert_eq!(rp.steps, 0, "production reports no machine steps");
        }
        // The mutating query really ran on both.
        for db in &dbs {
            assert_eq!(db.extent_len("Persons"), 6 + 1);
        }
    }
}

/// The governor axis through the facade: a production query under a
/// too-small cell budget fails with the same class as the interpreters,
/// and an exact budget passes.
#[test]
fn database_engine_plan_respects_budgets() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
        }";
    let opts = DbOptions {
        cache_capacity: 0,
        telemetry: true,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, opts).unwrap();
    db.query("{ new Person(name: n) | n <- {1, 2, 3, 4, 5, 6, 7, 8} }")
        .unwrap();
    let q = "{ p | p <- Persons, p.name = 3 }";
    let governor = Governor::new(Limits::none());
    db.query_governed(q, &mut FirstChooser, &governor).unwrap();
    let price = governor.cells_spent();
    assert_eq!(price, 8, "one cell per drawn element, probe or not");
    let broke = Governor::new(Limits::none().with_max_cells(price - 1));
    let err = db.query_governed(q, &mut FirstChooser, &broke);
    assert!(
        matches!(
            err,
            Err(ioql::DbError::Eval(EvalError::ResourceExhausted {
                kind: ioql_eval::ResourceKind::Cells,
                ..
            }))
        ),
        "{err:?}"
    );
    let paying = Governor::new(Limits::none().with_max_cells(price));
    db.query_governed(q, &mut FirstChooser, &paying).unwrap();
    assert_eq!(paying.cells_spent(), price);
}

/// Aggregate roots (`sum`/`size` over anything) run on the `Aggregate`
/// operator, not the interpreter, and must stay observationally
/// identical to both interpreters — with the compile pass on and off,
/// under every chooser, on every meter, and at every fuel budget. The
/// `Database` only elaborates the texts and holds the fixture; the four
/// executors are called directly, on one elaborated query.
#[test]
fn aggregate_roots_agree_on_every_engine() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }
        class Employee extends Person (extent Employees) {
            attribute int dept;
        }";
    const MAX: &str = "9223372036854775807";
    // Ages repeat across rows, so `sum` over the *set* of ages differs
    // from a sum over rows: the fold must see the `Distinct` output.
    let mut db = Database::from_ddl(DDL).unwrap();
    db.define("define inDept(d: int) as { e | e <- Employees, e.dept = d };")
        .unwrap();
    for populate in [
        "{ new Person(name: n, age: 30) | n <- {1, 2, 3, 4} }",
        "{ new Person(name: n, age: n + 30) | n <- {5, 6, 7, 8, 9, 10, 11, 12} }",
        "{ new Employee(name: n, age: n + 20, dept: 3) | n <- {20, 21, 22} }",
        "{ new Employee(name: n, age: 50, dept: 4) | n <- {30, 31} }",
    ] {
        db.query(populate).unwrap();
    }
    let schema = db.schema().clone();
    let store = db.store().clone();
    let mut defs = DefEnv::new();
    for def in db.definitions() {
        defs.insert(def);
    }
    let mut stats = Stats::new();
    for (e, _, members) in store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let family: Vec<String> = [
        "sum({ p.age | p <- Persons, p.name <= 6 })",
        "size({ p | p <- Persons, p.name = 2 })",
        "sum({ p.age + e.dept | p <- Persons, e <- Employees, p.name = e.name })",
        "size(Persons)",
        "sum({ p.age | p <- Persons, p.name < 4 } union { e.dept | e <- Employees })",
        "size({ p.name | p <- Persons } except { e.name | e <- Employees })",
        "sum({ e.age | e <- inDept(3) })",
        "size(inDept(3))",
        // An input with no operator of its own is an `Eval` under the fold.
        "sum({1, 2, 3})",
    ]
    .into_iter()
    .map(String::from)
    // The `i64` boundaries of `sum_wraps_identically_at_integer_
    // boundaries`, as comprehensions.
    .chain([
        format!("sum({{ x | x <- {{ {MAX}, 1 }} }})"),
        format!("sum({{ x | x <- {{ 0 - {MAX} - 1, 0 - 1 }} }})"),
    ])
    .collect();
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xA66)),
    ];
    // One executor on one elaborated query: outcome (the exact error on
    // failure) and the cell meter.
    const EXECUTORS: [&str; 4] = ["big-step", "small-step", "plan", "plan + vm"];
    let run = |exec: usize, q: &str, ch: &mut dyn Chooser, limits: Limits, fuel: u64| {
        let prepared = db.prepare(q).unwrap();
        let governor = Governor::new(limits);
        let cfg = EvalConfig::new(&schema).with_governor(&governor);
        let mut store = store.clone();
        let r = match exec {
            0 => eval_big(&cfg, &defs, &mut store, &prepared.elab, ch, fuel)
                .map(|r| (r.value, r.effect)),
            1 => evaluate(&cfg, &defs, &mut store, &prepared.elab, ch, fuel)
                .map(|r| (r.value, r.effect)),
            _ => {
                let spec = ParSpec {
                    compile: exec == 3,
                    ..ParSpec::off()
                };
                let plan = lower_with(&prepared.elab, &prepared.effect, &defs, &stats, &spec)
                    .unwrap_or_else(|| panic!("{q} must lower"));
                execute(&plan, &cfg, &defs, &mut store, ch, fuel).map(|r| (r.value, r.effect))
            }
        };
        (r, governor.cells_spent())
    };
    for q in &family {
        let prepared = db.prepare(q).unwrap();
        let rendered = lower(&prepared.elab, &prepared.effect, &defs, &stats)
            .unwrap()
            .render();
        assert!(
            rendered.contains("  Aggregate s"),
            "{q} must run on the Aggregate operator:\n{rendered}"
        );
        for mk in &mk_choosers {
            let want = run(0, q, &mut *mk(), Limits::none(), 1_000_000);
            assert!(want.0.is_ok(), "{q}: {want:?}");
            for (exec, name) in EXECUTORS.iter().enumerate().skip(1) {
                let got = run(exec, q, &mut *mk(), Limits::none(), 1_000_000);
                assert_eq!(got, want, "{name} vs big-step on {q}");
            }
        }
        // A cardinality cap trips at the same observation (the error
        // carries the observed cardinality), or not at all, everywhere.
        for cap in [0, 2, 4, 11] {
            let limits = Limits::none().with_max_set_card(cap);
            let want = run(0, q, &mut FirstChooser, limits, 1_000_000);
            for (exec, name) in EXECUTORS.iter().enumerate().skip(2) {
                let got = run(exec, q, &mut FirstChooser, limits, 1_000_000);
                assert_eq!(got, want, "set-card cap {cap}, {name} on {q}");
            }
        }
    }
    // Fuel. Below the root the plan path spends its budget on its own
    // schedule (one unit per operator and per draw, the interpreter's
    // count inside each delegated expression), so what is pinned is the
    // aggregate node itself: on the plan path as on big-step it costs
    // exactly one unit on top of its operand — big-step's pre-order
    // `burn` — and every budget short of that trips with big-step's
    // own error, never a wrong answer.
    let threshold = |exec: usize, q: &str| {
        let answer = run(exec, q, &mut FirstChooser, Limits::none(), 10_000).0;
        assert!(answer.is_ok(), "{q}: {answer:?}");
        (0u64..)
            .find(|&max_steps| {
                let got = run(exec, q, &mut FirstChooser, Limits::none(), max_steps).0;
                assert!(
                    got == answer || got == Err(EvalError::FuelExhausted),
                    "budget {max_steps} on {q}: {got:?}"
                );
                got == answer
            })
            .unwrap()
    };
    for q in &family {
        let operand = &q[q.find('(').unwrap() + 1..q.len() - 1];
        for exec in [0, 2, 3] {
            let cost = threshold(exec, q) - threshold(exec, operand);
            assert_eq!(cost, 1, "aggregate node fuel, {}, on {q}", EXECUTORS[exec]);
        }
    }
}

/// The profile zoo: every way a pipeline row is produced or rejected —
/// nested generators with a late filter (interpreted and compiled), a
/// probe that hits, the cross-generator semi-join, a probe whose index
/// is abandoned, set operators over an op-level and a stage-level scan,
/// and an aggregate root — over six `Person`s (`name` 1–6, `age` 21–26).
/// Row expressions are comprehension-free, so every chooser draw is a
/// pipeline draw.
fn profile_zoo() -> (
    ioql_schema::Schema,
    ioql_store::Store,
    Vec<(&'static str, Plan)>,
) {
    use ioql::plan::{EqKind, Guard, HashIndexBuild, KeyAccess, Op, OpKind, Stage, StageKind};
    use ioql_ast::{Query, VarName};
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let mut db = Database::from_ddl(DDL).unwrap();
    db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3, 4, 5, 6} }")
        .unwrap();
    let defs = DefEnv::new();
    let mut real = Stats::new();
    for (e, _, members) in db.store().extents.iter() {
        real.set(e.clone(), members.len());
    }
    // `Stats::new()` estimates every extent at 1000 rows: with the
    // predicate interpreted, the cost model picks the probe.
    let lowered = |src: &str, stats: &Stats, compile: bool| {
        let prepared = db.prepare(src).unwrap();
        let spec = ParSpec {
            compile,
            ..ParSpec::off()
        };
        lower_with(&prepared.elab, &prepared.effect, &defs, stats, &spec).unwrap()
    };
    const LATE_FILTER: &str = "{ p.age + q.age | p <- Persons, q <- Persons, q.name < 3 }";
    let mut zoo = vec![
        (
            "late filter, interpreted",
            lowered(LATE_FILTER, &real, false),
        ),
        ("late filter, compiled", lowered(LATE_FILTER, &real, true)),
        (
            "probe hit",
            lowered("{ p.age | p <- Persons, p.name = 3 }", &Stats::new(), false),
        ),
        (
            "semi-join probe",
            lowered(
                "{ p.age + q.age | p <- Persons, q <- Persons, q.name = p.name }",
                &Stats::new(),
                false,
            ),
        ),
        (
            "set operators",
            lowered(
                "Persons except { p | p <- Persons, p.name < 3 }",
                &real,
                true,
            ),
        ),
        (
            "aggregate root",
            lowered("sum({ p.age | p <- Persons, p.name < 5 })", &real, true),
        ),
    ];
    // The index is abandoned at the first draw (the build declares `==`
    // over integer elements), so every row takes the kept predicate.
    let x = VarName::new("x");
    let mut abandoned = Plan {
        root: Op::new(OpKind::Distinct {
            input: Box::new(Op::new(OpKind::MapProject {
                head: Query::var("x"),
                input: Box::new(Op::new(OpKind::Pipeline {
                    stages: vec![
                        Stage::new(StageKind::Scan {
                            var: x.clone(),
                            source: Query::set_lit([Query::int(1), Query::int(2), Query::int(3)]),
                            est_rows: 3,
                        }),
                        Stage::new(StageKind::HashIndexProbe {
                            var: x,
                            build: HashIndexBuild {
                                eq: EqKind::Obj,
                                key: KeyAccess::Bare,
                                est_rows: 3,
                            },
                            probe: Query::int(2),
                            pred: Query::var("x").int_eq(Query::int(2)),
                            scan_cost: 100,
                            index_cost: 1,
                        }),
                    ],
                })),
            })),
        }),
        guard: Guard::new(&Query::var("x"), &ioql_effects::Effect::empty()),
        compiled: Default::default(),
    };
    abandoned.number();
    zoo.push(("abandoned index", abandoned));
    let store = db.store().clone();
    (db.schema().clone(), store, zoo)
}

/// The profile is the draw protocol: each node's `(calls, rows)` is
/// fixed by how many rows `(ND comp)` draws through it, whatever the
/// order; the generator stages' rows add up to the chooser's draw total;
/// and profiling changes nothing `execute` reports.
#[test]
fn profile_counts_follow_the_draw_protocol() {
    use ioql::plan::execute_with_profile;
    use ioql_eval::CountingChooser;
    use ioql_telemetry::MetricsRegistry;
    // (calls, rows) per node, in pre-order.
    let want: [(&str, &[(u64, u64)]); 7] = [
        (
            "late filter, interpreted",
            &[(1, 7), (1, 7), (1, 7), (1, 6), (6, 36), (36, 12)],
        ),
        (
            "late filter, compiled",
            &[(1, 7), (1, 7), (1, 7), (1, 6), (6, 36), (36, 12)],
        ),
        ("probe hit", &[(1, 1), (1, 1), (1, 1), (1, 6), (6, 1)]),
        (
            "semi-join probe",
            &[(1, 6), (1, 6), (1, 6), (1, 6), (6, 36), (36, 6)],
        ),
        (
            "set operators",
            &[(1, 4), (1, 6), (1, 2), (1, 2), (1, 2), (1, 6), (6, 2)],
        ),
        (
            "aggregate root",
            &[(1, 1), (1, 4), (1, 4), (1, 4), (1, 6), (6, 4)],
        ),
        ("abandoned index", &[(1, 1), (1, 1), (1, 1), (1, 3), (3, 1)]),
    ];
    let (schema, store, zoo) = profile_zoo();
    let defs = DefEnv::new();
    let mk_choosers: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xD4A3)),
    ];
    for ((name, plan), (wanted_name, counts)) in zoo.iter().zip(want) {
        assert_eq!(*name, wanted_name);
        for mk in &mk_choosers {
            let run = |profiled: bool| {
                let draws = MetricsRegistry::new(true).counter("draws", "Chooser draws.");
                let governor = Governor::new(Limits::none());
                let cfg = EvalConfig::new(&schema).with_governor(&governor);
                let mut inner = mk();
                let mut chooser = CountingChooser::new(&mut *inner, draws.clone());
                let mut store = store.clone();
                let (r, profile) = if profiled {
                    let (r, p) =
                        execute_with_profile(plan, &cfg, &defs, &mut store, &mut chooser, 100_000)
                            .unwrap();
                    (r, Some(p))
                } else {
                    let r = execute(plan, &cfg, &defs, &mut store, &mut chooser, 100_000);
                    (r.unwrap(), None)
                };
                (
                    (r.value, r.effect, governor.cells_spent(), draws.get()),
                    profile,
                )
            };
            let (plain, _) = run(false);
            let (profiled, profile) = run(true);
            assert_eq!(profiled, plain, "{name}: profiling moved an observable");
            let entries = profile.unwrap().entries;
            let got: Vec<(u64, u64)> = entries.iter().map(|e| (e.calls, e.rows)).collect();
            assert_eq!(got, counts, "{name}:\n{}", plan.render());
            let drawn: u64 = entries
                .iter()
                .filter(|e| e.label.contains(" <- "))
                .map(|e| e.rows)
                .sum();
            assert_eq!(drawn, plain.3, "{name}: generator rows vs chooser draws");
            assert_eq!(drawn, plain.2, "{name}: one cell per draw");
        }
    }
}

/// One walk, three views: `Plan::render`, `PlanProfile::entries` and
/// `Plan::verdicts` list the same nodes in the same pre-order — every
/// rendered line (bar the header and a probe's `HashIndexBuild` detail
/// line) is one profile entry at the same depth under the same label,
/// and a verdict's id is its entry's position.
#[test]
fn render_profile_and_verdicts_list_the_same_nodes() {
    use ioql::plan::execute_with_profile;
    let (schema, store, zoo) = profile_zoo();
    let cfg = EvalConfig::new(&schema);
    let defs = DefEnv::new();
    let mut annotated = 0;
    for (name, plan) in &zoo {
        let (_, profile) = execute_with_profile(
            plan,
            &cfg,
            &defs,
            &mut store.clone(),
            &mut FirstChooser,
            100_000,
        )
        .unwrap();
        let rendered = plan.render();
        let lines: Vec<&str> = rendered
            .lines()
            .skip(1)
            .filter(|l| !l.trim_start().starts_with("HashIndexBuild"))
            .collect();
        assert_eq!(lines.len(), profile.entries.len(), "{name}:\n{rendered}");
        for (line, e) in lines.iter().zip(&profile.entries) {
            let indent = "  ".repeat(e.depth);
            assert!(
                line.strip_prefix(&indent)
                    .is_some_and(|l| l.starts_with(&e.label)),
                "{name}: `{line}` vs depth {} `{}`",
                e.depth,
                e.label
            );
        }
        let verdicts = plan.verdicts();
        assert_eq!(verdicts.len(), plan.compiled.len(), "{name}");
        for (i, line) in lines.iter().enumerate() {
            match verdicts.iter().find(|v| v.id.0 as usize == i) {
                Some(v) => {
                    annotated += 1;
                    assert_eq!(v.label, profile.entries[i].label, "{name}");
                    assert!(line.ends_with(&format!("  [{}]", v.compile)), "{line}");
                }
                None => assert!(
                    !line.contains("[vm]") && !line.contains("[interp("),
                    "{line}"
                ),
            }
        }
    }
    assert!(
        annotated >= 6,
        "only {annotated} annotated nodes in the zoo"
    );
}

/// `:plan` text is an interface: the operator zoo's renderings, under
/// both cost-model outcomes, against the golden captured before the
/// renderer was rebuilt on `label()` (re-capture with `IOQL_BLESS=1`).
#[test]
fn operator_zoo_renders_as_the_golden() {
    let fx = jack_jill();
    let mut got = String::new();
    for q in operator_zoo(&fx) {
        for real_stats in [true, false] {
            let plan = lower_for(&fx, &q, real_stats).unwrap();
            got.push_str(&format!(
                "-- {q} (real stats: {real_stats})\n{}",
                plan.render()
            ));
        }
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/plan_zoo.txt"
    );
    if std::env::var_os("IOQL_BLESS").is_some() {
        std::fs::write(golden, &got).unwrap();
    }
    assert_eq!(got, std::fs::read_to_string(golden).unwrap());
}

/// `jack_jill`'s schema over `ps` more persons (`name` = i mod 7, so keys
/// repeat) and `fs` friends (`name` = i mod 5, `pal` one of the persons).
fn join_fixture(ps: usize, fs: usize) -> Fixture {
    use ioql_ast::Value;
    let mut fx = jack_jill();
    let mut pals = vec![fx.oid("jack"), fx.oid("jill")];
    for i in 0..ps {
        pals.push(fx.create("P", vec![("name", Value::Int(i as i64 % 7))], None));
    }
    for i in 0..fs {
        let pal = Value::Oid(pals[i * 3 % pals.len()]);
        fx.create(
            "F",
            vec![("name", Value::Int(i as i64 % 5)), ("pal", pal)],
            None,
        );
    }
    fx
}

/// The three executors a semi-join run is compared on.
enum Exec<'q> {
    Plan(&'q Plan),
    BigStep(&'q ioql_ast::Query),
    SmallStep(&'q ioql_ast::Query),
}

/// What a run must reproduce: the outcome (the exact error on failure),
/// the cell meter and the chooser's draw count.
type Observed = (
    Result<(ioql_ast::Value, ioql_effects::Effect), EvalError>,
    u64,
    u64,
);

fn observe(
    fx: &Fixture,
    exec: &Exec<'_>,
    mk: fn() -> Box<dyn Chooser>,
    limits: Limits,
    fuel: u64,
) -> Observed {
    let cfg = EvalConfig::new(&fx.schema);
    observe_in(cfg, &DefEnv::new(), &fx.store, exec, mk, limits, fuel).0
}

/// [`observe`] under the caller's configuration, definitions and store;
/// also returns the store the run leaves.
fn observe_in(
    cfg: EvalConfig<'_>,
    defs: &DefEnv,
    store: &ioql_store::Store,
    exec: &Exec<'_>,
    mk: fn() -> Box<dyn Chooser>,
    limits: Limits,
    fuel: u64,
) -> (Observed, ioql_store::Store) {
    use ioql_eval::CountingChooser;
    let draws = ioql_telemetry::MetricsRegistry::new(true).counter("draws", "Chooser draws.");
    let governor = Governor::new(limits);
    let cfg = cfg.with_governor(&governor);
    let mut store = store.clone();
    let mut inner = mk();
    let ch = &mut CountingChooser::new(&mut *inner, draws.clone());
    let r = match exec {
        Exec::Plan(p) => execute(p, &cfg, defs, &mut store, ch, fuel).map(|r| (r.value, r.effect)),
        Exec::BigStep(q) => {
            eval_big(&cfg, defs, &mut store, q, ch, fuel).map(|r| (r.value, r.effect))
        }
        Exec::SmallStep(q) => {
            evaluate(&cfg, defs, &mut store, q, ch, fuel).map(|r| (r.value, r.effect))
        }
    };
    ((r, governor.cells_spent(), draws.get()), store)
}

/// The production lowering: the compile pass on, the store's own
/// statistics.
fn lower_production(fx: &Fixture, q: &ioql_ast::Query) -> Plan {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).unwrap();
    let mut stats = Stats::new();
    for (e, _, members) in fx.store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let spec = ParSpec {
        compile: true,
        ..ParSpec::off()
    };
    lower_with(q, &eff, &DefEnv::new(), &stats, &spec).unwrap()
}

/// Semi-joins through the probe are the naive engines' joins: an
/// int-keyed attribute join with the probe side on either hand, and an
/// oid-keyed one, each lowered as production lowers it (the compile pass
/// on, real statistics) and run over duplicate keys, an empty inner
/// extent, an outer row whose probe side is ill-formed (that drain falls
/// back to the predicate, which sticks like the naive engines), and an
/// inner element whose key cannot be read (the index is abandoned) —
/// under four choosers and cell caps around each run's draw count, the
/// value, runtime effect, cells, draws and exact error equal big-step's
/// (and small-step's on the small store). Fuel is spent on the plan's own
/// schedule: at every budget the plan answers big-step's answer or runs
/// out, never anything else, and the compiled and interpreted plans trip
/// at the same budget with the same observables.
#[test]
fn semi_joins_agree_with_the_interpreters_on_every_meter() {
    use ioql_ast::{Oid, Value};
    const JOINS: [&str; 3] = [
        "{ p.name + f.name | p <- Ps, f <- Fs, f.name = p.name }",
        "{ p.name + q.name | p <- Ps, q <- Ps, p.name = q.name }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal }",
    ];
    let big = join_fixture(40, 30);
    let mut dangling_pal = big.clone();
    let ghost = Value::Oid(Oid::from_raw(77_777));
    dangling_pal.create("F", vec![("name", Value::Int(3)), ("pal", ghost)], None);
    let mut nameless = big.clone();
    nameless.create("P", vec![], None);
    let stores = [
        ("duplicate keys", big.clone(), false),
        ("small", join_fixture(4, 3), true),
        ("empty Fs", join_fixture(40, 0), false),
        ("dangling pal", dangling_pal, false),
        ("nameless person", nameless, false),
    ];
    let mks: [fn() -> Box<dyn Chooser>; 4] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0x5E1)),
        || Box::new(ChaosChooser::new(0x5E1, None)),
    ];
    let tenv = TypeEnv::new(&big.schema);
    for src in JOINS {
        let q = check_query(&tenv, &big.query(src)).unwrap().0;
        let plan = lower_production(&big, &q);
        assert!(
            plan.render().contains("HashIndexProbe"),
            "{}",
            plan.render()
        );
        for (name, fx, small_step) in &stores {
            for mk in mks {
                let want = observe(fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
                let got = observe(fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
                assert_eq!(got, want, "{name}: plan vs big-step on {src}");
                if *small_step {
                    let spec = observe(fx, &Exec::SmallStep(&q), mk, Limits::none(), 1_000_000);
                    assert_eq!(spec, want, "{name}: small-step vs big-step on {src}");
                }
                for cap in [0, 1, want.2 / 2, want.2.saturating_sub(1)] {
                    let limits = Limits::none().with_max_cells(cap);
                    let want = observe(fx, &Exec::BigStep(&q), mk, limits, 1_000_000);
                    let got = observe(fx, &Exec::Plan(&plan), mk, limits, 1_000_000);
                    assert_eq!(got, want, "{name}: {cap} cells, plan vs big-step on {src}");
                }
            }
        }
        // Fuel, on the small store, at every budget up to the answer.
        let (fx, interpreted) = (&stores[1].1, lower_for(&big, &q, true).unwrap());
        assert!(interpreted.render().contains("HashIndexProbe"));
        let answer = observe(fx, &Exec::BigStep(&q), mks[0], Limits::none(), 1_000_000);
        let mut answered = false;
        for fuel in 0..100_000 {
            let got = observe(fx, &Exec::Plan(&plan), mks[0], Limits::none(), fuel);
            let same = observe(fx, &Exec::Plan(&interpreted), mks[0], Limits::none(), fuel);
            assert_eq!(
                got, same,
                "budget {fuel}: compiled vs interpreted plan on {src}"
            );
            answered = got == answer;
            assert!(
                answered || got.0 == Err(EvalError::FuelExhausted),
                "budget {fuel} on {src}: {got:?}"
            );
            if answered {
                break;
            }
        }
        assert!(answered, "{src} never answered");
    }
}

/// A first chooser that counts the runs it takes.
#[derive(Default)]
struct RunsTaken(usize);

impl Chooser for RunsTaken {
    fn choose(&mut self, _n: usize) -> usize {
        0
    }

    fn front_run(&mut self, _n: usize, _k: usize) -> bool {
        self.0 += 1;
        true
    }
}

/// A skipped run of probe misses is charged exactly as its draws: the
/// three semi-joins under `FirstChooser`, which takes runs
/// (`Interp::skip`), and under an empty script, which makes the same
/// all-zero picks one draw at a time, give the same value or exact
/// error, effect, cells and draws at every cell cap up to the answer's
/// cells and at every fuel budget up to the answer — so a run charged
/// one cell or one fuel unit too many or too few, or taken across a
/// limit it should have refused at, differs somewhere.
#[test]
fn skipped_runs_are_charged_as_their_draws() {
    use ioql_eval::ScriptedChooser;
    const JOINS: [&str; 3] = [
        "{ p.name + f.name | p <- Ps, f <- Fs, f.name = p.name }",
        "{ p.name + q.name | p <- Ps, q <- Ps, p.name = q.name }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal }",
    ];
    let runs: fn() -> Box<dyn Chooser> = || Box::new(FirstChooser);
    let draws: fn() -> Box<dyn Chooser> = || Box::new(ScriptedChooser::new(vec![]));
    let fx = join_fixture(4, 3);
    let tenv = TypeEnv::new(&fx.schema);
    for src in JOINS {
        let q = check_query(&tenv, &fx.query(src)).unwrap().0;
        let plan = lower_production(&join_fixture(40, 30), &q);
        assert!(
            plan.render().contains("HashIndexProbe"),
            "{}",
            plan.render()
        );
        let mut taken = RunsTaken::default();
        let cfg = EvalConfig::new(&fx.schema);
        execute(
            &plan,
            &cfg,
            &DefEnv::new(),
            &mut fx.store.clone(),
            &mut taken,
            1_000_000,
        )
        .unwrap();
        assert!(taken.0 > 0, "no run skipped on {src}");
        let answer = observe(&fx, &Exec::Plan(&plan), draws, Limits::none(), 1_000_000);
        assert!(answer.0.is_ok(), "{src}: {answer:?}");
        assert_eq!(
            observe(&fx, &Exec::Plan(&plan), runs, Limits::none(), 1_000_000),
            answer,
            "{src}"
        );
        for cap in 0..=answer.1 {
            let limits = Limits::none().with_max_cells(cap);
            let want = observe(&fx, &Exec::Plan(&plan), draws, limits, 1_000_000);
            let got = observe(&fx, &Exec::Plan(&plan), runs, limits, 1_000_000);
            assert_eq!(got, want, "{cap} cells on {src}");
        }
        let mut answered = false;
        for fuel in 0..100_000 {
            let want = observe(&fx, &Exec::Plan(&plan), draws, Limits::none(), fuel);
            let got = observe(&fx, &Exec::Plan(&plan), runs, Limits::none(), fuel);
            assert_eq!(got, want, "budget {fuel} on {src}");
            answered = got == answer;
            if answered {
                break;
            }
        }
        assert!(answered, "{src} never answered");
    }
}

/// A duplicate-heavy comprehension builds its one-element set once, at
/// completion, on every executor: each of the 42 × 42 pairs produces
/// `1`, and the cell meter and draw count are the draws' on all four.
#[test]
fn a_constant_head_over_a_cross_product_is_one_element() {
    let fx = join_fixture(40, 30);
    let tenv = TypeEnv::new(&fx.schema);
    let q = check_query(&tenv, &fx.query("{ 1 | x <- Ps, y <- Ps }"))
        .unwrap()
        .0;
    let compiled = lower_production(&fx, &q);
    let interpreted = lower_for(&fx, &q, true).unwrap();
    let one = ioql_ast::Value::set([ioql_ast::Value::Int(1)]);
    let mks: [fn() -> Box<dyn Chooser>; 2] = [|| Box::new(FirstChooser), || Box::new(LastChooser)];
    for mk in mks {
        for exec in [
            Exec::SmallStep(&q),
            Exec::BigStep(&q),
            Exec::Plan(&interpreted),
            Exec::Plan(&compiled),
        ] {
            let (r, cells, draws) = observe(&fx, &exec, mk, Limits::none(), 10_000_000);
            assert_eq!(r.map(|(v, _)| v), Ok(one.clone()));
            assert_eq!((cells, draws), (42 + 42 * 42, 42 + 42 * 42));
        }
    }
}

/// The cached "abandoned" verdict: a hand-built probe whose index cannot
/// be built (its `=` meets oid keys) over an extent drained once per
/// outer row. The first drain abandons the index and every later one
/// reads that verdict from the execution's table, falling back to the
/// predicate each time — the naive engines' join, on every meter.
#[test]
fn an_abandoned_index_falls_back_on_every_drain() {
    use ioql::plan::{EqKind, Guard, HashIndexBuild, KeyAccess, Op, OpKind, Stage, StageKind};
    use ioql_ast::{Query, VarName};
    let fx = join_fixture(12, 0);
    let tenv = TypeEnv::new(&fx.schema);
    let src = "{ p.name + q.name | p <- Ps, q <- Ps, q.name = p.name }";
    let q = check_query(&tenv, &fx.query(src)).unwrap().0;
    let scan = |var: &str| StageKind::ExtentScan {
        var: VarName::new(var),
        extent: ioql_ast::ExtentName::new("Ps"),
        est_rows: 14,
    };
    let mut plan = Plan {
        root: Op::new(OpKind::Distinct {
            input: Box::new(Op::new(OpKind::MapProject {
                head: Query::var("p")
                    .attr("name")
                    .add(Query::var("q").attr("name")),
                input: Box::new(Op::new(OpKind::Pipeline {
                    stages: vec![
                        Stage::new(scan("p")),
                        Stage::new(scan("q")),
                        Stage::new(StageKind::HashIndexProbe {
                            var: VarName::new("q"),
                            build: HashIndexBuild {
                                eq: EqKind::Int,
                                key: KeyAccess::Bare,
                                est_rows: 14,
                            },
                            probe: Query::var("p").attr("name"),
                            pred: Query::var("q")
                                .attr("name")
                                .int_eq(Query::var("p").attr("name")),
                            scan_cost: 100,
                            index_cost: 1,
                        }),
                    ],
                })),
            })),
        }),
        guard: Guard::new(&q, &ioql_effects::Effect::empty()),
        compiled: Default::default(),
    };
    plan.number();
    let mks: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xAB)),
    ];
    for mk in mks {
        let want = observe(&fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
        assert!(want.0.is_ok() && want.2 == 14 + 14 * 14, "{want:?}");
        let got = observe(&fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
        assert_eq!(got, want, "abandoned index vs big-step on {src}");
    }
}

/// The index lives for one execution: a write between two executions of
/// the same semi-join is seen by the second, exactly as the spec sees it.
#[test]
fn a_write_between_two_executions_reaches_the_probe() {
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }";
    let names: Vec<String> = (1..=20).map(|n| n.to_string()).collect();
    let populate = format!(
        "{{ new Person(name: n, age: a) | n <- {{{}}}, a <- {{1, 2}} }}",
        names.join(", ")
    );
    let join = "{ p.name + q.name | p <- Persons, q <- Persons, q.age = p.name }";
    let mut dbs = [Engine::Plan, Engine::SmallStep].map(|engine| {
        let opts = DbOptions {
            engine,
            cache_capacity: 0,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query(&populate).unwrap();
        db
    });
    let plan = dbs[0].explain(join).unwrap();
    assert!(plan.contains("HashIndexProbe  q.age = p.name"), "{plan}");
    let before = dbs.each_mut().map(|db| db.query(join).unwrap().value);
    assert_eq!(before[0], before[1]);
    for db in &mut dbs {
        db.query("{ new Person(name: 50, age: 3) | n <- {1} }")
            .unwrap();
    }
    let after = dbs.each_mut().map(|db| db.query(join).unwrap().value);
    assert_eq!(after[0], after[1]);
    assert_ne!(
        after[0], before[0],
        "the write must reach the second execution"
    );
}

/// The decision both ways, over the benchmark's statistics (20 000
/// persons, 2 000 employees), as production optimizes and lowers: the
/// join drained once per outer employee amortizes its build and picks the
/// probe; a closed equality drained once keeps its compiled filter.
#[test]
fn the_probe_is_chosen_where_an_extent_is_drained_repeatedly() {
    use ioql_opt::Optimizer;
    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
        }
        class Employee extends Person (extent Employees) {
            attribute int EmpID;
            attribute int dept;
        }";
    let db = Database::from_ddl(DDL).unwrap();
    let mut stats = Stats::new();
    stats.set("Persons", 20_000);
    stats.set("Employees", 2_000);
    let spec = ParSpec {
        compile: true,
        ..ParSpec::off()
    };
    for (src, chosen) in [
        (
            "{ e.EmpID + f.EmpID | e <- Employees, f <- Employees, e.dept = 7, f.dept = e.dept }",
            "HashIndexProbe  f.dept = e.dept",
        ),
        (
            "{ p.name | p <- Persons, p.age = 42 }",
            "Filter  p.age = 42  [vm]",
        ),
    ] {
        let prepared = db.prepare(src).unwrap();
        let optimized = Optimizer::new(stats.clone()).optimize_query(
            db.schema(),
            &prepared.derivation,
            &prepared.elab,
        );
        let plan = lower_with(&optimized, &prepared.effect, &DefEnv::new(), &stats, &spec)
            .unwrap()
            .render();
        assert!(plan.contains(chosen), "{src}:\n{plan}");
    }
}

/// A probe over a computed source keeps one index per drain: the source
/// reads the outer binder, so each drain indexes different elements.
#[test]
fn a_computed_source_is_indexed_per_drain() {
    let fx = join_fixture(6, 0);
    let tenv = TypeEnv::new(&fx.schema);
    let src = "{ x | p <- Ps, x <- { q.name + p.name | q <- Ps }, x = 4 }";
    let q = check_query(&tenv, &fx.query(src)).unwrap().0;
    let plan = lower_for(&fx, &q, false).unwrap();
    assert!(
        plan.render().contains("HashIndexProbe  x = 4"),
        "{}",
        plan.render()
    );
    let mks: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xC0)),
    ];
    for mk in mks {
        let want = observe(&fx, &Exec::BigStep(&q), mk, Limits::none(), 1_000_000);
        let four = ioql_ast::Value::set([ioql_ast::Value::Int(4)]);
        assert_eq!(want.0.as_ref().map(|(v, _)| v), Ok(&four), "{src}");
        let got = observe(&fx, &Exec::Plan(&plan), mk, Limits::none(), 1_000_000);
        assert_eq!(got, want, "plan vs big-step on {src}");
    }
}

/// `jack_jill` with `n` more `P`s named 100, 101, …: past 1 024 members,
/// `Ps` spans more than one member chunk (the first edge falls after its
/// 512th member, the `P` named 610).
fn long_fixture(n: i64) -> Fixture {
    let mut fx = jack_jill();
    for i in 0..n {
        fx.create("P", vec![("name", ioql_ast::Value::Int(100 + i))], None);
    }
    fx
}

/// An elaborated fixture query and its production plan.
fn production(fx: &Fixture, src: &str) -> (ioql_ast::Query, Plan) {
    let q = check_query(&TypeEnv::new(&fx.schema), &fx.query(src))
        .unwrap()
        .0;
    let plan = lower_production(fx, &q);
    (q, plan)
}

/// One production run under `chooser` with an enabled fuel meter: what
/// [`observe_in`] observes, the fuel spent and the store left behind.
fn metered(
    fx: &Fixture,
    plan: &Plan,
    chooser: &mut dyn Chooser,
    limits: Limits,
) -> (Observed, u64, ioql_store::Store) {
    use ioql_eval::{CountingChooser, EvalMetrics};
    let registry = ioql_telemetry::MetricsRegistry::new(true);
    let metrics = EvalMetrics {
        steps: registry.counter("steps", "Steps."),
        recursions: registry.counter("fuel", "Fuel spent."),
        dispatches: registry.counter("dispatches", "VM rows."),
    };
    let draws = registry.counter("draws", "Chooser draws.");
    let governor = Governor::new(limits);
    let cfg = EvalConfig::new(&fx.schema)
        .with_governor(&governor)
        .with_metrics(&metrics);
    let mut store = fx.store.clone();
    let ch = &mut CountingChooser::new(chooser, draws.clone());
    let r = execute(plan, &cfg, &DefEnv::new(), &mut store, ch, 10_000_000);
    let observed = (
        r.map(|r| (r.value, r.effect)),
        governor.cells_spent(),
        draws.get(),
    );
    (observed, metrics.recursions.get(), store)
}

/// The `name`s of the objects of class `class`, in oid order — for the
/// objects a writer created, the order its draws reached their sources.
fn names_in_oid_order(store: &ioql_store::Store, class: &str) -> Vec<i64> {
    store
        .objects
        .iter()
        .filter(|(_, obj)| obj.class.as_str() == class)
        .map(|(_, obj)| obj.attr(&"name".into()).and_then(|v| v.as_int()).unwrap())
        .collect()
}

/// A writer that creates objects in the extent it scans draws exactly
/// the members that were there when the scan read it — taken from the
/// front, from the back or at random — as big-step, which draws from
/// the extent's set value, does: the pool is a cursor over the members'
/// spine as the scan read it, and the writes copy around it.
#[test]
fn a_scan_draws_the_members_it_read() {
    let fx = long_fixture(1100);
    let read = fx.extent_len("Ps");
    let (q, plan) = production(&fx, "{ (new P(name: p.name + 5000)).name | p <- Ps }");
    let mks: [fn() -> Box<dyn Chooser>; 3] = [
        || Box::new(FirstChooser),
        || Box::new(LastChooser),
        || Box::new(RandomChooser::seeded(0xC0_5A)),
    ];
    let cfg = EvalConfig::new(&fx.schema);
    for mk in mks {
        let run = |exec: &Exec<'_>| {
            observe_in(
                cfg,
                &DefEnv::new(),
                &fx.store,
                exec,
                mk,
                Limits::none(),
                10_000_000,
            )
        };
        let (got, store) = run(&Exec::Plan(&plan));
        assert_eq!(got, run(&Exec::BigStep(&q)).0);
        let Ok((ioql_ast::Value::Set(made), _)) = &got.0 else {
            panic!("{:?}", got.0)
        };
        assert_eq!((made.len(), got.1, got.2), (read, read as u64, read as u64));
        assert_eq!(store.extents.members(&"Ps".into()).unwrap().len(), 2 * read);
        let mut drawn = names_in_oid_order(&store, "P")[read..].to_vec();
        drawn.sort_unstable();
        let mut was = names_in_oid_order(&fx.store, "P");
        was.iter_mut().for_each(|n| *n += 5000);
        was.sort_unstable();
        assert_eq!(
            drawn, was,
            "each member read is drawn once, and nothing else"
        );
    }
}

/// Under a scripted chooser, the first interior pick — after 510 front
/// picks, so what is left spans the chunk edge — copies what is left,
/// and every pick after it is taken from the copy: the draws reach the
/// members in the order a copied pool reaches them, and the picks,
/// cells, draws and fuel are the ones a pool copied at the scan gives.
#[test]
fn an_interior_pick_after_front_picks_takes_what_a_copy_would() {
    use ioql_eval::ScriptedChooser;
    let fx = long_fixture(1100);
    let (_, plan) = production(&fx, "{ (new F(name: p.name, pal: p)).name | p <- Ps }");
    let mut script = vec![0; 510];
    script.extend([5, 0, 1, 700, 3, 900, 0, 2]);
    // A copied pool: the members' names in oid order, one removal a pick.
    let mut left: std::collections::VecDeque<i64> = names_in_oid_order(&fx.store, "P").into();
    let n = left.len();
    let mut want = Vec::new();
    for k in 0..n {
        let pick = script.get(k).copied().unwrap_or(0).min(left.len() - 1);
        want.push(left.remove(pick).unwrap());
    }
    let mut chooser = ScriptedChooser::new(script);
    let (observed, fuel, store) = metered(&fx, &plan, &mut chooser, Limits::none());
    assert!(observed.0.is_ok(), "{:?}", observed.0);
    assert_eq!(names_in_oid_order(&store, "F"), want);
    assert_eq!(chooser.arities, (1..=n).rev().collect::<Vec<_>>());
    assert_eq!((observed.1, observed.2), (n as u64, n as u64));
    assert_eq!(fuel, 6_613, "the fuel a pool copied at the scan spends");
}

/// A probe's skipped run of misses crosses the chunk edge: the drain for
/// the `F` named 611 draws `jack`, then skips the 512 members up to its
/// hit, the last 510 of chunk 0 and the first two of chunk 1. Every
/// meter is big-step's, with and without a cell cap that trips inside
/// that run (the run is then refused and drawn one by one), and the fuel
/// is the one a pool copied at the scan spends.
#[test]
fn a_skipped_probe_run_crosses_a_chunk_edge() {
    let mut fx = long_fixture(1100);
    let jack = ioql_ast::Value::Oid(fx.oid("jack"));
    for name in [101, 600, 611, 1150] {
        let attrs = vec![("name", ioql_ast::Value::Int(name)), ("pal", jack.clone())];
        fx.create("F", attrs, None);
    }
    let (q, plan) = production(
        &fx,
        "{ f.name + p.name | f <- Fs, p <- Ps, p.name = f.name }",
    );
    assert!(
        plan.render().contains("HashIndexProbe"),
        "{}",
        plan.render()
    );
    let mks: [fn() -> Box<dyn Chooser>; 2] = [|| Box::new(FirstChooser), || Box::new(LastChooser)];
    let mut fuels = Vec::new();
    for mk in mks {
        for limits in [Limits::none(), Limits::none().with_max_cells(2_500)] {
            let want = observe(&fx, &Exec::BigStep(&q), mk, limits, 10_000_000);
            let (got, fuel, _) = metered(&fx, &plan, &mut *mk(), limits);
            assert_eq!(got, want, "{limits:?}");
            if limits.max_cells.is_none() {
                let Ok((ioql_ast::Value::Set(sums), _)) = &got.0 else {
                    panic!("{:?}", got.0)
                };
                assert_eq!(sums.len(), 4);
                fuels.push(fuel);
            } else {
                assert!(got.0.is_err(), "the cap trips");
            }
        }
    }
    // The first chooser's runs are skipped, the last chooser's drawn one
    // by one: a skipped run burns a unit a pick, like the picks it is.
    assert_eq!(
        fuels,
        [4_441, 4_441],
        "the fuel a pool copied at the scan spends"
    );
}
