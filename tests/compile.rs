//! Differential parity for the bytecode compile tier (ISSUE 7
//! tentpole): compilation is a *license*, never a semantics. For every
//! chooser and every fault plan, a compiled run must produce observables
//! **byte-identical** to the interpreted run — values, final stores,
//! effect traces, governor cell meters, chooser draw totals, error
//! classes *and exact stuck messages* — and the interpreters stay the
//! oracle for both. Integer
//! aggregation parity is pinned at the `i64` boundaries: overflow wraps
//! identically on every engine (the defined semantics — see
//! `Query::Sum`).

#![allow(clippy::result_large_err)]

use ioql::plan::{execute, lower_with, ParSpec, Plan};
use ioql::{Database, DbOptions, Engine};
use ioql_ast::Query;
use ioql_effects::{infer_query, EffectEnv};
use ioql_eval::{
    eval_big, evaluate, Chooser, CountingChooser, DefEnv, EvalConfig, EvalError, FirstChooser,
    Governor, LastChooser, Limits, RandomChooser, ScriptedChooser,
};
use ioql_opt::Stats;
use ioql_telemetry::MetricsRegistry;
use ioql_testkit::fixtures::{jack_jill, Fixture};
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

/// Queries whose predicates/heads the compiler accepts (arithmetic,
/// comparisons, attribute loads, `if`-desugared booleans, `size`,
/// `sum`), plus shapes that force per-node fallback — so every run
/// exercises both tiers side by side.
fn zoo(fx: &Fixture) -> Vec<Query> {
    let tenv = TypeEnv::new(&fx.schema);
    [
        "{ p.name | p <- Ps }",
        "{ p | p <- Ps, p.name = 2 }",
        "{ p.name + 1 | p <- Ps, p.name < 3 }",
        "{ p.name * p.name - 1 | p <- Ps }",
        "{ f.name | f <- Fs, p <- Ps, f.pal == p }",
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal, p.name = 1 }",
        "{ if p.name < 2 then p.name else 0 - p.name | p <- Ps }",
        "{ p.name | p <- Ps, if p.name = 1 then true else p.name < 3 }",
        // Nested comprehension in the predicate: head compiles, the
        // filter stays interpreted — the mixed case.
        "{ p.name | p <- Ps, size({ q | q <- Ps, q.name = p.name }) < 2 }",
        "{ size({ q | q <- Ps, q.name = p.name }) | p <- Ps }",
        "Ps union { p | p <- Ps, p.name = 1 }",
        "{ x + y | x <- { p.name | p <- Ps }, y <- {10, 20} }",
    ]
    .into_iter()
    .map(|src| check_query(&tenv, &fx.query(src)).unwrap().0)
    .collect()
}

/// Lowers with the compile-verdict pass on or off.
fn lower_c(fx: &Fixture, q: &Query, compile: bool) -> Option<Plan> {
    let eenv = EffectEnv::new(&fx.schema);
    let (_, eff) = infer_query(&eenv, q).ok()?;
    let mut stats = Stats::new();
    for (e, _, members) in fx.store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    let spec = ParSpec {
        compile,
        ..ParSpec::off()
    };
    lower_with(q, &eff, &DefEnv::new(), &stats, &spec)
}

/// Everything the compilation contract promises not to change. The
/// error arm keeps the **whole** [`EvalError`] — same engine on both
/// sides, so even stuck messages must match byte-for-byte.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<(String, String), EvalError>,
    cells: u64,
    draws: u64,
}

fn observe(
    fx: &Fixture,
    plan: &Plan,
    mk: &dyn Fn() -> Box<dyn Chooser>,
    limits: Limits,
    max_steps: u64,
) -> Observed {
    let reg = MetricsRegistry::new(true);
    let draws = reg.counter("draws", "Chooser draws.");
    let governor = Governor::new(limits);
    let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
    let defs = DefEnv::new();
    let mut store = fx.store.clone();
    let mut inner = mk();
    let mut chooser = CountingChooser::new(&mut *inner, draws.clone());
    let r = execute(plan, &cfg, &defs, &mut store, &mut chooser, max_steps);
    let outcome = r.map(|r| (r.value.to_string(), r.effect.to_string()));
    assert_eq!(store, fx.store, "a licensed run mutated the store");
    Observed {
        outcome,
        cells: governor.cells_spent(),
        draws: draws.get(),
    }
}

/// The tentpole contract: for every zoo query and chooser, the compiled
/// run's observables equal the interpreted run's — and the interpreters
/// (the oracle) agree with both.
#[test]
fn compiled_observables_are_byte_identical_to_interpreted() {
    let fx = jack_jill();
    type Mk = Box<dyn Fn() -> Box<dyn Chooser>>;
    let mks: [(&str, Mk); 5] = [
        ("first", Box::new(|| Box::new(FirstChooser))),
        ("last", Box::new(|| Box::new(LastChooser))),
        ("random", Box::new(|| Box::new(RandomChooser::seeded(23)))),
        (
            "scripted",
            Box::new(|| Box::new(ScriptedChooser::new(vec![1, 0, 2, 1]))),
        ),
        ("chaos", Box::new(|| Box::new(ChaosChooser::new(9, None)))),
    ];
    for (qi, q) in zoo(&fx).iter().enumerate() {
        let interp_plan =
            lower_c(&fx, q, false).unwrap_or_else(|| panic!("zoo {qi} ({q}) must lower"));
        for (name, mk) in &mks {
            let baseline = observe(&fx, &interp_plan, mk, Limits::none(), 1_000_000);
            // The interpreters agree with the interpreted plan run —
            // re-pinned here so the compiled comparisons below are
            // anchored to ground truth, not just to each other.
            for engine in 0..2u8 {
                let cfg = EvalConfig::new(&fx.schema);
                let defs = DefEnv::new();
                let mut store = fx.store.clone();
                let mut ch = mk();
                let r = match engine {
                    0 => eval_big(&cfg, &defs, &mut store, q, &mut *ch, 1_000_000)
                        .map(|r| (r.value.to_string(), r.effect.to_string())),
                    _ => evaluate(&cfg, &defs, &mut store, q, &mut *ch, 1_000_000)
                        .map(|r| (r.value.to_string(), r.effect.to_string())),
                };
                assert_eq!(
                    r.map_err(|e| class(&e)),
                    baseline.outcome.clone().map_err(|e| class(&e)),
                    "zoo {qi} chooser {name}: interpreter {engine} vs plan on {q}"
                );
            }
            let plan =
                lower_c(&fx, q, true).unwrap_or_else(|| panic!("zoo {qi} must lower compiled"));
            let got = observe(&fx, &plan, mk, Limits::none(), 1_000_000);
            assert_eq!(
                got, baseline,
                "zoo {qi} chooser {name}: compiled observables drifted on {q}"
            );
        }
    }
}

/// Fault plans (chaos choosers, expired deadlines, tight budgets on
/// every governed axis): pass/fail verdicts, exact errors, cell meters,
/// and draw totals must match the interpreted run, compiled or not.
#[test]
fn fault_plans_hold_identically_when_compiled() {
    let fx = jack_jill();
    let zoo = zoo(&fx);
    for seed in 0..60u64 {
        let spec = FaultPlan::from_seed(seed);
        let q = &zoo[(seed as usize) % zoo.len()];
        let run = |plan: &Plan| {
            let governor = Governor::new(spec.limits());
            let cfg = EvalConfig::new(&fx.schema).with_governor(&governor);
            let defs = DefEnv::new();
            let mut store = fx.store.clone();
            let mut chooser = spec.chooser(governor.cancel_token());
            let r = execute(plan, &cfg, &defs, &mut store, &mut chooser, 1_000_000)
                .map(|r| (r.value.to_string(), r.effect.to_string()));
            (r, governor.cells_spent())
        };
        let baseline = run(&lower_c(&fx, q, false).unwrap());
        let plan = lower_c(&fx, q, true).unwrap();
        assert_eq!(
            run(&plan),
            baseline,
            "fault seed {seed}: compiled verdict or meter drifted on {q}"
        );
    }
}

/// Fuel parity at *every* budget: sweeping the step budget from zero to
/// past completion, the compiled run and the interpreted run trip — or
/// don't — at exactly the same budget, with exactly the same error.
#[test]
fn fuel_verdicts_match_at_every_budget() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    for src in [
        "{ f.name + p.name | f <- Fs, p <- Ps, p == f.pal, p.name = 1 }",
        "{ p.name * p.name - 1 | p <- Ps, p.name < 3 }",
    ] {
        let (q, _) = check_query(&tenv, &fx.query(src)).unwrap();
        for max_steps in 0..=250u64 {
            let baseline = observe(
                &fx,
                &lower_c(&fx, &q, false).unwrap(),
                &|| Box::new(FirstChooser),
                Limits::none(),
                max_steps,
            );
            let plan = lower_c(&fx, &q, true).unwrap();
            let got = observe(
                &fx,
                &plan,
                &|| Box::new(FirstChooser),
                Limits::none(),
                max_steps,
            );
            assert_eq!(
                got, baseline,
                "budget {max_steps}: fuel verdict drifted on {src}"
            );
        }
    }
}

/// Stuck-message parity on the error path: a dangling oid hit by a
/// compiled attribute load must report the *same rule, expression, and
/// reason* the interpreter reports — substituted bindings included.
#[test]
fn dangling_oid_stuck_message_is_identical_compiled() {
    let mut fx = jack_jill();
    // Register a member in the extent without materializing the object:
    // the first attribute load on it is stuck (S-Read on a dangling oid).
    let ghost = ioql_ast::Oid::from_raw(77_777);
    let ps = ioql_ast::ExtentName::new("Ps");
    assert!(fx.store.extents.add(&ps, ghost));
    let tenv = TypeEnv::new(&fx.schema);
    for src in ["{ p.name | p <- Ps }", "{ p | p <- Ps, p.name < 3 }"] {
        let (q, _) = check_query(&tenv, &fx.query(src)).unwrap();
        let run = |compile: bool| {
            let plan = lower_c(&fx, &q, compile).unwrap();
            let cfg = EvalConfig::new(&fx.schema);
            let defs = DefEnv::new();
            let mut store = fx.store.clone();
            let mut ch = FirstChooser;
            execute(&plan, &cfg, &defs, &mut store, &mut ch, 1_000_000).map(|r| r.value)
        };
        let interp = run(false);
        let compiled = run(true);
        assert!(interp.is_err(), "{src} must be stuck on the ghost oid");
        assert_eq!(
            compiled, interp,
            "{src}: compiled stuck error must match the interpreter byte-for-byte"
        );
        let msg = format!("{}", compiled.unwrap_err());
        assert!(
            msg.contains("dangling oid"),
            "stuck reason names the dangling oid: {msg}"
        );
    }
}

/// `:plan` transparency: compiled nodes render `[vm]`, fallbacks render
/// `[interp(reason)]` naming the construct that kept them interpreted.
#[test]
fn plan_render_marks_vm_and_interp_nodes() {
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let (q, _) = check_query(&tenv, &fx.query("{ p.name + 1 | p <- Ps, p.name < 3 }")).unwrap();
    let compiled = lower_c(&fx, &q, true).unwrap().render();
    assert!(
        compiled.contains("[vm]"),
        "compiled nodes must be marked in the plan:\n{compiled}"
    );
    // Compile off: no annotations at all.
    let plain = lower_c(&fx, &q, false).unwrap().render();
    assert!(
        !plain.contains("[vm]") && !plain.contains("[interp("),
        "compile off must leave the rendering untouched:\n{plain}"
    );
    // A nested comprehension in the predicate cannot compile; the
    // fallback reason is visible.
    let (q2, _) = check_query(
        &tenv,
        &fx.query("{ p.name | p <- Ps, size({ q | q <- Ps, q.name = p.name }) < 2 }"),
    )
    .unwrap();
    let mixed = lower_c(&fx, &q2, true).unwrap().render();
    assert!(
        mixed.contains("[interp(nested comprehension)]"),
        "fallback reason must name the construct:\n{mixed}"
    );
    assert!(
        mixed.contains("[vm]"),
        "the compilable head must still compile:\n{mixed}"
    );
}

/// Integer aggregation at the boundaries (satellite): `sum` and `+`
/// wrap (two's complement) as *defined semantics*, bit-for-bit on every
/// engine — small-step, big-step, plan interpreter, and bytecode VM.
#[test]
fn sum_wraps_identically_at_integer_boundaries() {
    const MAX: &str = "9223372036854775807";
    let ddl = "class P extends Object (extent Ps) { attribute int name; }";
    let cases = [
        // i64::MAX + 1 wraps to i64::MIN.
        (
            format!("sum({{ {MAX}, 1 }})"),
            ioql_ast::Value::Int(i64::MIN),
        ),
        // i64::MIN - 1 wraps back to i64::MAX.
        (
            format!("sum({{ 0 - {MAX} - 1, 0 - 1 }})"),
            ioql_ast::Value::Int(i64::MAX),
        ),
        // The VM's Arith path at the same boundary, per row.
        (
            format!("{{ x + {MAX} | x <- {{ 1, 2 }} }}"),
            ioql_ast::Value::Set(
                [
                    ioql_ast::Value::Int(i64::MIN),
                    ioql_ast::Value::Int(i64::MIN + 1),
                ]
                .into_iter()
                .collect(),
            ),
        ),
    ];
    let fx = jack_jill();
    let tenv = TypeEnv::new(&fx.schema);
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    for (src, expected) in &cases {
        let (q, _) = check_query(&tenv, &fx.query(src)).unwrap();
        let mut store = fx.store.clone();
        let small = evaluate(&cfg, &defs, &mut store, &q, &mut FirstChooser, 10_000);
        assert_eq!(&small.unwrap().value, expected, "{src} on small-step");
        let big = eval_big(&cfg, &defs, &mut store, &q, &mut FirstChooser, 10_000);
        assert_eq!(&big.unwrap().value, expected, "{src} on big-step");
        for compile in [false, true] {
            let plan = lower_c(&fx, &q, compile).unwrap();
            let got = execute(&plan, &cfg, &defs, &mut store, &mut FirstChooser, 10_000);
            assert_eq!(
                &got.unwrap().value,
                expected,
                "{src} on the plan executor (compile: {compile})"
            );
        }
        // And end to end, where production's optimizer folds the
        // constant `sum`s before any executor sees them.
        for engine in [Engine::SmallStep, Engine::Plan] {
            let opts = DbOptions {
                engine,
                ..DbOptions::default()
            };
            let mut db = Database::from_ddl_with(ddl, opts).unwrap();
            let got = db.query(src).unwrap().value;
            assert_eq!(&got, expected, "{src} on {engine:?}: wrapping drifted");
        }
    }
}

/// `:plan` text is an interface: the zoo's renderings with the compile
/// pass off and on — `[vm]` / `[interp(reason)]` included — against the
/// golden captured before the renderer was rebuilt on `label()`
/// (re-capture with `IOQL_BLESS=1`).
#[test]
fn zoo_renders_as_the_golden() {
    let fx = jack_jill();
    let mut got = String::new();
    for q in zoo(&fx) {
        for compile in [false, true] {
            let plan = lower_c(&fx, &q, compile).unwrap();
            got.push_str(&format!("-- {q} (compile: {compile})\n{}", plan.render()));
        }
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/compile_zoo.txt"
    );
    if std::env::var_os("IOQL_BLESS").is_some() {
        std::fs::write(golden, &got).unwrap();
    }
    assert_eq!(got, std::fs::read_to_string(golden).unwrap());
}
