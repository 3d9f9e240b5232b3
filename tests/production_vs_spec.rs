//! Production ≡ spec, as a system (ROADMAP 3e; docs/RULES.md "production
//! vs spec"): `Database` run in its two configurations from equal stores.
//!
//! What the two owe each other, per query text:
//!
//! * the same static judgement — type and Figure 3 effect — because the
//!   front end is shared and runs before either engine is chosen;
//! * Theorem 5 on both: each runtime effect is covered by the static one;
//! * if `⊢'` accepts the query (Theorem 7: one outcome up to `∼`) and the
//!   spec run succeeds, production's `(value, store)` is `∼`-equivalent
//!   to the spec's;
//! * otherwise production's outcome is one of the spec's: `∼`-equivalent
//!   to a member of the set `explore` enumerates over every `(ND comp)`
//!   order (and production may fail only where some order does).
//!
//! What they do **not** owe each other: `steps`, cell charges, chooser
//! draws, and the point at which fuel or a governor budget trips. The
//! optimizer sits between the two — it reorders qualifiers, unnests
//! generators and folds constants, so production asks a *different*
//! query text for its draws and pays for different rows; under one
//! chooser the two may even land on different members of the outcome
//! set. Those meters are byte-identical across executors on *one* text,
//! and that is asserted where executors are called directly:
//! `tests/differential.rs` (small ≡ big), `tests/plan.rs` (plan ≡ big ≡
//! small), `tests/compile.rs` (VM ≡ interpreted plan).
//!
//! The hand-written corpus, not the generator, is the regression guard
//! for the optimizer's variable-capture bugs (DESIGN.md §5): the
//! generator never reuses a binder name.

#![allow(clippy::result_large_err)]

use ioql::store::{equiv_outcomes, Outcome, Store};
use ioql::{
    Chooser, Database, DbOptions, Engine, FirstChooser, LastChooser, Mode, RandomChooser, Value,
};
use ioql_schema::Schema;
use ioql_testkit::fixtures::{jack_jill, payroll, persons_employees};
use ioql_testkit::gen::{GenConfig, QueryGen};

fn configuration(engine: Engine) -> DbOptions {
    DbOptions {
        engine,
        method_mode: Mode::Extended,
        telemetry: true,
        trace_capacity: 4,
        ..DbOptions::default()
    }
}

fn open(engine: Engine, schema: &Schema, store: &Store, defines: &[&str]) -> Database {
    let mut db = Database::from_schema(schema.clone(), configuration(engine)).unwrap();
    for d in defines {
        db.define(d).unwrap();
    }
    *db.store_mut() = store.clone();
    db
}

/// A database in each configuration over the same schema, definitions
/// and store: `(spec, production)`.
fn both(schema: &Schema, store: &Store, defines: &[&str]) -> (Database, Database) {
    let open = |engine| open(engine, schema, store, defines);
    (open(Engine::SmallStep), open(Engine::Plan))
}

/// How a text's check came out, for the suites' vacuity guards.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Decided {
    /// Theorem 7: compared with the spec's own run.
    Deterministic,
    /// Compared against the explored outcome set.
    Member,
    /// More `(ND comp)` orders than the exploration budget: undecided.
    Truncated,
}

/// Asserts the contract of the module docs for `src` under one chooser,
/// on fresh databases over `store`.
fn check(
    schema: &Schema,
    store: &Store,
    defines: &[&str],
    src: &str,
    mk: &dyn Fn() -> Box<dyn Chooser>,
    note: &str,
) -> Decided {
    let (mut spec, mut production) = both(schema, store, defines);
    let (judged_s, judged_p) = (spec.prepare(src).unwrap(), production.prepare(src).unwrap());
    assert_eq!(judged_s.ty, judged_p.ty, "{note}: type of {src}");
    assert_eq!(judged_s.effect, judged_p.effect, "{note}: effect of {src}");
    let deterministic = spec.analyze(src).unwrap().deterministic;

    let s = spec.query_with(src, &mut *mk());
    let p = production.query_with(src, &mut *mk());
    for r in [&s, &p].into_iter().flatten() {
        assert!(
            r.runtime_effect.covered_by(&r.static_effect, schema),
            "{note}: Theorem 5 on {src}: {{{}}} escapes {{{}}}",
            r.runtime_effect,
            r.static_effect
        );
    }
    let outcome = |db: &Database, value: &Value| Outcome::new(db.store().clone(), value.clone());
    if let (true, Ok(s)) = (deterministic, &s) {
        let p = p.unwrap_or_else(|e| panic!("{note}: production failed on {src}: {e}"));
        assert!(
            equiv_outcomes(&outcome(&spec, &s.value), &outcome(&production, &p.value)),
            "{note}: Theorem 7 on {src}: spec {} vs production {}",
            s.value,
            p.value
        );
        return Decided::Deterministic;
    }
    // A fresh spec handle: the one above has run the query.
    let fresh = open(Engine::SmallStep, schema, store, defines);
    let explored = fresh.explore(src, 3_000).unwrap();
    if explored.truncated {
        return Decided::Truncated;
    }
    match p {
        Ok(p) => {
            let got = outcome(&production, &p.value);
            assert!(
                explored.successes().any(|o| equiv_outcomes(o, &got)),
                "{note}: production's {} is no outcome of {src}",
                p.value
            );
        }
        Err(e) => assert!(
            explored.any_failure(),
            "{note}: production failed ({e}) where no order of {src} does"
        ),
    }
    Decided::Member
}

type MkChooser = Box<dyn Fn() -> Box<dyn Chooser>>;

fn choosers(seed: u64) -> [(&'static str, MkChooser); 3] {
    [
        ("first", Box::new(|| Box::new(FirstChooser))),
        ("last", Box::new(|| Box::new(LastChooser))),
        (
            "random",
            Box::new(move || Box::new(RandomChooser::seeded(seed))),
        ),
    ]
}

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
        int birthday() {
            this.age = this.age + 1;
            return this.age;
        }
    }
    class Employee extends Person (extent Employees) {
        attribute int dept;
    }";

const DEFINES: &[&str] = &[
    "define older(than: Person) as { p | p <- Persons, than.age < p.age };",
    "define aged(lo: int, hi: int) as { p.name | p <- Persons, lo <= p.age, p.age < hi };",
];

/// Four `Person`s aged 31, 32, 33 and 31 again (so a group by age is not
/// all singletons), two `Employee`s.
fn corpus_store() -> (Schema, Store) {
    let mut db = Database::from_ddl_with(DDL, configuration(Engine::SmallStep)).unwrap();
    db.query("{ new Person(name: n, age: n + 30) | n <- {1, 2, 3} } union { new Person(name: 4, age: 31) }")
        .unwrap();
    db.query("{ new Employee(name: n + 10, age: n + 30, dept: n) | n <- {1, 2} }")
        .unwrap();
    let store = db.store().clone();
    (db.schema().clone(), store)
}

const CORPUS: &[&str] = &[
    // The two capture shapes: an unnested head landing under the part's
    // own `p <- Persons`, and a variable argument inlined under the
    // definition body's.
    "group n in { p.age | p <- Persons } by n",
    "{ struct(a: p.age, n: size(older(p))) | p <- Persons }",
    "{ struct(k: g.key, total: sum(g.part)) | g <- group n in { p.age | p <- Persons } by n }",
    // …and an argument that mentions a later parameter's name.
    "{ aged(hi, 40) | hi <- { p.age | p <- Persons } }",
    // Sugar: `group`, quantifiers, records, `select`.
    "{ struct(k: g.key, n: size(g.part)) | g <- group p in Persons by p.age }",
    "exists p in Persons : 32 < p.age",
    "forall e in Employees : exists p in Persons : p.age = e.age",
    "select struct(who: p.name, old: 32 <= p.age) from p in Persons where p.name < 3",
    // A definition called with literals (the plan inlines it), with a
    // variable (the optimizer may), with a computed argument.
    "aged(31, 33)",
    "{ size(older(e)) | e <- Employees }",
    "aged(size(Employees) + 30, 40)",
    // §5: a method call that updates — Theorem 7 refuses, big-step runs.
    "sum({ p.birthday() | p <- Persons, p.name < 3 })",
    // A mutating comprehension, deterministic (it reads nothing it adds
    // to) and not (size(Employees) depends on who went first).
    "size({ new Employee(name: p.name + 100, age: p.age, dept: 9) | p <- Persons, p.name < 3 })",
    "{ (new Employee(name: size(Employees), age: p.age, dept: 0)).name | p <- Persons, p.name < 3 }",
    // A probe (the predicate stays interpreted: it reads an extent) under
    // a compiled head that mentions the probed generator, alone and as a
    // semi-join: the head used to be compiled against that binder twice
    // and production answered `internal error (engine bug)`.
    "{ p.age | p <- Persons, p.name = size(Employees) + 1 }",
    "{ p.age + q.age | p <- Persons, q <- Persons, q.name = size(Employees) }",
    // Scalar, record and `if` roots: one `Eval` node.
    "1 + 2 * 3",
    "struct(n: size(Persons), total: sum({ p.age | p <- Persons }))",
    "if size(Employees) < 3 then { p.name | p <- Persons } else {}",
];

/// `{ head | a0 <- {1}, …, a256 <- {1} }`: 257 generators, one more
/// binder than a VM `Load` operand (a `u8` slot) can name.
fn wide_comprehension(head: &str) -> String {
    let generators: Vec<String> = (0..=256).map(|i| format!("a{i} <- {{1}}")).collect();
    format!("{{ {head} | {} }}", generators.join(", "))
}

#[test]
fn production_agrees_with_the_spec_on_the_corpus() {
    let (schema, store) = corpus_store();
    let mut members = 0;
    // The wide text used to reach a panic on production: the executor's
    // leaf loop numbered the drained binder in a `u8`.
    let wide = wide_comprehension("1");
    for src in CORPUS.iter().copied().chain([wide.as_str()]) {
        for (name, mk) in &choosers(0x5EED) {
            match check(&schema, &store, DEFINES, src, mk, name) {
                Decided::Truncated => panic!("{src}: exploration truncated"),
                Decided::Member => members += 1,
                Decided::Deterministic => {}
            }
        }
    }
    // Two texts are not `⊢'`-deterministic; both arms ran.
    assert_eq!(members, 2 * 3);
}

/// The two probe texts of the corpus really are a probe under a VM head.
#[test]
fn the_corpus_probes_run_under_a_compiled_head() {
    let (schema, store) = corpus_store();
    let (_, production) = both(&schema, &store, DEFINES);
    for src in CORPUS
        .iter()
        .filter(|src| src.contains("= size(Employees)"))
    {
        let plan = production.explain(src).unwrap();
        assert!(
            plan.contains("HashIndexProbe") && plan.contains("[vm]"),
            "{plan}"
        );
    }
}

/// A head that *mentions* the 257th binder cannot name it in a `Load`:
/// the compile pass declines the node, production interprets it, and the
/// answer is still the spec's.
#[test]
fn a_binder_past_the_vm_slots_runs_interpreted() {
    let (schema, store) = corpus_store();
    let (_, mut production) = both(&schema, &store, &[]);
    let constant_head = production.explain(&wide_comprehension("1")).unwrap();
    assert!(constant_head.contains("head = 1  [vm]"), "{constant_head}");
    let src = wide_comprehension("a256 + a0");
    let plan = production.explain(&src).unwrap();
    assert!(plan.contains("[interp(too many binders)]"), "{plan}");
    assert_eq!(production.query(&src).unwrap().value.to_string(), "{2}");
    // One chooser: every generator is a singleton, and the Figure 2
    // machine takes seconds on 257 of them in a debug build.
    let (name, mk) = &choosers(0x5EED)[0];
    let decided = check(&schema, &store, &[], &src, mk, name);
    assert_eq!(decided, Decided::Deterministic);
}

/// The two wrong answers the optimizer used to give, by value.
#[test]
fn the_optimizer_no_longer_captures_variables() {
    let (schema, store) = corpus_store();
    let (mut spec, mut production) = both(&schema, &store, DEFINES);
    for src in &CORPUS[..4] {
        let want = spec.query(src).unwrap().value;
        assert_eq!(production.query(src).unwrap().value, want, "{src}");
    }
    // Every group holds only its own key; `older` counts strictly older.
    let groups = production.query(CORPUS[0]).unwrap().value.to_string();
    assert_eq!(
        groups,
        "{<key: 31, part: {31}>, <key: 32, part: {32}>, <key: 33, part: {33}>}"
    );
    let older = production.query(CORPUS[1]).unwrap().value.to_string();
    assert_eq!(older, "{<a: 31, n: 2>, <a: 32, n: 1>, <a: 33, n: 0>}");
}

#[test]
fn production_agrees_with_the_spec_on_generated_queries() {
    let mut decided = [0usize; 3];
    for (fixture, invoke, seeds) in [
        (jack_jill(), false, 0..120u64),
        (payroll(), true, 0..90),
        (persons_employees(), false, 0..90),
    ] {
        for seed in seeds {
            let cfg = GenConfig {
                allow_new: seed % 3 != 0,
                allow_invoke: invoke,
                max_depth: 4,
                ..GenConfig::default()
            };
            let mut g = QueryGen::new(&fixture.schema, seed, cfg);
            let target = g.target_type();
            let src = g.query(&target).to_string();
            for (name, mk) in &choosers(seed) {
                let note = format!("seed {seed} chooser {name}");
                let d = check(&fixture.schema, &fixture.store, &[], &src, mk, &note);
                decided[d as usize] += 1;
            }
        }
    }
    // Almost every generated query is `⊢'`-deterministic (the corpus
    // holds the suite's non-deterministic texts); none may go undecided.
    let [deterministic, member, truncated] = decided;
    assert!(deterministic >= 800 && member >= 1, "{decided:?}");
    assert_eq!(truncated, 0, "{decided:?}");
}

/// `DbOptions { engine: Engine::SmallStep, ..default() }` *is* the spec:
/// the production-only options are not consulted — no optimizer, no
/// lowering, no VM — and production, from the same defaults, uses all
/// three.
#[test]
fn the_spec_configuration_runs_none_of_the_production_path() {
    let (schema, store) = corpus_store();
    let dispatches = |db: &Database| {
        let registry = db.metrics().registry();
        registry.counter_value("ioql_vm_dispatches_total").unwrap()
    };
    let spans = |db: &Database| -> Vec<String> {
        let record = &db.traces_last(1)[0];
        record.spans.iter().map(|s| s.name.clone()).collect()
    };
    let src = "{ p.age + 1 | p <- Persons, p.name < 3 }";
    let (mut spec, mut production) = both(&schema, &store, &[]);
    assert!(spec.options().optimize && spec.options().compile);

    let r = spec.query(src).unwrap();
    assert!(r.steps > 0);
    let names = spans(&spec);
    assert!(
        !names.iter().any(|n| n == "optimize" || n == "lower"),
        "{names:?}"
    );
    assert_eq!(dispatches(&spec), 0);
    assert_eq!(
        spec.traces_last(1)[0].verdict_of("execute"),
        Some("SmallStep")
    );

    let r = production.query(src).unwrap();
    assert_eq!(r.steps, 0);
    let names = spans(&production);
    for span in ["optimize", "lower"] {
        assert!(names.iter().any(|n| n == span), "{names:?}");
    }
    assert!(dispatches(&production) > 0);
    let compiles = production.metrics().vm_compiles.get();
    assert!(compiles > 0, "lowering compiled the head and the filter");
}
