//! One front-end pass, one `Prepared`, one Theorem 7 verdict.
//!
//! The kernel derives `σ ! ε` in a single walk and decides Theorem 7's
//! guard once; admission, the cache, the lowering, `analyze`, and
//! `explain` read that verdict. These tests hold every reader to it over
//! generated queries (both disciplines, definitions in scope), and pin
//! the bug the hand-copied guards had: a `new` reached through two
//! definitions (or a §5 method) was invisible to `Analysis::functional`.
//!
//! The second half pins the statement cache: the judgement is derived
//! once per *text* and shared by pointer, and a shared artifact never
//! crosses a boundary it was not judged under — other type options, the
//! other discipline, another catalogue.

#![allow(clippy::result_large_err)]

use ioql::effects::{infer_definition, infer_query, Discipline, EffectEnv};
use ioql::eval::DefEnv;
use ioql::opt::Stats;
use ioql::plan::lower;
use ioql::types::TypeOptions;
use ioql::types::{check_definition, check_query, TypeEnv};
use ioql::{
    Admitted, CacheStats, Chooser, Database, DbError, DbOptions, FirstChooser, LastChooser, Limits,
    Mode, QueryResult, Session, Value,
};
use ioql_testkit::fixtures::{jack_jill, payroll, Fixture};
use ioql_testkit::gen::{GenConfig, QueryGen};

/// A pure definition, one that creates, and one that creates only
/// through another — over the `jack_jill` schema — and a boolean call of
/// each.
const JJ_DEFS: &str = "define names() as { p.name | p <- Ps }; \
                       define mk() as (new P(name: 1)).name; \
                       define via() as mk();";
const JJ_CALLS: &[&str] = &["size(names()) = 0", "mk() = 0", "via() = 0"];
const PAYROLL_DEFS: &str = "define staff() as { e.EmpID | e <- Employees };";
const PAYROLL_CALLS: &[&str] = &["size(staff()) = 0"];

/// The generated query itself, then the same query behind each call (the
/// condition is evaluated, both branches are the query).
fn variants(calls: &[&str], q: &str) -> Vec<String> {
    let mut out = vec![q.to_string()];
    out.extend(calls.iter().map(|c| format!("if {c} then {q} else {q}")));
    out
}

fn generated(fx: &Fixture, cfg: GenConfig, seed: u64) -> String {
    let mut g = QueryGen::new(&fx.schema, seed, cfg);
    let target = g.target_type();
    g.query(&target).to_string()
}

fn database(fx: &Fixture, defs: &str, opts: DbOptions) -> Database {
    let mut db = Database::from_schema(fx.schema.clone(), opts).unwrap();
    *db.store_mut() = fx.store.clone();
    db.define(defs).unwrap();
    db
}

/// The public Figure 1 → Figure 3 composition, with the same `D`.
struct Composition<'s> {
    tenv: TypeEnv<'s>,
    eenv: EffectEnv<'s>,
    def_env: DefEnv,
}

impl<'s> Composition<'s> {
    fn new(fx: &'s Fixture, defs: &str, discipline: Discipline) -> Self {
        let mut c = Composition {
            tenv: TypeEnv::new(&fx.schema),
            eenv: EffectEnv::new(&fx.schema)
                .with_method_effects(ioql::methods::effect_table(&fx.schema)),
            def_env: DefEnv::new(),
        };
        for def in ioql::syntax::parse_definitions(defs).unwrap() {
            let (elab, fnty) = check_definition(&c.tenv, &fx.schema.resolve_def(&def)).unwrap();
            let (_, effect) = infer_definition(&c.eenv, &elab).unwrap();
            c.tenv.defs.insert(elab.name.clone(), fnty.clone());
            c.eenv.defs.insert(elab.name.clone(), (fnty, effect));
            c.def_env.insert(elab);
        }
        c.eenv = c.eenv.with_discipline(discipline);
        c
    }

    fn judge(
        &self,
        fx: &Fixture,
        src: &str,
    ) -> Result<(ioql::Query, ioql::Type, ioql::Effect), String> {
        let raw = ioql::syntax::parse_query(src).map_err(|e| e.to_string())?;
        let (elab, ty) = check_query(&self.tenv, &fx.schema.resolve_query(&raw))
            .map_err(|e| DbError::from(e).to_string())?;
        let (ty2, effect) =
            infer_query(&self.eenv, &elab).map_err(|e| DbError::from(e).to_string())?;
        assert_eq!(ty, ty2, "{src}");
        Ok((elab, ty, effect))
    }
}

/// (i) `Prepared` is the composition; (ii) the lowering and `explain`
/// follow `thm7`.
#[test]
fn prepared_is_the_public_composition_and_lowering_reads_it() {
    let mut refused = 0usize;
    let mut lowered = 0usize;
    for (fx, defs, calls, cfg) in [
        (jack_jill(), JJ_DEFS, JJ_CALLS, GenConfig::default()),
        (
            payroll(),
            PAYROLL_DEFS,
            PAYROLL_CALLS,
            GenConfig {
                allow_invoke: true,
                max_depth: 4,
                ..GenConfig::default()
            },
        ),
    ] {
        for require_deterministic in [false, true] {
            let opts = DbOptions {
                require_deterministic,
                ..DbOptions::default()
            };
            let db = database(&fx, defs, opts);
            let discipline = if require_deterministic {
                Discipline::deterministic()
            } else {
                Discipline::permissive()
            };
            let composed = Composition::new(&fx, defs, discipline);
            for seed in 0..120u64 {
                for src in variants(calls, &generated(&fx, cfg, seed)) {
                    let prepared = match (db.prepare(&src), composed.judge(&fx, &src)) {
                        (Ok(p), Ok((elab, ty, effect))) => {
                            assert_eq!(
                                (&*p.elab, &p.ty, &p.effect),
                                (&elab, &ty, &effect),
                                "{src}"
                            );
                            p
                        }
                        (Err(e), Err(expected)) => {
                            assert_eq!(e.to_string(), expected, "{src}");
                            continue;
                        }
                        (got, want) => panic!("{src}: kernel {got:?} vs composition {want:?}"),
                    };
                    let thm7 = prepared.thm7;
                    let plan = lower(
                        &prepared.elab,
                        &prepared.effect,
                        &composed.def_env,
                        &Stats::new(),
                    );
                    if plan.is_some() {
                        assert!(thm7.lowerable(), "guard leak on {src}");
                        lowered += 1;
                    }
                    let explained = db.explain(&src).unwrap();
                    match thm7.refusal() {
                        Some(reason) => {
                            assert!(plan.is_none(), "{src}");
                            assert!(
                                explained.contains(&format!("refused: {reason}\n")),
                                "{src}: {explained}"
                            );
                            refused += 1;
                        }
                        None => assert!(!explained.contains("refused:"), "{src}: {explained}"),
                    }
                }
            }
        }
    }
    assert!(
        lowered >= 40 && refused >= 40,
        "{lowered} lowered, {refused} refused"
    );
}

/// (iii) Admission and the cache follow `thm7`.
#[test]
fn admission_and_the_cache_read_the_verdict() {
    let fx = jack_jill();
    let (mut concurrent, mut serialized) = (0usize, 0usize);
    for seed in 0..60u64 {
        for src in variants(JJ_CALLS, &generated(&fx, GenConfig::default(), seed)) {
            // A fresh database per text: a creating query run twice must
            // not compound across the sweep.
            let db = database(&fx, JJ_DEFS, DbOptions::default());
            let thm7 = db.prepare(&src).unwrap().thm7;
            let mut session = db.session("verdict");
            let first = session.query(&src).unwrap();
            let second = session.query(&src).unwrap();
            for r in [&first, &second] {
                assert_eq!(
                    matches!(r.admitted, Some(Admitted::Concurrent { .. })),
                    thm7.snapshot_admissible(),
                    "{src}"
                );
            }
            assert!(!first.cached, "{src}");
            assert_eq!(second.cached, thm7.cacheable(), "{src}");
            if thm7.snapshot_admissible() {
                concurrent += 1;
            } else {
                serialized += 1;
            }
        }
    }
    assert!(
        concurrent >= 20 && serialized >= 20,
        "{concurrent} / {serialized}"
    );
}

/// `Analysis::functional` is `thm7.new_free`: false exactly when the
/// inferred effect has an `A(C)` atom, however deep the `new` hides.
#[test]
fn functional_is_false_exactly_when_the_effect_adds() {
    let fx = jack_jill();
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    for (src, functional) in [
        ("names()", true),
        ("{ p.name | p <- Ps }", true),
        ("mk()", false),
        // One definition deeper than the old syntactic check looked.
        ("via()", false),
        ("{ via() | p <- Ps }", false),
        ("(new P(name: 2)).name", false),
    ] {
        let a = db.analyze(src).unwrap();
        assert_eq!(a.functional, functional, "{src}");
        assert_eq!(a.functional, a.effect.adds.is_empty(), "{src}");
    }

    // §5: a method that creates an object, behind a query with no `new`.
    let opts = DbOptions {
        method_mode: Mode::Extended,
        ..DbOptions::default()
    };
    let db = Database::from_ddl_with(
        "class Counter extends Object (extent Counters) {
             attribute int n;
             int spawn(int seed) {
                 Counter fresh = new Counter(n: seed);
                 return fresh.n;
             }
             int peek() { return this.n; }
         }",
        opts,
    )
    .unwrap();
    let spawning = db.analyze("{ c.spawn(1) | c <- Counters }").unwrap();
    assert!(!spawning.effect.adds.is_empty());
    assert!(!spawning.functional);
    let peeking = db.analyze("{ c.peek() | c <- Counters }").unwrap();
    assert!(peeking.effect.adds.is_empty());
    assert!(peeking.functional);
}

/// The `(Err, Err)` arm above only ever sees well-typed generated
/// queries. Under `⊢'` the single pass meets an interfering comprehension
/// *before* an ill-typed sibling to its right; the kernel still reports
/// what the check → infer composition reports — the Figure 1 error — and
/// the `⊢'` rejection only once the query is well-typed.
#[test]
fn a_type_error_outranks_an_earlier_interference_rejection() {
    let fx = jack_jill();
    let opts = DbOptions {
        require_deterministic: true,
        ..DbOptions::default()
    };
    let db = database(&fx, JJ_DEFS, opts);
    let composed = Composition::new(&fx, JJ_DEFS, Discipline::deterministic());
    let interfering = "size({ size(Ps) + (new P(name: 1)).name | p <- Ps })";
    for (sibling, expected) in [("1 + true", "type error"), ("2", "interfering effect")] {
        let src = format!("{{ {interfering}, {sibling} }}");
        let got = db.prepare(&src).unwrap_err().to_string();
        assert_eq!(got, composed.judge(&fx, &src).unwrap_err(), "{src}");
        assert!(got.contains(expected), "{src}: {got}");
    }
}

// ---------------------------------------------------------------------
// The warm statement: judged once per text, shared by pointer.

/// What a statement-cache probe did to the counters since `before`:
/// `(hits, misses, evictions)`.
fn statement_delta(db: &Database, before: CacheStats) -> (u64, u64, u64) {
    let now = db.statement_stats();
    (
        now.hits - before.hits,
        now.misses - before.misses,
        now.evictions - before.evictions,
    )
}

fn session_with(db: &Database, label: &str, change: impl FnOnce(&mut DbOptions)) -> Session {
    let mut session = db.session(label);
    let mut opts = session.options();
    change(&mut opts);
    session.set_options(opts);
    session
}

/// (a) The key carries the discipline and the type options: a statement
/// one handle warmed is never served to a handle that would judge the
/// text differently, and the refusal does not disturb the first handle.
#[test]
fn a_warm_statement_never_crosses_disciplines_or_type_options() {
    // ⊢ vs ⊢': the paper's interfering comprehension.
    let fx = jack_jill();
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    let interfering = "size({ size(Ps) + (new P(name: 1)).name | p <- Ps })";
    let mut permissive = db.session("permissive");
    let mut strict = session_with(&db, "strict", |o| o.require_deterministic = true);
    permissive.query(interfering).unwrap();
    let refused = strict.query(interfering).unwrap_err().to_string();
    assert!(refused.contains("interfering effect"), "{refused}");
    permissive.query(interfering).unwrap();
    // A text both disciplines accept is still judged once per discipline.
    let before = db.statement_stats();
    let sizes = [&mut permissive, &mut strict].map(|s| s.query("size(Ps)").unwrap().value);
    assert_eq!(sizes[0], sizes[1]);
    assert_eq!(statement_delta(&db, before), (0, 2, 0));

    // `allow_downcast`: here the warmed statement *is* retained (it only
    // reads), so the key is all that keeps it from the sound handle.
    let fx = payroll();
    let db = database(&fx, PAYROLL_DEFS, DbOptions::default());
    let downcast = "{ ((Manager) e).EmpID | e <- Employees, e.EmpID = 1 }";
    let unsound = TypeOptions {
        allow_downcast: true,
    };
    let mut casting = session_with(&db, "casting", |o| o.type_options = unsound);
    let mut sound = db.session("sound");
    let before = db.statement_stats();
    for _ in 0..2 {
        assert_eq!(casting.query(downcast).unwrap().value, Value::set([]));
    }
    assert_eq!(statement_delta(&db, before), (1, 1, 0), "retained and hit");
    assert!(matches!(sound.query(downcast), Err(DbError::Type(_))));
    assert_eq!(casting.query(downcast).unwrap().value, Value::set([]));
    assert_eq!(statement_delta(&db, before), (2, 2, 0));
}

/// (b) Only successful preparations are retained: a text that failed
/// under one catalogue is judged afresh under the next.
#[test]
fn a_failed_preparation_is_not_retained() {
    let fx = jack_jill();
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    let mut session = db.session("late-def");
    let src = "size(later())";
    for _ in 0..2 {
        assert!(matches!(session.query(src), Err(DbError::Type(_))));
    }
    assert_eq!(db.statement_stats().entries, 0);
    session
        .define("define later() as { p.name | p <- Ps };")
        .unwrap();
    assert_eq!(session.query(src).unwrap().value, Value::Int(2));
}

/// (c) A statement is valid under the catalogue it was judged under and
/// no other: every `define` swaps the catalogue pointer, and the entry
/// holds its own catalogue alive, so no later catalogue can be mistaken
/// for it.
#[test]
fn a_define_makes_a_warm_statement_prepare_again() {
    let fx = jack_jill();
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    let mut session = db.session("definer");
    let src = "{ p.name | p <- Ps }";
    let cold = session.query(src).unwrap();
    let before = db.statement_stats();
    assert_eq!(session.query(src).unwrap().value, cold.value);
    assert_eq!(statement_delta(&db, before), (1, 0, 0));

    session.define("define one() as 1;").unwrap();
    let again = session.query(src).unwrap();
    assert_eq!(statement_delta(&db, before), (1, 1, 1), "stale, re-judged");
    assert_eq!(
        (again.value, again.ty),
        (cold.value.clone(), cold.ty.clone())
    );
    // The *result* cache is keyed on the elaborated query, not the
    // statement: a definition changes no extent, so the answer is served.
    assert!(again.cached);

    // Two in a row: the entry was judged under the catalogue before
    // both, the request sees the one after both.
    session.define("define two() as 2;").unwrap();
    session.define("define three() as 3;").unwrap();
    assert_eq!(session.query(src).unwrap().value, cold.value);
    assert_eq!(statement_delta(&db, before), (1, 2, 2));
    assert_eq!(session.query(src).unwrap().value, cold.value);
    assert_eq!(statement_delta(&db, before), (2, 2, 2));
    assert_eq!(db.statement_stats().entries, 1);
}

/// Everything a reply shows that must not depend on whether the
/// statement was warm: `(value, type, static effect, runtime effect,
/// admitted on a snapshot, cells charged)`.
type Observed = (Value, ioql::Type, ioql::Effect, ioql::Effect, bool, u64);

fn observe(session: &mut Session, src: &str, chooser: &mut dyn Chooser) -> Observed {
    let cells_before = session.budget_spent().unwrap();
    let r: QueryResult = session.query_with(src, chooser).unwrap();
    (
        r.value,
        r.ty,
        r.static_effect,
        r.runtime_effect,
        matches!(r.admitted, Some(Admitted::Concurrent { .. })),
        session.budget_spent().unwrap() - cells_before,
    )
}

/// (d) Cold, warm and fresh-kernel runs of one text are one observable.
/// A warm statement is exercised both ways: with its result cached, and
/// — after a write moves the read set's versions — executed from the
/// shared artifact.
#[test]
fn cold_warm_and_fresh_kernel_runs_agree() {
    let fx = jack_jill();
    let opts = DbOptions {
        session_budget: Some(Limits::none()),
        ..DbOptions::default()
    };
    let write = "(new P(name: 7)).name";
    let (mut warm_runs, mut writers) = (0usize, 0usize);
    for seed in 0..40u64 {
        for src in variants(JJ_CALLS, &generated(&fx, GenConfig::default(), seed)) {
            for last in [false, true] {
                let mut chooser: Box<dyn Chooser> = if last {
                    Box::new(LastChooser)
                } else {
                    Box::new(FirstChooser)
                };
                let db = database(&fx, JJ_DEFS, opts.clone());
                let mut session = db.session("subject");
                let cold = observe(&mut session, &src, &mut *chooser);
                let fresh_db = database(&fx, JJ_DEFS, opts.clone());
                let mut fresh = fresh_db.session("fresh");
                assert_eq!(cold, observe(&mut fresh, &src, &mut *chooser), "{src}");
                if !db.prepare(&src).unwrap().thm7.cacheable() {
                    // A writer is never retained: its second run is cold
                    // again (and, having written, not comparable).
                    assert_eq!(db.statement_stats().entries, 0, "{src}");
                    writers += 1;
                    continue;
                }
                // Warm statement, cached result.
                let before = db.statement_stats();
                assert_eq!(cold, observe(&mut session, &src, &mut *chooser), "{src}");
                // Warm statement, stale result: the same write on both
                // kernels, then the text again — warm here, cold there.
                for s in [&mut session, &mut fresh] {
                    s.query(write).unwrap();
                }
                let warm = observe(&mut session, &src, &mut *chooser);
                assert_eq!(statement_delta(&db, before), (2, 1, 0), "{src}");
                let fresher_db = database(&fx, JJ_DEFS, opts.clone());
                let mut fresher = fresher_db.session("fresher");
                fresher.query(write).unwrap();
                assert_eq!(warm, observe(&mut fresher, &src, &mut *chooser), "{src}");
                warm_runs += 1;
            }
        }
    }
    assert!(
        warm_runs >= 40 && writers >= 40,
        "{warm_runs} warm / {writers} writers"
    );

    // N distinct `new` statements leave nothing behind.
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    let mut session = db.session("one-offs");
    session.query("size(Ps)").unwrap();
    let before = db.statement_stats();
    for n in 0..50 {
        session.query(&format!("(new P(name: {n})).name")).unwrap();
    }
    assert_eq!(db.statement_stats().entries, before.entries);
    assert_eq!(statement_delta(&db, before), (0, 50, 0));
}

/// (e) The statement cache is bounded by the result cache's capacity,
/// with its FIFO discipline.
#[test]
fn retained_statements_are_bounded_by_the_cache_capacity() {
    let fx = jack_jill();
    let opts = DbOptions {
        cache_capacity: 4,
        ..DbOptions::default()
    };
    let db = database(&fx, JJ_DEFS, opts);
    let mut session = db.session("many-texts");
    let text = |n: usize| format!("{{ p.name + {n} | p <- Ps }}");
    for n in 0..7 {
        session.query(&text(n)).unwrap();
        assert!(db.statement_stats().entries <= 4);
    }
    let s = db.statement_stats();
    assert_eq!((s.entries, s.capacity, s.evictions), (4, 4, 3));
    assert_eq!((s.hits, s.misses), (0, 7));
    // The newest text is resident, the oldest is not.
    session.query(&text(6)).unwrap();
    assert_eq!(db.statement_stats().hits, 1);
    session.query(&text(0)).unwrap();
    assert_eq!(db.statement_stats().misses, 8);

    // A kernel with no result cache retains no statement.
    let opts = DbOptions {
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let db = database(&fx, JJ_DEFS, opts);
    let mut session = db.session("uncached");
    for _ in 0..3 {
        assert!(!session.query("size(Ps)").unwrap().cached);
    }
    assert_eq!(db.statement_stats().entries, 0);
    assert_eq!(db.statement_stats().hits, 0);
}

/// (f) Readers re-asking one hot text while another session defines in
/// a loop: every `define` invalidates the statement mid-flight, every
/// reply is still the right one, and nobody deadlocks (state →
/// statements is the only order the two locks are ever taken in).
#[test]
fn a_hot_text_stays_correct_while_definitions_arrive() {
    let fx = jack_jill();
    let db = database(&fx, JJ_DEFS, DbOptions::default());
    let src = "{ p.name | p <- Ps } union { size(names()) }";
    let expected = db.session("oracle").query(src).unwrap().value;
    std::thread::scope(|scope| {
        for reader in 0..4 {
            let mut session = db.session(format!("reader-{reader}"));
            let expected = &expected;
            scope.spawn(move || {
                for _ in 0..300 {
                    let r = session.query(src).unwrap();
                    assert_eq!(&r.value, expected);
                    assert!(matches!(r.admitted, Some(Admitted::Concurrent { .. })));
                }
            });
        }
        let mut definer = db.session("definer");
        scope.spawn(move || {
            for n in 0..60 {
                definer.define(&format!("define d{n}() as {n};")).unwrap();
            }
        });
    });
    // One probe per request, plus one more for each request a `define`
    // overtook between its cold preparation and its admission.
    let s = db.statement_stats();
    assert!(s.hits + s.misses > 4 * 300, "{s:?}");
    assert!(s.entries <= 1, "{s:?}");
    assert_eq!(db.definitions().len(), 3 + 60);
}
