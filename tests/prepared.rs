//! One front-end pass, one `Prepared`, one Theorem 7 verdict.
//!
//! The kernel derives `σ ! ε` in a single walk and decides Theorem 7's
//! guard once; admission, the cache, the lowering, `analyze`, and
//! `explain` read that verdict. These tests hold every reader to it over
//! generated queries (both disciplines, definitions in scope), and pin
//! the bug the hand-copied guards had: a `new` reached through two
//! definitions (or a §5 method) was invisible to `Analysis::functional`.

#![allow(clippy::result_large_err)]

use ioql::effects::{infer_definition, infer_query, Discipline, EffectEnv};
use ioql::eval::DefEnv;
use ioql::opt::Stats;
use ioql::plan::lower;
use ioql::types::{check_definition, check_query, TypeEnv};
use ioql::{Admitted, Database, DbError, DbOptions, Mode};
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
                            assert_eq!((&p.elab, &p.ty, &p.effect), (&elab, &ty, &effect), "{src}");
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
