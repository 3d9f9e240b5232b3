//! Determinism theorems (paper Theorems 4 and 7, DESIGN.md T4/T7),
//! checked by *exhaustive* enumeration of every `(ND comp)` order.
//!
//! * **T4** — functional (`new`-free) queries: all reduction orders give
//!   identical outcomes (here even without the oid bijection — no fresh
//!   oids are minted).
//! * **T7** — queries accepted by the `⊢'` discipline: all orders agree
//!   *up to a bijection on oids*, even though they create objects.
//! * The §1 query — rejected by `⊢'` — really is non-deterministic,
//!   confirming the analysis is not vacuous.

use ioql_effects::{infer_query, Discipline, EffectEnv};
use ioql_eval::{all_outcomes_equivalent, DefEnv, EvalConfig};
use ioql_testkit::fixtures::{jack_jill, jack_jill_query};
use ioql_testkit::gen::{GenConfig, QueryGen};
use ioql_types::{check_query, TypeEnv};

/// Small-store fixture: exploration is factorial in extent size, so the
/// theorem harness runs against the 2-element `Ps` of the paper.
fn small() -> ioql_testkit::fixtures::Fixture {
    jack_jill()
}

#[test]
fn t4_functional_queries_are_deterministic() {
    let fx = small();
    let tenv = TypeEnv::new(&fx.schema);
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let gen_cfg = GenConfig {
        allow_new: false,
        max_depth: 4,
        ..Default::default()
    };
    let mut checked = 0;
    for seed in 0..150u64 {
        let mut g = QueryGen::new(&fx.schema, seed, gen_cfg);
        // Functional population: sets of ints keep class targets out.
        let q = g.query(&ioql_ast::Type::set(ioql_ast::Type::Int));
        assert!(!q.contains_new(), "generator leaked a new: {q}");
        let (elab, _) = check_query(&tenv, &q).unwrap();
        if elab.size() > 60 {
            continue; // keep the factorial exploration tractable
        }
        checked += 1;
        assert!(
            all_outcomes_equivalent(&cfg, &defs, &fx.store, &elab, 200_000, 5_000),
            "seed {seed}: functional query with divergent outcomes: {elab}"
        );
    }
    assert!(checked > 50, "population too small: {checked}");
}

#[test]
fn t7_accepted_queries_are_deterministic_up_to_bijection() {
    let fx = small();
    let tenv = TypeEnv::new(&fx.schema);
    let det = EffectEnv::new(&fx.schema).with_discipline(Discipline::deterministic());
    let cfg = EvalConfig::new(&fx.schema);
    let defs = DefEnv::new();
    let gen_cfg = GenConfig {
        allow_new: true,
        max_depth: 4,
        ..Default::default()
    };
    let mut accepted = 0;
    for seed in 0..400u64 {
        let mut g = QueryGen::new(&fx.schema, seed, gen_cfg);
        let target = g.target_type();
        let q = g.query(&target);
        let (elab, _) = check_query(&tenv, &q).unwrap();
        if elab.size() > 55 {
            continue;
        }
        // Only ⊢'-accepted queries carry the guarantee.
        if infer_query(&det, &elab).is_err() {
            continue;
        }
        accepted += 1;
        assert!(
            all_outcomes_equivalent(&cfg, &defs, &fx.store, &elab, 200_000, 5_000),
            "seed {seed}: ⊢'-accepted query with divergent outcomes: {elab}"
        );
    }
    assert!(
        accepted > 40,
        "too few ⊢'-accepted samples to be meaningful: {accepted}"
    );
}

#[test]
fn t7_acceptance_includes_object_creating_queries() {
    // The point of ⊢' over Theorem 4: creation without reading the same
    // extent is still deterministic. This query creates an F per P.
    let fx = small();
    let q = fx.query("{ (new F(name: p.name, pal: p)).name | p <- Ps }");
    let tenv = TypeEnv::new(&fx.schema);
    let (elab, _) = check_query(&tenv, &q).unwrap();
    let det = EffectEnv::new(&fx.schema).with_discipline(Discipline::deterministic());
    assert!(
        infer_query(&det, &elab).is_ok(),
        "A(F) without R(F) in the body must pass ⊢'"
    );
    let cfg = EvalConfig::new(&fx.schema);
    assert!(all_outcomes_equivalent(
        &cfg,
        &DefEnv::new(),
        &fx.store,
        &elab,
        100_000,
        5_000
    ));
}

#[test]
fn rejected_paper_query_is_really_nondeterministic() {
    // ⊢' rejection is not vacuous: the §1 query has two distinct
    // outcomes.
    let fx = small();
    let q = fx.query(jack_jill_query());
    let tenv = TypeEnv::new(&fx.schema);
    let (elab, _) = check_query(&tenv, &q).unwrap();
    let det = EffectEnv::new(&fx.schema).with_discipline(Discipline::deterministic());
    assert!(infer_query(&det, &elab).is_err());
    let cfg = EvalConfig::new(&fx.schema);
    assert!(!all_outcomes_equivalent(
        &cfg,
        &DefEnv::new(),
        &fx.store,
        &elab,
        100_000,
        5_000
    ));
}

#[test]
fn conservativity_some_rejected_queries_are_harmless() {
    // The analysis is sound, not complete: a body that reads Fs and adds
    // to Fs but whose *result* ignores the read is rejected by ⊢' yet
    // deterministic. Documenting the approximation keeps us honest.
    let fx = small();
    let q = fx.query(
        "{ (if size(Fs) < 100 then new F(name: 7, pal: p) else new F(name: 7, pal: p)).name \
         | p <- Ps }",
    );
    let tenv = TypeEnv::new(&fx.schema);
    let (elab, _) = check_query(&tenv, &q).unwrap();
    let det = EffectEnv::new(&fx.schema).with_discipline(Discipline::deterministic());
    assert!(infer_query(&det, &elab).is_err(), "conservatively rejected");
    let cfg = EvalConfig::new(&fx.schema);
    assert!(
        all_outcomes_equivalent(&cfg, &DefEnv::new(), &fx.store, &elab, 100_000, 5_000),
        "yet actually deterministic"
    );
}

/// `analyze` exists to print the `⊢'` diagnosis, so a handle that
/// requires determinism gets it too: the verdict is read off the one
/// derivation whatever the handle's discipline. The handle still refuses
/// to run the query, and a Figure 1 error is still an error.
#[test]
fn analyze_diagnoses_under_a_deterministic_handle() {
    let fx = small();
    let src = "size({ size(Ps) + (new P(name: 1)).name | p <- Ps })";
    for require_deterministic in [false, true] {
        let opts = ioql::DbOptions {
            require_deterministic,
            ..Default::default()
        };
        let mut db = ioql::Database::from_schema(fx.schema.clone(), opts).unwrap();
        *db.store_mut() = fx.store.clone();
        let a = db.analyze(src).unwrap();
        assert!(!a.deterministic, "{require_deterministic}");
        let diagnosis = a.determinism_diagnosis.unwrap();
        assert!(
            diagnosis.contains("R(P)") && diagnosis.contains("A(P)"),
            "{diagnosis}"
        );
        assert!(matches!(
            db.analyze("size(Ps) + true"),
            Err(ioql::DbError::Type(_))
        ));
        assert_eq!(
            matches!(db.query(src), Err(ioql::DbError::Effect(_))),
            require_deterministic
        );
    }
}
