//! The paper's worked examples, end to end (DESIGN.md experiments X1–X4).
//!
//! * X1 — §1's observably non-deterministic query: exactly the two
//!   outcomes `{"Peter","Jill"}` / `{"Peter","Jack"}`, flagged statically.
//! * X2 — §1's `loop()` variant: termination depends on visit order.
//! * X3 — §2's Employee schema with `NetSalary` and path expressions.
//! * X4 — §4's unsound-commutation example: commuting changes the result;
//!   the effect guard refuses; the optimizer leaves it alone.

use ioql::{Database, DbOptions, Value};
use ioql_eval::{FirstChooser, LastChooser};
use ioql_testkit::fixtures::{
    self, commute_counterexample_query, jack_jill, jack_jill_loop_query, jack_jill_query,
    persons_employees, JACK, JILL, PETER,
};

fn db_from(fx: &fixtures::Fixture) -> Database {
    let mut db = Database::from_schema(fx.schema.clone(), DbOptions::default()).unwrap();
    db.install(fx.store.clone()).unwrap();
    db
}

fn int_set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|i| Value::Int(*i)))
}

// ---------------------------------------------------------------- X1 --

#[test]
fn x1_both_outcomes_exist_and_no_others() {
    let fx = jack_jill();
    let mut db = db_from(&fx);
    let ex = db.explore(jack_jill_query(), 10_000).unwrap();
    assert!(!ex.truncated);
    assert!(!ex.any_failure());
    let distinct = ex.distinct_outcomes();
    assert_eq!(distinct.len(), 2, "the paper promises exactly two outcomes");
    let values: Vec<&Value> = distinct.iter().map(|o| &o.value).collect();
    let expect_a = int_set(&[PETER, JILL]); // visited Jack first
    let expect_b = int_set(&[PETER, JACK]); // visited Jill first
    assert!(
        values.contains(&&expect_a),
        "missing {{Peter, Jill}}: {values:?}"
    );
    assert!(
        values.contains(&&expect_b),
        "missing {{Peter, Jack}}: {values:?}"
    );
}

#[test]
fn x1_concrete_orders_give_paper_results() {
    // FirstChooser visits the smaller oid first — Jack (created first).
    let fx = jack_jill();
    let mut db = db_from(&fx);
    let r = db.query_with(jack_jill_query(), &mut FirstChooser).unwrap();
    assert_eq!(r.value, int_set(&[PETER, JILL]));
    assert_eq!(db.extent_len("Fs"), 1, "side effect: one F created");

    let fx2 = jack_jill();
    let mut db2 = db_from(&fx2);
    let r2 = db2.query_with(jack_jill_query(), &mut LastChooser).unwrap();
    assert_eq!(r2.value, int_set(&[PETER, JACK]));
}

#[test]
fn x1_static_analysis_flags_the_interference() {
    let fx = jack_jill();
    let db = db_from(&fx);
    let a = db.analyze(jack_jill_query()).unwrap();
    // "the source of the non-determinism ... is that the inner query both
    // reads and updates the extent of the class F" — paper §1.
    assert!(a.effect.reads.contains(&ioql::ast::ClassName::new("F")));
    assert!(a.effect.adds.contains(&ioql::ast::ClassName::new("F")));
    assert!(!a.deterministic);
    let diag = a.determinism_diagnosis.unwrap();
    assert!(diag.contains("reads and adds"), "diagnosis: {diag}");
    assert!(!a.functional);
}

#[test]
fn x1_runtime_effects_within_static_bound() {
    // Theorem 5 on the flagship query, every exploration path.
    let fx = jack_jill();
    let mut db = db_from(&fx);
    let a = db.analyze(jack_jill_query()).unwrap();
    let ex = db.explore(jack_jill_query(), 10_000).unwrap();
    for eff in &ex.effects {
        assert!(eff.subeffect(&a.effect));
    }
}

// ---------------------------------------------------------------- X2 --

#[test]
fn x2_termination_depends_on_visit_order() {
    let opts = DbOptions {
        method_fuel: 10_000, // enough for anything but `loop`
        ..DbOptions::default()
    };
    let fx = jack_jill();
    let mut db = Database::from_schema(fx.schema.clone(), opts.clone()).unwrap();
    db.install(fx.store.clone()).unwrap();

    // Jack (name = 1) first: hits `p.loop()` — diverges.
    let r = db.query_with(jack_jill_loop_query(), &mut FirstChooser);
    assert!(
        matches!(
            r,
            Err(ioql::DbError::Eval(
                ioql_eval::EvalError::MethodDiverged { .. }
            ))
        ),
        "visiting Jack first must diverge, got {r:?}"
    );

    // Jill first: an F is created before Jack is reached — terminates.
    let fx2 = jack_jill();
    let mut db2 = Database::from_schema(fx2.schema.clone(), opts.clone()).unwrap();
    db2.install(fx2.store.clone()).unwrap();
    let r2 = db2
        .query_with(jack_jill_loop_query(), &mut LastChooser)
        .unwrap();
    assert!(r2.value.as_set().is_some());
}

#[test]
fn x2_exploration_sees_both_fates() {
    let opts = DbOptions {
        method_fuel: 10_000,
        ..DbOptions::default()
    };
    let fx = jack_jill();
    let mut db = Database::from_schema(fx.schema.clone(), opts).unwrap();
    db.install(fx.store.clone()).unwrap();
    let ex = db.explore(jack_jill_loop_query(), 10_000).unwrap();
    let diverged = ex
        .runs
        .iter()
        .filter(|r| matches!(r, Err(ioql_eval::EvalError::MethodDiverged { .. })))
        .count();
    let completed = ex.runs.iter().filter(|r| r.is_ok()).count();
    assert!(diverged > 0, "no diverging path found");
    assert!(completed > 0, "no terminating path found");
}

// ---------------------------------------------------------------- X3 --

#[test]
fn x3_payroll_methods_and_path_expressions() {
    let fx = fixtures::payroll();
    let mut db = db_from(&fx);
    // NetSalary(20) = GrossSalary * 80 (basis points; see fixture docs).
    let r = db.query("{ e.NetSalary(20) | e <- Employees }").unwrap();
    assert_eq!(r.value, int_set(&[5000 * 80, 6000 * 80]));

    // Path expression through an object-valued attribute (paper §3.1:
    // "we can thus form so-called path expressions, e.g. x.foo.bar").
    let r2 = db
        .query("{ e.UniqueManager.GrossSalary | e <- Employees }")
        .unwrap();
    assert_eq!(r2.value, int_set(&[9000]));

    // Managers are Employees: the inherited method dispatches.
    let r3 = db.query("{ m.NetSalary(50) | m <- Managers }").unwrap();
    assert_eq!(r3.value, int_set(&[9000 * 50]));
}

#[test]
fn x3_select_sugar_matches_comprehension() {
    let fx = fixtures::payroll();
    let mut db = db_from(&fx);
    let a = db
        .query("select e.EmpID from e in Employees where 5500 <= e.GrossSalary")
        .unwrap();
    let mut db2 = db_from(&fx);
    let b = db2
        .query("{ e.EmpID | e <- Employees, 5500 <= e.GrossSalary }")
        .unwrap();
    assert_eq!(a.value, b.value);
    assert_eq!(a.value, int_set(&[3]));
}

// ---------------------------------------------------------------- X4 --

#[test]
fn x4_commuting_changes_the_result() {
    let fx = persons_employees();
    // As written: the count is read before the new Person exists → {1},
    // intersected with the created name {1} → {1}.
    let mut db = db_from(&fx);
    let r = db.query(commute_counterexample_query()).unwrap();
    assert_eq!(r.value, int_set(&[1]));

    // Hand-commuted: the new Person exists by the time the count is
    // taken → {2} ∩ {1} = {} — the paper's "different result: the empty
    // set!".
    let commuted = "{ (new Person(name: 1, address: 1)).name } intersect { size(Persons) }";
    let mut db2 = db_from(&fx);
    let r2 = db2.query(commuted).unwrap();
    assert_eq!(r2.value, Value::empty_set());
}

#[test]
fn x4_effect_guard_refuses_commutation() {
    let fx = persons_employees();
    let db = db_from(&fx);
    let a = db.analyze(commute_counterexample_query()).unwrap();
    assert_eq!(a.commutations.len(), 1);
    let v = &a.commutations[0];
    assert!(!v.safe, "interfering operands must not be commutable");
    assert!(v.left.reads.contains(&ioql::ast::ClassName::new("Person")));
    assert!(v.right.adds.contains(&ioql::ast::ClassName::new("Person")));
}

#[test]
fn x4_optimizer_leaves_the_counterexample_alone() {
    let fx = persons_employees();
    let db = db_from(&fx);
    let (optimized, applied) = db.optimize(commute_counterexample_query()).unwrap();
    assert!(
        applied.iter().all(|r| r.rule != "commute-by-cost"),
        "optimizer commuted interfering operands: {applied:?}"
    );
    // And running the optimized form still gives the original answer.
    let mut db2 = db_from(&fx);
    let orig = db2.query(commute_counterexample_query()).unwrap();
    let mut db3 = db_from(&fx);
    let opt = db3.query(&optimized.to_string()).unwrap();
    assert_eq!(orig.value, opt.value);
}

#[test]
fn x4_safe_commutation_on_noninterfering_operands() {
    // Theorem 8 positive case: both operands read-only → commuting
    // preserves the outcome.
    let fx = persons_employees();
    let mut db = db_from(&fx);
    let a = db
        .query("{ p.name | p <- Persons } union { e.name | e <- Employees }")
        .unwrap();
    let mut db2 = db_from(&fx);
    let b = db2
        .query("{ e.name | e <- Employees } union { p.name | p <- Persons }")
        .unwrap();
    assert_eq!(a.value, b.value);
    let analysis = db
        .analyze("{ p.name | p <- Persons } union { e.name | e <- Employees }")
        .unwrap();
    assert!(analysis.commutations[0].safe);
}
