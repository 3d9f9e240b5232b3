//! A realistic end-to-end scenario: a university database exercising the
//! whole feature surface in one coherent domain — inheritance, methods,
//! path expressions, named definitions, quantifiers, grouping,
//! aggregation, static analysis, optimization, exploration, and
//! persistence.

use ioql::{Database, Value};

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }
    class Student extends Person (extent Students) {
        attribute int credits;
        attribute Dept major;
        bool canGraduate() { return 120 <= this.credits; }
    }
    class Lecturer extends Person (extent Lecturers) {
        attribute Dept dept;
        attribute int salary;
        int adjusted(int pct) { return this.salary * pct; }
    }
    class Dept extends Object (extent Depts) {
        attribute int code;
        attribute int budget;
    }";

fn db() -> Database {
    let mut db = Database::from_ddl(DDL).unwrap();
    db.query("{ new Dept(code: c, budget: c * 1000) | c <- {1, 2, 3} }")
        .unwrap();
    // Students across departments; credits spread around the threshold.
    db.query(
        "{ new Student(name: 100 + d.code * 10 + k, age: 20 + k,
                       credits: 90 + k * 15, major: d)
           | d <- Depts, k <- {1, 2, 3} }",
    )
    .unwrap();
    // One lecturer per department.
    db.query(
        "{ new Lecturer(name: 500 + d.code, age: 40 + d.code,
                        dept: d, salary: 5000 + d.code * 100)
           | d <- Depts }",
    )
    .unwrap();
    db
}

fn int_set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|i| Value::Int(*i)))
}

#[test]
fn population_is_as_designed() {
    let d = db();
    assert_eq!(d.extent_len("Depts"), 3);
    assert_eq!(d.extent_len("Students"), 9);
    assert_eq!(d.extent_len("Lecturers"), 3);
    // No inherited extents by default.
    assert_eq!(d.extent_len("Persons"), 0);
}

#[test]
fn graduation_report_uses_methods_and_paths() {
    let mut d = db();
    // canGraduate: credits 90+k*15 ⇒ k=2 (120) and k=3 (135) qualify.
    let r = d
        .query("size({ s | s <- Students, s.canGraduate() })")
        .unwrap();
    assert_eq!(r.value, Value::Int(6));
    // Path expression to the major's budget.
    let budgets = d
        .query("{ s.major.budget | s <- Students, s.canGraduate() }")
        .unwrap();
    assert_eq!(budgets.value, int_set(&[1000, 2000, 3000]));
}

#[test]
fn named_definitions_compose_across_queries() {
    let mut d = db();
    d.define(
        "define inDept(dd: Dept) as { s | s <- Students, s.major == dd };
         define deptLoad(dd: Dept) as size(inDept(dd));",
    )
    .unwrap();
    let loads = d.query("{ deptLoad(dd) | dd <- Depts }").unwrap();
    assert_eq!(loads.value, int_set(&[3]));
    let a = d.analyze("{ deptLoad(dd) | dd <- Depts }").unwrap();
    assert!(a.deterministic && a.functional);
    assert!(a
        .effect
        .reads
        .contains(&ioql::ast::ClassName::new("Student")));
    assert!(a.effect.reads.contains(&ioql::ast::ClassName::new("Dept")));
}

#[test]
fn quantifiers_grouping_and_aggregates_together() {
    let mut d = db();
    // Every lecturer out-earns 5000?
    let all = d.query("forall l in Lecturers : 5000 < l.salary").unwrap();
    assert_eq!(all.value, Value::Bool(true));
    // Any student already graduable at age 21?
    let any = d
        .query("exists s in Students : s.canGraduate() and s.age <= 22")
        .unwrap();
    assert_eq!(any.value, Value::Bool(true));
    // Total credits per age cohort.
    let per_age = d
        .query(
            "{ struct(age: g.key, total: sum({ s.credits | s <- g.part }))
               | g <- group s in Students by s.age }",
        )
        .unwrap();
    // Cohorts 21/22/23 with credits 105/120/135 (same per dept — set
    // semantics collapses the three departments' identical credit
    // values before summation).
    let expect = Value::set([
        Value::record([("age", Value::Int(21)), ("total", Value::Int(105))]),
        Value::record([("age", Value::Int(22)), ("total", Value::Int(120))]),
        Value::record([("age", Value::Int(23)), ("total", Value::Int(135))]),
    ]);
    assert_eq!(per_age.value, expect);
}

#[test]
fn upcasts_unify_people() {
    let mut d = db();
    let everyone = d
        .query(
            "{ ((Person) s).age | s <- Students } union \
             { ((Person) l).age | l <- Lecturers }",
        )
        .unwrap();
    assert_eq!(everyone.value, int_set(&[21, 22, 23, 41, 42, 43]));
}

#[test]
fn optimizer_speeds_up_the_audit_join() {
    let mut d = db();
    let audit = "{ s.credits + l.salary \
                  | s <- Students, l <- Lecturers, s.canGraduate() }";
    // canGraduate is a method call — divergence-safe promotion is
    // refused (methods may not terminate). The attribute version moves:
    let audit2 = "{ s.credits + l.salary \
                   | s <- Students, l <- Lecturers, 120 <= s.credits }";
    let (_, applied) = d.optimize(audit).unwrap();
    assert!(
        applied.iter().all(|r| r.rule != "promote-predicates"),
        "method predicates must not be promoted: {applied:?}"
    );
    let (opt2, applied2) = d.optimize(audit2).unwrap();
    assert!(applied2.iter().any(|r| r.rule == "promote-predicates"));
    // And the rewrite pays: fewer reduction steps on the spec machine,
    // which runs each text as written and counts (no cache, so every
    // run is evaluated).
    let mut spec = d.session("spec");
    spec.set_options(ioql::DbOptions {
        engine: ioql::Engine::SmallStep,
        cache_capacity: 0,
        ..d.options()
    });
    let naive_steps = spec.query(audit2).unwrap().steps;
    let opt_steps = spec.query(&opt2.to_string()).unwrap().steps;
    assert!(opt_steps < naive_steps, "{opt_steps} !< {naive_steps}");
    // Same answer.
    assert_eq!(
        d.query(audit2).unwrap().value,
        d.query(&opt2.to_string()).unwrap().value
    );
}

#[test]
fn audit_trail_is_deterministic_and_provably_so() {
    let d = db();
    // A reporting query that *creates* audit records while reading
    // students — different extents, so ⊢' accepts and all orders agree.
    let mut d2 = Database::from_ddl(
        "
        class Item extends Object (extent Items) { attribute int v; }
        class Audit extends Object (extent Audits) { attribute int seen; }",
    )
    .unwrap();
    d2.query("{ new Item(v: k) | k <- {1, 2, 3} }").unwrap();
    let q = "{ (new Audit(seen: i.v)).seen | i <- Items }";
    let a = d2.analyze(q).unwrap();
    assert!(a.deterministic, "{:?}", a.determinism_diagnosis);
    let ex = d2.explore(q, 10_000).unwrap();
    assert_eq!(ex.distinct_outcomes().len(), 1);
    let _ = d;
}

#[test]
fn persistence_roundtrip_preserves_query_results() {
    let mut d = db();
    let before = d
        .query("{ struct(n: s.name, c: s.credits) | s <- Students }")
        .unwrap();
    let dump = d.dump();
    let mut d2 = Database::from_ddl(DDL).unwrap();
    d2.load(&dump).unwrap();
    let after = d2
        .query("{ struct(n: s.name, c: s.credits) | s <- Students }")
        .unwrap();
    assert_eq!(before.value, after.value);
    // Object identity survives: majors still point at the same depts.
    let majors = d2.query("size({ s.major | s <- Students })").unwrap();
    assert_eq!(majors.value, Value::Int(3));
    // And fresh creation after a load does not collide with loaded oids.
    d2.query("{ new Dept(code: 9, budget: 9) }").unwrap();
    assert_eq!(d2.extent_len("Depts"), 4);
}

#[test]
fn trace_of_a_real_query_names_the_rules() {
    let d = db();
    let t = d.trace("sum({ dd.budget | dd <- Depts })").unwrap();
    let rules: Vec<&str> = t.steps.iter().map(|s| s.rule).collect();
    assert!(rules.contains(&"(Extent)"));
    assert!(rules.contains(&"(ND comp)"));
    assert!(rules.contains(&"(Attribute)"));
    assert!(rules.contains(&"(Sum)"));
    assert_eq!(t.result.unwrap(), Value::Int(6000));
}
