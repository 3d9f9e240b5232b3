//! End-to-end pipeline features and design-space flags: surface syntax
//! niceties, the ODMG design points the paper discusses (Notes 2 and 3,
//! inherited extents, lub partiality), and polymorphic empty sets.

use ioql::{Database, DbOptions, Mode, Value};
use ioql_schema::{Schema, SchemaOptions};
use ioql_syntax::parse_schema;

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }
    class Employee extends Person (extent Employees) {
        attribute int salary;
    }
    class Robot extends Object (extent Robots) {
        attribute bool friendly;
    }";

fn db() -> Database {
    let mut db = Database::from_ddl(DDL).unwrap();
    db.query(
        "{ new Person(name: n, age: n + 30) | n <- {1, 2} } union \
         { new Employee(name: 10, age: 40, salary: 1000) }",
    )
    .unwrap();
    db
}

fn int_set(xs: &[i64]) -> Value {
    Value::set(xs.iter().map(|i| Value::Int(*i)))
}

#[test]
fn records_and_projections() {
    let mut d = db();
    let r = d
        .query("{ struct(who: p.name, old: 35 <= p.age) | p <- Persons }")
        .unwrap();
    let set = r.value.as_set().unwrap();
    assert_eq!(set.len(), 2);
    // Project a field back out.
    let r2 = d
        .query("{ struct(who: p.name, old: 35 <= p.age).who | p <- Persons }")
        .unwrap();
    assert_eq!(r2.value, int_set(&[1, 2]));
}

#[test]
fn upcast_and_heterogeneous_union() {
    let mut d = db();
    // Employees as Persons; union with Persons is typed at set(Person).
    let r = d
        .query("{ ((Person) e).age | e <- Employees } union { p.age | p <- Persons }")
        .unwrap();
    assert_eq!(r.value, int_set(&[31, 32, 40]));
    let a = d
        .analyze("Persons union { (Person) e | e <- Employees }")
        .unwrap();
    assert_eq!(a.ty.to_string(), "set(Person)");
}

#[test]
fn lub_partiality_reported() {
    // The paper's §1 jab at the ODMG: some pairs of types have no lub.
    let d = db();
    let r = d.analyze("if true then 1 else false");
    match r {
        Err(ioql::DbError::Type(ioql_types::TypeError::NoLub(a, b))) => {
            assert_eq!(
                (a.to_string(), b.to_string()),
                ("int".into(), "bool".into())
            );
        }
        other => panic!("expected NoLub, got {other:?}"),
    }
    // Person and Robot DO have a lub — Object.
    let ok = d
        .analyze("if true then { p | p <- Persons } else { r | r <- Robots }")
        .unwrap();
    assert_eq!(ok.ty.to_string(), "set(Object)");
}

#[test]
fn empty_set_is_polymorphic() {
    let mut d = db();
    assert_eq!(d.query("{} union {1, 2}").unwrap().value, int_set(&[1, 2]));
    assert_eq!(
        d.query("size({} intersect Persons)").unwrap().value,
        Value::Int(0)
    );
    // {} on its own is set(⊥) — printed with the internal bottom.
    let a = d.analyze("{}").unwrap();
    assert_eq!(a.ty, ioql::Type::empty_set());
}

#[test]
fn boolean_sugar_and_select() {
    let mut d = db();
    let r = d
        .query("select p.name from p in Persons where 31 < p.age and p.age <= 40")
        .unwrap();
    assert_eq!(r.value, int_set(&[2]));
    let r2 = d
        .query("{ p.name | p <- Persons, not (p.age = 31) or p.name = 1 }")
        .unwrap();
    assert_eq!(r2.value, int_set(&[1, 2]));
}

#[test]
fn nested_comprehensions_and_nested_sets() {
    let mut d = db();
    let r = d
        .query("{ { p.age + q.age | q <- Persons } | p <- Persons }")
        .unwrap();
    // ages {31, 32}: inner sets {62,63} and {63,64}.
    let expect = Value::set([int_set(&[62, 63]), int_set(&[63, 64])]);
    assert_eq!(r.value, expect);
    assert_eq!(
        d.analyze("{ { 1 } }").unwrap().ty.to_string(),
        "set(set(int))"
    );
}

#[test]
fn definitions_compose_and_carry_effects() {
    let mut d = db();
    d.define(
        "define ages() as { p.age | p <- Persons }; \
         define olderThan(k: int) as { a | a <- ages(), k < a };",
    )
    .unwrap();
    let r = d.query("size(olderThan(31))").unwrap();
    assert_eq!(r.value, Value::Int(1));
    let r2 = d.query("size(olderThan(30))").unwrap();
    assert_eq!(r2.value, Value::Int(2));
    let a = d.analyze("olderThan(0)").unwrap();
    assert!(a
        .effect
        .reads
        .contains(&ioql::ast::ClassName::new("Person")));
    // Duplicate definition rejected.
    assert!(d.define("define ages() as {1};").is_err());
}

#[test]
fn object_identity_vs_attribute_equality() {
    let mut d = db();
    // Two distinct Persons with the same attribute values are == only to
    // themselves.
    let r = d
        .query("size({ struct(l: p, r: q) | p <- Persons, q <- Persons, p == q })")
        .unwrap();
    assert_eq!(r.value, Value::Int(2));
}

#[test]
fn inherited_extents_design_point() {
    // ODMG semantics: an Employee is also in Persons' extent.
    let classes = parse_schema(DDL).unwrap();
    let schema = Schema::with_options(
        classes,
        SchemaOptions {
            inherited_extents: true,
            ..Default::default()
        },
    )
    .unwrap();
    let mut db = Database::from_schema(schema, DbOptions::default()).unwrap();
    db.query("{ new Employee(name: 1, age: 50, salary: 9) }")
        .unwrap();
    assert_eq!(db.extent_len("Employees"), 1);
    assert_eq!(db.extent_len("Persons"), 1, "inherited membership");
    // Creating an Employee in a body whose *source* read Persons is
    // still fine (the source is materialised before iteration — ⊢' only
    // checks the body). But a body that itself reads Persons interferes
    // once the A-effect closes over superclass extents:
    let body_add_only = "{ (new Employee(name: p.age, age: 1, salary: 1)).salary                           | p <- Persons }";
    assert!(db.analyze(body_add_only).unwrap().deterministic);
    let body_reads_persons =
        "{ (new Employee(name: size(Persons), age: 1, salary: 1)).salary | p <- Persons }";
    let a = db.analyze(body_reads_persons).unwrap();
    assert!(
        !a.deterministic,
        "A(Employee) closes to A(Person) vs R(Person)"
    );
    // …whereas under the paper's default rule the same query is accepted:
    // new Employee touches only the Employees extent.
    let plain = {
        let mut p = Database::from_ddl(DDL).unwrap();
        p.query("{ new Person(name: 0, age: 0) }").unwrap();
        p
    };
    assert!(plain.analyze(body_reads_persons).unwrap().deterministic);
}

#[test]
fn default_extents_do_not_inherit() {
    let d = db();
    // Under the paper's rule the Employee is NOT in Persons.
    assert_eq!(d.extent_len("Persons"), 2);
    assert_eq!(d.extent_len("Employees"), 1);
    // So even a body that reads Persons and creates Employees is
    // deterministic here — the extents are disjoint.
    let a = d
        .analyze(
            "{ (new Employee(name: size(Persons), age: 1, salary: 1)).salary              | p <- Persons }",
        )
        .unwrap();
    assert!(a.deterministic);
}

#[test]
fn width_subtyping_design_point() {
    let classes = parse_schema(DDL).unwrap();
    let schema = Schema::with_options(
        classes,
        SchemaOptions {
            width_subtyping: true,
            ..Default::default()
        },
    )
    .unwrap();
    let db = Database::from_schema(schema, DbOptions::default()).unwrap();
    // Wider and narrower records now have a lub (the common fields).
    let a = db
        .analyze("if true then struct(a: 1, b: 2) else struct(a: 3)")
        .unwrap();
    assert_eq!(a.ty.to_string(), "<a: int>");
    // Default mode rejects it.
    let plain = Database::from_ddl(DDL).unwrap();
    assert!(plain
        .analyze("if true then struct(a: 1, b: 2) else struct(a: 3)")
        .is_err());
}

#[test]
fn extended_mode_via_options() {
    let ddl = "
        class Tally extends Object (extent Tallies) {
            attribute int n;
            int inc() { this.n = this.n + 1; return this.n; }
        }";
    let opts = DbOptions {
        method_mode: Mode::Extended,
        ..DbOptions::default()
    };
    let mut d = Database::from_ddl_with(ddl, opts).unwrap();
    d.query("{ new Tally(n: 0) }").unwrap();
    let r = d.query("{ t.inc() + t.inc() | t <- Tallies }").unwrap();
    assert_eq!(r.value, int_set(&[3])); // 1 + 2
}

#[test]
fn deep_path_expressions() {
    let ddl = "
        class Node extends Object (extent Nodes) {
            attribute int v;
            attribute Leaf next;
        }
        class Leaf extends Object (extent Leaves) {
            attribute int v;
        }";
    let mut d = Database::from_ddl(ddl).unwrap();
    d.query("{ new Node(v: 1, next: new Leaf(v: 42)) }")
        .unwrap();
    let r = d.query("{ n.next.v | n <- Nodes }").unwrap();
    assert_eq!(r.value, int_set(&[42]));
}

#[test]
fn quantifiers_end_to_end() {
    let mut d = db();
    let any_old = d.query("exists p in Persons : 31 < p.age").unwrap();
    assert_eq!(any_old.value, Value::Bool(true));
    let all_old = d.query("forall p in Persons : 31 <= p.age").unwrap();
    assert_eq!(all_old.value, Value::Bool(true));
    let all_very_old = d.query("forall p in Persons : 32 <= p.age").unwrap();
    assert_eq!(all_very_old.value, Value::Bool(false));
    // Vacuous quantification over an empty extent.
    let none = d.query("exists r in Robots : r.friendly").unwrap();
    assert_eq!(none.value, Value::Bool(false));
    let vac = d.query("forall r in Robots : r.friendly").unwrap();
    assert_eq!(vac.value, Value::Bool(true));
}

#[test]
fn sum_aggregate_end_to_end() {
    let mut d = db();
    let total = d.query("sum({ p.age | p <- Persons })").unwrap();
    assert_eq!(total.value, Value::Int(31 + 32));
    // Aggregate per group.
    let by_group = d
        .query("{ struct(k: g.key, total: sum(g.part)) | g <- group n in { p.age | p <- Persons } by n }")
        .unwrap();
    let expect = Value::set([
        Value::record([("k", Value::Int(31)), ("total", Value::Int(31))]),
        Value::record([("k", Value::Int(32)), ("total", Value::Int(32))]),
    ]);
    assert_eq!(by_group.value, expect);
    // Set semantics caveat, documented: duplicates collapse BEFORE
    // summation (these are sets, not bags).
    let collapsed = d.query("sum({ 5 | p <- Persons })").unwrap();
    assert_eq!(collapsed.value, Value::Int(5));
}

#[test]
fn group_by_end_to_end() {
    let mut d = db();
    // Two Persons share no age; add one that collides with age 31.
    d.query("{ new Person(name: 3, age: 31) }").unwrap();
    let r = d.query("group p in Persons by p.age").unwrap();
    let groups = r.value.as_set().unwrap();
    // Ages {31, 31, 32} → two groups; duplicate groups collapse by set
    // semantics.
    assert_eq!(groups.len(), 2, "got {}", r.value);
    // Group sizes through a second query.
    let sizes = d
        .query("{ struct(k: g.key, n: size(g.part)) | g <- group p in Persons by p.age }")
        .unwrap();
    let expect = Value::set([
        Value::record([("k", Value::Int(31)), ("n", Value::Int(2))]),
        Value::record([("k", Value::Int(32)), ("n", Value::Int(1))]),
    ]);
    assert_eq!(sizes.value, expect);
}

/// The `group … by` witness binder captures nothing: a name free in the
/// grouped source or the key, or bound inside the key, is never picked,
/// so each text answers what it answers with that name spelled `y`.
#[test]
fn group_by_witness_captures_nothing() {
    let mut d = db();
    let cases = [
        (
            "{ group x in {1, 2} by x + x__witness | x__witness <- {10} }",
            "{{<key: 11, part: {1}>, <key: 12, part: {2}>}}",
        ),
        (
            "{ group x in { z | z <- {1, 2}, z < x__witness } by x | x__witness <- {2} }",
            "{{<key: 1, part: {1}>}}",
        ),
        (
            "group x in {1, 2} by sum({ x + x__witness | x__witness <- {10} })",
            "{<key: 11, part: {1}>, <key: 12, part: {2}>}",
        ),
    ];
    for (text, expected) in cases {
        for src in [text.to_string(), text.replace("x__witness", "y")] {
            let r = d.query(&src).unwrap();
            assert_eq!(r.value.to_string(), expected, "{src}");
        }
    }
}

#[test]
fn engines_agree_through_the_facade() {
    use ioql::Engine;
    let queries = [
        "{ p.age | p <- Persons, p.name < 3 }",
        "sum({ p.age | p <- Persons })",
        "{ new Person(name: 50, age: 50) } union Persons",
        "size(Employees union { e | e <- Employees })",
    ];
    for src in queries {
        let mut production = db();
        let opts = DbOptions {
            engine: Engine::SmallStep,
            ..DbOptions::default()
        };
        let mut spec = {
            let mut d = Database::from_ddl_with(DDL, opts).unwrap();
            d.install(production.store().clone()).unwrap();
            d
        };
        let a = spec.query(src).unwrap();
        let b = production.query(src).unwrap();
        assert_eq!(a.value, b.value, "{src}");
        assert_eq!(a.runtime_effect, b.runtime_effect, "{src}");
        // Only the spec machine counts steps.
        assert!(a.steps > 0 && b.steps == 0);
    }
}

#[test]
fn stable_results_across_runs() {
    // The canonical chooser gives reproducible answers run-to-run.
    let mut a = db();
    let mut b = db();
    for src in ["{ p.age | p <- Persons }", "size(Persons union Persons)"] {
        assert_eq!(a.query(src).unwrap().value, b.query(src).unwrap().value);
    }
}
