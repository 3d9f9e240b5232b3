//! From abstract effects to concrete extents: the read set a query's
//! inferred [`Effect`] touches.
//!
//! The effect atoms name *classes* (`R(C)`, `Ra(C)`); invalidation
//! machinery — per-extent version counters in `ioql-store`, the result
//! cache in `ioql` — works in *extents*. This module performs the
//! schema-directed translation:
//!
//! * `R(C)` reads exactly `extent_of(C)` — the `(Extent)` rule records
//!   the extent's own class, so no subclass closure is needed.
//! * `Ra(C)` reads the extents of `C` **and every subclass**: the
//!   analysis records the *static* receiver class, but at runtime the
//!   object's dynamic class may be any `D ≤ C`, and (without the ODMG
//!   `inherited_extents` option) such an object lives only in
//!   `extent_of(D)`. An attribute write to it bumps `extent_of(D)`, so
//!   the read set must include it to notice.
//!
//! The write atoms `A(C)` and `U(C)` read nothing: only a write-free
//! query's result is cached, so no write set is ever asked for.

use crate::effect::Effect;
use ioql_ast::{ClassName, ExtentName};
use ioql_schema::Schema;
use std::collections::BTreeSet;

/// The extents of `c` and all its proper subclasses — where an object
/// whose *static* class is `c` can actually live.
fn self_and_subclass_extents(schema: &Schema, c: &ClassName, out: &mut BTreeSet<ExtentName>) {
    for def in schema.classes() {
        if schema.extends(&def.name, c) {
            if let Some(e) = schema.extent_of(&def.name) {
                out.insert(e.clone());
            }
        }
    }
}

/// Maps an inferred [`Effect`] to the concrete extents it reads under
/// `schema` (see the module docs for the per-atom rules): the extents
/// whose contents — membership or member attributes — the effect may
/// observe. A cached result is valid while every extent here still
/// reports the version recorded at evaluation time.
pub fn effect_extents(schema: &Schema, effect: &Effect) -> BTreeSet<ExtentName> {
    let mut reads = BTreeSet::new();
    for c in &effect.reads {
        if let Some(e) = schema.extent_of(c) {
            reads.insert(e.clone());
        }
    }
    for c in &effect.attr_reads {
        self_and_subclass_extents(schema, c, &mut reads);
    }
    reads
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::ClassDef;
    use ioql_schema::SchemaOptions;

    fn classes() -> Vec<ClassDef> {
        vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Employee", "Person", "Employees", []),
            ClassDef::plain("Robot", ClassName::object(), "Robots", []),
        ]
    }

    fn schema() -> Schema {
        Schema::new(classes()).unwrap()
    }

    fn extents<const N: usize>(names: [&str; N]) -> BTreeSet<ExtentName> {
        names.into_iter().map(ExtentName::new).collect()
    }

    #[test]
    fn extent_reads_are_exact() {
        let s = schema();
        assert_eq!(
            effect_extents(&s, &Effect::read("Person")),
            extents(["Persons"])
        );
    }

    #[test]
    fn attr_reads_close_over_subclasses() {
        let s = schema();
        assert_eq!(
            effect_extents(&s, &Effect::attr_read("Person")),
            extents(["Persons", "Employees"])
        );
        // A subclass attr-read does not reach up to the superclass extent.
        assert_eq!(
            effect_extents(&s, &Effect::attr_read("Employee")),
            extents(["Employees"])
        );
    }

    #[test]
    fn adds_match_the_new_rule_extent_chain() {
        // `new Employee` bumps every extent of the (New) rule's chain; a
        // reader of the classes on that chain reads exactly that chain,
        // so it notices the add. The add atom itself reads nothing.
        let s = schema();
        let chain = s.extents_for_new(&ClassName::new("Employee"));
        assert_eq!(
            effect_extents(&s, &Effect::read("Employee")),
            chain.into_iter().collect()
        );
        assert!(effect_extents(&s, &Effect::add("Employee")).is_empty());

        let inherited = Schema::with_options(
            classes(),
            SchemaOptions {
                inherited_extents: true,
                ..Default::default()
            },
        )
        .unwrap();
        let chain = inherited.extents_for_new(&ClassName::new("Employee"));
        let readers = Effect::read("Employee").union(&Effect::read("Person"));
        assert_eq!(
            effect_extents(&inherited, &readers.union(&Effect::add("Employee"))),
            chain.into_iter().collect()
        );
    }

    #[test]
    fn updates_close_over_subclasses() {
        // `U(Person)` may update an Employee living only in `Employees`;
        // the `Ra(Person)` of a reader that could see it closes over the
        // same extents. The update atom itself reads nothing.
        let s = schema();
        assert!(effect_extents(&s, &Effect::update("Person")).is_empty());
        let e = Effect::attr_read("Person").union(&Effect::update("Person"));
        assert_eq!(effect_extents(&s, &e), extents(["Persons", "Employees"]));
    }

    #[test]
    fn unrelated_classes_do_not_leak() {
        let s = schema();
        let e = Effect::read("Robot").union(&Effect::attr_read("Robot"));
        assert_eq!(effect_extents(&s, &e), extents(["Robots"]));
    }

    #[test]
    fn empty_effect_touches_nothing() {
        assert!(effect_extents(&schema(), &Effect::empty()).is_empty());
    }
}
