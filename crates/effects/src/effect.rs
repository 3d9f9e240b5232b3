//! The effect lattice.
//!
//! "Formally an effect is either the empty effect ∅, the union of two
//! effects, or the R(C) or A(C) effect. Equality of effects is modulo the
//! assumption that ∪ is associative, commutative, idempotent, and has ∅ as
//! a unit." — paper §4. A set-of-atoms representation realises that
//! quotient for free.

use ioql_ast::ClassName;
use ioql_schema::Schema;
use std::collections::BTreeSet;
use std::fmt;

/// An effect ε: a finite set of `R(C)` / `A(C)` / `Ra(C)` / `U(C)` atoms.
#[derive(Clone, PartialEq, Eq, Debug, Default, Hash)]
pub struct Effect {
    /// Classes whose extents may be read.
    pub reads: BTreeSet<ClassName>,
    /// Classes whose extents may be added to.
    pub adds: BTreeSet<ClassName>,
    /// Classes whose objects' attributes may be read (extension, §5).
    pub attr_reads: BTreeSet<ClassName>,
    /// Classes whose objects' attributes may be updated (extension, §5).
    pub updates: BTreeSet<ClassName>,
}

impl Effect {
    /// The empty effect ∅.
    pub fn empty() -> Effect {
        Effect::default()
    }

    /// The atomic effect `R(C)`.
    pub fn read(c: impl Into<ClassName>) -> Effect {
        let mut e = Effect::empty();
        e.reads.insert(c.into());
        e
    }

    /// The atomic effect `A(C)`.
    pub fn add(c: impl Into<ClassName>) -> Effect {
        let mut e = Effect::empty();
        e.adds.insert(c.into());
        e
    }

    /// The atomic effect `Ra(C)`.
    pub fn attr_read(c: impl Into<ClassName>) -> Effect {
        let mut e = Effect::empty();
        e.attr_reads.insert(c.into());
        e
    }

    /// The atomic effect `U(C)`.
    pub fn update(c: impl Into<ClassName>) -> Effect {
        let mut e = Effect::empty();
        e.updates.insert(c.into());
        e
    }

    /// Whether this is the empty effect.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
            && self.adds.is_empty()
            && self.attr_reads.is_empty()
            && self.updates.is_empty()
    }

    /// Effect union `ε ∪ ε'` (in place).
    pub fn union_with(&mut self, other: &Effect) {
        self.reads.extend(other.reads.iter().cloned());
        self.adds.extend(other.adds.iter().cloned());
        self.attr_reads.extend(other.attr_reads.iter().cloned());
        self.updates.extend(other.updates.iter().cloned());
    }

    /// Effect union `ε ∪ ε'`.
    pub fn union(mut self, other: &Effect) -> Effect {
        self.union_with(other);
        self
    }

    /// The subeffect relation `ε ⊆ ε'` (the paper's (Does) rule lets a
    /// derivation weaken to any supereffect; soundness states the runtime
    /// effect is a subeffect of the inferred one).
    pub fn subeffect(&self, other: &Effect) -> bool {
        self.reads.is_subset(&other.reads)
            && self.adds.is_subset(&other.adds)
            && self.attr_reads.is_subset(&other.attr_reads)
            && self.updates.is_subset(&other.updates)
    }

    /// Runtime-vs-static effect containment — the relation Theorem 5
    /// actually needs once attribute effects are tracked. Extent atoms
    /// (`R`/`A`) are exact: both the rules and the analysis name the
    /// extent's own class. Attribute atoms (`Ra`/`U`) are recorded with
    /// the *dynamic* class at runtime but the *static* receiver class by
    /// the analysis, so a runtime `Ra(Manager)` is covered by a static
    /// `Ra(Employee)` when `Manager ≤ Employee`.
    pub fn covered_by(&self, other: &Effect, schema: &Schema) -> bool {
        self.reads.is_subset(&other.reads)
            && self.adds.is_subset(&other.adds)
            && self
                .attr_reads
                .iter()
                .all(|c| other.attr_reads.iter().any(|s| schema.extends(c, s)))
            && self
                .updates
                .iter()
                .all(|c| other.updates.iter().any(|s| schema.extends(c, s)))
    }

    /// The paper's non-interference predicate:
    /// `nonint(ε) ≝ ∀R(C) ∈ ε. ¬∃A(C) ∈ ε`
    /// — no extent both read and added to. Class granularity is exact
    /// because the `(New)` rule touches only the object's own class
    /// extent; under the ODMG `inherited_extents` option the *inference*
    /// records an `A` atom for every superclass extent touched, so this
    /// predicate stays a plain per-class check.
    pub fn nonint(&self) -> bool {
        self.reads.is_disjoint(&self.adds)
    }

    /// Non-interference for the §5 extended design point. This predicate
    /// judges whether *repeated, arbitrarily ordered* runs of one
    /// computation (a comprehension body) commute, so any attribute
    /// update at all is self-interfering: two iterations may write the
    /// same object's attribute with different values, making the final
    /// store order-dependent. Hence: the paper's extent-level condition,
    /// plus `U = ∅`. (Pairwise commutation of two *different*
    /// computations is the finer [`Effect::noninterfering_with`].)
    pub fn nonint_extended(&self) -> bool {
        self.nonint() && self.updates.is_empty()
    }

    /// Pairwise non-interference of two effects — do the computations that
    /// produced `self` and `other` commute? Used by Theorem 8's `⊢''`:
    /// `q ∪ q'` may be commuted when their effects do not interfere.
    /// Extent-level: a read on one side vs. an add on the other. Attribute
    /// level (extended mode): update vs. read/update on related classes.
    pub fn noninterfering_with(&self, other: &Effect, schema: &Schema) -> bool {
        self.interference_witness(other, schema).is_none()
    }

    /// Like [`Effect::noninterfering_with`], but when the pair *does*
    /// interfere, names one interfering atom pair — `(atom from self,
    /// atom from other)`, rendered as in [`Effect`]'s `Display`, e.g.
    /// `("R(C)", "A(C)")`. `None` means the computations commute. The
    /// scheduler quotes the witness when it serializes a writer.
    pub fn interference_witness(
        &self,
        other: &Effect,
        schema: &Schema,
    ) -> Option<(String, String)> {
        if let Some(c) = self.reads.iter().find(|c| other.adds.contains(*c)) {
            return Some((format!("R({c})"), format!("A({c})")));
        }
        if let Some(c) = other.reads.iter().find(|c| self.adds.contains(*c)) {
            return Some((format!("A({c})"), format!("R({c})")));
        }
        let related = |a: &ClassName, b: &ClassName| schema.extends(a, b) || schema.extends(b, a);
        for u in &self.updates {
            if let Some(r) = other.attr_reads.iter().find(|r| related(u, r)) {
                return Some((format!("U({u})"), format!("Ra({r})")));
            }
            if let Some(w) = other.updates.iter().find(|w| related(u, w)) {
                return Some((format!("U({u})"), format!("U({w})")));
            }
        }
        for u in &other.updates {
            if let Some(r) = self.attr_reads.iter().find(|r| related(u, r)) {
                return Some((format!("Ra({r})"), format!("U({u})")));
            }
        }
        None
    }

    /// No `A(C)` and no `U(C)` atom — the query may read extents and
    /// attributes but never changes the store. This is the `write_free`
    /// field of the [`Thm7`](crate::Thm7) verdict; guards read it there.
    pub fn is_read_only(&self) -> bool {
        self.adds.is_empty() && self.updates.is_empty()
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.reads.len() + self.adds.len() + self.attr_reads.len() + self.updates.len()
    }
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        let mut put = |f: &mut fmt::Formatter<'_>, s: String| -> fmt::Result {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{s}")
        };
        for c in &self.reads {
            put(f, format!("R({c})"))?;
        }
        for c in &self.adds {
            put(f, format!("A({c})"))?;
        }
        for c in &self.attr_reads {
            put(f, format!("Ra({c})"))?;
        }
        for c in &self.updates {
            put(f, format!("U({c})"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::ClassDef;

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Employee", "Person", "Employees", []),
            ClassDef::plain("Robot", ClassName::object(), "Robots", []),
        ])
        .unwrap()
    }

    #[test]
    fn union_is_acui() {
        // Associative, commutative, idempotent, ∅ unit — all free from the
        // set representation; spot-check.
        let a = Effect::read("C").union(&Effect::add("D"));
        let b = Effect::add("D").union(&Effect::read("C"));
        assert_eq!(a, b);
        assert_eq!(a.clone().union(&a), a);
        assert_eq!(a.clone().union(&Effect::empty()), a);
    }

    #[test]
    fn subeffect_relation() {
        let small = Effect::read("C");
        let big = Effect::read("C").union(&Effect::add("D"));
        assert!(small.subeffect(&big));
        assert!(!big.subeffect(&small));
        assert!(Effect::empty().subeffect(&small));
        assert!(small.subeffect(&small));
    }

    #[test]
    fn nonint_detects_read_add_overlap() {
        assert!(Effect::read("C").union(&Effect::add("D")).nonint());
        assert!(!Effect::read("C").union(&Effect::add("C")).nonint());
        assert!(Effect::empty().nonint());
        // Two adds never interfere at extent level (paper: adds commute up
        // to oid bijection).
        assert!(Effect::add("C").union(&Effect::add("C")).nonint());
    }

    #[test]
    fn pairwise_interference() {
        let s = schema();
        let reader = Effect::read("Person");
        let adder = Effect::add("Person");
        assert!(!reader.noninterfering_with(&adder, &s));
        assert!(!adder.noninterfering_with(&reader, &s));
        assert!(reader.noninterfering_with(&reader, &s));
        assert!(adder.noninterfering_with(&Effect::add("Person"), &s));
        // Unrelated classes don't interfere.
        assert!(Effect::read("Robot").noninterfering_with(&Effect::add("Person"), &s));
    }

    #[test]
    fn update_interference_respects_subtyping() {
        let s = schema();
        let upd_emp = Effect::update("Employee");
        let read_person_attrs = Effect::attr_read("Person");
        // Employee ≤ Person: an updated Employee may be read as a Person.
        assert!(!upd_emp.noninterfering_with(&read_person_attrs, &s));
        assert!(!read_person_attrs.noninterfering_with(&upd_emp, &s));
        // Robot is unrelated.
        assert!(upd_emp.noninterfering_with(&Effect::attr_read("Robot"), &s));
        // Write/write on related classes interferes.
        assert!(!upd_emp.noninterfering_with(&Effect::update("Person"), &s));
    }

    #[test]
    fn interference_witness_names_the_atom_pair() {
        let s = schema();
        // Sides are reported in (self, other) orientation.
        let w = Effect::read("Person").interference_witness(&Effect::add("Person"), &s);
        assert_eq!(w, Some(("R(Person)".into(), "A(Person)".into())));
        let w = Effect::add("Person").interference_witness(&Effect::read("Person"), &s);
        assert_eq!(w, Some(("A(Person)".into(), "R(Person)".into())));
        // Attribute-level interference quotes the update/read atoms.
        let w = Effect::update("Employee").interference_witness(&Effect::attr_read("Person"), &s);
        assert_eq!(w, Some(("U(Employee)".into(), "Ra(Person)".into())));
        let w = Effect::attr_read("Person").interference_witness(&Effect::update("Employee"), &s);
        assert_eq!(w, Some(("Ra(Person)".into(), "U(Employee)".into())));
        let w = Effect::update("Employee").interference_witness(&Effect::update("Person"), &s);
        assert_eq!(w, Some(("U(Employee)".into(), "U(Person)".into())));
        // Commuting pairs yield no witness, matching the predicate.
        assert_eq!(
            Effect::read("Robot").interference_witness(&Effect::add("Person"), &s),
            None
        );
        assert_eq!(
            Effect::empty().interference_witness(&Effect::empty(), &s),
            None
        );
    }

    #[test]
    fn extended_nonint() {
        // Attribute reads alone are fine; any update is self-interfering
        // across comprehension iterations.
        let ok = Effect::attr_read("Robot").union(&Effect::read("Person"));
        assert!(ok.nonint_extended());
        let bad = Effect::update("Employee");
        assert!(!bad.nonint_extended());
        let bad2 = Effect::read("Person").union(&Effect::add("Person"));
        assert!(!bad2.nonint_extended());
    }

    #[test]
    fn display_formats_atoms() {
        assert_eq!(Effect::empty().to_string(), "0");
        let e = Effect::read("C").union(&Effect::add("D"));
        assert_eq!(e.to_string(), "R(C), A(D)");
    }
}
