//! Latent method effects — the `ε''` of the (Method) effect rule.
//!
//! "In the (Method) rule we assume that methods have also been typed using
//! an effects system, and that the method's effect ε'' is included in the
//! overall effect of the method. Of course, we have assumed that methods
//! … can not side-effect the database, so the value of ε'' will always be
//! ∅. (If we allow more sophisticated methods, then this may not
//! necessarily be true, see §5.)" — paper §4.
//!
//! The query-level effect system therefore consumes method effects as a
//! *table*: read-only mode supplies the empty table (every lookup is ∅);
//! §5 extended mode supplies the table `ioql-methods`'s type checker
//! derives while it types each body. Keeping the table abstract here
//! avoids a dependency cycle between the query analysis and the method
//! language.

use crate::effect::Effect;
use ioql_ast::{ClassName, MethodName};
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// A table of method body effects, keyed by the *declaring* class
/// (overrides are separate entries under their own class).
#[derive(Clone, Debug, Default)]
pub struct MethodEffects {
    map: BTreeMap<(ClassName, MethodName), Effect>,
}

impl MethodEffects {
    /// The empty table — the paper's read-only methods (every effect ∅).
    pub fn read_only() -> Self {
        MethodEffects::default()
    }

    /// Records the body effect of `C::m` (keyed by declaring class).
    pub fn insert(&mut self, class: ClassName, method: MethodName, effect: Effect) {
        self.map.insert((class, method), effect);
    }

    /// The latent effect `ε''` of invoking `m` on a receiver whose
    /// *static* class is `receiver` — the one place dynamic dispatch is
    /// accounted for. The runtime receiver may be any subclass, running
    /// an override, so this is the union of the body effect of
    /// `mbody(receiver, m)` and of every override of `m` declared in a
    /// proper subclass of `receiver`. Overrides in sibling classes are
    /// unreachable and left out; absent entries and unknown methods are ∅.
    pub fn effect_of(&self, schema: &Schema, receiver: &ClassName, method: &MethodName) -> Effect {
        let Some((decl, _)) = schema.mbody(receiver, method) else {
            return Effect::empty();
        };
        let mut eff = self.get(&decl, method).cloned().unwrap_or_default();
        for ((class, m), e) in &self.map {
            if m == method && schema.extends(class, receiver) {
                eff.union_with(e);
            }
        }
        eff
    }

    /// Raw lookup of a body effect by declaring class.
    pub fn get(&self, class: &ClassName, method: &MethodName) -> Option<&Effect> {
        self.map.get(&(class.clone(), method.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{ClassDef, MExpr, MStmt, MethodDef, Type};

    #[test]
    fn lookup_resolves_declaring_class() {
        let schema = Schema::new(vec![
            ClassDef::new(
                "A",
                ClassName::object(),
                "As",
                [],
                [MethodDef::new(
                    "m",
                    [],
                    Type::Int,
                    vec![MStmt::Return(MExpr::Int(1))],
                )],
            ),
            ClassDef::plain("B", "A", "Bs", []),
        ])
        .unwrap();
        let mut table = MethodEffects::read_only();
        table.insert(ClassName::new("A"), MethodName::new("m"), Effect::read("A"));
        // B inherits A::m, so the lookup through B resolves to A's entry.
        let e = table.effect_of(&schema, &ClassName::new("B"), &MethodName::new("m"));
        assert_eq!(e, Effect::read("A"));
        // Unknown methods are ∅.
        let none = table.effect_of(&schema, &ClassName::new("B"), &MethodName::new("zz"));
        assert!(none.is_empty());
    }

    #[test]
    fn dispatch_unions_overrides_below_the_receiver_only() {
        // A declares m; B and its sibling S override it; C overrides it
        // again below B. Each body's effect reads its own class's extent.
        let m = || MethodDef::new("m", [], Type::Int, vec![MStmt::Return(MExpr::Int(1))]);
        let schema = Schema::new(vec![
            ClassDef::new("A", ClassName::object(), "As", [], [m()]),
            ClassDef::new("B", "A", "Bs", [], [m()]),
            ClassDef::new("C", "B", "Cs", [], [m()]),
            ClassDef::new("S", "A", "Ss", [], [m()]),
        ])
        .unwrap();
        let mut table = MethodEffects::read_only();
        for c in ["A", "B", "C", "S"] {
            table.insert(ClassName::new(c), MethodName::new("m"), Effect::read(c));
        }
        let reads = |receiver: &str| {
            let e = table.effect_of(&schema, &ClassName::new(receiver), &MethodName::new("m"));
            e.reads.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        };
        // Through a static B: B's own body or C's override, never S's.
        assert_eq!(reads("B"), ["B", "C"]);
        assert_eq!(reads("S"), ["S"]);
        assert_eq!(reads("A"), ["A", "B", "C", "S"]);
    }
}
