//! Theorem 7's guard, decided once.
//!
//! Theorem 7 makes evaluation-order choices unobservable for queries whose
//! effect does not interfere with itself. The system leans on that in
//! several places — concurrent admission on a snapshot, result caching,
//! skipping the write-ahead log, lowering to physical operators that
//! deviate from qualifier-at-a-time interpretation — and every one of
//! them reads its licence from the single [`Thm7`] verdict computed here,
//! next to the effect it is a property of.

use crate::effect::Effect;
use ioql_ast::{DefName, Definition, Query};
use std::collections::BTreeSet;

/// The Theorem 7 verdict for one query under its inferred effect.
///
/// `write_free` and `new_free` are read off the *effect*, so they are
/// transitive through definitions (latent effects) and §5 methods (the
/// method-effect table) by construction. `invoke_free` and `defs_pure`
/// are the extra, syntactic conditions the physical-plan layer needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Thm7 {
    /// No `A(C)` and no `U(C)` atom: the query cannot change the store.
    pub write_free: bool,
    /// No `A(C)` atom — the paper's *functional* fragment (§3.4), which is
    /// deterministic outright (Theorem 4). The query text is also checked
    /// for `new`, so a caller handing in an effect that was not inferred
    /// for this query cannot talk the guard into accepting it.
    pub new_free: bool,
    /// No method invocation in the query itself.
    pub invoke_free: bool,
    /// Every definition reachable through calls exists and is itself
    /// `new`-free and invocation-free.
    pub defs_pure: bool,
}

impl Thm7 {
    /// Decides the guard for `q`, whose inferred effect is `effect`;
    /// `defs` is `DE`, consulted for the bodies of called definitions.
    pub fn decide<'d>(
        q: &Query,
        effect: &Effect,
        defs: impl Fn(&DefName) -> Option<&'d Definition>,
    ) -> Thm7 {
        let mut defs_pure = true;
        let mut seen = BTreeSet::new();
        let mut pending: Vec<DefName> = q.called_defs().into_iter().collect();
        while let Some(d) = pending.pop() {
            match defs(&d) {
                Some(def) if !def.body.contains_new() && !def.body.contains_invoke() => {
                    if seen.insert(d) {
                        pending.extend(def.body.called_defs());
                    }
                }
                _ => {
                    defs_pure = false;
                    break;
                }
            }
        }
        Thm7 {
            write_free: effect.is_read_only(),
            new_free: effect.adds.is_empty() && !q.contains_new(),
            invoke_free: !q.contains_invoke(),
            defs_pure,
        }
    }

    /// May run concurrently with any other admitted query, against a
    /// frozen snapshot: two write-free effects never interfere.
    pub fn snapshot_admissible(&self) -> bool {
        self.write_free
    }

    /// The result is a function of the versions of the read set, so it
    /// may be memoized (and has nothing to write to the log).
    pub fn cacheable(&self) -> bool {
        self.write_free
    }

    /// May be lowered to a physical plan: the operators' deviations from
    /// naive interpretation (ahead-of-draw index builds, independent set
    /// operands) are unobservable.
    pub fn lowerable(&self) -> bool {
        self.refusal().is_none()
    }

    /// Why the guard refuses, naming the first condition that fails;
    /// `None` exactly when [`Thm7::lowerable`]. A query that is not
    /// write-free always reports that first.
    pub fn refusal(&self) -> Option<&'static str> {
        if !self.write_free {
            Some("effect not read-only")
        } else if !self.new_free {
            Some("query contains `new`")
        } else if !self.invoke_free {
            Some("query invokes a method")
        } else if !self.defs_pure {
            Some("a called definition is unknown, creates objects, or invokes a method")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn decide(q: &Query, effect: &Effect, defs: &[Definition]) -> Thm7 {
        let map: BTreeMap<_, _> = defs.iter().map(|d| (d.name.clone(), d)).collect();
        Thm7::decide(q, effect, |d| map.get(d).copied())
    }

    #[test]
    fn a_pure_read_passes_every_condition() {
        let t = decide(&Query::extent("Ps"), &Effect::read("P"), &[]);
        assert!(t.snapshot_admissible() && t.cacheable() && t.lowerable());
        assert_eq!(t.refusal(), None);
    }

    #[test]
    fn write_freedom_is_read_off_the_effect() {
        // The text is clean; the latent effect of whatever it calls is not.
        let t = decide(&Query::extent("Ps"), &Effect::add("P"), &[]);
        assert!(!t.write_free && !t.new_free && !t.cacheable() && !t.snapshot_admissible());
        assert_eq!(t.refusal(), Some("effect not read-only"));
        let t = decide(&Query::extent("Ps"), &Effect::update("P"), &[]);
        assert!(!t.write_free && t.new_free);
    }

    #[test]
    fn a_mismatched_effect_cannot_hide_a_new() {
        let q = Query::new_obj("P", [("name", Query::int(1))]);
        let t = decide(&q, &Effect::empty(), &[]);
        assert!(!t.new_free && !t.lowerable());
    }

    #[test]
    fn definition_purity_is_transitive() {
        let inner = Definition::new("inner", [], Query::var("p").invoke("m", []));
        let outer = Definition::new("outer", [], Query::call("inner", []));
        let q = Query::call("outer", []);
        let t = decide(&q, &Effect::empty(), &[inner, outer.clone()]);
        assert!(t.write_free && t.invoke_free && !t.defs_pure && !t.lowerable());
        // An unknown callee is not pure either.
        assert!(!decide(&q, &Effect::empty(), &[outer]).defs_pure);
    }
}
