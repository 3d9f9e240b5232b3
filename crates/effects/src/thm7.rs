//! Theorem 7's guard, decided once.
//!
//! Theorem 7 makes evaluation-order choices unobservable for queries whose
//! effect does not interfere with itself. The system leans on that in
//! several places — concurrent admission on a snapshot, result caching,
//! skipping the write-ahead log, planning a hash-index probe (the one
//! physical operator that deviates from qualifier-at-a-time
//! interpretation) — and every one of them reads its licence from the
//! single [`Thm7`] verdict computed here, next to the effect it is a
//! property of.

use crate::effect::Effect;
use ioql_ast::Query;

/// The Theorem 7 verdict for one query under its inferred effect.
///
/// Both fields are read off the *effect*, so they are transitive through
/// definitions (latent effects) and §5 methods (the method-effect table)
/// by construction: a method or a definition that writes makes the query
/// not write-free. Nothing else is asked of an invocation. The plan
/// executor runs each one on the interpreter big-step uses, at the draw
/// position big-step reaches it, so a method's divergence, fuel and
/// stuck states are observed exactly as big-step observes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Thm7 {
    /// No `A(C)` and no `U(C)` atom: the query cannot change the store.
    pub write_free: bool,
    /// No `A(C)` atom — the paper's *functional* fragment (§3.4), which is
    /// deterministic outright (Theorem 4). The query text is also checked
    /// for `new`, so a caller handing in an effect that was not inferred
    /// for this query cannot talk the guard into accepting it.
    pub new_free: bool,
}

impl Thm7 {
    /// Decides the guard for `q`, whose inferred effect is `effect`.
    pub fn decide(q: &Query, effect: &Effect) -> Thm7 {
        Thm7 {
            write_free: effect.is_read_only(),
            new_free: effect.adds.is_empty() && !q.contains_new(),
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

    /// May plan a hash-index probe: the probe's index is built over an
    /// extent ahead of the chooser's draws and reused by every later
    /// drain of the execution, which is unobservable only while nothing
    /// the query does can change an extent or an attribute. Every other
    /// physical operator runs in qualifier-at-a-time order, so every
    /// query lowers; this verdict gates only the probe.
    pub fn indexable(&self) -> bool {
        self.refusal().is_none()
    }

    /// Why the guard refuses, naming the first condition that fails;
    /// `None` exactly when [`Thm7::indexable`]. A query that is not
    /// write-free always reports that first.
    pub fn refusal(&self) -> Option<&'static str> {
        if !self.write_free {
            Some("effect not read-only")
        } else if !self.new_free {
            Some("query contains `new`")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pure_read_passes_every_condition() {
        let t = Thm7::decide(&Query::extent("Ps"), &Effect::read("P"));
        assert!(t.snapshot_admissible() && t.cacheable() && t.indexable());
        assert_eq!(t.refusal(), None);
    }

    #[test]
    fn write_freedom_is_read_off_the_effect() {
        // The text is clean; the latent effect of whatever it calls is not.
        let t = Thm7::decide(&Query::extent("Ps"), &Effect::add("P"));
        assert!(!t.write_free && !t.new_free && !t.cacheable() && !t.snapshot_admissible());
        assert_eq!(t.refusal(), Some("effect not read-only"));
        let t = Thm7::decide(&Query::extent("Ps"), &Effect::update("P"));
        assert!(!t.write_free && t.new_free);
    }

    #[test]
    fn a_mismatched_effect_cannot_hide_a_new() {
        let q = Query::new_obj("P", [("name", Query::int(1))]);
        let t = Thm7::decide(&q, &Effect::empty());
        assert!(!t.new_free && !t.indexable());
    }

    /// An invocation, or a call of a definition whose body invokes, is
    /// refused only by a write in its effect.
    #[test]
    fn invocations_and_called_definitions_refuse_only_by_their_effect() {
        for q in [Query::var("p").invoke("m", []), Query::call("outer", [])] {
            assert!(Thm7::decide(&q, &Effect::attr_read("P")).indexable());
            let t = Thm7::decide(&q, &Effect::update("P"));
            assert_eq!(t.refusal(), Some("effect not read-only"));
        }
    }
}
