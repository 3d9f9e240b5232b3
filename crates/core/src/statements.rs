//! The statement cache: a query *text* is judged once.
//!
//! Figure 1/3's judgement `q : σ ! ε` and the Theorem 7 verdict read the
//! query text, the schema, the method-effect table, `D`, the Figure 1
//! options and the `⊢` / `⊢'` discipline — never the store. The first
//! two are fixed for a kernel's lifetime; the rest is this cache's key
//! and validity rule:
//!
//! * **Key** — `StatementKey`: `(source text, TypeOptions, ⊢ / ⊢')`.
//!   Two handles with different options never share an entry. A
//!   request probes with its text borrowed (`StatementProbe`); the text
//!   is copied only into a key the cache keeps.
//! * **Validity** — each `Statement` holds the `Arc<Catalogue>` it was
//!   judged under and is served only while that is *pointer-equal* to
//!   the admitting state's. `define` swaps the pointer, so every entry
//!   goes stale at once with no version scheme; holding the `Arc` is
//!   what rules out the address being reused by a later catalogue.
//! * **Retention** — only successful preparations, and only those the
//!   result cache would keep the result of (`cache::cache_refusal` is
//!   `None`: `DbOptions::cache_capacity > 0 && Thm7::cacheable()`, the
//!   one rule the cache gate reads too). Such a statement shares its AST
//!   with the result-cache key that exists anyway and costs ≈ 0.9 KB
//!   beside it (its text, type and effect sets), whereas keeping one-off
//!   `new` statements and uncached analytic texts was measured to cost
//!   resident memory for nothing (EXPERIMENTS.md B11). The bound and the
//!   FIFO discipline are the result cache's own (`cache::Fifo` at the
//!   kernel's `cache_capacity`), so there is no knob:
//!   [`Database::statement_stats`] and the `:stats` line `statements: …`
//!   report it.
//!
//! [`Database::statement_stats`]: crate::Database::statement_stats

use crate::cache::{Fifo, Probe};
use crate::database::DbOptions;
use crate::kernel::{Catalogue, Prepared};
use ioql_types::TypeOptions;
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Everything a judgement reads that can differ between two requests to
/// one kernel under one catalogue. The cache keeps its own copy of the
/// text; a request probes with its text borrowed ([`StatementProbe`]),
/// so a probe copies nothing and the text is copied once, by
/// [`to_key`](StatementProbe::to_key), when a judged statement is
/// retained.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StatementKey<T = Arc<str>> {
    text: T,
    type_options: TypeOptions,
    /// `⊢'` (reject interfering comprehensions) rather than `⊢`.
    deterministic: bool,
}

/// A request's key, its text borrowed from the request.
pub(crate) type StatementProbe<'a> = StatementKey<&'a str>;

impl<'a> StatementProbe<'a> {
    /// The key of `src` as asked by a handle with `opts`.
    pub fn new(opts: &DbOptions, src: &'a str) -> StatementProbe<'a> {
        StatementKey {
            text: src,
            type_options: opts.type_options,
            deterministic: opts.require_deterministic,
        }
    }

    /// The owned key, for the cache to keep.
    pub fn to_key(self) -> StatementKey {
        StatementKey {
            text: Arc::from(self.text),
            type_options: self.type_options,
            deterministic: self.deterministic,
        }
    }
}

/// A key's parts, however its text is held: what the cache hashes and
/// compares. `Fifo::probe` looks a probe up as a `&dyn KeyParts`, which
/// an owned key borrows as.
pub(crate) trait KeyParts {
    fn parts(&self) -> (&str, TypeOptions, bool);
}

impl<T: AsRef<str>> KeyParts for StatementKey<T> {
    fn parts(&self) -> (&str, TypeOptions, bool) {
        (self.text.as_ref(), self.type_options, self.deterministic)
    }
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// An owned key hashes and compares as its parts do, as `Borrow`
/// requires.
impl Hash for StatementKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyParts).hash(state);
    }
}

impl PartialEq for StatementKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for StatementKey {}

impl<'a> Borrow<dyn KeyParts + 'a> for StatementKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

/// A judged text and the catalogue it was judged under.
#[derive(Debug)]
pub(crate) struct Statement {
    pub catalogue: Arc<Catalogue>,
    pub prepared: Arc<Prepared>,
}

pub(crate) type StatementCache = Fifo<StatementKey, Statement>;

impl StatementCache {
    /// The statement under `key`, if it was judged under `catalogue`.
    pub fn lookup(
        &mut self,
        key: &StatementProbe<'_>,
        catalogue: &Arc<Catalogue>,
    ) -> Probe<Arc<Prepared>> {
        self.probe(key as &dyn KeyParts, |s| {
            Arc::ptr_eq(&s.catalogue, catalogue).then(|| Arc::clone(&s.prepared))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;

    /// A borrowed probe finds the owned key it equals — the two hash
    /// alike — and the key's other parts still tell two handles'
    /// statements apart.
    #[test]
    fn a_borrowed_probe_finds_the_owned_key() {
        let db = Database::from_ddl("class P extends Object (extent Ps) { attribute int name; }")
            .unwrap();
        let opts = DbOptions::default();
        let src = "{ p.name | p <- Ps, p.name = 2 }";
        let catalogue = Arc::clone(&db.kernel().read_state().catalogue);
        let mut cache = StatementCache::new(4);
        let statement = Statement {
            catalogue: Arc::clone(&catalogue),
            prepared: Arc::new(db.prepare(src).unwrap()),
        };
        cache.insert(StatementProbe::new(&opts, src).to_key(), statement);
        let owned = String::from(src);
        let hit = cache.lookup(&StatementProbe::new(&opts, &owned), &catalogue);
        assert!(hit.hit().is_some());

        let strict = DbOptions {
            require_deterministic: true,
            ..DbOptions::default()
        };
        let probe = StatementProbe::new(&strict, src);
        assert!(cache.lookup(&probe, &catalogue).hit().is_none());
        let probe = StatementProbe::new(&opts, "size(Ps)");
        assert!(cache.lookup(&probe, &catalogue).hit().is_none());
        assert_eq!(cache.stats().hits, 1);
    }
}
