//! The statement cache: a query *text* is judged once.
//!
//! Figure 1/3's judgement `q : σ ! ε` and the Theorem 7 verdict read the
//! query text, the schema, the method-effect table, `D`, the Figure 1
//! options and the `⊢` / `⊢'` discipline — never the store. The first
//! two are fixed for a kernel's lifetime; the rest is this cache's key
//! and validity rule:
//!
//! * **Key** — `StatementKey`: `(source text, TypeOptions, ⊢ / ⊢')`.
//!   Two handles with different options never share an entry.
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
use std::sync::Arc;

/// Everything a judgement reads that can differ between two requests to
/// one kernel under one catalogue.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct StatementKey {
    text: Arc<str>,
    type_options: TypeOptions,
    /// `⊢'` (reject interfering comprehensions) rather than `⊢`.
    deterministic: bool,
}

impl StatementKey {
    /// The key of `src` as asked by a handle with `opts`. Copies the
    /// text once: a miss moves the copy into the cache.
    pub fn new(opts: &DbOptions, src: &str) -> StatementKey {
        StatementKey {
            text: Arc::from(src),
            type_options: opts.type_options,
            deterministic: opts.require_deterministic,
        }
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
        key: &StatementKey,
        catalogue: &Arc<Catalogue>,
    ) -> Probe<Arc<Prepared>> {
        self.probe(key, |s| {
            Arc::ptr_eq(&s.catalogue, catalogue).then(|| Arc::clone(&s.prepared))
        })
    }
}
