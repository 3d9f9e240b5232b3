//! A simple cardinality-based cost model.
//!
//! The optimizer orders commutative operands (`commute-by-cost`), and the
//! plan lowering chooses between an index probe and a filter, using
//! estimated cardinalities seeded from extent statistics — the moral
//! equivalent of a System-R-style catalogue, at the scale this semantics
//! engine needs. Predicate promotion uses no cost: it fires wherever its
//! guard allows.

use ioql_ast::{ExtentName, Qualifier, Query};
use std::collections::BTreeMap;

/// Extent statistics: current (or estimated) extent cardinalities.
#[derive(Clone, Debug)]
pub struct Stats {
    sizes: BTreeMap<ExtentName, usize>,
    /// Cardinality assumed for extents with no recorded statistic.
    pub default_extent_size: usize,
}

impl Default for Stats {
    /// Same as [`Stats::new`]. (A derived `Default` would zero
    /// `default_extent_size`, silently flattening every unrecorded
    /// cardinality estimate and flipping commute decisions.)
    fn default() -> Self {
        Stats::new()
    }
}

impl Stats {
    /// Empty statistics (every extent gets the default estimate).
    pub fn new() -> Self {
        Stats {
            sizes: BTreeMap::new(),
            default_extent_size: 1000,
        }
    }

    /// Records the size of one extent.
    pub fn set(&mut self, e: impl Into<ExtentName>, n: usize) {
        self.sizes.insert(e.into(), n);
    }

    /// The recorded or default size of an extent.
    pub fn extent_size(&self, e: &ExtentName) -> usize {
        self.sizes
            .get(e)
            .copied()
            .unwrap_or(self.default_extent_size)
    }

    /// Estimated cardinality of the set a query denotes (1 for
    /// non-sets — only relative order matters).
    pub fn cardinality(&self, q: &Query) -> usize {
        match q {
            Query::Extent(e) => self.extent_size(e),
            Query::Lit(ioql_ast::Value::Set(s)) => s.len(),
            Query::SetLit(items) => items.len(),
            Query::SetBin(op, a, b) => {
                let ca = self.cardinality(a);
                let cb = self.cardinality(b);
                match op {
                    ioql_ast::SetOp::Union => ca.saturating_add(cb),
                    ioql_ast::SetOp::Intersect => ca.min(cb),
                    ioql_ast::SetOp::Diff => ca,
                }
            }
            Query::Comp(_, quals) => {
                let mut n = 1usize;
                for cq in quals {
                    match cq {
                        Qualifier::Gen(_, src) => {
                            n = n.saturating_mul(self.cardinality(src).max(1));
                        }
                        // A predicate halves the estimate (selectivity ½).
                        Qualifier::Pred(_) => n = (n / 2).max(1),
                    }
                }
                n
            }
            Query::If(_, t, e) => self.cardinality(t).max(self.cardinality(e)),
            Query::Call(_, _) => self.default_extent_size,
            _ => 1,
        }
    }

    /// Estimated *work* to evaluate a query: roughly the number of
    /// reduction steps, dominated by comprehension unfolding.
    pub fn work(&self, q: &Query) -> usize {
        let mut total = 0usize;
        q.for_each_node(&mut |node| {
            total = total.saturating_add(match node {
                Query::Extent(e) => self.extent_size(e),
                Query::Comp(_, quals) => {
                    let mut n = 1usize;
                    for cq in quals {
                        if let Qualifier::Gen(_, src) = cq {
                            n = n.saturating_mul(self.cardinality(src).max(1));
                        }
                    }
                    n
                }
                _ => 1,
            });
        });
        total
    }

    /// Per-row work, in [`work`](Stats::work) units, of an expression the
    /// compile tier accepted: a bytecode dispatch costs near-constant
    /// time regardless of the expression's node count, so scan-vs-index
    /// choices made for a compiled predicate should not be biased by an
    /// interpreted-work estimate that will never be paid.
    pub fn compiled_work(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::VarName;

    #[test]
    fn default_is_new() {
        let d = Stats::default();
        let n = Stats::new();
        assert_eq!(d.default_extent_size, n.default_extent_size);
        assert_eq!(
            d.extent_size(&ExtentName::new("Unseen")),
            n.extent_size(&ExtentName::new("Unseen"))
        );
    }

    #[test]
    fn extent_sizes_seed_estimates() {
        let mut st = Stats::new();
        st.set("Big", 10_000);
        st.set("Small", 3);
        assert_eq!(st.cardinality(&Query::extent("Big")), 10_000);
        assert_eq!(st.cardinality(&Query::extent("Small")), 3);
        assert_eq!(
            st.cardinality(&Query::extent("Unknown")),
            st.default_extent_size
        );
    }

    #[test]
    fn set_op_estimates() {
        let mut st = Stats::new();
        st.set("A", 100);
        st.set("B", 10);
        let a = Query::extent("A");
        let b = Query::extent("B");
        assert_eq!(st.cardinality(&a.clone().union(b.clone())), 110);
        assert_eq!(st.cardinality(&a.clone().intersect(b.clone())), 10);
        assert_eq!(st.cardinality(&a.clone().except(b)), 100);
    }

    #[test]
    fn comprehension_multiplies_generators() {
        let mut st = Stats::new();
        st.set("A", 10);
        st.set("B", 20);
        let q = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("A")),
                Qualifier::Gen(VarName::new("y"), Query::extent("B")),
            ],
        );
        assert_eq!(st.cardinality(&q), 200);
        // Predicates reduce the estimate.
        let q2 = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("A")),
                Qualifier::Pred(Query::bool(true)),
                Qualifier::Gen(VarName::new("y"), Query::extent("B")),
            ],
        );
        assert_eq!(st.cardinality(&q2), 100);
    }

    #[test]
    fn work_reflects_nesting() {
        let mut st = Stats::new();
        st.set("A", 50);
        let flat = Query::extent("A");
        let nested = Query::comp(
            Query::var("x"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("A"))],
        );
        assert!(st.work(&nested) > st.work(&flat));
    }
}
