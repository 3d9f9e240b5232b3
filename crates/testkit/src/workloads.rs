//! Parameterised stores: the §1 schema populated to a requested size.

use crate::fixtures::{jack_jill, Fixture};
use ioql_ast::Value;
use ioql_rng::SmallRng;

/// A `jack_jill`-schema store with `n` `P` objects (names drawn from a
/// seeded RNG) and an empty `F` extent.
pub fn p_store(n: usize, seed: u64) -> Fixture {
    // Start from a clean slate: the jack_jill schema without its two
    // named objects.
    let mut fx = jack_jill();
    fx.store = {
        let mut s = ioql_store::Store::new();
        for (e, c) in fx.schema.extents() {
            s.declare_extent(e.clone(), c.clone());
        }
        s
    };
    fx.oids.clear();
    // Distinct names (shuffled): several workloads rely on the objects
    // being observably different.
    let mut names: Vec<i64> = (1..=n as i64).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..names.len()).rev() {
        let j = rng.gen_range(0..=i);
        names.swap(i, j);
    }
    for name in names {
        fx.create("P", vec![("name", Value::Int(name))], None);
    }
    fx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_store_sizes() {
        let fx = p_store(10, 1);
        assert_eq!(fx.extent_len("Ps"), 10);
        assert_eq!(fx.extent_len("Fs"), 0);
        // Reproducible.
        let fx2 = p_store(10, 1);
        assert_eq!(fx.store, fx2.store);
    }
}
