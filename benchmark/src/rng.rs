//! Seeded randomness for the request streams: a SplitMix64 generator, a
//! Zipf(s = 1) sampler over a fixed number of ranks, and a stratified
//! (Weyl) constant sequence.

/// SplitMix64 — small, fast, and good enough to pick keys.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, tag)` — one per client, per shape.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf with exponent 1 over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64 / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// The probability of `rank`.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A stratified constant sequence over `lo..lo + range`: a seeded offset
/// stepped by a fixed stride coprime with the range, so any run of draws
/// covers the range evenly. Query cost depends on some constants (how many
/// rows `p.age < K` keeps); even coverage keeps a window's mean cost the same
/// from seed to seed, which plain uniform draws would not over ~100 samples.
#[derive(Clone, Debug)]
pub struct Weyl {
    lo: i64,
    range: u64,
    step: u64,
    pos: u64,
}

impl Weyl {
    pub fn new(rng: &mut Rng, lo: i64, range: u64) -> Weyl {
        // The stride nearest the golden section of the range that shares no
        // factor with it.
        let mut step = ((range as f64) * 0.618_033_988_75) as u64 | 1;
        while gcd(step, range) != 1 {
            step += 2;
        }
        Weyl {
            lo,
            range,
            step: step % range.max(1),
            pos: rng.below(range),
        }
    }

    pub fn next(&mut self) -> i64 {
        let v = self.lo + self.pos as i64;
        self.pos = (self.pos + self.step) % self.range;
        v
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mass_follows_one_over_rank() {
        let z = Zipf::new(32);
        let total: f64 = (0..32).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((z.mass(0) / z.mass(1) - 2.0).abs() < 1e-9);
        assert!((z.mass(0) / z.mass(31) - 32.0).abs() < 1e-9);
        // The sampler realises those masses.
        let mut rng = Rng::derive(7, 0);
        let mut hits = [0u32; 32];
        let n = 200_000;
        for _ in 0..n {
            hits[z.sample(&mut rng)] += 1;
        }
        for (r, &h) in hits.iter().enumerate() {
            let got = h as f64 / n as f64;
            assert!(
                (got - z.mass(r)).abs() < 0.004,
                "rank {r}: sampled {got}, mass {}",
                z.mass(r)
            );
        }
    }

    #[test]
    fn weyl_covers_its_range_once_per_period() {
        for range in [50u64, 100, 20_000] {
            let mut w = Weyl::new(&mut Rng::derive(3, 0), 1, range);
            let mut seen = vec![false; range as usize];
            for _ in 0..range {
                let v = w.next();
                assert!((1..=range as i64).contains(&v));
                assert!(!std::mem::replace(&mut seen[(v - 1) as usize], true));
            }
        }
    }
}
