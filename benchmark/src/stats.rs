//! Medians, percentiles and a fixed log-bucket latency histogram.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated between
/// the two neighbouring order statistics. `sorted` must be non-empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` and returns their median; `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    Some(quantile(values, 0.5))
}

/// Whether `n` samples support the `q`-quantile: at least ten of them must
/// lie beyond it (so p95 needs 200 samples, p99 needs 1000).
pub fn supports(n: u64, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0 - 1e-9
}

/// Where a window's latencies go: a `Vec` when a window holds hundreds of
/// samples, a histogram when it holds millions.
pub trait LatencySink: Default {
    fn record_ns(&mut self, ns: u64);
    fn absorb(&mut self, other: &Self);
    fn count(&self) -> u64;
    /// The `q`-quantile in ms; `None` when empty.
    fn quantile_ms(&mut self, q: f64) -> Option<f64>;
}

impl LatencySink for Vec<u64> {
    fn record_ns(&mut self, ns: u64) {
        self.push(ns);
    }

    fn absorb(&mut self, other: &Self) {
        self.extend(other);
    }

    fn count(&self) -> u64 {
        self.len() as u64
    }

    fn quantile_ms(&mut self, q: f64) -> Option<f64> {
        self.sort_unstable();
        let ms: Vec<f64> = self.iter().map(|&n| n as f64 / 1e6).collect();
        (!ms.is_empty()).then(|| quantile(&ms, q))
    }
}

/// Buckets per octave: bucket edges are 2^(i / 64) ns, about 1.1 % apart.
const SUB: f64 = 64.0;
/// 2^40 ns ≈ 18 minutes; anything slower lands in the last bucket.
const BUCKETS: usize = 40 * 64;

/// A latency histogram with fixed logarithmic buckets, for windows that hold
/// millions of samples. Quantiles are interpolated inside the bucket they
/// fall in, so they move continuously with the data.
#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencySink for LogHistogram {
    fn record_ns(&mut self, ns: u64) {
        let idx = ((ns.max(1) as f64).log2() * SUB) as usize;
        self.counts[idx.min(BUCKETS - 1)] += 1;
        self.total += 1;
    }

    fn absorb(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    fn count(&self) -> u64 {
        self.total
    }

    fn quantile_ms(&mut self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && below + c >= target {
                let frac = ((target - below) / c).clamp(0.0, 1.0);
                return Some(((i as f64 + frac) / SUB).exp2() / 1e6);
            }
            below += c;
        }
        Some((BUCKETS as f64 / SUB).exp2() / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.125), 1.5);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
    }

    #[test]
    fn histogram_quantiles_track_exact_ones_within_a_bucket() {
        let mut h = LogHistogram::default();
        let mut exact = Vec::new();
        let mut x = 900.0f64;
        for _ in 0..50_000 {
            x = (x * 1.000_2) % 5_000_000.0 + 900.0;
            h.record_ns(x as u64);
            exact.push((x as u64) as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let got = h.quantile_ms(q).unwrap() * 1e6;
            let want = quantile(&exact, q);
            assert!((got / want - 1.0).abs() < 0.012, "q={q}: {got} vs {want}");
        }
        let mut both = LogHistogram::default();
        both.absorb(&h);
        both.absorb(&h);
        assert_eq!(both.count(), 100_000);
        assert_eq!(both.quantile_ms(0.5), h.quantile_ms(0.5));
        assert_eq!(LogHistogram::default().quantile_ms(0.5), None);
        let mut exact_sink: Vec<u64> = exact.iter().map(|&x| x as u64).collect();
        let got = exact_sink.quantile_ms(0.5).unwrap() * 1e6;
        assert!((got / quantile(&exact, 0.5) - 1.0).abs() < 1e-12);
    }
}
