//! Parallel-execution support: telemetry handles and chunk arithmetic.
//!
//! The worker pool itself is `std::thread::scope` inside the executor
//! (`exec.rs`) — no queues, no persistent threads, no dependencies.
//! This module holds what the pool *reports* ([`ParMetrics`]) and the
//! partitioning arithmetic it uses (`chunk_bounds`).

use ioql_telemetry::{Counter, Histogram, MetricsRegistry};

/// Telemetry handles for the parallel executor. Strictly write-only
/// (the transparency guard): nothing here feeds a scheduling or
/// licensing decision, so a metered run and a bare one execute
/// identically. Handles from a disabled registry make every report a
/// no-op; `ParMetrics::default()` is the all-disabled set.
#[derive(Clone, Debug, Default)]
pub struct ParMetrics {
    /// Chunks dispatched to workers (across all mechanisms).
    pub chunks: Counter,
    /// Per-worker busy time, one observation per worker per dispatch.
    pub worker_busy_ns: Histogram,
    /// Licensed scans actually executed in parallel.
    pub par_scans: Counter,
    /// Hash-index builds partitioned across workers.
    pub par_index_builds: Counter,
    /// Set operators whose branches ran concurrently.
    pub par_set_ops: Counter,
    /// Licensed dispatches refused at run time: the chooser cannot fork.
    pub fallback_chooser: Counter,
    /// Licensed dispatches refused at run time: a finite governor budget
    /// on an axis the body charges (cells / set cardinality) makes the
    /// sequential trip position unreproducible.
    pub fallback_budget: Counter,
    /// Licensed dispatches refused at run time: too little work to
    /// split (fewer than two elements).
    pub fallback_tiny: Counter,
}

impl ParMetrics {
    /// Handles registered under the canonical `ioql_parallel_*` names.
    pub fn new(registry: &MetricsRegistry) -> ParMetrics {
        let runs = |op: &str| {
            registry.counter(
                &format!("ioql_parallel_runs_total{{op=\"{op}\"}}"),
                "Plan nodes executed in parallel, by operator.",
            )
        };
        let fallbacks = |reason: &str| {
            registry.counter(
                &format!("ioql_parallel_fallbacks_total{{reason=\"{reason}\"}}"),
                "Licensed parallel dispatches refused at run time, by reason.",
            )
        };
        ParMetrics {
            chunks: registry.counter(
                "ioql_parallel_chunks_total",
                "Work chunks dispatched to parallel workers.",
            ),
            worker_busy_ns: registry.histogram(
                "ioql_parallel_worker_busy_ns",
                "Nanoseconds each parallel worker spent executing a chunk.",
            ),
            par_scans: runs("scan"),
            par_index_builds: runs("index_build"),
            par_set_ops: runs("set_op"),
            fallback_chooser: fallbacks("chooser"),
            fallback_budget: fallbacks("budget"),
            fallback_tiny: fallbacks("tiny"),
        }
    }
}

/// Splits `0..n` into at most `workers` contiguous, maximally balanced,
/// non-empty ranges (sizes differ by at most one, larger chunks first).
pub(crate) fn chunk_bounds(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.min(n).max(1);
    let base = n / workers;
    let extra = n % workers;
    let mut bounds = Vec::with_capacity(workers);
    let mut lo = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_are_contiguous_balanced_and_cover() {
        for n in 0..50 {
            for workers in 1..10 {
                let b = chunk_bounds(n, workers);
                if n == 0 {
                    assert_eq!(b, vec![(0, 0)]);
                    continue;
                }
                assert_eq!(b.first().unwrap().0, 0);
                assert_eq!(b.last().unwrap().1, n);
                assert!(b.len() <= workers);
                let sizes: Vec<usize> = b.iter().map(|(lo, hi)| hi - lo).collect();
                assert!(sizes.iter().all(|&s| s > 0));
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} workers={workers} sizes={sizes:?}");
                for w in b.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
            }
        }
    }

    #[test]
    fn metrics_register_canonical_names() {
        let reg = MetricsRegistry::new(true);
        let m = ParMetrics::new(&reg);
        m.chunks.add(3);
        m.par_scans.inc();
        m.fallback_chooser.inc();
        assert_eq!(reg.counter_value("ioql_parallel_chunks_total"), Some(3));
        assert_eq!(
            reg.counter_value("ioql_parallel_runs_total{op=\"scan\"}"),
            Some(1)
        );
        assert_eq!(
            reg.counter_value("ioql_parallel_fallbacks_total{reason=\"chooser\"}"),
            Some(1)
        );
    }
}
