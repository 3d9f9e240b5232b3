//! Resource governance for query evaluation.
//!
//! The paper's semantics is happy to diverge (`loop()`, §1) or to
//! materialise sets of any size; a production engine is not. The
//! [`Governor`] bounds a single evaluation along four independent axes —
//! wall-clock time, materialised comprehension cells, set cardinality,
//! and store growth — and carries a cooperative [`CancelToken`] so a
//! supervisor (another thread, a REPL signal handler, a chaos harness)
//! can abort an evaluation mid-flight.
//!
//! # Engine parity
//!
//! Both evaluators — the small-step machine and the big-step
//! normaliser — consult the governor at *semantically aligned* points,
//! so that for a given query, store, and chooser the two engines either
//! both succeed or both fail with the same
//! [`EvalError`] class:
//!
//! * **Cells** are charged once per element drawn from a comprehension
//!   generator, immediately after the [`Chooser`](crate::Chooser) call.
//!   Both engines issue the identical sequence of chooser calls (that is
//!   the differential-testing invariant), so the cell meter advances in
//!   lock-step.
//! * **Set cardinality** is observed where a set *value* comes into
//!   existence through a rule: reading an extent, applying a binary set
//!   operator, and completing a comprehension. Set literals are *not*
//!   observed — in the small-step machine a `SetLit` of values becomes a
//!   value without any rule firing, so the big-step evaluator skips them
//!   too. A comprehension's intermediate unions (small-step) are subsets
//!   of its final result, so "some observation exceeds the cap" agrees
//!   with the big-step engine's single observation of the final set.
//! * **Store growth** is charged at `(New)`, one unit per object.
//! * **Deadline and cancellation** are checked once per reduction step
//!   (small-step) / once per recursive evaluation (big-step's fuel
//!   `burn`). The engines may notice at slightly different `spent`
//!   values but always produce the same error class.
//!
//! When several limits are exceeded by the same query the engines agree
//! on *failing* but may report whichever limit their evaluation order
//! trips first; the robustness suite therefore injects one fault at a
//! time.

use ioql_telemetry::Counter;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::machine::EvalError;

/// The resource axis that was exhausted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ResourceKind {
    /// The wall-clock deadline passed.
    WallClock,
    /// Too many comprehension cells were materialised.
    Cells,
    /// A set value exceeded the cardinality cap.
    SetCardinality,
    /// The query created too many objects.
    StoreGrowth,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResourceKind::WallClock => "wall-clock",
            ResourceKind::Cells => "cells",
            ResourceKind::SetCardinality => "set-cardinality",
            ResourceKind::StoreGrowth => "store-growth",
        })
    }
}

/// Per-evaluation resource limits. `None` on any axis means unlimited;
/// [`Limits::none`] (the default) governs nothing.
#[derive(Clone, Copy, Default, Debug)]
pub struct Limits {
    /// Wall-clock budget for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Maximum comprehension cells (generator elements drawn).
    pub max_cells: Option<u64>,
    /// Maximum cardinality of any set value produced by a rule.
    pub max_set_card: Option<u64>,
    /// Maximum number of objects the query may create.
    pub max_store_growth: Option<u64>,
}

impl Limits {
    /// No limits on any axis.
    pub fn none() -> Self {
        Limits::default()
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the comprehension-cell budget.
    pub fn with_max_cells(mut self, n: u64) -> Self {
        self.max_cells = Some(n);
        self
    }

    /// Sets the set-cardinality cap.
    pub fn with_max_set_card(mut self, n: u64) -> Self {
        self.max_set_card = Some(n);
        self
    }

    /// Sets the store-growth budget.
    pub fn with_max_store_growth(mut self, n: u64) -> Self {
        self.max_store_growth = Some(n);
        self
    }
}

/// A shared, thread-safe cancellation flag.
///
/// Clones share the flag: hand one to a supervisor, keep the governor
/// on the evaluating thread. Cancellation is cooperative — the engines
/// notice at their next checkpoint and return
/// [`EvalError::Cancelled`].
#[derive(Clone, Default, Debug)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Telemetry handles a [`Governor`] reports into — charges, budget
/// trips per [`ResourceKind`], and cancellations.
///
/// Strictly write-only from the governor's side (the transparency
/// guard): no counter value ever feeds a limit decision, so a metered
/// governor and a bare one make identical verdicts. Handles from a
/// disabled registry make every report a no-op.
#[derive(Clone, Debug, Default)]
pub struct GovernorMetrics {
    /// Deadline/cancellation checkpoints taken.
    pub checkpoints: Counter,
    /// Comprehension cells charged (sum of `n` across `charge_cells`).
    pub cell_charges: Counter,
    /// Store-growth units charged.
    pub growth_charges: Counter,
    /// Set-cardinality observations made.
    pub set_card_observations: Counter,
    /// Evaluations aborted through the [`CancelToken`].
    pub cancellations: Counter,
    /// Wall-clock deadline trips.
    pub trips_wall_clock: Counter,
    /// Cell-budget trips.
    pub trips_cells: Counter,
    /// Set-cardinality-cap trips.
    pub trips_set_card: Counter,
    /// Store-growth-budget trips.
    pub trips_growth: Counter,
}

impl GovernorMetrics {
    fn trip(&self, kind: ResourceKind) {
        match kind {
            ResourceKind::WallClock => self.trips_wall_clock.inc(),
            ResourceKind::Cells => self.trips_cells.inc(),
            ResourceKind::SetCardinality => self.trips_set_card.inc(),
            ResourceKind::StoreGrowth => self.trips_growth.inc(),
        }
    }
}

/// Meters one evaluation against a set of [`Limits`].
///
/// The governor is cheap to consult (atomic counters, a cached start
/// instant) and is threaded through both engines by reference via
/// [`EvalConfig::with_governor`](crate::EvalConfig::with_governor).
/// Counters persist across queries run under the same governor, so a
/// session-wide budget is a single long-lived instance and a
/// per-query budget is a fresh one.
///
/// # Thread-safe charging facade
///
/// Every meter is an atomic (`cells`/`growth` are `AtomicU64`, the
/// cancel flag an `Arc<AtomicBool>`, the metrics handles atomic
/// counters) and every charging method takes `&self`, so a single
/// `&Governor` may be shared across the plan layer's scoped worker
/// threads: workers charge the *same* cell meter with the same
/// per-draw granularity, trip semantics are unchanged (a charge that
/// pushes `spent` past the limit fails in whichever worker lands it),
/// and the deadline/cancellation checkpoint is taken per chunk element
/// exactly as the sequential engines take it per draw.
#[derive(Debug)]
pub struct Governor {
    limits: Limits,
    started: Instant,
    cells: AtomicU64,
    growth: AtomicU64,
    cancel: CancelToken,
    metrics: Option<GovernorMetrics>,
}

impl Governor {
    /// A governor enforcing `limits`, with the deadline clock starting
    /// now and a fresh cancellation token.
    pub fn new(limits: Limits) -> Self {
        Governor {
            limits,
            started: Instant::now(),
            cells: AtomicU64::new(0),
            growth: AtomicU64::new(0),
            cancel: CancelToken::new(),
            metrics: None,
        }
    }

    /// Attaches telemetry handles. Reporting is write-only — a metered
    /// governor enforces exactly what the bare one would.
    pub fn with_metrics(mut self, metrics: GovernorMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The limits being enforced.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// A handle that cancels evaluations running under this governor.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Comprehension cells charged so far.
    pub fn cells_spent(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Objects created so far.
    pub fn growth_spent(&self) -> u64 {
        self.growth.load(Ordering::Relaxed)
    }

    /// Remaining cell budget, or `None` when cells are unmetered.
    pub fn cells_remaining(&self) -> Option<u64> {
        self.limits
            .max_cells
            .map(|limit| limit.saturating_sub(self.cells.load(Ordering::Relaxed)))
    }

    /// A compact rendering of the meters — the flight recorder's
    /// governor-charges verdict. Reading the atomics here is a
    /// diagnostic surface, not an enforcement path: nothing in
    /// evaluation consults it.
    pub fn charges_report(&self) -> String {
        let cells = self.cells_spent();
        let growth = self.growth_spent();
        match self.cells_remaining() {
            Some(rem) => format!("cells={cells} growth={growth} cells_remaining={rem}"),
            None => format!("cells={cells} growth={growth} cells_remaining=unmetered"),
        }
    }

    /// The per-step / per-recursion checkpoint: cancellation first, then
    /// the wall-clock deadline.
    pub fn checkpoint(&self) -> Result<(), EvalError> {
        if let Some(m) = &self.metrics {
            m.checkpoints.inc();
        }
        if self.cancel.is_cancelled() {
            if let Some(m) = &self.metrics {
                m.cancellations.inc();
            }
            return Err(EvalError::Cancelled);
        }
        if let Some(deadline) = self.limits.deadline {
            let spent = self.started.elapsed();
            if spent > deadline {
                if let Some(m) = &self.metrics {
                    m.trip(ResourceKind::WallClock);
                }
                return Err(EvalError::ResourceExhausted {
                    kind: ResourceKind::WallClock,
                    spent: spent.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` comprehension cells (one per generator element drawn).
    pub fn charge_cells(&self, n: u64) -> Result<(), EvalError> {
        if let Some(m) = &self.metrics {
            m.cell_charges.add(n);
        }
        let spent = self.cells.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.limits.max_cells {
            if spent > limit {
                if let Some(m) = &self.metrics {
                    m.trip(ResourceKind::Cells);
                }
                return Err(EvalError::ResourceExhausted {
                    kind: ResourceKind::Cells,
                    spent,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Observes the cardinality of a set value produced by a rule.
    pub fn observe_set_card(&self, card: u64) -> Result<(), EvalError> {
        if let Some(m) = &self.metrics {
            m.set_card_observations.inc();
        }
        if let Some(limit) = self.limits.max_set_card {
            if card > limit {
                if let Some(m) = &self.metrics {
                    m.trip(ResourceKind::SetCardinality);
                }
                return Err(EvalError::ResourceExhausted {
                    kind: ResourceKind::SetCardinality,
                    spent: card,
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Charges `n` objects of store growth (one per `(New)`).
    pub fn charge_growth(&self, n: u64) -> Result<(), EvalError> {
        if let Some(m) = &self.metrics {
            m.growth_charges.add(n);
        }
        let spent = self.growth.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.limits.max_store_growth {
            if spent > limit {
                if let Some(m) = &self.metrics {
                    m.trip(ResourceKind::StoreGrowth);
                }
                return Err(EvalError::ResourceExhausted {
                    kind: ResourceKind::StoreGrowth,
                    spent,
                    limit,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let g = Governor::new(Limits::none());
        assert!(g.checkpoint().is_ok());
        assert!(g.charge_cells(1_000_000).is_ok());
        assert!(g.observe_set_card(u64::MAX).is_ok());
        assert!(g.charge_growth(1_000_000).is_ok());
    }

    #[test]
    fn cell_budget_trips_at_limit() {
        let g = Governor::new(Limits::none().with_max_cells(3));
        assert!(g.charge_cells(3).is_ok());
        let err = g.charge_cells(1).unwrap_err();
        assert_eq!(
            err,
            EvalError::ResourceExhausted {
                kind: ResourceKind::Cells,
                spent: 4,
                limit: 3
            }
        );
    }

    #[test]
    fn set_card_is_an_observation_not_a_meter() {
        let g = Governor::new(Limits::none().with_max_set_card(5));
        // Repeated small sets are fine — only a single too-large set trips.
        for _ in 0..100 {
            assert!(g.observe_set_card(5).is_ok());
        }
        assert!(matches!(
            g.observe_set_card(6),
            Err(EvalError::ResourceExhausted {
                kind: ResourceKind::SetCardinality,
                spent: 6,
                limit: 5
            })
        ));
    }

    #[test]
    fn growth_budget_accumulates() {
        let g = Governor::new(Limits::none().with_max_store_growth(2));
        assert!(g.charge_growth(1).is_ok());
        assert!(g.charge_growth(1).is_ok());
        assert!(matches!(
            g.charge_growth(1),
            Err(EvalError::ResourceExhausted {
                kind: ResourceKind::StoreGrowth,
                ..
            })
        ));
    }

    #[test]
    fn expired_deadline_trips_checkpoint() {
        let g = Governor::new(Limits::none().with_deadline(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            g.checkpoint(),
            Err(EvalError::ResourceExhausted {
                kind: ResourceKind::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let g = Governor::new(Limits::none().with_deadline(Duration::ZERO));
        g.cancel_token().cancel();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(g.checkpoint(), Err(EvalError::Cancelled));
    }

    #[test]
    fn metrics_report_charges_and_trips_without_changing_verdicts() {
        let reg = ioql_telemetry::MetricsRegistry::new(true);
        let m = GovernorMetrics {
            cell_charges: reg.counter("cells", "Cell charges."),
            trips_cells: reg.counter("trips", "Cell trips."),
            cancellations: reg.counter("cancels", "Cancellations."),
            ..GovernorMetrics::default()
        };
        let g = Governor::new(Limits::none().with_max_cells(2)).with_metrics(m);
        assert!(g.charge_cells(2).is_ok());
        // Same verdict a bare governor gives; the trip is also counted.
        assert!(g.charge_cells(1).is_err());
        assert_eq!(reg.counter_value("cells"), Some(3));
        assert_eq!(reg.counter_value("trips"), Some(1));
        g.cancel_token().cancel();
        assert_eq!(g.checkpoint(), Err(EvalError::Cancelled));
        assert_eq!(reg.counter_value("cancels"), Some(1));
    }

    #[test]
    fn cells_remaining_tracks_the_meter() {
        let g = Governor::new(Limits::none());
        assert_eq!(g.cells_remaining(), None); // unmetered
        let g = Governor::new(Limits::none().with_max_cells(10));
        assert_eq!(g.cells_remaining(), Some(10));
        g.charge_cells(4).unwrap();
        assert_eq!(g.cells_remaining(), Some(6));
        g.charge_cells(6).unwrap();
        assert_eq!(g.cells_remaining(), Some(0));
        let _ = g.charge_cells(1); // trips; meter saturates, no underflow
        assert_eq!(g.cells_remaining(), Some(0));
    }

    #[test]
    fn governor_is_a_thread_safe_charging_facade() {
        fn assert_shareable<T: Sync + Send>() {}
        assert_shareable::<Governor>();
        // Concurrent charges against one shared meter sum exactly.
        let g = Governor::new(Limits::none().with_max_cells(1_000_000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.charge_cells(1).unwrap();
                    }
                });
            }
        });
        assert_eq!(g.cells_spent(), 4000);
        assert_eq!(g.cells_remaining(), Some(996_000));
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let g = Governor::new(Limits::none());
        let t1 = g.cancel_token();
        let t2 = g.cancel_token();
        assert!(!t2.is_cancelled());
        t1.cancel();
        assert!(t2.is_cancelled());
        assert_eq!(g.checkpoint(), Err(EvalError::Cancelled));
    }
}
