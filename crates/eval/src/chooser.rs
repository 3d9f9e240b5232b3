//! Choice strategies for the `(ND comp)` rule.
//!
//! "An element is picked at random from the generator set" — paper §3.3.
//! The reduction relation is the union over all possible picks; a
//! [`Chooser`] selects one branch per choice point, so a single run
//! samples one path through the relation and the scripted chooser lets
//! the [`explore`](crate::explore) module enumerate them all.

use crate::machine::EvalError;
use ioql_ast::VarName;
use ioql_rng::SmallRng;
use ioql_telemetry::Counter;

/// Resolves `(ND comp)` choice points: given `n ≥ 1` candidates, return
/// an index in `0..n`.
pub trait Chooser {
    /// Picks one of `n` candidates.
    fn choose(&mut self, n: usize) -> usize;
}

/// The stuck state of a draw for generator `x` whose chooser broke the
/// `i < n` contract: choosers come from callers, so this is input, not an
/// engine bug — the spec and production word it alike.
pub(crate) fn bad_pick(x: &VarName, i: usize, n: usize) -> EvalError {
    EvalError::Stuck {
        query: format!("{x} <- …"),
        reason: format!("chooser picked element {i} of {n}"),
    }
}

/// Always picks the first element (in the canonical value order) — a
/// deterministic *implementation strategy* for the non-deterministic
/// specification, as a real engine would use.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstChooser;

impl Chooser for FirstChooser {
    fn choose(&mut self, _n: usize) -> usize {
        0
    }
}

/// Always picks the last element — the "opposite order" strategy, handy
/// for demonstrating the paper's §1 non-determinism with just two runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LastChooser;

impl Chooser for LastChooser {
    fn choose(&mut self, n: usize) -> usize {
        n - 1
    }
}

/// Picks uniformly at random from a seeded generator — reproducible
/// sampling of the reduction relation.
#[derive(Clone, Debug)]
pub struct RandomChooser {
    rng: SmallRng,
}

impl RandomChooser {
    /// A chooser seeded for reproducibility.
    pub fn seeded(seed: u64) -> Self {
        RandomChooser {
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl Chooser for RandomChooser {
    fn choose(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// Replays a fixed script of choices, then falls back to `0`. Records the
/// arity of every choice point it passes, which is exactly what the
/// exhaustive explorer needs to enumerate sibling branches.
#[derive(Clone, Debug, Default)]
pub struct ScriptedChooser {
    script: Vec<usize>,
    pos: usize,
    /// Arities of the choice points encountered, in order.
    pub arities: Vec<usize>,
    /// The picks actually returned (post-clamping), in order.
    taken: Vec<usize>,
}

impl ScriptedChooser {
    /// A chooser replaying `script`.
    pub fn new(script: Vec<usize>) -> Self {
        ScriptedChooser {
            script,
            pos: 0,
            arities: Vec::new(),
            taken: Vec::new(),
        }
    }

    /// The choices actually taken. These are the *returned* picks —
    /// out-of-range script entries recorded after clamping, fallback
    /// zeros past the script's end — so replaying them through a fresh
    /// `ScriptedChooser` reproduces the observed run exactly. (An
    /// earlier version echoed the raw script entries, which could name a
    /// path that does not replay to the observed outcome.)
    pub fn taken(&self) -> Vec<usize> {
        self.taken.clone()
    }
}

impl Chooser for ScriptedChooser {
    fn choose(&mut self, n: usize) -> usize {
        self.arities.push(n);
        // `n = 0` violates the trait contract (callers only ask with a
        // non-empty candidate set), but must not underflow `n - 1`;
        // answer 0 without consuming a script entry.
        if n == 0 {
            self.taken.push(0);
            return 0;
        }
        let pick = self.script.get(self.pos).copied().unwrap_or(0).min(n - 1);
        self.pos += 1;
        self.taken.push(pick);
        pick
    }
}

/// Wraps any chooser, counting draws into a telemetry [`Counter`].
///
/// Pure delegation — the pick is computed by the inner chooser from the
/// same call sequence it would see bare, and the counter is write-only —
/// so wrapping cannot perturb `(ND comp)` outcomes (the transparency
/// guard; `tests/telemetry.rs` holds the facade to it).
pub struct CountingChooser<'a> {
    inner: &'a mut dyn Chooser,
    draws: Counter,
}

impl<'a> CountingChooser<'a> {
    /// Wraps `inner`, counting each `choose` call into `draws`.
    pub fn new(inner: &'a mut dyn Chooser, draws: Counter) -> Self {
        CountingChooser { inner, draws }
    }
}

impl Chooser for CountingChooser<'_> {
    fn choose(&mut self, n: usize) -> usize {
        self.draws.inc();
        self.inner.choose(n)
    }
}

/// Wraps any chooser, recording the picks it returns — the draw trace a
/// write-ahead log frames next to the query text so recovery can replay
/// the identical `(ND comp)` path through a [`ScriptedChooser`].
///
/// The wrapper is always in place on the database's query path (the
/// borrow structure demands one shape for logged and unlogged queries),
/// so it has an `active` switch:
///
/// * **inactive** (write-free query, or durability off): records
///   nothing — byte-identical behaviour to the bare chooser, keeping
///   the transparency guard intact.
/// * **active** (the commit will be logged): records each returned pick.
pub struct RecordingChooser<'a> {
    inner: &'a mut dyn Chooser,
    active: bool,
    trace: Vec<usize>,
}

impl<'a> RecordingChooser<'a> {
    /// Wraps `inner`; records returned picks only when `active`.
    pub fn new(inner: &'a mut dyn Chooser, active: bool) -> Self {
        RecordingChooser {
            inner,
            active,
            trace: Vec::new(),
        }
    }

    /// The picks returned so far (empty when inactive). Feeding this to
    /// [`ScriptedChooser::new`] replays the run: `ScriptedChooser`
    /// returns script entries verbatim while they last, and the entries
    /// are in-range by construction (each was a returned pick).
    pub fn trace(&self) -> &[usize] {
        &self.trace
    }
}

impl Chooser for RecordingChooser<'_> {
    fn choose(&mut self, n: usize) -> usize {
        let pick = self.inner.choose(n);
        if self.active {
            self.trace.push(pick);
        }
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_and_last() {
        assert_eq!(FirstChooser.choose(5), 0);
        assert_eq!(LastChooser.choose(5), 4);
        assert_eq!(LastChooser.choose(1), 0);
    }

    #[test]
    fn random_is_reproducible_and_in_range() {
        let mut a = RandomChooser::seeded(42);
        let mut b = RandomChooser::seeded(42);
        for _ in 0..100 {
            let n = 7;
            let x = a.choose(n);
            assert_eq!(x, b.choose(n));
            assert!(x < n);
        }
    }

    #[test]
    fn scripted_replays_then_zeroes() {
        let mut c = ScriptedChooser::new(vec![2, 1]);
        assert_eq!(c.choose(4), 2);
        assert_eq!(c.choose(2), 1);
        assert_eq!(c.choose(3), 0); // past the script
        assert_eq!(c.arities, vec![4, 2, 3]);
        assert_eq!(c.taken(), vec![2, 1, 0]);
    }

    #[test]
    fn scripted_clamps_to_range() {
        let mut c = ScriptedChooser::new(vec![9]);
        assert_eq!(c.choose(3), 2);
        // `taken()` reports the clamped pick, not the raw script entry —
        // replaying it must reproduce this run.
        assert_eq!(c.taken(), vec![2]);
        let mut replay = ScriptedChooser::new(c.taken());
        assert_eq!(replay.choose(3), 2);
    }

    #[test]
    fn counting_chooser_delegates_and_counts() {
        let reg = ioql_telemetry::MetricsRegistry::new(true);
        let draws = reg.counter("draws", "Chooser draws.");
        let mut inner = ScriptedChooser::new(vec![2, 0, 1]);
        let mut counting = CountingChooser::new(&mut inner, draws.clone());
        assert_eq!(counting.choose(4), 2);
        assert_eq!(counting.choose(3), 0);
        assert_eq!(counting.choose(2), 1);
        assert_eq!(draws.get(), 3);
        // The inner chooser saw exactly the bare call sequence.
        assert_eq!(inner.taken(), vec![2, 0, 1]);
    }

    #[test]
    fn recording_chooser_traces_only_when_active() {
        let mut rng = RandomChooser::seeded(11);
        let mut rec = RecordingChooser::new(&mut rng, true);
        let picks: Vec<usize> = [5usize, 3, 7, 2].iter().map(|&n| rec.choose(n)).collect();
        assert_eq!(rec.trace(), picks.as_slice());
        // Replaying the trace through a ScriptedChooser reproduces the run.
        let mut replay = ScriptedChooser::new(rec.trace().to_vec());
        let replayed: Vec<usize> = [5usize, 3, 7, 2]
            .iter()
            .map(|&n| replay.choose(n))
            .collect();
        assert_eq!(replayed, picks);
        // Inactive: transparent delegation, no trace.
        let mut rng2 = RandomChooser::seeded(11);
        let mut idle = RecordingChooser::new(&mut rng2, false);
        let idle_picks: Vec<usize> = [5usize, 3, 7, 2].iter().map(|&n| idle.choose(n)).collect();
        assert_eq!(idle_picks, picks, "wrapping must not perturb draws");
        assert!(idle.trace().is_empty());
    }

    #[test]
    fn scripted_survives_zero_arity() {
        let mut c = ScriptedChooser::new(vec![1, 1]);
        assert_eq!(c.choose(2), 1);
        assert_eq!(c.choose(0), 0); // no panic, no script entry consumed
        assert_eq!(c.choose(2), 1);
        assert_eq!(c.arities, vec![2, 0, 2]);
        assert_eq!(c.taken(), vec![1, 0, 1]);
    }
}
