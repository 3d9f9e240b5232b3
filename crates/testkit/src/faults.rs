//! Deterministic fault injection for the robustness suite.
//!
//! Every fault the engines must survive gracefully — deadline expiry,
//! budget exhaustion, mid-evaluation cancellation, damaged dump files —
//! is generated here from a seed, so a failing case reproduces from one
//! integer. Three pieces:
//!
//! * [`FaultPlan::from_seed`] — a seed-indexed catalogue of governor
//!   faults, each rendered as the [`Limits`] that provoke it.
//! * [`ChaosChooser`] — a seeded random [`Chooser`] that can pull a
//!   [`CancelToken`] after a scheduled number of choice points,
//!   modelling a supervisor killing the query mid-flight. Because both
//!   engines issue the identical chooser-call sequence, the cancellation
//!   lands at the same semantic point in each.
//! * [`corrupt_dump`] — seed-driven bit flips, truncations, and header
//!   attacks on a dump or WAL file's text, for exercising the loaders'
//!   damage detection.
//! * [`CrashSink`] — a write sink that persists only a budgeted prefix
//!   of its bytes then fails, modelling a crash at an exact byte offset
//!   inside a write-ahead-log append (or a dying `fsync`).

use ioql_eval::{CancelToken, Chooser, Limits};
use ioql_rng::SmallRng;
use ioql_telemetry::Counter;
use std::time::Duration;

/// One injectable evaluation fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// The wall-clock deadline is already expired when evaluation
    /// starts — the first checkpoint must trip.
    DeadlineExpiry,
    /// The comprehension-cell budget is capped at the carried value.
    BudgetCells(u64),
    /// The set-cardinality cap is the carried value.
    BudgetSetCard(u64),
    /// The store-growth budget is capped at the carried value.
    BudgetGrowth(u64),
    /// Cancellation fires after the carried number of chooser calls.
    CancelAfter(u64),
}

/// A seed plus the fault it selects — everything a test needs to
/// reproduce one injected failure.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// The generating seed (also seeds the [`ChaosChooser`]).
    pub seed: u64,
    /// The fault to inject.
    pub fault: Fault,
}

impl FaultPlan {
    /// Derives a fault deterministically from `seed`. Consecutive seeds
    /// cycle through the catalogue with varying budget parameters, so a
    /// range `0..n` of seeds covers every fault kind many times.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed);
        let fault = match seed % 5 {
            0 => Fault::DeadlineExpiry,
            1 => Fault::BudgetCells(rng.gen_range(0..4u64)),
            2 => Fault::BudgetSetCard(rng.gen_range(0..3u64)),
            3 => Fault::BudgetGrowth(rng.gen_range(0..3u64)),
            _ => Fault::CancelAfter(rng.gen_range(0..5u64)),
        };
        FaultPlan { seed, fault }
    }

    /// The [`Limits`] that inject this plan's fault (unlimited on every
    /// other axis, so exactly one failure mode is armed at a time —
    /// the engine-parity contract only fixes the error *kind* when a
    /// single limit is in play).
    pub fn limits(&self) -> Limits {
        match self.fault {
            Fault::DeadlineExpiry => Limits::none().with_deadline(Duration::ZERO),
            Fault::BudgetCells(n) => Limits::none().with_max_cells(n),
            Fault::BudgetSetCard(n) => Limits::none().with_max_set_card(n),
            Fault::BudgetGrowth(n) => Limits::none().with_max_store_growth(n),
            Fault::CancelAfter(_) => Limits::none(),
        }
    }

    /// The chooser-call count after which a [`ChaosChooser`] built for
    /// this plan pulls the cancel token (`None` for non-cancel faults).
    pub fn cancel_after(&self) -> Option<u64> {
        match self.fault {
            Fault::CancelAfter(n) => Some(n),
            _ => None,
        }
    }

    /// A chooser wired to this plan: seeded from the plan's seed and —
    /// for [`Fault::CancelAfter`] — armed with `token`.
    pub fn chooser(&self, token: CancelToken) -> ChaosChooser {
        ChaosChooser::new(self.seed, self.cancel_after().map(|n| (n, token)))
    }
}

/// A seeded random chooser that can cancel the evaluation after a fixed
/// number of choice points.
#[derive(Clone, Debug)]
pub struct ChaosChooser {
    rng: SmallRng,
    calls: u64,
    cancel: Option<(u64, CancelToken)>,
    injections: Counter,
    injected: bool,
}

impl ChaosChooser {
    /// A chooser drawing from `seed`; if `cancel` is `Some((n, token))`
    /// the token is triggered as the `n`-th choice (0-based) is drawn.
    pub fn new(seed: u64, cancel: Option<(u64, CancelToken)>) -> Self {
        ChaosChooser {
            rng: SmallRng::seed_from_u64(seed),
            calls: 0,
            cancel,
            injections: Counter::disabled(),
            injected: false,
        }
    }

    /// Attaches a telemetry counter recording the first cancellation
    /// injection (write-only; draw values and schedule are unaffected).
    pub fn with_metrics(mut self, injections: Counter) -> Self {
        self.injections = injections;
        self
    }

    /// How many choices have been drawn.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl Chooser for ChaosChooser {
    fn choose(&mut self, n: usize) -> usize {
        if let Some((after, token)) = &self.cancel {
            if self.calls >= *after {
                token.cancel();
                if !self.injected {
                    self.injected = true;
                    self.injections.inc();
                }
            }
        }
        self.calls += 1;
        self.rng.gen_range(0..n)
    }
}

/// How [`corrupt_dump`] damaged the text — returned so tests can assert
/// the loader's diagnostic matches the injury.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Corruption {
    /// A single character inside the body was altered.
    BitFlip,
    /// The text was cut short (whole lines or mid-line).
    Truncation,
    /// A single character of the *header line* was altered — exercising
    /// the loader's header parsing (magic, version, object count,
    /// checksum field) rather than its body integrity checks.
    Header,
}

/// Damages a dump deterministically, cycling `seed % 3` through the
/// catalogue: flip one body character, truncate the text, or damage the
/// header line. Returns the damaged text and what was done. The same
/// attack applies unchanged to any header-plus-lines format — the
/// robustness suite aims it at WAL files too.
pub fn corrupt_dump(dump: &str, seed: u64) -> (String, Corruption) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let header_end = dump.find('\n').map(|i| i + 1).unwrap_or(0);
    let body = &dump[header_end..];
    if seed % 3 == 2 && header_end > 1 {
        // Damage one header character (never its newline). Depending on
        // where the wound lands the loader must diagnose a missing
        // magic, a version mismatch, a count mismatch, or a bad
        // checksum field — always a structured error, never a panic.
        let idx = rng.gen_range(0..header_end as u64 - 1) as usize;
        let old = dump.as_bytes()[idx];
        let mut new = b'0' + (rng.gen_range(0..10u32) as u8);
        if new == old {
            new = b'x';
        }
        let mut damaged = dump.as_bytes().to_vec();
        damaged[idx] = new;
        return (
            String::from_utf8(damaged).expect("ascii-safe flip"),
            Corruption::Header,
        );
    }
    if seed % 3 == 0 && !body.is_empty() {
        // Flip one byte of the body to a different printable character.
        let bytes = body.as_bytes();
        let mut idx = rng.gen_range(0..bytes.len());
        // Avoid newlines: changing line structure is truncation's job.
        while bytes[idx] == b'\n' {
            idx = (idx + 1) % bytes.len();
        }
        let old = bytes[idx];
        let mut new = b'0' + (rng.gen_range(0..10u32) as u8);
        if new == old {
            new = b'x';
        }
        let mut damaged = dump.as_bytes().to_vec();
        damaged[header_end + idx] = new;
        (
            String::from_utf8(damaged).expect("ascii-safe flip"),
            Corruption::BitFlip,
        )
    } else {
        // Cut somewhere strictly inside the body (keep the header).
        let cut = if body.is_empty() {
            header_end
        } else {
            header_end + rng.gen_range(0..body.len())
        };
        (dump[..cut].to_string(), Corruption::Truncation)
    }
}

/// A [`WalSink`] that models a crash at an exact byte offset: it writes
/// through to a real file until a byte budget runs out, persists only
/// the prefix that "reached the disk", and fails every operation after
/// that — exactly what a power cut mid-`write(2)` leaves behind. An
/// optional sync budget models the complementary failure (appends
/// land, `fsync` dies).
///
/// Budgets are per-sink. [`CrashSink::factory`] builds the
/// `SinkFactory` the recovery harness hands to
/// `Database::attach_durable_with`; the budget arms the *first* sink
/// built (the live log) and later sinks (checkpoint generations) are
/// unbudgeted, so one test run injects exactly one crash point.
pub struct CrashSink {
    file: std::fs::File,
    write_budget: Option<u64>,
    sync_budget: Option<u64>,
    dead: bool,
}

use ioql_store::WalSink;

/// The factory shape `Database::attach_durable_with` accepts — the
/// crash harness's way into the append path.
pub type WalSinkFactory =
    std::sync::Arc<dyn Fn(&std::path::Path) -> std::io::Result<Box<dyn WalSink>> + Send + Sync>;

impl CrashSink {
    /// Opens `path` for appending. `write_budget` is the number of
    /// bytes allowed to persist before writes start failing (`None` =
    /// unlimited); `sync_budget` the number of `sync` calls allowed to
    /// succeed (`None` = unlimited).
    pub fn open(
        path: &std::path::Path,
        write_budget: Option<u64>,
        sync_budget: Option<u64>,
    ) -> std::io::Result<CrashSink> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(CrashSink {
            file,
            write_budget,
            sync_budget,
            dead: false,
        })
    }

    /// A `Database::attach_durable_with`-shaped factory whose *first*
    /// sink carries the budgets; every subsequent sink is unbudgeted.
    pub fn factory(write_budget: Option<u64>, sync_budget: Option<u64>) -> WalSinkFactory {
        let armed = std::sync::atomic::AtomicBool::new(true);
        std::sync::Arc::new(move |path: &std::path::Path| {
            let first = armed.swap(false, std::sync::atomic::Ordering::SeqCst);
            let (w, s) = if first {
                (write_budget, sync_budget)
            } else {
                (None, None)
            };
            Ok(Box::new(CrashSink::open(path, w, s)?) as Box<dyn WalSink>)
        })
    }
}

impl WalSink for CrashSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        use std::io::Write as _;
        if self.dead {
            return Err(std::io::Error::other("crashed: sink is dead"));
        }
        let allowed = match self.write_budget {
            None => bytes.len() as u64,
            Some(rem) => rem.min(bytes.len() as u64),
        };
        // The prefix that "reached the disk" before the crash.
        self.file.write_all(&bytes[..allowed as usize])?;
        if let Some(rem) = &mut self.write_budget {
            *rem -= allowed;
        }
        if allowed < bytes.len() as u64 {
            self.dead = true;
            return Err(std::io::Error::other("crashed: write budget exhausted"));
        }
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::other("crashed: sink is dead"));
        }
        if let Some(rem) = &mut self.sync_budget {
            if *rem == 0 {
                self.dead = true;
                return Err(std::io::Error::other("crashed: fsync failed"));
            }
            *rem -= 1;
        }
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_reproducible_and_cover_all_faults() {
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..50 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.fault, b.fault);
            kinds.insert(match a.fault {
                Fault::DeadlineExpiry => 0,
                Fault::BudgetCells(_) => 1,
                Fault::BudgetSetCard(_) => 2,
                Fault::BudgetGrowth(_) => 3,
                Fault::CancelAfter(_) => 4,
            });
        }
        assert_eq!(kinds.len(), 5, "seed sweep must cover every fault kind");
    }

    #[test]
    fn chaos_chooser_is_seed_deterministic() {
        let mut a = ChaosChooser::new(7, None);
        let mut b = ChaosChooser::new(7, None);
        for n in [3usize, 5, 2, 9, 4] {
            assert_eq!(a.choose(n), b.choose(n));
        }
        assert_eq!(a.calls(), 5);
    }

    /// Chaos draws are seeded per call, and its cancellation is scheduled
    /// by call count: it refuses the run form, so both stay per draw.
    #[test]
    fn chaos_chooser_refuses_runs() {
        let mut c = ChaosChooser::new(3, None);
        assert!(!c.front_run(8, 4));
        assert_eq!(c.calls(), 0);
    }

    #[test]
    fn chaos_chooser_cancels_on_schedule() {
        let token = CancelToken::new();
        let mut c = ChaosChooser::new(1, Some((2, token.clone())));
        c.choose(3);
        assert!(!token.is_cancelled());
        c.choose(3);
        assert!(!token.is_cancelled());
        c.choose(3); // third call — index 2 — pulls the token
        assert!(token.is_cancelled());
    }

    #[test]
    fn chaos_chooser_counts_one_injection() {
        let reg = ioql_telemetry::MetricsRegistry::new(true);
        let injections = reg.counter("ioql_fault_injections_total", "Injected faults.");
        let token = CancelToken::new();
        let mut c = ChaosChooser::new(1, Some((1, token.clone()))).with_metrics(injections.clone());
        c.choose(3);
        assert_eq!(injections.get(), 0);
        c.choose(3);
        c.choose(3); // the token stays pulled; the injection counts once
        assert_eq!(injections.get(), 1);
        assert!(token.is_cancelled());
    }

    #[test]
    fn corrupt_dump_catalogue_covers_all_three_attacks() {
        let dump = "ioql-store v2 objects=1 crc32=00000000\n@0 P name=1\n";
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..21 {
            let (damaged, kind) = corrupt_dump(dump, seed);
            assert_ne!(damaged, dump, "seed {seed} produced identical text");
            let header = dump.lines().next().unwrap();
            match kind {
                Corruption::BitFlip => {
                    assert!(damaged.starts_with(header), "body flip spared the header");
                    assert_eq!(damaged.len(), dump.len());
                }
                Corruption::Truncation => {
                    assert!(damaged.len() < dump.len());
                    assert!(dump.starts_with(&damaged));
                }
                Corruption::Header => {
                    // The wound is in the header line; the body survives.
                    assert!(!damaged.starts_with(header), "header attack missed");
                    assert_eq!(damaged.len(), dump.len());
                    assert!(damaged.ends_with("@0 P name=1\n"));
                }
            }
            kinds.insert(kind as u8);
        }
        assert_eq!(kinds.len(), 3, "seed sweep must cover every attack");
    }

    #[test]
    fn crash_sink_persists_exactly_the_budgeted_prefix() {
        let path = std::env::temp_dir().join(format!("ioql-crashsink-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut sink = CrashSink::open(&path, Some(10), None).unwrap();
        sink.append(b"abcdef").unwrap(); // 6 bytes, 4 left
        let err = sink.append(b"ghijkl").unwrap_err(); // 4 of 6 land
        assert!(err.to_string().contains("write budget"), "{err}");
        // Dead from here on.
        assert!(sink.append(b"x").is_err());
        assert!(sink.sync().is_err());
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(on_disk, "abcdefghij", "exactly 10 bytes persisted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_sink_sync_budget_and_factory_arming() {
        let path = std::env::temp_dir().join(format!("ioql-crashsync-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut sink = CrashSink::open(&path, None, Some(1)).unwrap();
        sink.append(b"a").unwrap();
        sink.sync().unwrap(); // first sync allowed
        sink.append(b"b").unwrap();
        assert!(sink.sync().is_err(), "second sync must fail");
        assert!(sink.append(b"c").is_err(), "dead after the failed sync");
        // The factory arms only its first sink.
        let factory = CrashSink::factory(Some(0), None);
        let mut armed = factory(&path).unwrap();
        assert!(armed.append(b"x").is_err(), "budget 0: first byte crashes");
        let mut clean = factory(&path).unwrap();
        clean.append(b"y").unwrap();
        clean.sync().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
