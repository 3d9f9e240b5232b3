//! The operational semantics of IOQL (paper §3.3, Figures 2 and 4).
//!
//! This crate implements the single-step reduction relation
//! `DE ⊢ EE, OE, q —ε→ EE', OE', q'` exactly as the paper presents it:
//!
//! * **Evaluation contexts** fix the order of evaluation (left-to-right,
//!   call-by-value). [`redex`] exposes the unique-decomposition property
//!   — every closed query is a value or has exactly one redex position —
//!   as a testable function; [`step()`](step::step) performs the reduction in place.
//! * **The `(ND comp)` rule is genuinely non-deterministic**: the element
//!   drawn from a generator set is picked by a pluggable [`Chooser`].
//!   Deterministic, random, and scripted choosers are provided; the
//!   [`explore`] module enumerates *every* choice sequence, materialising
//!   the full set of outcomes the paper's relation admits — the engine
//!   behind the Theorem 4/7/8 test harnesses.
//! * **The instrumented semantics (Figure 4)** falls out for free: every
//!   step reports its effect label ε, and the driver accumulates the
//!   trace, giving the runtime side of the effect-soundness theorems.
//! * **Method invocation** delegates to `ioql-methods`' big-step `⇓`, in
//!   read-only mode (§3.3) or extended mode (§5, threading `EE`/`OE`
//!   through the call). Method non-termination (the §1 `loop()` example)
//!   surfaces as [`EvalError::MethodDiverged`].

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod bigstep;
pub mod chooser;
pub mod explore;
pub mod governor;
pub mod machine;
pub mod step;
pub mod trace;

pub use bigstep::{eval_big, BigStepResult, Interp};
pub use chooser::{
    Chooser, CountingChooser, FirstChooser, LastChooser, RandomChooser, RecordingChooser,
    ScriptedChooser,
};
pub use explore::{all_outcomes_equivalent, explore_outcomes, Exploration};
pub use governor::{CancelToken, Governor, GovernorMetrics, Limits, ResourceKind};
pub use machine::{evaluate, run_program, DefEnv, EvalConfig, EvalError, EvalMetrics, Evaluated};
pub use step::{redex, step, StepOutcome};
pub use trace::{trace, Trace, TraceStep};
