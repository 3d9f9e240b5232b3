//! An effect-guided query optimizer — the application §4 of the paper
//! builds its effect system for.
//!
//! "We can also use the effect information to enable query optimizations.
//! … common optimizations such as commutativity of set intersection or
//! union are no longer straightforwardly applicable. However … if the two
//! components of the commutative binary set operators do not interfere,
//! then it is safe to commute their order." — paper §4.
//!
//! The crate has two rewrites, each with an explicit *safety guard* on
//! the premise effects the query's one Figure 3 derivation recorded for
//! the node (its `ioql_effects::Record`), under `D` = the signatures of
//! the definitions in scope (the catalogue's, computed at `define` time):
//!
//! | rewrite | why it is kept | guard |
//! |---|---|---|
//! | `commute-by-cost`: cheaper operand of `∪`/`∩` first | reproduces Theorem 8 | operand effects non-interfering |
//! | `promote-predicates`: a predicate moves ahead of generators it does not depend on | the benchmark's late-filter join answers only with it | moved and crossed parts read-only and free of invocations, casts and definition calls |
//!
//! Divergence and stuckness are tracked separately from effects: a method
//! invocation may fail to terminate even with effect ∅ (the paper's §1
//! `loop()` example), and a downcast may get stuck, so a rewrite that
//! *changes the number of evaluations* of a subquery additionally
//! requires that subquery to contain neither — nor a definition call,
//! whose body the optimizer does not see.
//!
//! The optimizer's soundness is tested by exhaustive outcome comparison
//! (all reduction orders, equivalence modulo oid bijection), rule by rule,
//! in `tests/optimizer_soundness.rs`.

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod cost;
pub mod optimizer;
pub mod rules;

pub use cost::Stats;
pub use optimizer::{optimize, AppliedRewrite, OptOptions, Optimizer};
