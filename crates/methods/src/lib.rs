//! The method language: the "valid fragment of Java" the paper's §5
//! defers to, built from scratch.
//!
//! The query semantics only needs a deterministic big-step relation
//! `OE, body[x⃗ := v⃗, this := o] ⇓ v` (read-only mode, §3.3) or
//! `EE, OE, body ⇓ EE', OE', v` (extended mode, §5). This crate provides:
//!
//! * a **type checker** for method bodies ([`check`]), with a
//!   [`Mode`] switch: [`Mode::ReadOnly`] is the paper's core discipline
//!   (no attribute updates, no `new`, no extent iteration);
//!   [`Mode::Extended`] is §5's "read, add to and update" design point.
//!   It is the only static pass over a body, and the same walk derives
//!   each method's latent effect `ε''`, by fixpoint over the (possibly
//!   mutually recursive) call graph; [`check_schema_methods`] returns the
//!   table, and [`effect_table`] ([`effects`]) builds it from a schema
//!   alone. In read-only mode every entry is ∅ on the database —
//!   matching the paper's remark that "the value of ε'' will always be
//!   ∅";
//! * a **big-step evaluator** ([`eval`]) with *fuel* so non-termination
//!   (the §1 `loop()` example) is a first-class, observable outcome
//!   rather than a hang.

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod check;
pub mod effects;
pub mod error;
pub mod eval;

pub use check::{check_method, check_schema_methods, Mode};
pub use effects::effect_table;
pub use error::{MethodError, MethodTypeError};
pub use eval::{invoke, MethodCall, MethodResult};
