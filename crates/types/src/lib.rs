//! The IOQL type system (paper §3.2, Figure 1) — and the rule walker it
//! shares with the effect system (§4, Figure 3).
//!
//! Figure 3 is Figure 1 with an effect annotation on each judgement, so
//! the syntax-directed rules live once, in [`Judgement`], generic over an
//! [`EffectAlgebra`]. The unit algebra ([`TypeEnv`]) is the Figure 1
//! checker exported here; `ioql-effects` supplies the `R(C)`/`A(C)`
//! algebra, and the database kernel instantiates the walker once per
//! request.
//!
//! Judgements implemented here:
//!
//! * `E; D; Q ⊢ q : σ` — query typing ([`check_query`]); the checker is an
//!   *elaborating* one: the parser cannot distinguish record access `q.l`
//!   from attribute access `q.a` (both are `.` projections), so the
//!   checker returns the query with each projection resolved by the
//!   subject's type. On already-elaborated queries it is the identity.
//! * `E; D ⊢ def : σ⃗ → σ'` — definition typing ([`check_definition`]).
//! * `E ⊢ def₀ … def_k q : σ` — program typing ([`check_program`]),
//!   threading each definition's type into the next (definitions are
//!   non-recursive).
//! * The runtime correspondence `E, D, Q ⊢ EE, DE, OE, q : σ` used by the
//!   soundness theorems: [`check_runtime_query`] types queries containing
//!   reduced values (oids, set/record values) against a store.
//!
//! Design-space flags ([`TypeOptions`]): `allow_downcast` re-admits the
//! ODMG downcast the paper's Note 2 warns about — with it enabled, the
//! "unsoundness" becomes demonstrable (see `tests/` in the workspace).

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod check;
pub mod env;
pub mod error;
pub mod value_type;

pub use check::{
    check_definition, check_program, check_query, check_runtime_query, CheckedProgram,
    EffectAlgebra, Judgement,
};
pub use env::{TypeEnv, TypeOptions};
pub use error::TypeError;
pub use value_type::type_of_value;
