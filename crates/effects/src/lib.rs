//! The effect system of paper §4 (Figure 3).
//!
//! Effects delimit what a query may do to the database:
//!
//! * `R(C)` — the extent of class `C` may be *read*,
//! * `A(C)` — the extent of class `C` may be *added to* (by `new C`),
//!
//! plus two effects for the §5 *extended-methods* design point:
//!
//! * `Ra(C)` — attributes of some object of class `C` may be read, and
//! * `U(C)` — attributes of some object of class `C` may be updated.
//!
//! The paper's core system needs only `R`/`A` because its methods are
//! read-only; once methods may update objects (§5), non-interference must
//! also consider attribute-read/attribute-update races — the `Ra`/`U`
//! extension makes that analysis expressible while leaving the core rules
//! exactly Figure 3 (`Ra` is recorded but never interferes with anything
//! in the read-only fragment, because `U` is uninhabited there).
//!
//! [`infer_query`] implements the effect typing judgement
//! `E; D; Q ⊢ q : σ ! ε` by instantiating the one syntax-directed walker
//! (`ioql_types::Judgement`) with [`EffectRules`], the effect algebra.
//! [`Discipline`] selects between the paper's three systems: `⊢`
//! (permissive, Figure 3), `⊢'` (non-interfering comprehension bodies —
//! Theorem 7's determinism, `nonint_bodies`), and `⊢''`
//! (non-interfering commutative set operands — Theorem 8's safe
//! commutation, [`commutable_operands`]); both are predicates over the
//! records of one `⊢` pass ([`derive_query`]). [`Thm7`] is the one verdict
//! every Theorem 7 consumer (admission, cache, WAL gate, lowering) reads.

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod effect;
pub mod env;
pub mod error;
pub mod infer;
pub mod method_effects;
pub mod read_sets;
pub mod thm7;

pub use effect::Effect;
pub use env::{Discipline, EffectEnv};
pub use error::EffectError;
pub use infer::{
    commutable_operands, derive_query, infer_definition, infer_program, infer_query,
    infer_runtime_query, Derivation, EffectRules, InferredProgram, Record,
};
pub use method_effects::MethodEffects;
pub use read_sets::{effect_extents, EffectExtents};
pub use thm7::Thm7;
