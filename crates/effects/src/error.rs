//! Effect-system failures: a Figure 1 premise failing, or one of the
//! `⊢'`/`⊢''` side conditions.

use crate::effect::Effect;
use ioql_types::TypeError;
use std::fmt;

/// An effect-system failure: either an underlying type error, or one of
/// the `⊢'`/`⊢''` interference checks firing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EffectError {
    /// The query is ill-typed (the effect system includes the type
    /// system's premises).
    Type(TypeError),
    /// `⊢'` rejected a comprehension whose body effect interferes with
    /// itself — the statically detected non-determinism of Theorem 7.
    InterferingComprehension {
        /// The body's inferred effect (contains the clashing R/A pair).
        body_effect: Effect,
    },
    /// `⊢''` rejected a commutative set operator whose operands interfere
    /// — commuting them could change the result (paper §4's `∩` example).
    InterferingOperands {
        /// Left operand's effect.
        left: Effect,
        /// Right operand's effect.
        right: Effect,
    },
}

impl fmt::Display for EffectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EffectError::Type(e) => write!(f, "{e}"),
            EffectError::InterferingComprehension { body_effect } => write!(
                f,
                "comprehension body has interfering effect {{{body_effect}}}: evaluation \
                 order is observable (potential non-determinism)"
            ),
            EffectError::InterferingOperands { left, right } => write!(
                f,
                "operand effects {{{left}}} and {{{right}}} interfere: operands may not be \
                 commuted"
            ),
        }
    }
}

impl std::error::Error for EffectError {}

impl From<TypeError> for EffectError {
    fn from(e: TypeError) -> Self {
        EffectError::Type(e)
    }
}
