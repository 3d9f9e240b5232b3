//! Effect-typing environments and discipline selection.

use crate::effect::Effect;
use crate::method_effects::MethodEffects;
use ioql_ast::{DefName, FnType, Type, VarName};
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// Which of the paper's three effect systems to run.
///
/// * `⊢`   — Figure 3 as given: infer effects, never reject.
/// * `⊢'`  — `(Comp2)'` additionally requires `nonint(ε₁)` of the
///   comprehension body; accepted queries are deterministic (Theorem 7).
/// * `⊢''` — commutative set operators additionally require their
///   operands' effects not to interfere; accepted `q ∪ q'` may be safely
///   commuted (Theorem 8).
///
/// The flags compose (the workspace's "strict" pipeline runs both).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Discipline {
    /// Enforce `⊢'`: non-interfering comprehension bodies.
    pub deterministic_comprehensions: bool,
    /// Enforce `⊢''`: non-interfering commutative-operator operands.
    pub safe_commutation: bool,
}

impl Discipline {
    /// The permissive system `⊢` (Figure 3).
    pub fn permissive() -> Self {
        Discipline::default()
    }

    /// The determinism system `⊢'` of Theorem 7.
    pub fn deterministic() -> Self {
        Discipline {
            deterministic_comprehensions: true,
            safe_commutation: false,
        }
    }

    /// The safe-commutation system `⊢''` of Theorem 8.
    pub fn safe_commute() -> Self {
        Discipline {
            deterministic_comprehensions: false,
            safe_commutation: true,
        }
    }

    /// Both checks at once.
    pub fn strict() -> Self {
        Discipline {
            deterministic_comprehensions: true,
            safe_commutation: true,
        }
    }
}

/// The environment of the effect judgement `E; D; Q ⊢ q : σ ! ε`.
///
/// `D` now carries *effect-annotated* function types `σ⃗ →ε σ'` (paper §4:
/// "the function types used to represent definitions now come labelled
/// with the effect that occurs when that definition is used").
#[derive(Clone, Debug)]
pub struct EffectEnv<'s> {
    /// The schema (`E` plus class information).
    pub schema: &'s Schema,
    /// Definitions with their types and latent effects.
    pub defs: BTreeMap<DefName, (FnType, Effect)>,
    /// Term variables in scope.
    pub vars: BTreeMap<VarName, Type>,
    /// Latent effects of methods (`ε''` in the (Method) rule). Empty map =
    /// the paper's read-only methods, all `∅`.
    pub methods: MethodEffects,
    /// Which checks to enforce.
    pub discipline: Discipline,
}

impl<'s> EffectEnv<'s> {
    /// A fresh environment with the permissive discipline and read-only
    /// (`∅`-effect) methods.
    pub fn new(schema: &'s Schema) -> Self {
        EffectEnv {
            schema,
            defs: BTreeMap::new(),
            vars: BTreeMap::new(),
            methods: MethodEffects::default(),
            discipline: Discipline::permissive(),
        }
    }

    /// Sets the discipline.
    pub fn with_discipline(mut self, d: Discipline) -> Self {
        self.discipline = d;
        self
    }

    /// Sets the method-effect table (§5 extended mode).
    pub fn with_method_effects(mut self, m: MethodEffects) -> Self {
        self.methods = m;
        self
    }

    /// A copy with `x : σ` bound.
    pub fn bind(&self, x: VarName, t: Type) -> Self {
        let mut env = self.clone();
        env.vars.insert(x, t);
        env
    }
}
