//! Static analysis results surfaced by [`Database::analyze`](crate::Database::analyze).

use ioql_ast::{Query, Type, VarName};
use ioql_effects::{Effect, EffectRules};
use ioql_types::Judgement;
use std::collections::BTreeMap;

/// The verdict for one commutative set operator in a query: may its
/// operands be commuted (Theorem 8's guard)?
#[derive(Clone, Debug)]
pub struct CommutationVerdict {
    /// Rendered operator expression.
    pub expr: String,
    /// Whether the operands' effects are non-interfering.
    pub safe: bool,
    /// Left operand's inferred effect.
    pub left: Effect,
    /// Right operand's inferred effect.
    pub right: Effect,
}

/// The result of static analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Figure 1 type.
    pub ty: Type,
    /// Figure 3 effect.
    pub effect: Effect,
    /// Whether the query is *functional* in the paper's §3.4 sense: no
    /// `new`, transitively through the definitions and (§5) methods it
    /// calls — i.e. no `A(C)` atom in `effect` (`Thm7::new_free`).
    /// Functional queries are deterministic outright (Theorem 4).
    pub functional: bool,
    /// Whether the `⊢'` discipline accepts the query — if so it is
    /// deterministic up to oid bijection (Theorem 7) even when it
    /// creates objects.
    pub deterministic: bool,
    /// Human-readable reason when `⊢'` rejects.
    pub determinism_diagnosis: Option<String>,
    /// Per-operator commutation verdicts (Theorem 8).
    pub commutations: Vec<CommutationVerdict>,
}

/// Walks the (elaborated) query collecting a [`CommutationVerdict`] for
/// every commutative set operator, operands first, with generator
/// binders in scope (typed as the elements of their sources).
pub(crate) fn collect_commutations(
    judgement: &Judgement<'_, EffectRules<'_>>,
    vars: &BTreeMap<VarName, Type>,
    q: &Query,
    out: &mut Vec<CommutationVerdict>,
) {
    q.for_each_child(
        vars,
        |inner, x, src| {
            if let Ok((_, t, _)) = judgement.query(inner, src) {
                if let Some(elem) = t.as_set_elem() {
                    inner.to_mut().insert(x.clone(), elem.clone());
                }
            }
        },
        |c, vars| collect_commutations(judgement, vars, c, out),
    );
    if let Query::SetBin(op, a, b) = q {
        if op.is_commutative() {
            if let (Ok((_, _, ea)), Ok((_, _, eb))) =
                (judgement.query(vars, a), judgement.query(vars, b))
            {
                out.push(CommutationVerdict {
                    expr: q.to_string(),
                    safe: ea.noninterfering_with(&eb, judgement.schema),
                    left: ea,
                    right: eb,
                });
            }
        }
    }
}
