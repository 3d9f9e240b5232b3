//! Static analysis results surfaced by [`Database::analyze`](crate::Database::analyze).

use crate::kernel::Prepared;
use ioql_ast::Type;
use ioql_effects::{commutable_operands, Discipline, Effect, EffectError, Record};
use ioql_schema::Schema;

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

impl Analysis {
    /// Reads the analysis off `prepared`'s derivation: the `⊢'` verdict
    /// is its check over the records, and each commutative (Sop) record,
    /// in post-order, gives a verdict — `⊢''`'s check on that record.
    pub(crate) fn of(schema: &Schema, prepared: Prepared) -> Analysis {
        let determinism_diagnosis = Discipline::deterministic()
            .check(schema, &prepared.derivation)
            .err()
            .map(|e| match e {
                EffectError::InterferingComprehension { body_effect } => format!(
                    "comprehension body both reads and adds to an extent: {{{body_effect}}}"
                ),
                e => e.to_string(),
            });
        let mut nodes = Vec::new();
        prepared.elab.for_each_node(&mut |q| nodes.push(q));
        let commutations = prepared
            .derivation
            .records()
            .iter()
            .filter_map(|(node, r)| match r {
                Record::Sop(op, left, right) if op.is_commutative() => Some(CommutationVerdict {
                    expr: nodes[*node].to_string(),
                    safe: commutable_operands(schema, r).is_ok(),
                    left: left.clone(),
                    right: right.clone(),
                }),
                _ => None,
            })
            .collect();
        Analysis {
            ty: prepared.ty,
            effect: prepared.effect,
            functional: prepared.thm7.new_free,
            deterministic: determinism_diagnosis.is_none(),
            determinism_diagnosis,
            commutations,
        }
    }
}
