//! Static analysis results surfaced by [`Database::analyze`](crate::Database::analyze).

use ioql_ast::{Qualifier, Query, Type, VarName};
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
/// every commutative set operator, with generator binders in scope.
pub(crate) fn collect_commutations(
    judgement: &Judgement<'_, EffectRules<'_>>,
    vars: &BTreeMap<VarName, Type>,
    q: &Query,
    out: &mut Vec<CommutationVerdict>,
) {
    match q {
        Query::SetBin(op, a, b) => {
            collect_commutations(judgement, vars, a, out);
            collect_commutations(judgement, vars, b, out);
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
        Query::Lit(_) | Query::Var(_) | Query::Extent(_) => {}
        Query::SetLit(items) => {
            for i in items {
                collect_commutations(judgement, vars, i, out);
            }
        }
        Query::IntBin(_, a, b) | Query::IntEq(a, b) | Query::ObjEq(a, b) => {
            collect_commutations(judgement, vars, a, out);
            collect_commutations(judgement, vars, b, out);
        }
        Query::Record(fields) => {
            for (_, fq) in fields {
                collect_commutations(judgement, vars, fq, out);
            }
        }
        Query::Field(inner, _)
        | Query::Size(inner)
        | Query::Sum(inner)
        | Query::Cast(_, inner)
        | Query::Attr(inner, _) => collect_commutations(judgement, vars, inner, out),
        Query::Call(_, args) => {
            for a in args {
                collect_commutations(judgement, vars, a, out);
            }
        }
        Query::Invoke(recv, _, args) => {
            collect_commutations(judgement, vars, recv, out);
            for a in args {
                collect_commutations(judgement, vars, a, out);
            }
        }
        Query::New(_, attrs) => {
            for (_, a) in attrs {
                collect_commutations(judgement, vars, a, out);
            }
        }
        Query::If(c, t, e) => {
            collect_commutations(judgement, vars, c, out);
            collect_commutations(judgement, vars, t, out);
            collect_commutations(judgement, vars, e, out);
        }
        Query::Comp(head, quals) => {
            let mut inner = vars.clone();
            for cq in quals {
                match cq {
                    Qualifier::Pred(p) => collect_commutations(judgement, &inner, p, out),
                    Qualifier::Gen(x, src) => {
                        collect_commutations(judgement, &inner, src, out);
                        if let Ok((_, t, _)) = judgement.query(&inner, src) {
                            if let Some(elem) = t.as_set_elem() {
                                inner.insert(x.clone(), elem.clone());
                            }
                        }
                    }
                }
            }
            collect_commutations(judgement, &inner, head, out);
        }
    }
}
