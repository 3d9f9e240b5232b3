//! The two rewrite rules and their effect-based safety guards. Each rule
//! takes the effects it guards on — the premise effects of the node's
//! `⊢` record — as arguments.

use crate::cost::Stats;
use ioql_ast::{Qualifier, Query};
use ioql_effects::Effect;
use ioql_schema::Schema;

/// A subquery of effect `effect` is *duplication/elision-safe* when
/// evaluating it more or fewer times is unobservable: it performs no adds
/// or updates (reads and attribute reads return the same answers against
/// an unchanged store) and cannot go wrong. Two constructs can: a method
/// invocation may diverge (the only source of non-termination in IOQL)
/// and a cast may get stuck (a downcast, under
/// `TypeOptions::allow_downcast`). A definition call is refused too: `D`
/// carries its signature, not its body, so an invocation or a cast in the
/// body is out of sight.
fn repeat_safe(q: &Query, effect: &Effect) -> bool {
    let may_go_wrong =
        q.any_node(|n| matches!(n, Query::Invoke(..) | Query::Cast(..) | Query::Call(..)));
    !may_go_wrong && effect.adds.is_empty() && effect.updates.is_empty()
}

/// Theorem 8's safe commutation, used as a cost-based canonicalisation:
/// put the cheaper operand of a commutative set operator first. Fires
/// only when the operands' effects `left` and `right` do not interfere —
/// the §4 `Persons ∩ Employees`-with-`new` counterexample is *refused*.
pub fn commute_by_cost(
    schema: &Schema,
    stats: &Stats,
    q: &Query,
    left: &Effect,
    right: &Effect,
) -> Option<Query> {
    match q {
        Query::SetBin(op, a, b) if op.is_commutative() => {
            if stats.work(b) >= stats.work(a) {
                return None; // already cheapest-first
            }
            if !left.noninterfering_with(right, schema) {
                return None;
            }
            Some(Query::SetBin(*op, b.clone(), a.clone()))
        }
        _ => None,
    }
}

/// Predicate promotion: moves a predicate leftward past generators that
/// do not bind a variable it mentions, so filtering happens before later
/// generators expand the row space. `effects` are the qualifiers', in
/// written order, each judged under the binders to its left (reordering
/// does not change them); one too few or too many refuses. Guards: the
/// moved predicate and every crossed generator must be repeat-safe
/// (read-only, and free of invocations, casts and calls) — changing *how
/// many times* each is evaluated must be unobservable.
pub fn promote_predicates<'e>(
    q: &Query,
    effects: impl IntoIterator<Item = &'e Effect>,
) -> Option<Query> {
    let Query::Comp(head, quals) = q else {
        return None;
    };
    let mut effects = effects.into_iter();
    let mut safe: Vec<bool> = quals
        .iter()
        .map(|cq| Some(repeat_safe(cq.query(), effects.next()?)))
        .collect::<Option<_>>()?;
    if effects.next().is_some() {
        return None;
    }
    // Bubble each safe predicate one slot left while legal.
    let mut quals = quals.to_vec();
    let mut moved = false;
    let mut progress = true;
    while progress {
        progress = false;
        for i in 1..quals.len() {
            let crosses = match (&quals[i - 1], &quals[i]) {
                (Qualifier::Gen(x, _), Qualifier::Pred(p)) => {
                    safe[i - 1] && safe[i] && !p.free_vars().contains(x)
                }
                _ => false,
            };
            if crosses {
                quals.swap(i - 1, i);
                safe.swap(i - 1, i);
                moved = true;
                progress = true;
            }
        }
    }
    moved.then(|| Query::Comp(head.clone(), quals))
}
