//! The two rewrite rules and their effect-based safety guards.

use crate::cost::Stats;
use ioql_ast::{Qualifier, Query};
use ioql_effects::{infer_query, Effect, EffectEnv};

/// Infers the effect of `q` under `env`; `None` means "could not analyse"
/// and every guard treats it as unsafe.
fn effect_of(env: &EffectEnv<'_>, q: &Query) -> Option<Effect> {
    infer_query(env, q).ok().map(|(_, e)| e)
}

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
/// only when the operands' effects do not interfere — the §4
/// `Persons ∩ Employees`-with-`new` counterexample is *refused*.
pub fn commute_by_cost(env: &EffectEnv<'_>, stats: &Stats, q: &Query) -> Option<Query> {
    match q {
        Query::SetBin(op, a, b) if op.is_commutative() => {
            if stats.work(b) >= stats.work(a) {
                return None; // already cheapest-first
            }
            let ea = effect_of(env, a)?;
            let eb = effect_of(env, b)?;
            if !ea.noninterfering_with(&eb, env.schema) {
                return None;
            }
            Some(Query::SetBin(*op, b.clone(), a.clone()))
        }
        _ => None,
    }
}

/// Predicate promotion: moves a predicate leftward past generators that
/// do not bind a variable it mentions, so filtering happens before later
/// generators expand the row space. Guards: the moved predicate and every
/// crossed generator must be repeat-safe (read-only, and free of
/// invocations, casts and calls) — changing *how many times* each is
/// evaluated must be unobservable.
pub fn promote_predicates(env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
    let Query::Comp(head, quals) = q else {
        return None;
    };
    // Each qualifier's guard, judged under the binders to its left
    // (effects do not change by reordering).
    let mut inner = env.clone();
    let mut safe = Vec::with_capacity(quals.len());
    for cq in quals {
        let (ty, effect) = infer_query(&inner, cq.query()).ok()?;
        safe.push(repeat_safe(cq.query(), &effect));
        if let Qualifier::Gen(x, _) = cq {
            inner = inner.bind(x.clone(), ty.as_set_elem()?.clone());
        }
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
