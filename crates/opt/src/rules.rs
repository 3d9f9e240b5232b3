//! The individual rewrite rules and their effect-based safety guards.

use crate::cost::Stats;
use ioql_ast::{Qualifier, Query, Value, VarName};
use ioql_effects::{infer_query, Effect, EffectEnv};
use std::collections::BTreeSet;

/// Infers the effect of `q` under `env`; `None` means "could not analyse"
/// and every guard treats it as unsafe.
fn effect_of(env: &EffectEnv<'_>, q: &Query) -> Option<Effect> {
    infer_query(env, q).ok().map(|(_, e)| e)
}

/// A subquery is *duplication/elision-safe* when evaluating it more or
/// fewer times is unobservable: it performs no adds or updates (reads and
/// attribute reads return the same answers against an unchanged store)
/// and cannot diverge (no method invocation — the only source of
/// non-termination in IOQL).
fn repeat_safe(env: &EffectEnv<'_>, q: &Query) -> bool {
    if q.contains_invoke() {
        return false;
    }
    match effect_of(env, q) {
        Some(e) => e.adds.is_empty() && e.updates.is_empty(),
        None => false,
    }
}

/// A subquery whose *value* is stable under store growth: effect fully ∅.
/// Required when a rewrite moves an expression across a potential add
/// (e.g. inlining an argument into a body that creates objects).
fn value_stable(env: &EffectEnv<'_>, q: &Query) -> bool {
    !q.contains_invoke() && effect_of(env, q).is_some_and(|e| e.is_empty())
}

/// Capture-avoiding substitution of a *query* for a variable — used by
/// definition inlining and comprehension unnesting. Unlike the semantic
/// value-substitution in `ioql-ast`, the replacement may be an arbitrary
/// open query: a generator that rebinds `x` ends the substitution, and a
/// generator whose binder `r` mentions free is renamed before `r` goes
/// under it. The rules' guards ensure this is only done when
/// duplication/elision is safe.
pub fn subst_query(q: &Query, x: &VarName, r: &Query) -> Query {
    match q {
        Query::Var(y) if y == x => r.clone(),
        Query::Lit(_) | Query::Var(_) | Query::Extent(_) => q.clone(),
        Query::SetLit(items) => Query::SetLit(items.iter().map(|i| subst_query(i, x, r)).collect()),
        Query::SetBin(op, a, b) => Query::SetBin(
            *op,
            Box::new(subst_query(a, x, r)),
            Box::new(subst_query(b, x, r)),
        ),
        Query::IntBin(op, a, b) => Query::IntBin(
            *op,
            Box::new(subst_query(a, x, r)),
            Box::new(subst_query(b, x, r)),
        ),
        Query::IntEq(a, b) => Query::IntEq(
            Box::new(subst_query(a, x, r)),
            Box::new(subst_query(b, x, r)),
        ),
        Query::ObjEq(a, b) => Query::ObjEq(
            Box::new(subst_query(a, x, r)),
            Box::new(subst_query(b, x, r)),
        ),
        Query::Record(fields) => Query::Record(
            fields
                .iter()
                .map(|(l, fq)| (l.clone(), subst_query(fq, x, r)))
                .collect(),
        ),
        Query::Field(inner, l) => Query::Field(Box::new(subst_query(inner, x, r)), l.clone()),
        Query::Call(d, args) => Query::Call(
            d.clone(),
            args.iter().map(|a| subst_query(a, x, r)).collect(),
        ),
        Query::Size(inner) => Query::Size(Box::new(subst_query(inner, x, r))),
        Query::Sum(inner) => Query::Sum(Box::new(subst_query(inner, x, r))),
        Query::Cast(cn, inner) => Query::Cast(cn.clone(), Box::new(subst_query(inner, x, r))),
        Query::Attr(inner, a) => Query::Attr(Box::new(subst_query(inner, x, r)), a.clone()),
        Query::Invoke(recv, m, args) => Query::Invoke(
            Box::new(subst_query(recv, x, r)),
            m.clone(),
            args.iter().map(|a| subst_query(a, x, r)).collect(),
        ),
        Query::New(cn, attrs) => Query::New(
            cn.clone(),
            attrs
                .iter()
                .map(|(a, aq)| (a.clone(), subst_query(aq, x, r)))
                .collect(),
        ),
        Query::If(c, t, e) => Query::If(
            Box::new(subst_query(c, x, r)),
            Box::new(subst_query(t, x, r)),
            Box::new(subst_query(e, x, r)),
        ),
        Query::Comp(head, quals) => {
            let mut out = Vec::with_capacity(quals.len());
            let head = subst_comp(head, quals, x, r, &mut out);
            Query::Comp(Box::new(head), out)
        }
    }
}

/// `{ head | quals }[x := r]`, qualifier by qualifier: pushes the
/// rewritten qualifiers onto `out` and returns the rewritten head.
fn subst_comp(
    head: &Query,
    quals: &[Qualifier],
    x: &VarName,
    r: &Query,
    out: &mut Vec<Qualifier>,
) -> Query {
    let Some((first, rest)) = quals.split_first() else {
        return subst_query(head, x, r);
    };
    let Qualifier::Gen(y, src) = first else {
        out.push(Qualifier::Pred(subst_query(first.query(), x, r)));
        return subst_comp(head, rest, x, r, out);
    };
    let src = subst_query(src, x, r);
    if y != x && !r.free_vars().contains(y) {
        // The common case: `r` can go under `y` as it is.
        out.push(Qualifier::Gen(y.clone(), src));
        return subst_comp(head, rest, x, r, out);
    }
    let scope = Query::Comp(Box::new(head.clone()), rest.to_vec());
    if y == x || !scope.free_vars().contains(x) {
        // `x` is rebound here, or does not occur past this generator.
        out.push(Qualifier::Gen(y.clone(), src));
        out.extend_from_slice(rest);
        return head.clone();
    }
    // `r` mentions `y` and would land inside `y`'s scope: rename the
    // binder in what it scopes over, then substitute.
    let fresh = (1..)
        .map(|n| VarName::new(format!("{y}__{n}")))
        .find(|name| !mentions(&scope, name) && !mentions(r, name))
        .expect("an unbounded supply of names");
    let Query::Comp(head, rest) = subst_query(&scope, y, &Query::Var(fresh.clone())) else {
        unreachable!("substitution preserves the constructor")
    };
    out.push(Qualifier::Gen(fresh, src));
    subst_comp(&head, &rest, x, r, out)
}

/// Whether `name` occurs anywhere in `q`, free, bound or as a binder.
fn mentions(q: &Query, name: &VarName) -> bool {
    let mut found = false;
    q.for_each_node(&mut |n| {
        found |= match n {
            Query::Var(v) => v == name,
            Query::Comp(_, quals) => quals.iter().any(|cq| cq.binder() == Some(name)),
            _ => false,
        }
    });
    found
}

// ---------------------------------------------------------------------
// Local rules. Each returns Some(rewritten) when it fires.
// ---------------------------------------------------------------------

/// Constant folding: integer arithmetic, comparisons, equalities,
/// conditionals on literal booleans, `size` and set operators on realised
/// sets. Pure by Lemma 2.1 (values have no effects), so always safe.
pub fn fold_constants(q: &Query) -> Option<Query> {
    match q {
        Query::IntBin(op, a, b) => {
            let (ia, ib) = (a.as_value()?.as_int()?, b.as_value()?.as_int()?);
            Some(Query::Lit(op.apply(ia, ib)))
        }
        Query::IntEq(a, b) => {
            let (ia, ib) = (a.as_value()?.as_int()?, b.as_value()?.as_int()?);
            Some(Query::Lit(Value::Bool(ia == ib)))
        }
        Query::If(c, t, e) => match c.as_value()?.as_bool()? {
            true => Some((**t).clone()),
            false => Some((**e).clone()),
        },
        Query::Size(inner) => {
            let v = inner.as_value()?;
            match v {
                Value::Set(s) => Some(Query::Lit(Value::Int(s.len() as i64))),
                _ => None,
            }
        }
        Query::Sum(inner) => {
            let v = inner.as_value()?;
            match v {
                Value::Set(s) => {
                    let mut total = 0i64;
                    for item in &s {
                        total = total.wrapping_add(item.as_int()?);
                    }
                    Some(Query::Lit(Value::Int(total)))
                }
                _ => None,
            }
        }
        Query::SetBin(op, a, b) => {
            let (va, vb) = (a.as_value()?, b.as_value()?);
            match (va, vb) {
                (Value::Set(sa), Value::Set(sb)) => {
                    Some(Query::Lit(Value::Set(op.apply(&sa, &sb))))
                }
                _ => None,
            }
        }
        Query::Field(inner, l) => match inner.as_value()? {
            Value::Record(fs) => fs.get(l).map(|v| Query::Lit(v.clone())),
            _ => None,
        },
        _ => None,
    }
}

/// `if c then q else q → q` when the condition is repeat-safe to discard
/// (pure and divergence-free).
pub fn collapse_same_branches(env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
    match q {
        Query::If(c, t, e) if t == e && value_stable(env, c) => Some((**t).clone()),
        _ => None,
    }
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

/// Removes literal-`true` predicates (their evaluation has no effect).
pub fn drop_true_predicates(q: &Query) -> Option<Query> {
    match q {
        Query::Comp(head, quals) => {
            let keep: Vec<Qualifier> = quals
                .iter()
                .filter(|cq| !matches!(cq, Qualifier::Pred(Query::Lit(Value::Bool(true)))))
                .cloned()
                .collect();
            if keep.len() == quals.len() {
                None
            } else {
                Some(Query::Comp(head.clone(), keep))
            }
        }
        _ => None,
    }
}

/// Collapses a comprehension containing a literal-`false` predicate to
/// `{}`, provided everything *before* the predicate is repeat-safe to
/// elide (read-only, divergence-free): the prefix's reads are
/// unobservable and the result is the empty set on every path.
pub fn collapse_false_comprehension(env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
    match q {
        Query::Comp(_, quals) => {
            let idx = quals
                .iter()
                .position(|cq| matches!(cq, Qualifier::Pred(Query::Lit(Value::Bool(false)))))?;
            // Everything before the false must be elidable. Generator
            // binders introduce variables we cannot type here without the
            // source's element type, so we require each *qualifier query*
            // to be invoke-free and check effects on the generator
            // sources only (predicates among them are boolean reads).
            let mut inner = env.clone();
            for cq in &quals[..idx] {
                match cq {
                    Qualifier::Pred(p) => {
                        if !repeat_safe(&inner, p) {
                            return None;
                        }
                    }
                    Qualifier::Gen(x, src) => {
                        if src.contains_invoke() {
                            return None;
                        }
                        let (t, e) = infer_query(&inner, src).ok()?;
                        if !e.adds.is_empty() || !e.updates.is_empty() {
                            return None;
                        }
                        let elem = t.as_set_elem()?.clone();
                        inner = inner.bind(x.clone(), elem);
                    }
                }
            }
            Some(Query::Lit(Value::empty_set()))
        }
        _ => None,
    }
}

/// Predicate promotion: moves a predicate leftward past qualifiers it
/// does not depend on, so filtering happens before later generators
/// expand the row space. Guards: the moved predicate and every crossed
/// qualifier must be repeat-safe (read-only, divergence-free) — changing
/// *how many times* each is evaluated must be unobservable.
pub fn promote_predicates(env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
    let Query::Comp(head, quals) = q else {
        return None;
    };
    // Build per-qualifier binder info and effect-safety. We type
    // incrementally to have binders in scope.
    let mut inner = env.clone();
    let mut binders: Vec<Option<VarName>> = Vec::with_capacity(quals.len());
    let mut safe: Vec<bool> = Vec::with_capacity(quals.len());
    for cq in quals {
        match cq {
            Qualifier::Pred(p) => {
                binders.push(None);
                safe.push(repeat_safe(&inner, p));
            }
            Qualifier::Gen(x, src) => {
                binders.push(Some(x.clone()));
                safe.push(repeat_safe(&inner, src));
                let elem = infer_query(&inner, src)
                    .ok()
                    .and_then(|(t, _)| t.as_set_elem().cloned());
                match elem {
                    Some(t) => inner = inner.bind(x.clone(), t),
                    None => return None,
                }
            }
        }
    }

    let mut new_quals: Vec<Qualifier> = quals.to_vec();
    let mut moved = false;
    // Repeatedly bubble each safe predicate one slot left when legal.
    let mut progress = true;
    while progress {
        progress = false;
        for i in 1..new_quals.len() {
            let can_move = {
                let Qualifier::Pred(p) = &new_quals[i] else {
                    continue;
                };
                // Refreshed safety for the *current* arrangement is the
                // original conservative bit (effects don't change by
                // reordering).
                if !safe[i] {
                    continue;
                }
                let prev = &new_quals[i - 1];
                let prev_idx_safe = safe[i - 1];
                match prev {
                    Qualifier::Gen(x, _) => prev_idx_safe && !p.free_vars().contains(x),
                    Qualifier::Pred(_) => false, // no point swapping preds
                }
            };
            if can_move {
                new_quals.swap(i - 1, i);
                safe.swap(i - 1, i);
                moved = true;
                progress = true;
            }
        }
    }
    if moved {
        Some(Query::Comp(head.clone(), new_quals))
    } else {
        None
    }
}

/// Comprehension unnesting — the normalisation at the heart of
/// Fegaras–Maier's calculus, which the paper's §7 names as the
/// optimization corpus to verify:
///
/// ```text
/// { h | x ← { h' | gs }, rest }  ⇒  { h[x := h'] | gs, rest[x := h'] }
/// ```
///
/// Avoids materialising the inner set. Two subtleties make the guards
/// strict:
///
/// * **Duplicate collapse.** The inner set deduplicates `h'` values
///   *before* the outer comprehension iterates; after unnesting, rows of
///   `gs` that produce equal `h'` values each run `rest`/`h`. The result
///   *set* is unchanged, but the number of evaluations is not — so `h'`,
///   `rest`, and `h` must all be repeat-safe (no adds/updates, no
///   method calls).
/// * **Capture.** `gs`'s binders newly scope over `rest`/`h`, so the rule
///   refuses when one of them occurs there (or is `x`). The other
///   direction — `h'` landing under a binder of `rest`/`h` that it
///   mentions — is [`subst_query`]'s to avoid, by renaming that binder.
pub fn unnest_generator(env: &EffectEnv<'_>, q: &Query) -> Option<Query> {
    let Query::Comp(head, quals) = q else {
        return None;
    };
    // Find the first generator whose source is itself a comprehension.
    let idx = quals
        .iter()
        .position(|cq| matches!(cq, Qualifier::Gen(_, Query::Comp(_, _))))?;
    let Qualifier::Gen(x, Query::Comp(inner_head, inner_quals)) = &quals[idx] else {
        return None;
    };

    // Guards -----------------------------------------------------------
    // Inner binders must be fresh w.r.t. everything they would newly
    // scope over: the outer head and the qualifiers after idx.
    let mut outer_names: BTreeSet<VarName> = head.free_vars();
    for cq in &quals[idx + 1..] {
        outer_names.extend(cq.query().free_vars());
        if let Some(b) = cq.binder() {
            outer_names.insert(b.clone());
        }
    }
    for cq in inner_quals.iter() {
        if let Some(b) = cq.binder() {
            if outer_names.contains(b) || b == x {
                return None;
            }
        }
    }
    // Effect safety: within the scope where the inner comprehension is
    // typed (binders of quals[..idx]), the whole inner comprehension and
    // the outer remainder must be repeat-safe.
    let mut scoped = env.clone();
    for cq in &quals[..idx] {
        if let Qualifier::Gen(y, src) = cq {
            let (t, _) = infer_query(&scoped, src).ok()?;
            let elem = match t {
                ioql_ast::Type::Set(inner) => *inner,
                ioql_ast::Type::Bottom => ioql_ast::Type::Bottom,
                _ => return None,
            };
            scoped = scoped.bind(y.clone(), elem);
        }
    }
    let inner_comp = Query::Comp(inner_head.clone(), inner_quals.clone());
    if !repeat_safe(&scoped, &inner_comp) {
        return None;
    }
    // The remainder (rest + head) runs once per inner *row* instead of
    // once per inner *distinct value*: it must be repeat-safe too. Type
    // it with x bound at the inner element type.
    let (inner_ty, _) = infer_query(&scoped, &inner_comp).ok()?;
    let elem = match inner_ty {
        ioql_ast::Type::Set(inner) => *inner,
        _ => return None,
    };
    let mut rest_env = scoped.bind(x.clone(), elem);
    for cq in &quals[idx + 1..] {
        match cq {
            Qualifier::Pred(p) => {
                if !repeat_safe(&rest_env, p) {
                    return None;
                }
            }
            Qualifier::Gen(y, src) => {
                if !repeat_safe(&rest_env, src) {
                    return None;
                }
                let (t, _) = infer_query(&rest_env, src).ok()?;
                let e = match t {
                    ioql_ast::Type::Set(inner) => *inner,
                    ioql_ast::Type::Bottom => ioql_ast::Type::Bottom,
                    _ => return None,
                };
                rest_env = rest_env.bind(y.clone(), e);
            }
        }
    }
    if !repeat_safe(&rest_env, head) {
        return None;
    }

    // Rewrite -----------------------------------------------------------
    // `x` is substituted in the remainder *as a comprehension*, so its
    // scoping (a later rebinding of `x`, a binder `h'` mentions) is
    // `subst_query`'s, in one place.
    let mut new_quals: Vec<Qualifier> = quals[..idx].to_vec();
    new_quals.extend(inner_quals.iter().cloned());
    let new_head = subst_comp(head, &quals[idx + 1..], x, inner_head, &mut new_quals);
    Some(Query::Comp(Box::new(new_head), new_quals))
}
