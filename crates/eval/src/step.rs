//! The single-step reduction relation (Figures 2 and 4).
//!
//! [`step`] performs one reduction `DE ⊢ EE, OE, q —ε→ EE', OE', q'`,
//! mutating the store and returning the new query together with the
//! effect label ε of the instrumented semantics. The evaluation contexts
//! of Figure 2 are realised by the recursion structure: each compound
//! node first steps its leftmost non-value sub-expression *in evaluation
//! position*, and applies its own rule only when those positions hold
//! values. [`redex`] exposes the same traversal as a pure function — the
//! paper's unique-decomposition property, testable on generated queries.
//!
//! One deliberate generalisation: the paper's `(Empty comp)` rule is
//! written `{v | } → {v}`, with a value head. Since evaluation contexts
//! never descend into a comprehension head, a literal reading would leave
//! `{1 + 2 | }` stuck; we reduce `{q | } → {q}` for *any* head, after
//! which the set-literal context evaluates `q`. This preserves progress
//! and agrees with the paper's rule on values.

use crate::chooser::{bad_pick, Chooser};
use crate::machine::{DefEnv, EvalConfig, EvalError};
use ioql_ast::{Qualifier, Query, SetVal, Value};
use ioql_effects::Effect;
use ioql_methods::{invoke, MethodCall};
use ioql_store::{Object, Store};

/// The result of one reduction step.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// The reduced query `q'`.
    pub query: Query,
    /// The effect label ε of the instrumented semantics (Figure 4).
    pub effect: Effect,
    /// The Figure 2/4 rule that fired (the innermost one — the (Context)
    /// closure is implicit in the recursion).
    pub rule: &'static str,
}

fn stuck<T>(q: &Query, reason: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::Stuck {
        query: q.to_string(),
        reason: reason.into(),
    })
}

fn want_set(q: &Query) -> Result<SetVal, EvalError> {
    match q.as_value() {
        Some(Value::Set(s)) => Ok(s),
        _ => stuck(q, "expected a set value"),
    }
}

fn want_int(q: &Query) -> Result<i64, EvalError> {
    match q.as_value() {
        Some(Value::Int(i)) => Ok(i),
        _ => stuck(q, "expected an integer value"),
    }
}

fn want_oid(q: &Query) -> Result<ioql_ast::Oid, EvalError> {
    match q.as_value() {
        Some(Value::Oid(o)) => Ok(o),
        _ => stuck(q, "expected an object value"),
    }
}

/// The sub-expressions of `q` in evaluation-context order (Figure 2's
/// grammar of `E`). Only these positions may be reduced inside `q`.
fn eval_children(q: &Query) -> Vec<&Query> {
    match q {
        Query::Lit(_) | Query::Var(_) | Query::Extent(_) => vec![],
        Query::SetLit(items) => items.iter().collect(),
        Query::SetBin(_, a, b)
        | Query::IntBin(_, a, b)
        | Query::IntEq(a, b)
        | Query::ObjEq(a, b) => vec![a, b],
        Query::Record(fields) => fields.iter().map(|(_, q)| q).collect(),
        Query::Field(inner, _)
        | Query::Size(inner)
        | Query::Sum(inner)
        | Query::Cast(_, inner)
        | Query::Attr(inner, _) => vec![inner],
        Query::Call(_, args) => args.iter().collect(),
        Query::Invoke(recv, _, args) => {
            let mut v: Vec<&Query> = vec![recv];
            v.extend(args.iter());
            v
        }
        Query::New(_, attrs) => attrs.iter().map(|(_, q)| q).collect(),
        // `if E then q else q`: only the condition is an evaluation
        // position.
        Query::If(c, _, _) => vec![c],
        // `{q | x ← E, cq⃗}` and `{q | E, cq⃗}`: only the *first*
        // qualifier's query; the head is never an evaluation position.
        Query::Comp(_, quals) => match quals.first() {
            Some(cq) => vec![cq.query()],
            None => vec![],
        },
    }
}

/// The unique decomposition of Figure 2: returns the path (child indices
/// in evaluation order) to the redex, or `None` if `q` is a value. For a
/// closed well-typed query the returned position always matches a
/// reduction rule — that is the progress theorem.
pub fn redex(q: &Query) -> Option<Vec<usize>> {
    if q.is_value() {
        return None;
    }
    let children = eval_children(q);
    for (i, child) in children.iter().enumerate() {
        if !child.is_value() {
            let mut path = vec![i];
            path.extend(redex(child).expect("non-value child of a non-value node must decompose"));
            return Some(path);
        }
    }
    // All evaluation positions hold values: this node is the redex.
    Some(vec![])
}

/// Performs one reduction step. Returns `Ok(None)` when `q` is already a
/// value. The store is mutated only by `(New)` and — in §5 extended mode
/// — `(Method)`.
pub fn step(
    cfg: &EvalConfig,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
) -> Result<Option<StepOutcome>, EvalError> {
    if q.is_value() {
        return Ok(None);
    }
    let out = reduce(cfg, defs, store, q, chooser)?;
    Ok(Some(out))
}

/// Reduces a non-value query: (Context) — step the leftmost non-value
/// evaluation position — or the node's own rule.
fn reduce(
    cfg: &EvalConfig,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
) -> Result<StepOutcome, EvalError> {
    // (Context): find the leftmost reducible evaluation position.
    let children = eval_children(q);
    let hole = children.iter().position(|c| !c.is_value());
    if let Some(i) = hole {
        let inner = reduce(cfg, defs, store, children[i], chooser)?;
        let query = rebuild(q, i, inner.query);
        return Ok(StepOutcome {
            query,
            effect: inner.effect,
            rule: inner.rule,
        });
    }
    apply_rule(cfg, defs, store, q, chooser)
}

/// Replaces the `i`-th evaluation child of `q` (context plugging `E[q']`).
fn rebuild(q: &Query, i: usize, new_child: Query) -> Query {
    match q {
        Query::SetLit(items) => {
            let mut items = items.clone();
            items[i] = new_child;
            Query::SetLit(items)
        }
        Query::SetBin(op, a, b) => {
            if i == 0 {
                Query::SetBin(*op, Box::new(new_child), b.clone())
            } else {
                Query::SetBin(*op, a.clone(), Box::new(new_child))
            }
        }
        Query::IntBin(op, a, b) => {
            if i == 0 {
                Query::IntBin(*op, Box::new(new_child), b.clone())
            } else {
                Query::IntBin(*op, a.clone(), Box::new(new_child))
            }
        }
        Query::IntEq(a, b) => {
            if i == 0 {
                Query::IntEq(Box::new(new_child), b.clone())
            } else {
                Query::IntEq(a.clone(), Box::new(new_child))
            }
        }
        Query::ObjEq(a, b) => {
            if i == 0 {
                Query::ObjEq(Box::new(new_child), b.clone())
            } else {
                Query::ObjEq(a.clone(), Box::new(new_child))
            }
        }
        Query::Record(fields) => {
            let mut fields = fields.clone();
            fields[i].1 = new_child;
            Query::Record(fields)
        }
        Query::Field(_, l) => Query::Field(Box::new(new_child), l.clone()),
        Query::Size(_) => Query::Size(Box::new(new_child)),
        Query::Sum(_) => Query::Sum(Box::new(new_child)),
        Query::Cast(c, _) => Query::Cast(c.clone(), Box::new(new_child)),
        Query::Attr(_, a) => Query::Attr(Box::new(new_child), a.clone()),
        Query::Call(d, args) => {
            let mut args = args.clone();
            args[i] = new_child;
            Query::Call(d.clone(), args)
        }
        Query::Invoke(recv, m, args) => {
            if i == 0 {
                Query::Invoke(Box::new(new_child), m.clone(), args.clone())
            } else {
                let mut args = args.clone();
                args[i - 1] = new_child;
                Query::Invoke(recv.clone(), m.clone(), args)
            }
        }
        Query::New(c, attrs) => {
            let mut attrs = attrs.clone();
            attrs[i].1 = new_child;
            Query::New(c.clone(), attrs)
        }
        Query::If(_, t, e) => Query::If(Box::new(new_child), t.clone(), e.clone()),
        Query::Comp(head, quals) => {
            let mut quals = quals.clone();
            quals[0] = match &quals[0] {
                Qualifier::Pred(_) => Qualifier::Pred(new_child),
                Qualifier::Gen(x, _) => Qualifier::Gen(x.clone(), new_child),
            };
            Query::Comp(head.clone(), quals)
        }
        _ => unreachable!("rebuild called on a node without evaluation children"),
    }
}

/// Applies the reduction rule matching `q` (all evaluation positions are
/// values).
fn apply_rule(
    cfg: &EvalConfig,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
) -> Result<StepOutcome, EvalError> {
    let pure = |rule: &'static str, query: Query| StepOutcome {
        query,
        effect: Effect::empty(),
        rule,
    };
    match q {
        // Free variables cannot step: closed queries never hit this.
        Query::Var(x) => stuck(q, format!("free variable `{x}` at runtime")),

        // (Extent): e —R(C)→ v where EE(e) = (C, v).
        Query::Extent(e) => {
            let class = store
                .extents
                .get(e)
                .map(|(c, _)| c.clone())
                .ok_or_else(|| EvalError::Stuck {
                    query: q.to_string(),
                    reason: format!("unknown extent `{e}`"),
                })?;
            let v = store
                .extent_value(e)
                .map_err(|err| EvalError::Store(err.to_string()))?;
            if let Some(gov) = cfg.governor {
                if let Value::Set(s) = &v {
                    gov.observe_set_card(s.len() as u64)?;
                }
            }
            Ok(StepOutcome {
                query: Query::Lit(v),
                effect: Effect::read(class),
                rule: "(Extent)",
            })
        }

        // (Union) and friends: v₁ sop v₂ → v₃.
        Query::SetBin(op, a, b) => {
            let va = want_set(a)?;
            let vb = want_set(b)?;
            let result = op.apply(&va, &vb);
            if let Some(gov) = cfg.governor {
                gov.observe_set_card(result.len() as u64)?;
            }
            Ok(pure("(Union)", Query::Lit(Value::Set(result))))
        }

        // (Addition) etc.
        Query::IntBin(op, a, b) => {
            let ia = want_int(a)?;
            let ib = want_int(b)?;
            Ok(pure("(Addition)", Query::Lit(op.apply(ia, ib))))
        }

        // (Int eq).
        Query::IntEq(a, b) => {
            let ia = want_int(a)?;
            let ib = want_int(b)?;
            Ok(pure("(Int eq)", Query::Lit(Value::Bool(ia == ib))))
        }

        // (Object eq) — both oids must be live (the rule's side condition
        // `OE(o₁) = ≪C₁,…≫`).
        Query::ObjEq(a, b) => {
            let oa = want_oid(a)?;
            let ob = want_oid(b)?;
            if !store.objects.contains(oa) {
                return stuck(q, format!("dangling oid {oa}"));
            }
            if !store.objects.contains(ob) {
                return stuck(q, format!("dangling oid {ob}"));
            }
            Ok(pure("(Object eq)", Query::Lit(Value::Bool(oa == ob))))
        }

        // (Record): ⟨…⟩.lᵢ → vᵢ.
        Query::Field(subject, l) => match subject.as_value() {
            Some(Value::Record(fields)) => match fields.get(l) {
                Some(v) => Ok(pure("(Record)", Query::Lit(v.clone()))),
                None => stuck(q, format!("record has no field `{l}`")),
            },
            _ => stuck(q, "field access on a non-record"),
        },

        // (Definition): d(v⃗) → q[x⃗ := v⃗].
        Query::Call(d, args) => {
            let def = defs
                .get(d)
                .ok_or_else(|| EvalError::Stuck {
                    query: q.to_string(),
                    reason: format!("unknown definition `{d}`"),
                })?
                .clone();
            if def.params.len() != args.len() {
                return stuck(q, "definition arity mismatch at runtime");
            }
            let mut body = def.body.clone();
            for ((x, _), arg) in def.params.iter().zip(args) {
                let v = arg.as_value().ok_or_else(|| EvalError::Stuck {
                    query: q.to_string(),
                    reason: "non-value definition argument".into(),
                })?;
                body = body.subst(x, &v);
            }
            Ok(pure("(Definition)", body))
        }

        // (Size): size({v₀, …, v_k}) → k (cardinality of the *set*).
        Query::Size(inner) => {
            let s = want_set(inner)?;
            Ok(pure("(Size)", Query::Lit(Value::Int(s.len() as i64))))
        }

        // (Sum) — extension: total sum of a set of integers (the set has
        // already collapsed duplicates, matching sum-over-*sets*
        // semantics).
        Query::Sum(inner) => {
            let s = want_set(inner)?;
            let mut total = 0i64;
            for v in &s {
                match v {
                    Value::Int(i) => total = total.wrapping_add(*i),
                    _ => return stuck(q, "sum over a non-integer set"),
                }
            }
            Ok(pure("(Sum)", Query::Lit(Value::Int(total))))
        }

        // (Upcast): (C') o → o when the dynamic class extends C'. A
        // *failed* check — reachable only via the unsound downcast option
        // — is a stuck state, exactly the insecurity of paper Note 2.
        Query::Cast(c, inner) => {
            let o = want_oid(inner)?;
            let dynamic = store
                .class_of(o)
                .map_err(|e| EvalError::Store(e.to_string()))?;
            if cfg.schema.extends(dynamic, c) {
                Ok(pure("(Upcast)", Query::Lit(Value::Oid(o))))
            } else {
                stuck(q, format!("cast to `{c}` failed: object is a `{dynamic}`"))
            }
        }

        // (Attribute): o.aᵢ → vᵢ.
        Query::Attr(subject, a) => {
            let o = want_oid(subject)?;
            let class = store
                .class_of(o)
                .map_err(|e| EvalError::Store(e.to_string()))?
                .clone();
            let v = store
                .attr(o, a)
                .map_err(|e| EvalError::Store(e.to_string()))?
                .clone();
            Ok(StepOutcome {
                query: Query::Lit(v),
                effect: Effect::attr_read(class),
                rule: "(Attribute)",
            })
        }

        // (Method): dispatch on the receiver's dynamic class, run the
        // body to completion via the big-step ⇓ of `ioql-methods`.
        Query::Invoke(recv, m, args) => {
            let o = want_oid(recv)?;
            let mut argv = Vec::with_capacity(args.len());
            for a in args {
                argv.push(a.as_value().ok_or_else(|| EvalError::Stuck {
                    query: q.to_string(),
                    reason: "non-value method argument".into(),
                })?);
            }
            let call = MethodCall {
                receiver: o,
                method: m.clone(),
                args: argv,
            };
            match invoke(cfg.schema, store, &call, cfg.method_mode, cfg.method_fuel) {
                Ok(result) => Ok(StepOutcome {
                    query: Query::Lit(result.value),
                    effect: result.effect,
                    rule: "(Method)",
                }),
                Err(ioql_methods::MethodError::Diverged) => Err(EvalError::MethodDiverged {
                    method: m.to_string(),
                }),
                Err(e) => stuck(q, e.to_string()),
            }
        }

        // (New): fresh oid, object bound in OE, inserted into its class
        // extent(s); effect A(C) (closed over superclasses when extents
        // are inherited).
        Query::New(c, attrs) => {
            let mut vals = Vec::with_capacity(attrs.len());
            for (a, aq) in attrs {
                vals.push((
                    a.clone(),
                    aq.as_value().ok_or_else(|| EvalError::Stuck {
                        query: q.to_string(),
                        reason: "non-value attribute in new".into(),
                    })?,
                ));
            }
            let extents = cfg.schema.extents_for_new(c);
            if extents.is_empty() {
                return stuck(q, format!("class `{c}` has no extent"));
            }
            let effect = Effect::creation(cfg.schema, c);
            if let Some(gov) = cfg.governor {
                gov.charge_growth(1)?;
            }
            let o = store
                .create(Object::new(c.clone(), vals), extents)
                .map_err(|e| EvalError::Store(e.to_string()))?;
            Ok(StepOutcome {
                query: Query::Lit(Value::Oid(o)),
                effect,
                rule: "(New)",
            })
        }

        // (Cond1)/(Cond2).
        Query::If(cond, then, els) => match cond.as_value() {
            Some(Value::Bool(true)) => Ok(pure("(Cond1)", (**then).clone())),
            Some(Value::Bool(false)) => Ok(pure("(Cond2)", (**els).clone())),
            _ => stuck(q, "if condition is not a boolean"),
        },

        // The comprehension rules.
        Query::Comp(head, quals) => match quals.split_first() {
            // (Empty comp), generalised to arbitrary heads (see module
            // docs): {q | } → {q}.
            None => Ok(pure("(Empty comp)", Query::SetLit(vec![(**head).clone()]))),

            // (True comp)/(False comp).
            Some((Qualifier::Pred(p), rest)) => match p.as_value() {
                Some(Value::Bool(true)) => Ok(pure(
                    "(True comp)",
                    Query::Comp(head.clone(), rest.to_vec()),
                )),
                Some(Value::Bool(false)) => {
                    Ok(pure("(False comp)", Query::Lit(Value::empty_set())))
                }
                _ => stuck(q, "comprehension predicate is not a boolean"),
            },

            Some((Qualifier::Gen(x, src), rest)) => {
                let elems = want_set(src)?;
                if elems.is_empty() {
                    return Ok(pure("(Triv comp)", Query::Lit(Value::empty_set())));
                }
                // (ND comp): pick vᵢ, reduce to
                //   ({q | cq⃗}[x := vᵢ]) ∪ {q | x ← v_rest, cq⃗}
                // Left-to-right union evaluation means vᵢ really is
                // processed first.
                let elems: Vec<Value> = elems.into_iter().collect();
                let i = chooser.choose(elems.len());
                // One comprehension cell per drawn element — charged
                // right after the chooser call so both engines' meters
                // advance in lock-step (see `governor`'s parity notes).
                if let Some(gov) = cfg.governor {
                    gov.charge_cells(1)?;
                }
                let picked = match elems.get(i) {
                    Some(v) => v.clone(),
                    None => return Err(bad_pick(x, i, elems.len())),
                };
                let rest_set: SetVal = elems
                    .into_iter()
                    .enumerate()
                    .filter_map(|(j, v)| (j != i).then_some(v))
                    .collect();
                let body = Query::Comp(head.clone(), rest.to_vec()).subst(x, &picked);
                let remaining = {
                    let mut qs = Vec::with_capacity(rest.len() + 1);
                    qs.push(Qualifier::Gen(x.clone(), Query::Lit(Value::Set(rest_set))));
                    qs.extend(rest.iter().cloned());
                    Query::Comp(head.clone(), qs)
                };
                Ok(pure("(ND comp)", body.union(remaining)))
            }
        },

        // Values were filtered in `step`; other shapes have evaluation
        // children and were handled by (Context).
        Query::Lit(_) | Query::SetLit(_) | Query::Record(_) => {
            stuck(q, "internal: rule applied to a value")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::FirstChooser;
    use crate::machine::{DefEnv, EvalConfig};
    use ioql_ast::{AttrDef, ClassDef, ClassName, Definition, ExtentName, VarName};
    use ioql_methods::Mode;
    use ioql_schema::Schema;

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::plain(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap()
    }

    fn setup(schema: &Schema) -> (EvalConfig<'_>, DefEnv, Store) {
        let cfg = EvalConfig::new(schema).with_method_mode(Mode::ReadOnly);
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        (cfg, DefEnv::new(), store)
    }

    fn one(cfg: &EvalConfig, defs: &DefEnv, store: &mut Store, q: &Query) -> StepOutcome {
        step(cfg, defs, store, q, &mut FirstChooser)
            .unwrap()
            .expect("expected a step")
    }

    #[test]
    fn values_do_not_step() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        assert!(
            step(&cfg, &defs, &mut store, &Query::int(1), &mut FirstChooser)
                .unwrap()
                .is_none()
        );
        assert!(step(
            &cfg,
            &defs,
            &mut store,
            &Query::set_lit([Query::int(1)]),
            &mut FirstChooser
        )
        .unwrap()
        .is_none());
    }

    #[test]
    fn addition_steps() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let out = one(&cfg, &defs, &mut store, &Query::int(1).add(Query::int(2)));
        assert_eq!(out.query, Query::int(3));
        assert!(out.effect.is_empty());
    }

    #[test]
    fn leftmost_innermost_order() {
        // (1+2) + (3+4): the left sum reduces first.
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::int(1)
            .add(Query::int(2))
            .add(Query::int(3).add(Query::int(4)));
        let out = one(&cfg, &defs, &mut store, &q);
        assert_eq!(
            out.query,
            Query::int(3).add(Query::int(3).add(Query::int(4)))
        );
    }

    #[test]
    fn extent_reads_with_effect() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let out = one(&cfg, &defs, &mut store, &Query::extent("Ps"));
        assert_eq!(out.query, Query::Lit(Value::empty_set()));
        assert_eq!(out.effect, Effect::read("P"));
    }

    #[test]
    fn new_creates_and_reports_add() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::new_obj("P", [("n", Query::int(1))]);
        let out = one(&cfg, &defs, &mut store, &q);
        assert!(matches!(out.query, Query::Lit(Value::Oid(_))));
        assert_eq!(out.effect, Effect::add("P"));
        assert_eq!(
            store.extents.members(&ExtentName::new("Ps")).unwrap().len(),
            1
        );
    }

    #[test]
    fn conditional_steps() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::ite(Query::bool(true), Query::int(1), Query::int(2));
        assert_eq!(one(&cfg, &defs, &mut store, &q).query, Query::int(1));
        let q = Query::ite(Query::bool(false), Query::int(1), Query::int(2));
        assert_eq!(one(&cfg, &defs, &mut store, &q).query, Query::int(2));
    }

    #[test]
    fn definition_beta_reduces() {
        let s = schema();
        let (cfg, mut defs, mut store) = setup(&s);
        defs.insert(Definition::new(
            "inc",
            [(VarName::new("x"), ioql_ast::Type::Int)],
            Query::var("x").add(Query::int(1)),
        ));
        let q = Query::call("inc", [Query::int(4)]);
        let out = one(&cfg, &defs, &mut store, &q);
        assert_eq!(out.query, Query::int(4).add(Query::int(1)));
    }

    #[test]
    fn size_counts_set_cardinality() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        // {1, 1, 2} has size 2 — sets are mathematical.
        let q = Query::set_lit([Query::int(1), Query::int(1), Query::int(2)]).size_of();
        let out = one(&cfg, &defs, &mut store, &q);
        assert_eq!(out.query, Query::Lit(Value::Int(2)));
    }

    #[test]
    fn sum_rule_totals_the_set() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        // Duplicates collapse before summation: sum({2, 2, 3}) = 5.
        let q = Query::set_lit([Query::int(2), Query::int(2), Query::int(3)]).sum_of();
        let out = one(&cfg, &defs, &mut store, &q);
        assert_eq!(out.query, Query::Lit(Value::Int(5)));
        // sum({}) = 0.
        let q0 = Query::set_lit([]).sum_of();
        assert_eq!(
            one(&cfg, &defs, &mut store, &q0).query,
            Query::Lit(Value::Int(0))
        );
    }

    #[test]
    fn empty_comp_generalised() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::comp(Query::int(1).add(Query::int(2)), []);
        let out = one(&cfg, &defs, &mut store, &q);
        assert_eq!(
            out.query,
            Query::set_lit([Query::int(1).add(Query::int(2))])
        );
    }

    #[test]
    fn nd_comp_unfolds_chosen_element() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        // {x + 1 | x <- {10, 20}} with FirstChooser: picks 10.
        let q = Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(10), Query::int(20)]),
            )],
        );
        let out = one(&cfg, &defs, &mut store, &q);
        // ({10 + 1 | }) ∪ {x + 1 | x <- {20}}
        let expected = Query::comp(Query::int(10).add(Query::int(1)), []).union(Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::Lit(Value::set([Value::Int(20)])),
            )],
        ));
        assert_eq!(out.query, expected);
    }

    #[test]
    fn predicate_comp_rules() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::comp(Query::int(1), [Qualifier::Pred(Query::bool(true))]);
        assert_eq!(
            one(&cfg, &defs, &mut store, &q).query,
            Query::comp(Query::int(1), [])
        );
        let q = Query::comp(Query::int(1), [Qualifier::Pred(Query::bool(false))]);
        assert_eq!(
            one(&cfg, &defs, &mut store, &q).query,
            Query::Lit(Value::empty_set())
        );
    }

    #[test]
    fn triv_comp() {
        let s = schema();
        let (cfg, defs, mut store) = setup(&s);
        let q = Query::comp(
            Query::var("x"),
            [Qualifier::Gen(VarName::new("x"), Query::set_lit([]))],
        );
        assert_eq!(
            one(&cfg, &defs, &mut store, &q).query,
            Query::Lit(Value::empty_set())
        );
    }

    #[test]
    fn redex_path_unique_decomposition() {
        // values: no redex.
        assert_eq!(redex(&Query::int(1)), None);
        assert_eq!(redex(&Query::set_lit([Query::int(1)])), None);
        // whole term is redex.
        assert_eq!(redex(&Query::int(1).add(Query::int(2))), Some(vec![]));
        // left operand first.
        let q = Query::int(1)
            .add(Query::int(2))
            .add(Query::int(3).add(Query::int(4)));
        assert_eq!(redex(&q), Some(vec![0]));
        // inside a set literal, the first non-value element.
        let q = Query::set_lit([Query::int(5), Query::int(1).add(Query::int(2))]);
        assert_eq!(redex(&q), Some(vec![1]));
        // comprehension: the generator source, never the head.
        let q = Query::comp(
            Query::var("x").add(Query::int(1)),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        assert_eq!(redex(&q), Some(vec![0]));
    }

    #[test]
    fn upcast_on_object_value() {
        let s = Schema::new(vec![
            ClassDef::plain("A", ClassName::object(), "As", []),
            ClassDef::plain("B", "A", "Bs", []),
        ])
        .unwrap();
        let cfg = EvalConfig::new(&s);
        let defs = DefEnv::new();
        let mut store = Store::new();
        store.declare_extent("As", "A");
        store.declare_extent("Bs", "B");
        let o = store
            .create(
                Object::new("B", Vec::<(&str, Value)>::new()),
                [ExtentName::new("Bs")],
            )
            .unwrap();
        let q = Query::Lit(Value::Oid(o)).cast("A");
        let out = step(&cfg, &defs, &mut store, &q, &mut FirstChooser)
            .unwrap()
            .unwrap();
        assert_eq!(out.query, Query::Lit(Value::Oid(o)));
        // Failing (down)cast is stuck — Note 2's unsoundness made visible.
        let bad = Query::Lit(Value::Oid(o)).cast("Ghost");
        assert!(matches!(
            step(&cfg, &defs, &mut store, &bad, &mut FirstChooser),
            Err(EvalError::Stuck { .. })
        ));
    }
}
