//! The syntax-directed rules of Figure 1 and Figure 3, as one elaborating
//! walker.
//!
//! Figure 3 (§4) restates every Figure 1 (§3.2) premise and adds an effect
//! annotation to each judgement. [`Judgement`] is therefore generic over an
//! [`EffectAlgebra`]: it derives `E; D; Q ⊢ q : σ ! ε` with one match arm
//! per rule, and the algebra says what `ε` is. The unit algebra (`ε = ()`,
//! implemented by [`TypeEnv`]) is Figure 1; `ioql-effects` supplies the
//! `R(C)`/`A(C)` algebra. Every derivation leaves a [`Derivation`]: one
//! record per rule instance whose premise effects a later reader needs —
//! the `⊢'`/`⊢''` side conditions and the optimizer's guards.

use crate::env::{TypeEnv, TypeOptions};
use crate::error::TypeError;
use crate::value_type::type_of_value;
use ioql_ast::{
    AttrName, ClassName, DefName, Definition, FnType, Label, MethodName, Program, Qualifier, Query,
    SetOp, Type, Value, VarName,
};
use ioql_schema::Schema;
use ioql_store::Store;
use std::collections::BTreeMap;

/// What Figure 3 adds to Figure 1: the effect `ε` of a judgement (`∅` is
/// its `Default`), where the axioms get theirs, and how `D` annotates
/// definitions.
pub trait EffectAlgebra {
    /// The annotation `ε`.
    type Effect: Default;
    /// What a rejected judgement reports.
    type Error: From<TypeError>;

    /// Effect union, in place: `into := into ∪ other`.
    fn union(&self, into: &mut Self::Effect, other: &Self::Effect);
    /// (Extent): reading the extent of class `c`.
    fn on_extent(&self, c: &ClassName) -> Self::Effect;
    /// (New): creating an object of class `c`.
    fn on_new(&self, schema: &Schema, c: &ClassName) -> Self::Effect;
    /// (Attribute access) on an object of static class `c`.
    fn on_attr(&self, c: &ClassName) -> Self::Effect;
    /// `D(d)`: the definition's annotated function type `σ⃗ →ε σ'`.
    fn def_sig(&self, d: &DefName) -> Option<(&FnType, Self::Effect)>;
    /// (Method): the latent effect `ε''` of `m` on a receiver of static
    /// class `c`.
    fn method_latent(&self, schema: &Schema, c: &ClassName, m: &MethodName) -> Self::Effect;
}

/// One rule instance of a derivation, with the premise effects a side
/// condition or a rewrite guard reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record<E> {
    /// (Comp): `(is_generator, effect)` per qualifier, in written order,
    /// and the head's effect.
    Comp(Vec<(bool, E)>, E),
    /// (Sop): the operator, and its left and right operands' effects.
    Sop(SetOp, E, E),
}

/// What one pass of the walker leaves besides `σ ! ε`: a [`Record`] per
/// (Comp) and (Sop) instance, each keyed by the `Query::for_each_node`
/// pre-order index of its conclusion, in post-order — a rule's record
/// follows its premises', as a side condition on it is decided after
/// them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Derivation<E> {
    records: Vec<(usize, Record<E>)>,
    /// Nodes visited so far: the next node's pre-order index.
    nodes: usize,
}

impl<E> Derivation<E> {
    /// The records with their nodes' pre-order indices, in post-order.
    pub fn records(&self) -> &[(usize, Record<E>)] {
        &self.records
    }

    /// The record of the rule instance at pre-order index `node`.
    pub fn at(&self, node: usize) -> Option<&Record<E>> {
        let (_, record) = self.records.iter().find(|(n, _)| *n == node)?;
        Some(record)
    }
}

/// Figure 1 is Figure 3 with nothing to say about effects.
impl EffectAlgebra for &TypeEnv<'_> {
    type Effect = ();
    type Error = TypeError;

    fn union(&self, _: &mut (), _: &()) {}
    fn on_extent(&self, _: &ClassName) {}
    fn on_new(&self, _: &Schema, _: &ClassName) {}
    fn on_attr(&self, _: &ClassName) {}
    fn def_sig(&self, d: &DefName) -> Option<(&FnType, ())> {
        self.defs.get(d).map(|fnty| (fnty, ()))
    }
    fn method_latent(&self, _: &Schema, _: &ClassName, _: &MethodName) {}
}

/// The result of checking a whole program.
#[derive(Clone, Debug)]
pub struct CheckedProgram {
    /// The elaborated program (projections resolved, otherwise identical).
    pub program: Program,
    /// Each definition's function type, in scope order.
    pub def_types: BTreeMap<DefName, FnType>,
    /// The main query's type.
    pub ty: Type,
}

/// Types a *source* query (no reduced values): `E; D; Q ⊢ q : σ`.
/// Returns the elaborated query alongside its type.
pub fn check_query(env: &TypeEnv<'_>, q: &Query) -> Result<(Query, Type), TypeError> {
    let (elab, ty, (), _) = env.judgement(None).query(&env.vars, q)?;
    Ok((elab, ty))
}

/// Types a *runtime* query — an intermediate state of the reducer, which
/// may embed oids and realised sets — against a store. This is the
/// correspondence `E, D, Q ⊢ EE, DE, OE, q : σ` used by the soundness
/// theorems.
pub fn check_runtime_query(env: &TypeEnv<'_>, store: &Store, q: &Query) -> Result<Type, TypeError> {
    let (_, ty, (), _) = env.judgement(Some(store)).query(&env.vars, q)?;
    Ok(ty)
}

/// Types a definition: `E; D ⊢ define d(x⃗: σ⃗) as q : σ⃗ → σ'`.
pub fn check_definition(
    env: &TypeEnv<'_>,
    def: &Definition,
) -> Result<(Definition, FnType), TypeError> {
    let (elab, fnty, (), _) = env.judgement(None).definition(&env.vars, def)?;
    Ok((elab, fnty))
}

/// Types a program: `E ⊢ def₀ … def_k q : σ`, threading each definition's
/// type into the scope of the next (definitions are non-recursive).
pub fn check_program(
    schema: &Schema,
    program: &Program,
    options: TypeOptions,
) -> Result<CheckedProgram, TypeError> {
    let mut env = TypeEnv::with_options(schema, options);
    let mut defs = Vec::with_capacity(program.defs.len());
    for def in &program.defs {
        if env.defs.contains_key(&def.name) {
            return Err(TypeError::DuplicateDef(def.name.clone()));
        }
        let (elab, fnty) = check_definition(&env, def)?;
        env.defs.insert(def.name.clone(), fnty);
        defs.push(elab);
    }
    let (query, ty) = check_query(&env, &program.query)?;
    Ok(CheckedProgram {
        program: Program { defs, query },
        def_types: env.defs,
        ty,
    })
}

impl<'s> TypeEnv<'s> {
    fn judgement<'a>(&'a self, store: Option<&'a Store>) -> Judgement<'a, &'a TypeEnv<'s>> {
        Judgement {
            schema: self.schema,
            store,
            options: self.options,
            algebra: self,
        }
    }
}

/// A declared parameter type must be well-formed over the schema: every
/// class it mentions must exist, and `⊥` must not appear (it is internal).
fn check_type_wf(schema: &Schema, t: &Type) -> Result<(), TypeError> {
    match t {
        Type::Int | Type::Bool => Ok(()),
        Type::Class(c) if schema.is_class(c) => Ok(()),
        Type::Class(c) => Err(TypeError::UnknownClass(c.clone())),
        Type::Set(inner) => check_type_wf(schema, inner),
        Type::Record(fields) => fields.values().try_for_each(|ft| check_type_wf(schema, ft)),
        Type::Bottom => Err(mismatch("a surface type", t, "parameter type")),
    }
}

/// `got` is not what the rule at `context` required.
fn mismatch(expected: impl Into<String>, got: &Type, context: &'static str) -> TypeError {
    TypeError::Mismatch {
        expected: expected.into(),
        got: got.clone(),
        context,
    }
}

fn require_subtype(
    schema: &Schema,
    got: &Type,
    want: &Type,
    context: &'static str,
) -> Result<(), TypeError> {
    if schema.subtype(got, want) {
        Ok(())
    } else {
        Err(mismatch(format!("a subtype of `{want}`"), got, context))
    }
}

fn as_set(t: &Type, context: &'static str) -> Result<Type, TypeError> {
    match t {
        Type::Set(inner) => Ok((**inner).clone()),
        // ⊥ ≤ set(⊥): a ⊥-typed subject (drawn from an empty set, hence
        // never an actual value) eliminates vacuously.
        Type::Bottom => Ok(Type::Bottom),
        other => Err(mismatch("a set type", other, context)),
    }
}

fn as_class(t: &Type, context: &'static str) -> Result<ClassName, TypeError> {
    match t {
        Type::Class(c) => Ok(c.clone()),
        other => Err(mismatch("an object (class) type", other, context)),
    }
}

/// `Q`: identifiers in scope, with their types.
type Vars = BTreeMap<VarName, Type>;

/// A derived judgement: the elaborated term, its type and effect, and the
/// derivation's records.
pub type Judged<T, S, E> = (T, S, E, Derivation<E>);

/// The judgement form `E; D; Q ⊢ q : σ ! ε`: the schema `E`, the algebra
/// carrying `D` and `ε`, the design-space options, and — when typing the
/// reducer's intermediate states — the store their oids live in.
pub struct Judgement<'a, A> {
    /// The object schema (the paper's `E`, plus class information).
    pub schema: &'a Schema,
    /// `Some` only when typing runtime states (reduced values).
    pub store: Option<&'a Store>,
    /// Design-space options.
    pub options: TypeOptions,
    /// `D` and the effect annotation.
    pub algebra: A,
}

impl<A: EffectAlgebra> Judgement<'_, A> {
    /// Derives `q : σ ! ε` under `Q = vars`, and the derivation's
    /// records. The checker is an elaborating one: each `.` projection
    /// comes back resolved to record or attribute access by its subject's
    /// type.
    pub fn query(
        &self,
        vars: &Vars,
        q: &Query,
    ) -> Result<Judged<Query, Type, A::Effect>, A::Error> {
        let mut elab = q.clone();
        let mut d = Derivation::default();
        let (ty, eff) = self.premise(vars, &mut elab, &mut d)?;
        // A retained statement keeps its records: no spare capacity.
        d.records.shrink_to_fit();
        Ok((elab, ty, eff, d))
    }

    /// Derives `define d(x⃗: σ⃗) as q : σ⃗ →ε σ'`.
    pub fn definition(
        &self,
        vars: &Vars,
        def: &Definition,
    ) -> Result<Judged<Definition, FnType, A::Effect>, A::Error> {
        let mut inner = vars.clone();
        for (i, (x, t)) in def.params.iter().enumerate() {
            if def.params[..i].iter().any(|(y, _)| y == x) {
                return Err(TypeError::DuplicateParam(x.clone()).into());
            }
            check_type_wf(self.schema, t)?;
            inner.insert(x.clone(), t.clone());
        }
        let (body, result, effect, d) = self.query(&inner, &def.body)?;
        let fnty = FnType::new(def.params.iter().map(|(_, t)| t.clone()).collect(), result);
        let elab = Definition::new(def.name.clone(), def.params.clone(), body);
        Ok((elab, fnty, effect, d))
    }

    /// A premise whose effect a record keeps: judged into a fresh
    /// accumulator instead of the rule's own.
    fn premise(
        &self,
        vars: &Vars,
        q: &mut Query,
        d: &mut Derivation<A::Effect>,
    ) -> Result<(Type, A::Effect), A::Error> {
        let mut eff = A::Effect::default();
        let ty = self.judge(vars, q, &mut eff, d)?;
        Ok((ty, eff))
    }

    /// Call-by-value application of `fnty` to `args`, shared by (Defn) and
    /// (Method): arity, then each argument at a subtype of its parameter.
    fn apply(
        &self,
        vars: &Vars,
        fnty: &FnType,
        args: &mut [Query],
        (callee, argument): (&'static str, &'static str),
        eff: &mut A::Effect,
        d: &mut Derivation<A::Effect>,
    ) -> Result<(), A::Error> {
        if fnty.params.len() != args.len() {
            return Err(TypeError::Arity {
                expected: fnty.params.len(),
                got: args.len(),
                context: callee,
            }
            .into());
        }
        for (arg, want) in args.iter_mut().zip(&fnty.params) {
            let t = self.judge(vars, arg, eff, d)?;
            require_subtype(self.schema, &t, want, argument)?;
        }
        Ok(())
    }

    /// The rule dispatcher: one arm per Figure 1 / Figure 3 rule,
    /// elaborating `q` in place (only projections change) and visiting
    /// the children in `Query::for_each_child` order, so `q` is node
    /// `d.nodes` of the pre-order. A rule's effect is the union of its
    /// premises' effects and its own, so every arm accumulates into the
    /// caller's `eff`; the two rules whose premise effects a side
    /// condition reads — (Sop) for `⊢''`, (Comp2) for `⊢'` — judge each
    /// [`premise`](Self::premise) separately and record them.
    fn judge(
        &self,
        vars: &Vars,
        q: &mut Query,
        eff: &mut A::Effect,
        d: &mut Derivation<A::Effect>,
    ) -> Result<Type, A::Error> {
        let schema = self.schema;
        let alg = &self.algebra;
        let node = d.nodes;
        d.nodes += 1;
        match q {
            // (Int), (Bool) — and the runtime-value extension. Values
            // have no effect (Lemma 2.1).
            Query::Lit(v) => Ok(type_of_value(schema, self.store, v)?),

            // (Ident) — Q(x).
            Query::Var(x) => match vars.get(x) {
                Some(t) => Ok(t.clone()),
                None => Err(TypeError::Unbound(x.clone()).into()),
            },

            // (Extent) — E(e) = C gives e : set(C) ! R(C).
            Query::Extent(e) => match schema.extent_class(e) {
                Some(c) => {
                    alg.union(eff, &alg.on_extent(c));
                    Ok(Type::set(Type::Class(c.clone())))
                }
                None => Err(TypeError::UnknownExtent(e.clone()).into()),
            },

            // (Set) — elementwise, joined by lub; {} : set(⊥).
            Query::SetLit(items) => {
                let mut elem = Type::Bottom;
                for item in items {
                    let t = self.judge(vars, item, eff, d)?;
                    elem = schema
                        .lub(&elem, &t)
                        .ok_or_else(|| TypeError::NoLub(elem.clone(), t.clone()))?;
                }
                Ok(Type::set(elem))
            }

            // (Sop) — both operands sets; result element type is the lub.
            // Under ⊢'' the operands' effects must not interfere.
            Query::SetBin(op, a, b) => {
                let (ta, left) = self.premise(vars, a, d)?;
                let (tb, right) = self.premise(vars, b, d)?;
                let elem_a = as_set(&ta, "set operator")?;
                let elem_b = as_set(&tb, "set operator")?;
                let elem = schema
                    .lub(&elem_a, &elem_b)
                    .ok_or(TypeError::NoLub(elem_a, elem_b))?;
                alg.union(eff, &left);
                alg.union(eff, &right);
                d.records.push((node, Record::Sop(*op, left, right)));
                Ok(Type::set(elem))
            }

            // (Iop) — int × int → int (comparisons → bool) — and (IntEq).
            Query::IntBin(_, a, b) | Query::IntEq(a, b) => {
                let ta = self.judge(vars, a, eff, d)?;
                let tb = self.judge(vars, b, eff, d)?;
                let (context, result) = match q {
                    Query::IntBin(op, ..) if !op.yields_bool() => ("integer operator", Type::Int),
                    Query::IntBin(..) => ("integer operator", Type::Bool),
                    _ => ("integer equality", Type::Bool),
                };
                require_subtype(schema, &ta, &Type::Int, context)?;
                require_subtype(schema, &tb, &Type::Int, context)?;
                Ok(result)
            }

            // (ObjEq) — both operands object-typed (⊥ passes vacuously).
            Query::ObjEq(a, b) => {
                let ta = self.judge(vars, a, eff, d)?;
                let tb = self.judge(vars, b, eff, d)?;
                for t in [ta, tb] {
                    if t != Type::Bottom {
                        as_class(&t, "object equality")?;
                    }
                }
                Ok(Type::Bool)
            }

            // (Record) — distinct labels, pointwise.
            Query::Record(fields) => {
                let mut tys = BTreeMap::new();
                for (l, fq) in fields {
                    if tys.contains_key(l) {
                        return Err(TypeError::DuplicateLabel(l.clone()).into());
                    }
                    let t = self.judge(vars, fq, eff, d)?;
                    tys.insert(l.clone(), t);
                }
                Ok(Type::Record(tys))
            }

            // (Field)/(Attr) — a projection, resolved by the subject's type.
            Query::Field(subject, _) | Query::Attr(subject, _) => {
                let subject_ty = self.judge(vars, subject, eff, d)?;
                self.project(q, subject_ty, eff)
            }

            // (Defn) — D(d), call-by-value argument subtyping; the
            // arguments' effects ∪ the definition's latent effect.
            Query::Call(name, args) => {
                let (fnty, latent) = alg
                    .def_sig(name)
                    .ok_or_else(|| TypeError::UnknownDef(name.clone()))?;
                let context = ("definition call", "definition argument");
                self.apply(vars, fnty, args, context, eff, d)?;
                alg.union(eff, &latent);
                Ok(fnty.result.clone())
            }

            // (Size).
            Query::Size(inner) => {
                let t = self.judge(vars, inner, eff, d)?;
                as_set(&t, "size")?;
                Ok(Type::Int)
            }

            // (Sum) — extension: the operand must be a set of integers.
            Query::Sum(inner) => {
                let t = self.judge(vars, inner, eff, d)?;
                let elem = as_set(&t, "sum")?;
                require_subtype(schema, &elem, &Type::Int, "sum")?;
                Ok(Type::Int)
            }

            // (Cast) — upcast only (paper Note 2); downcast behind a flag.
            Query::Cast(c, inner) => {
                if !schema.is_class(c) {
                    return Err(TypeError::UnknownClass(c.clone()).into());
                }
                let t = self.judge(vars, inner, eff, d)?;
                if t != Type::Bottom {
                    let from = as_class(&t, "cast")?;
                    let upcast = schema.extends(&from, c);
                    let downcast_ok = self.options.allow_downcast && schema.extends(c, &from);
                    if !upcast && !downcast_ok {
                        return Err(TypeError::BadCast {
                            to: c.clone(),
                            from,
                        }
                        .into());
                    }
                }
                Ok(Type::Class(c.clone()))
            }

            // (Method) — mtype(C, m) with call-by-value argument
            // subtyping; receiver ∪ arguments ∪ the method's latent ε''.
            Query::Invoke(recv, m, args) => {
                let tr = self.judge(vars, recv, eff, d)?;
                if tr == Type::Bottom {
                    // Vacuous receiver: type the arguments, result ⊥.
                    for arg in args {
                        self.judge(vars, arg, eff, d)?;
                    }
                    return Ok(Type::Bottom);
                }
                let c = as_class(&tr, "method receiver")?;
                let fnty = schema
                    .mtype(&c, m)
                    .ok_or_else(|| TypeError::UnknownMethod(c.clone(), m.clone()))?;
                let context = ("method call", "method argument");
                self.apply(vars, &fnty, args, context, eff, d)?;
                alg.union(eff, &alg.method_latent(schema, &c, m));
                Ok(fnty.result)
            }

            // (New) — every attribute (inherited included) initialised
            // exactly once, at a subtype of its declared type; the
            // arguments' effects ∪ A(C).
            Query::New(c, attrs) => {
                if c.is_object() || schema.class(c).is_none() {
                    return Err(TypeError::CannotInstantiate(c.clone()).into());
                }
                // Declared attributes not yet supplied: an initialiser
                // that finds none is undeclared or a repeat.
                let mut missing: BTreeMap<AttrName, Type> = schema.atypes(c).into_iter().collect();
                for (a, aq) in attrs {
                    let want = missing
                        .remove(a)
                        .ok_or_else(|| TypeError::UnexpectedAttr(c.clone(), a.clone()))?;
                    let t = self.judge(vars, aq, eff, d)?;
                    require_subtype(schema, &t, &want, "new attribute")?;
                }
                if let Some(a) = missing.into_keys().next() {
                    return Err(TypeError::MissingAttr(c.clone(), a).into());
                }
                alg.union(eff, &alg.on_new(schema, c));
                Ok(Type::Class(c.clone()))
            }

            // (Cond) — condition bool; branch types joined by lub, which is
            // *partial* (the paper's §1 point about lubs).
            Query::If(cond, then, els) => {
                let tc = self.judge(vars, cond, eff, d)?;
                require_subtype(schema, &tc, &Type::Bool, "if condition")?;
                let tt = self.judge(vars, then, eff, d)?;
                let te = self.judge(vars, els, eff, d)?;
                Ok(schema.lub(&tt, &te).ok_or(TypeError::NoLub(tt, te))?)
            }

            // (Comp1)/(Comp2)/(Comp3) — qualifiers left-to-right; generators
            // extend Q; the head is typed under all binders. Under ⊢' each
            // generator's body effect — the head's and every qualifier's
            // to its right — must be non-interfering.
            Query::Comp(head, quals) => {
                let mut inner = vars.clone();
                let mut effects = Vec::with_capacity(quals.len());
                for cq in quals.iter_mut() {
                    match cq {
                        Qualifier::Pred(p) => {
                            let (t, f) = self.premise(&inner, p, d)?;
                            require_subtype(schema, &t, &Type::Bool, "comprehension predicate")?;
                            effects.push((false, f));
                        }
                        Qualifier::Gen(x, src) => {
                            let (t, f) = self.premise(&inner, src, d)?;
                            inner.insert(x.clone(), as_set(&t, "comprehension generator")?);
                            effects.push((true, f));
                        }
                    }
                }
                let (th, head) = self.premise(&inner, head, d)?;
                for (_, f) in &effects {
                    alg.union(eff, f);
                }
                alg.union(eff, &head);
                d.records.push((node, Record::Comp(effects, head)));
                Ok(Type::set(th))
            }
        }
    }

    /// Resolves the projection `q = subject.x` by its subject's type:
    /// record field, or object attribute (which the algebra may record).
    fn project(
        &self,
        q: &mut Query,
        subject_ty: Type,
        eff: &mut A::Effect,
    ) -> Result<Type, A::Error> {
        let (subject, label) = match std::mem::replace(q, Query::Lit(Value::Bool(false))) {
            Query::Field(subject, l) => (subject, l),
            Query::Attr(subject, a) => (subject, Label::new(a.as_str())),
            other => unreachable!("not a projection: {other}"),
        };
        let (resolved, ty) = match &subject_ty {
            // Vacuous projection: the subject was drawn from an empty set
            // and this position will never be evaluated.
            Type::Bottom => (Query::Field(subject, label), Type::Bottom),
            Type::Record(fields) => match fields.get(&label) {
                Some(t) => (Query::Field(subject, label), t.clone()),
                None => return Err(TypeError::UnknownField(subject_ty, label).into()),
            },
            Type::Class(c) => {
                let a = AttrName::new(label.as_str());
                match self.schema.atype(c, &a) {
                    Some(t) => {
                        self.algebra.union(eff, &self.algebra.on_attr(c));
                        (Query::Attr(subject, a), t.clone())
                    }
                    None => return Err(TypeError::UnknownAttr(c.clone(), a).into()),
                }
            }
            other => return Err(TypeError::BadProjection(other.clone()).into()),
        };
        *q = resolved;
        Ok(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, IntOp, MethodDef, Value, VarName};
    use ioql_ast::{MExpr, MStmt};

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::new(
                "Person",
                ClassName::object(),
                "Persons",
                [AttrDef::new("age", Type::Int)],
                [MethodDef::new(
                    "older",
                    [(VarName::new("n"), Type::Int)],
                    Type::Bool,
                    vec![MStmt::Return(MExpr::Bool(true))],
                )],
            ),
            ClassDef::new(
                "Employee",
                "Person",
                "Employees",
                [AttrDef::new("salary", Type::Int)],
                [],
            ),
        ])
        .unwrap()
    }

    fn env(schema: &Schema) -> TypeEnv<'_> {
        TypeEnv::new(schema)
    }

    #[test]
    fn literals() {
        let s = schema();
        let e = env(&s);
        assert_eq!(check_query(&e, &Query::int(1)).unwrap().1, Type::Int);
        assert_eq!(check_query(&e, &Query::bool(true)).unwrap().1, Type::Bool);
    }

    #[test]
    fn unbound_var_rejected() {
        let s = schema();
        let e = env(&s);
        assert!(matches!(
            check_query(&e, &Query::var("x")),
            Err(TypeError::Unbound(_))
        ));
    }

    #[test]
    fn extent_rule() {
        let s = schema();
        let e = env(&s);
        assert_eq!(
            check_query(&e, &Query::extent("Persons")).unwrap().1,
            Type::set(Type::class("Person"))
        );
        assert!(matches!(
            check_query(&e, &Query::extent("Ghost")),
            Err(TypeError::UnknownExtent(_))
        ));
    }

    #[test]
    fn set_literal_lub() {
        let s = schema();
        let e = env(&s);
        assert_eq!(
            check_query(&e, &Query::set_lit([Query::int(1), Query::int(2)]))
                .unwrap()
                .1,
            Type::set(Type::Int)
        );
        assert_eq!(
            check_query(&e, &Query::set_lit([])).unwrap().1,
            Type::empty_set()
        );
        assert!(matches!(
            check_query(&e, &Query::set_lit([Query::int(1), Query::bool(true)])),
            Err(TypeError::NoLub(_, _))
        ));
    }

    #[test]
    fn union_of_extents_takes_lub() {
        // Persons ∪ Employees : set(Person) — needs set-element lub.
        let s = schema();
        let e = env(&s);
        let q = Query::extent("Persons").union(Query::extent("Employees"));
        assert_eq!(
            check_query(&e, &q).unwrap().1,
            Type::set(Type::class("Person"))
        );
    }

    #[test]
    fn empty_set_unions_with_anything() {
        let s = schema();
        let e = env(&s);
        let q = Query::set_lit([]).union(Query::extent("Persons"));
        assert_eq!(
            check_query(&e, &q).unwrap().1,
            Type::set(Type::class("Person"))
        );
    }

    #[test]
    fn int_ops() {
        let s = schema();
        let e = env(&s);
        assert_eq!(
            check_query(&e, &Query::int(1).add(Query::int(2)))
                .unwrap()
                .1,
            Type::Int
        );
        let cmp = Query::IntBin(IntOp::Lt, Box::new(Query::int(1)), Box::new(Query::int(2)));
        assert_eq!(check_query(&e, &cmp).unwrap().1, Type::Bool);
        assert!(check_query(&e, &Query::bool(true).add(Query::int(1))).is_err());
    }

    #[test]
    fn equality_rules() {
        let s = schema();
        let e = env(&s).bind(VarName::new("p"), Type::class("Person"));
        assert_eq!(
            check_query(&e, &Query::int(1).int_eq(Query::int(2)))
                .unwrap()
                .1,
            Type::Bool
        );
        assert_eq!(
            check_query(&e, &Query::var("p").obj_eq(Query::var("p")))
                .unwrap()
                .1,
            Type::Bool
        );
        // Int equality on objects rejected, object equality on ints rejected.
        assert!(check_query(&e, &Query::var("p").int_eq(Query::var("p"))).is_err());
        assert!(check_query(&e, &Query::int(1).obj_eq(Query::int(2))).is_err());
    }

    #[test]
    fn record_and_projection() {
        let s = schema();
        let e = env(&s);
        let q = Query::record([("a", Query::int(1))]).field("a");
        let (elab, t) = check_query(&e, &q).unwrap();
        assert_eq!(t, Type::Int);
        assert!(matches!(elab, Query::Field(_, _)));
        assert!(matches!(
            check_query(&e, &Query::record([("a", Query::int(1))]).field("zz")),
            Err(TypeError::UnknownField(_, _))
        ));
        let dup = Query::record([("a", Query::int(1)), ("a", Query::int(2))]);
        assert!(matches!(
            check_query(&e, &dup),
            Err(TypeError::DuplicateLabel(_))
        ));
    }

    #[test]
    fn projection_elaborates_to_attr_on_objects() {
        let s = schema();
        let e = env(&s).bind(VarName::new("p"), Type::class("Employee"));
        // Written `p.age` — parser produces Field; checker resolves to Attr
        // via the superclass chain.
        let q = Query::var("p").field("age");
        let (elab, t) = check_query(&e, &q).unwrap();
        assert_eq!(t, Type::Int);
        assert!(matches!(elab, Query::Attr(_, _)));
    }

    #[test]
    fn projection_on_int_rejected() {
        let s = schema();
        let e = env(&s);
        assert!(matches!(
            check_query(&e, &Query::int(1).field("a")),
            Err(TypeError::BadProjection(_))
        ));
    }

    #[test]
    fn size_rule() {
        let s = schema();
        let e = env(&s);
        assert_eq!(
            check_query(&e, &Query::extent("Persons").size_of())
                .unwrap()
                .1,
            Type::Int
        );
        assert!(check_query(&e, &Query::int(1).size_of()).is_err());
    }

    #[test]
    fn sum_rule() {
        let s = schema();
        let e = env(&s);
        assert_eq!(
            check_query(&e, &Query::set_lit([Query::int(1)]).sum_of())
                .unwrap()
                .1,
            Type::Int
        );
        // Empty set: set(⊥) sums fine.
        assert_eq!(
            check_query(&e, &Query::set_lit([]).sum_of()).unwrap().1,
            Type::Int
        );
        // Sets of non-integers are rejected.
        assert!(check_query(&e, &Query::extent("Persons").sum_of()).is_err());
        assert!(check_query(&e, &Query::int(1).sum_of()).is_err());
    }

    #[test]
    fn upcast_ok_downcast_rejected_by_default() {
        let s = schema();
        let e = env(&s).bind(VarName::new("emp"), Type::class("Employee"));
        assert_eq!(
            check_query(&e, &Query::var("emp").cast("Person"))
                .unwrap()
                .1,
            Type::class("Person")
        );
        let e2 = env(&s).bind(VarName::new("p"), Type::class("Person"));
        assert!(matches!(
            check_query(&e2, &Query::var("p").cast("Employee")),
            Err(TypeError::BadCast { .. })
        ));
    }

    #[test]
    fn downcast_allowed_with_flag() {
        let s = schema();
        let mut e = TypeEnv::with_options(
            &s,
            TypeOptions {
                allow_downcast: true,
            },
        );
        e = e.bind(VarName::new("p"), Type::class("Person"));
        assert_eq!(
            check_query(&e, &Query::var("p").cast("Employee"))
                .unwrap()
                .1,
            Type::class("Employee")
        );
        // Cross-cast still rejected.
        assert!(check_query(&e, &Query::int(1).cast("Employee")).is_err());
    }

    #[test]
    fn method_invocation() {
        let s = schema();
        let e = env(&s).bind(VarName::new("emp"), Type::class("Employee"));
        // Inherited method.
        let q = Query::var("emp").invoke("older", [Query::int(30)]);
        assert_eq!(check_query(&e, &q).unwrap().1, Type::Bool);
        // Wrong arity.
        assert!(matches!(
            check_query(&e, &Query::var("emp").invoke("older", [])),
            Err(TypeError::Arity { .. })
        ));
        // Wrong arg type.
        assert!(check_query(&e, &Query::var("emp").invoke("older", [Query::bool(true)])).is_err());
        // Unknown method.
        assert!(matches!(
            check_query(&e, &Query::var("emp").invoke("fly", [])),
            Err(TypeError::UnknownMethod(_, _))
        ));
    }

    #[test]
    fn new_requires_all_attrs_exactly() {
        let s = schema();
        let e = env(&s);
        // Employee has inherited `age` plus `salary`.
        let ok = Query::new_obj(
            "Employee",
            [("age", Query::int(30)), ("salary", Query::int(100))],
        );
        assert_eq!(check_query(&e, &ok).unwrap().1, Type::class("Employee"));
        let missing = Query::new_obj("Employee", [("salary", Query::int(100))]);
        assert!(matches!(
            check_query(&e, &missing),
            Err(TypeError::MissingAttr(_, _))
        ));
        let extra = Query::new_obj(
            "Employee",
            [
                ("age", Query::int(30)),
                ("salary", Query::int(100)),
                ("ghost", Query::int(0)),
            ],
        );
        assert!(matches!(
            check_query(&e, &extra),
            Err(TypeError::UnexpectedAttr(_, _))
        ));
        assert!(matches!(
            check_query(&e, &Query::new_obj("Object", Vec::<(&str, Query)>::new())),
            Err(TypeError::CannotInstantiate(_))
        ));
    }

    #[test]
    fn conditional_lub_and_partiality() {
        let s = schema();
        let e = env(&s)
            .bind(VarName::new("emp"), Type::class("Employee"))
            .bind(VarName::new("p"), Type::class("Person"));
        let q = Query::ite(Query::bool(true), Query::var("emp"), Query::var("p"));
        assert_eq!(check_query(&e, &q).unwrap().1, Type::class("Person"));
        let bad = Query::ite(Query::bool(true), Query::int(1), Query::bool(false));
        assert!(matches!(check_query(&e, &bad), Err(TypeError::NoLub(_, _))));
        let bad_cond = Query::ite(Query::int(1), Query::int(1), Query::int(2));
        assert!(check_query(&e, &bad_cond).is_err());
    }

    #[test]
    fn comprehension_rules() {
        let s = schema();
        let e = env(&s);
        // { p.age | p <- Persons, p.age = 3 } : set(int)
        let q = Query::comp(
            Query::var("p").field("age"),
            [
                Qualifier::Gen(VarName::new("p"), Query::extent("Persons")),
                Qualifier::Pred(Query::var("p").field("age").int_eq(Query::int(3))),
            ],
        );
        assert_eq!(check_query(&e, &q).unwrap().1, Type::set(Type::Int));
        // Generator over a non-set.
        let bad = Query::comp(
            Query::int(1),
            [Qualifier::Gen(VarName::new("p"), Query::int(1))],
        );
        assert!(check_query(&e, &bad).is_err());
        // Non-bool predicate.
        let bad2 = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(VarName::new("p"), Query::extent("Persons")),
                Qualifier::Pred(Query::int(1)),
            ],
        );
        assert!(check_query(&e, &bad2).is_err());
    }

    #[test]
    fn generator_binding_scope() {
        let s = schema();
        let e = env(&s);
        // Head sees the binder; source does not.
        let bad = Query::comp(
            Query::int(1),
            [Qualifier::Gen(VarName::new("p"), Query::var("p"))],
        );
        assert!(matches!(check_query(&e, &bad), Err(TypeError::Unbound(_))));
    }

    #[test]
    fn definition_and_program() {
        let s = schema();
        let def = Definition::new(
            "adults",
            [(VarName::new("min"), Type::Int)],
            Query::comp(
                Query::var("p"),
                [
                    Qualifier::Gen(VarName::new("p"), Query::extent("Persons")),
                    Qualifier::Pred(Query::IntBin(
                        IntOp::Le,
                        Box::new(Query::var("min")),
                        Box::new(Query::var("p").field("age")),
                    )),
                ],
            ),
        );
        let prog = Program::new([def], Query::call("adults", [Query::int(18)]).size_of());
        let checked = check_program(&s, &prog, TypeOptions::default()).unwrap();
        assert_eq!(checked.ty, Type::Int);
        assert_eq!(
            checked.def_types[&ioql_ast::DefName::new("adults")],
            FnType::new(vec![Type::Int], Type::set(Type::class("Person")))
        );
    }

    #[test]
    fn definitions_are_non_recursive() {
        let s = schema();
        let def = Definition::new("f", [], Query::call("f", []));
        let prog = Program::new([def], Query::int(1));
        assert!(matches!(
            check_program(&s, &prog, TypeOptions::default()),
            Err(TypeError::UnknownDef(_))
        ));
    }

    #[test]
    fn later_defs_see_earlier_ones() {
        let s = schema();
        let f = Definition::new("f", [], Query::int(1));
        let g = Definition::new("g", [], Query::call("f", []).add(Query::int(1)));
        let prog = Program::new([f, g], Query::call("g", []));
        let checked = check_program(&s, &prog, TypeOptions::default()).unwrap();
        assert_eq!(checked.ty, Type::Int);
    }

    #[test]
    fn duplicate_definition_rejected() {
        let s = schema();
        let f1 = Definition::new("f", [], Query::int(1));
        let f2 = Definition::new("f", [], Query::int(2));
        let prog = Program::new([f1, f2], Query::int(0));
        assert!(matches!(
            check_program(&s, &prog, TypeOptions::default()),
            Err(TypeError::DuplicateDef(_))
        ));
    }

    #[test]
    fn call_argument_subtyping() {
        let s = schema();
        let f = Definition::new(
            "anyone",
            [(VarName::new("p"), Type::class("Person"))],
            Query::var("p").field("age"),
        );
        // Passing an Employee where a Person is expected is fine.
        let q = Query::comp(
            Query::call("anyone", [Query::var("e")]),
            [Qualifier::Gen(
                VarName::new("e"),
                Query::extent("Employees"),
            )],
        );
        let prog = Program::new([f], q);
        let checked = check_program(&s, &prog, TypeOptions::default()).unwrap();
        assert_eq!(checked.ty, Type::set(Type::Int));
    }

    #[test]
    fn runtime_oid_typing() {
        let s = schema();
        let mut store = Store::new();
        store.declare_extent("Persons", "Person");
        let o = store
            .create(
                ioql_store::Object::new("Person", [("age", Value::Int(3))]),
                [ioql_ast::ExtentName::new("Persons")],
            )
            .unwrap();
        let e = env(&s);
        let q = Query::Lit(Value::Oid(o)).attr("age");
        assert_eq!(check_runtime_query(&e, &store, &q).unwrap(), Type::Int);
        // Without a store the oid cannot be typed.
        assert!(matches!(
            check_query(&e, &Query::Lit(Value::Oid(o))),
            Err(TypeError::OidNeedsStore(_))
        ));
    }
}
