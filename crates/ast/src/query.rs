//! The IOQL query grammar (paper §3.1).
//!
//! The grammar is reproduced verbatim, with two engineering notes:
//!
//! * **Literals and reduced values share a node.** The operational
//!   semantics rewrites queries to queries, and after a step a subterm may
//!   be *any* value (an oid produced by `(New)`, a set produced by
//!   `(Extent)`, …). [`Query::Lit`] embeds a [`Value`] directly, so the
//!   initial literals `i`, `true`, `false` and the values produced during
//!   reduction are uniformly represented. A set *literal* `{q₀, …, q_k}`
//!   whose elements are all values is itself a value (paper §3.3); the
//!   machine recognises this via [`Query::as_value`].
//! * **Extents are explicit.** The paper treats extent names as designated
//!   free identifiers; we give them their own node ([`Query::Extent`]) so
//!   the `(Extent)` rule and the `R(C)` effect need no environment lookup
//!   to recognise. The parser produces [`Query::Var`] and the schema's
//!   `resolve` pass rewrites in-scope extent names.
//!
//! Boolean connectives are *not* in the paper's grammar; the parser
//! desugars `a and b` to `if a then b else false` etc. (see
//! [`Query::and`], [`Query::or`], [`Query::not`]), keeping the core
//! calculus exactly the paper's.
//!
//! **One walk.** Figure 1's scope rule (Comp2) — a generator `x <- q`
//! binds `x` in the comprehension head and in later qualifiers, not in
//! its own source `q` — is decided in one place: two primitives,
//! [`Query::for_each_child`] (by reference) and [`Query::map_children`]
//! (rebuilding). They are the only code outside the per-rule semantics
//! (the reduction machine, the interpreter, the type judgement, lowering,
//! the bytecode compiler and the printer, one arm per rule each) that
//! lists a node's children. Each threads a caller-chosen scope: a
//! callback runs once per generator, in qualifier order, and extends the
//! scope that later qualifiers and the head see. Every other walk is a
//! thin caller choosing its scope — substitution ("is `x` shadowed?"),
//! [`Query::free_vars`] and extent resolution (the bound names), the
//! optimizer and the commutation analysis (the typing environment) — and
//! the node-only walks ([`Query::for_each_node`], [`Query::size`], the
//! `contains_*` family) thread none.

use crate::ident::{AttrName, ClassName, DefName, ExtentName, Label, MethodName, VarName};
use crate::value::Value;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

/// Binary set operators (`sop`). The paper works through `∪`; §4's
/// optimization example uses `∩`, and difference completes the usual
/// trio. All are total on sets, preserving the progress theorem.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SetOp {
    /// Set union `∪`.
    Union,
    /// Set intersection `∩` (written `intersect`).
    Intersect,
    /// Set difference `\` (written `except`).
    Diff,
}

impl SetOp {
    /// Whether the operator is commutative — the property Theorem 8's
    /// safe-commutation analysis is about.
    pub fn is_commutative(self) -> bool {
        matches!(self, SetOp::Union | SetOp::Intersect)
    }

    /// Applies the operator to two realised sets.
    pub fn apply(self, a: &BTreeSet<Value>, b: &BTreeSet<Value>) -> BTreeSet<Value> {
        match self {
            SetOp::Union => a.union(b).cloned().collect(),
            SetOp::Intersect => a.intersection(b).cloned().collect(),
            SetOp::Diff => a.difference(b).cloned().collect(),
        }
    }
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SetOp::Union => "union",
            SetOp::Intersect => "intersect",
            SetOp::Diff => "except",
        })
    }
}

/// Binary integer operators (`iop`). The paper works through `+`; we
/// include the other *total* arithmetic operators (division is excluded:
/// a partial operator would break the progress theorem, and the paper
/// never uses it) plus the usual comparisons, which return `bool`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (wrapping, to stay total).
    Mul,
    /// Less-than (returns `bool`).
    Lt,
    /// Less-or-equal (returns `bool`).
    Le,
}

impl IntOp {
    /// Whether the operator yields a boolean (comparisons) rather than an
    /// integer.
    pub fn yields_bool(self) -> bool {
        matches!(self, IntOp::Lt | IntOp::Le)
    }

    /// Applies the operator to two integers.
    pub fn apply(self, a: i64, b: i64) -> Value {
        match self {
            IntOp::Add => Value::Int(a.wrapping_add(b)),
            IntOp::Sub => Value::Int(a.wrapping_sub(b)),
            IntOp::Mul => Value::Int(a.wrapping_mul(b)),
            IntOp::Lt => Value::Bool(a < b),
            IntOp::Le => Value::Bool(a <= b),
        }
    }
}

impl fmt::Display for IntOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IntOp::Add => "+",
            IntOp::Sub => "-",
            IntOp::Mul => "*",
            IntOp::Lt => "<",
            IntOp::Le => "<=",
        })
    }
}

/// An IOQL query expression `q` (paper §3.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Query {
    /// A literal or an already-reduced value: `i`, `true`, `false`, and —
    /// during reduction — oids, sets, and records.
    Lit(Value),
    /// An identifier `x` (definition parameter or comprehension binder).
    Var(VarName),
    /// An extent identifier `e` (a designated free identifier in the
    /// paper; resolved from `Var` by the schema's `resolve` pass).
    Extent(ExtentName),
    /// A set literal `{q₀, …, q_k}`. The empty literal `{}` is the empty
    /// set value.
    SetLit(Vec<Query>),
    /// `q₁ sop q₂`.
    SetBin(SetOp, Box<Query>, Box<Query>),
    /// `q₁ iop q₂`.
    IntBin(IntOp, Box<Query>, Box<Query>),
    /// Integer equality `q₁ = q₂`.
    IntEq(Box<Query>, Box<Query>),
    /// Object identity `q₁ == q₂`.
    ObjEq(Box<Query>, Box<Query>),
    /// Record construction `⟨l₁: q₁, …, l_k: q_k⟩`. Field order is the
    /// *written* order and fixes evaluation order; the resulting record
    /// value is unordered.
    Record(Vec<(Label, Query)>),
    /// Record field access `q.l`.
    Field(Box<Query>, Label),
    /// Definition application `d(q₀, …, q_k)`.
    Call(DefName, Vec<Query>),
    /// `size(q)`.
    Size(Box<Query>),
    /// `sum(q)` — integer aggregation over a set of integers. **An
    /// extension beyond the paper's grammar** (whose only aggregate is
    /// `size`): the core calculus has no fold, so summation is not
    /// expressible without it. Total (`sum({}) = 0`), preserving
    /// progress. Overflow **wraps** (two's complement), like every
    /// [`IntOp`]: wrapping is the defined semantics, not an artifact —
    /// a partial or saturating aggregate would either break progress or
    /// make the fold order observable, and every engine (small-step,
    /// big-step, plan interpreter, bytecode VM) must
    /// agree bit-for-bit at `i64::MAX`/`i64::MIN` (see
    /// `tests/compile.rs`).
    Sum(Box<Query>),
    /// Upcast `(C) q` (paper Note 2: downcasts are rejected by the default
    /// type system; a design-space flag in `ioql-types` re-admits them).
    Cast(ClassName, Box<Query>),
    /// Attribute access `q.a`.
    Attr(Box<Query>, AttrName),
    /// Method invocation `q.m(q₀, …, q_k)`.
    Invoke(Box<Query>, MethodName, Vec<Query>),
    /// Object creation `new C(a₀: q₀, …, a_k: q_k)`. All attributes must
    /// be initialised (paper: "we insist — unlike the ODMG — that all
    /// attributes are defined").
    New(ClassName, Vec<(AttrName, Query)>),
    /// `if q₁ then q₂ else q₃`.
    If(Box<Query>, Box<Query>, Box<Query>),
    /// A comprehension `{q | cq₀, …, cq_k}`.
    Comp(Box<Query>, Vec<Qualifier>),
}

/// A comprehension qualifier `cq` (paper §3.1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Qualifier {
    /// A boolean predicate filtering the current bindings.
    Pred(Query),
    /// A generator `x ← q` drawing `x` from the set denoted by `q`.
    Gen(VarName, Query),
}

impl Qualifier {
    /// The generator binder, if any.
    pub fn binder(&self) -> Option<&VarName> {
        match self {
            Qualifier::Gen(x, _) => Some(x),
            Qualifier::Pred(_) => None,
        }
    }

    /// The qualifier's query (generator source or predicate).
    pub fn query(&self) -> &Query {
        match self {
            Qualifier::Gen(_, q) | Qualifier::Pred(q) => q,
        }
    }
}

impl Query {
    // ----- ergonomic constructors -------------------------------------

    /// Integer literal.
    pub fn int(i: i64) -> Query {
        Query::Lit(Value::Int(i))
    }

    /// Boolean literal.
    pub fn bool(b: bool) -> Query {
        Query::Lit(Value::Bool(b))
    }

    /// Variable reference.
    pub fn var(x: impl Into<VarName>) -> Query {
        Query::Var(x.into())
    }

    /// Extent reference.
    pub fn extent(e: impl Into<ExtentName>) -> Query {
        Query::Extent(e.into())
    }

    /// Set literal.
    pub fn set_lit(items: impl IntoIterator<Item = Query>) -> Query {
        Query::SetLit(items.into_iter().collect())
    }

    /// `self ∪ rhs`.
    pub fn union(self, rhs: Query) -> Query {
        Query::SetBin(SetOp::Union, Box::new(self), Box::new(rhs))
    }

    /// `self ∩ rhs`.
    pub fn intersect(self, rhs: Query) -> Query {
        Query::SetBin(SetOp::Intersect, Box::new(self), Box::new(rhs))
    }

    /// `self \ rhs`.
    pub fn except(self, rhs: Query) -> Query {
        Query::SetBin(SetOp::Diff, Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops::Add
    pub fn add(self, rhs: Query) -> Query {
        Query::IntBin(IntOp::Add, Box::new(self), Box::new(rhs))
    }

    /// Integer equality `self = rhs`.
    pub fn int_eq(self, rhs: Query) -> Query {
        Query::IntEq(Box::new(self), Box::new(rhs))
    }

    /// Object identity `self == rhs`.
    pub fn obj_eq(self, rhs: Query) -> Query {
        Query::ObjEq(Box::new(self), Box::new(rhs))
    }

    /// Record construction.
    pub fn record<L: Into<Label>>(fields: impl IntoIterator<Item = (L, Query)>) -> Query {
        Query::Record(fields.into_iter().map(|(l, q)| (l.into(), q)).collect())
    }

    /// Field access `self.l`.
    pub fn field(self, l: impl Into<Label>) -> Query {
        Query::Field(Box::new(self), l.into())
    }

    /// Attribute access `self.a`.
    pub fn attr(self, a: impl Into<AttrName>) -> Query {
        Query::Attr(Box::new(self), a.into())
    }

    /// Method invocation `self.m(args)`.
    pub fn invoke(self, m: impl Into<MethodName>, args: impl IntoIterator<Item = Query>) -> Query {
        Query::Invoke(Box::new(self), m.into(), args.into_iter().collect())
    }

    /// Definition application `d(args)`.
    pub fn call(d: impl Into<DefName>, args: impl IntoIterator<Item = Query>) -> Query {
        Query::Call(d.into(), args.into_iter().collect())
    }

    /// `size(self)`.
    pub fn size_of(self) -> Query {
        Query::Size(Box::new(self))
    }

    /// `sum(self)`.
    pub fn sum_of(self) -> Query {
        Query::Sum(Box::new(self))
    }

    /// Upcast `(C) self`.
    pub fn cast(self, c: impl Into<ClassName>) -> Query {
        Query::Cast(c.into(), Box::new(self))
    }

    /// Object creation.
    pub fn new_obj<A: Into<AttrName>>(
        c: impl Into<ClassName>,
        attrs: impl IntoIterator<Item = (A, Query)>,
    ) -> Query {
        Query::New(
            c.into(),
            attrs.into_iter().map(|(a, q)| (a.into(), q)).collect(),
        )
    }

    /// Conditional.
    pub fn ite(cond: Query, then: Query, els: Query) -> Query {
        Query::If(Box::new(cond), Box::new(then), Box::new(els))
    }

    /// Comprehension `{head | quals}`.
    pub fn comp(head: Query, quals: impl IntoIterator<Item = Qualifier>) -> Query {
        Query::Comp(Box::new(head), quals.into_iter().collect())
    }

    /// Conjunction, desugared as the paper's core has no connectives:
    /// `a and b ≡ if a then b else false`.
    pub fn and(self, rhs: Query) -> Query {
        Query::ite(self, rhs, Query::bool(false))
    }

    /// Disjunction: `a or b ≡ if a then true else b`.
    pub fn or(self, rhs: Query) -> Query {
        Query::ite(self, Query::bool(true), rhs)
    }

    /// Negation: `not a ≡ if a then false else true`.
    #[allow(clippy::should_implement_trait)] // DSL builder, not std::ops::Not
    pub fn not(self) -> Query {
        Query::ite(self, Query::bool(false), Query::bool(true))
    }

    // ----- value recognition ------------------------------------------

    /// Whether the query is a value (paper §3.3): a literal/reduced value,
    /// or a set literal / record all of whose components are values.
    pub fn is_value(&self) -> bool {
        match self {
            Query::Lit(_) => true,
            Query::SetLit(items) => items.iter().all(Query::is_value),
            Query::Record(fields) => fields.iter().all(|(_, q)| q.is_value()),
            _ => false,
        }
    }

    /// Extracts the value a value-query denotes (collapsing duplicate set
    /// elements). Returns `None` for non-values.
    pub fn as_value(&self) -> Option<Value> {
        match self {
            Query::Lit(v) => Some(v.clone()),
            Query::SetLit(items) => items
                .iter()
                .map(Query::as_value)
                .collect::<Option<BTreeSet<_>>>()
                .map(Value::Set),
            Query::Record(fields) => fields
                .iter()
                .map(|(l, q)| q.as_value().map(|v| (l.clone(), v)))
                .collect::<Option<std::collections::BTreeMap<_, _>>>()
                .map(Value::Record),
            _ => None,
        }
    }

    // ----- static measures --------------------------------------------

    /// Number of AST nodes: every query node counts once (a qualifier is
    /// not a node; its query is).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.for_each_node(&mut |_| n += 1);
        n
    }

    /// Whether some node of the query satisfies `p`.
    pub fn any_node(&self, p: impl Fn(&Query) -> bool) -> bool {
        let mut found = false;
        self.for_each_node(&mut |q| found |= p(q));
        found
    }

    /// Whether the query (not counting definitions it calls) contains a
    /// `new` expression. Paper §3.4: a query is *functional* if it contains
    /// no `new` and every definition it invokes is functional; the
    /// program-level check lives in `ioql-types`.
    pub fn contains_new(&self) -> bool {
        self.any_node(|q| matches!(q, Query::New(_, _)))
    }

    /// Whether the query invokes any method.
    pub fn contains_invoke(&self) -> bool {
        self.any_node(|q| matches!(q, Query::Invoke(_, _, _)))
    }

    /// Whether the query contains a comprehension (and hence, at runtime,
    /// `(ND comp)` choice points).
    pub fn contains_comp(&self) -> bool {
        self.any_node(|q| matches!(q, Query::Comp(_, _)))
    }

    /// The definitions the query calls (directly).
    pub fn called_defs(&self) -> BTreeSet<DefName> {
        let mut out = BTreeSet::new();
        self.for_each_node(&mut |q| {
            if let Query::Call(d, _) = q {
                out.insert(d.clone());
            }
        });
        out
    }

    /// Applies `f` to this node and every descendant query node
    /// (pre-order; a comprehension's qualifiers before its head).
    pub fn for_each_node(&self, f: &mut impl FnMut(&Query)) {
        f(self);
        self.for_each_child(&(), |_, _, _| {}, |c, _| c.for_each_node(f));
    }

    /// The free variables of the query. Generators bind their variable in
    /// the comprehension *head* and in all *later* qualifiers (paper
    /// §3.1/Figure 1, rule (Comp2)).
    pub fn free_vars(&self) -> BTreeSet<VarName> {
        let mut out = BTreeSet::new();
        self.collect_free(&[], &mut out);
        out
    }

    fn collect_free(&self, bound: &[VarName], out: &mut BTreeSet<VarName>) {
        if let Query::Var(x) = self {
            if !bound.contains(x) {
                out.insert(x.clone());
            }
        }
        self.for_each_child(
            bound,
            |b, x, _| b.to_mut().push(x.clone()),
            |c, b| c.collect_free(b, out),
        );
    }

    // ----- the one walk: children and the (Comp2) scope ----------------

    /// Calls `f` on each direct child of this node, in evaluation order,
    /// with the scope the child sits in. Outside a comprehension that is
    /// `scope` itself. Inside `{q | cq₀, …, cq_k}` the qualifiers come in
    /// order and the head last; after each generator `x <- q`, `enter`
    /// extends the scope that later qualifiers and the head see — the
    /// generator's own source is visited *before* its binder is entered
    /// (rule (Comp2)). `enter` gets a [`Cow`]: it calls `to_mut` only when
    /// it binds something, so a scope is cloned at most once per
    /// comprehension and never elsewhere.
    pub fn for_each_child<S: ToOwned + ?Sized>(
        &self,
        scope: &S,
        mut enter: impl FnMut(&mut Cow<'_, S>, &VarName, &Query),
        mut f: impl FnMut(&Query, &S),
    ) {
        match self {
            Query::Lit(_) | Query::Var(_) | Query::Extent(_) => {}
            Query::SetLit(qs) | Query::Call(_, qs) => qs.iter().for_each(|q| f(q, scope)),
            Query::SetBin(_, a, b)
            | Query::IntBin(_, a, b)
            | Query::IntEq(a, b)
            | Query::ObjEq(a, b) => {
                f(a, scope);
                f(b, scope);
            }
            Query::Record(fields) => fields.iter().for_each(|(_, q)| f(q, scope)),
            Query::New(_, attrs) => attrs.iter().for_each(|(_, q)| f(q, scope)),
            Query::Field(q, _)
            | Query::Size(q)
            | Query::Sum(q)
            | Query::Cast(_, q)
            | Query::Attr(q, _) => f(q, scope),
            Query::Invoke(recv, _, args) => {
                f(recv, scope);
                args.iter().for_each(|q| f(q, scope));
            }
            Query::If(c, t, e) => {
                f(c, scope);
                f(t, scope);
                f(e, scope);
            }
            Query::Comp(head, quals) => {
                let mut inner = Cow::Borrowed(scope);
                for cq in quals {
                    f(cq.query(), &inner);
                    if let Qualifier::Gen(x, src) = cq {
                        enter(&mut inner, x, src);
                    }
                }
                f(head, &inner);
            }
        }
    }

    /// Rebuilds this node with each direct child replaced by `f(child,
    /// scope)`: the same order and the same (Comp2) scope as
    /// [`for_each_child`](Query::for_each_child), except that `enter`
    /// sees a generator's *rebuilt* source. A leaf is cloned.
    pub fn map_children<S: ToOwned + ?Sized>(
        &self,
        scope: &S,
        mut enter: impl FnMut(&mut Cow<'_, S>, &VarName, &Query),
        mut f: impl FnMut(&Query, &S) -> Query,
    ) -> Query {
        match self {
            Query::Lit(_) | Query::Var(_) | Query::Extent(_) => self.clone(),
            Query::SetLit(qs) => Query::SetLit(qs.iter().map(|q| f(q, scope)).collect()),
            Query::Call(d, qs) => Query::Call(d.clone(), qs.iter().map(|q| f(q, scope)).collect()),
            Query::SetBin(op, a, b) => Query::SetBin(*op, bx(f(a, scope)), bx(f(b, scope))),
            Query::IntBin(op, a, b) => Query::IntBin(*op, bx(f(a, scope)), bx(f(b, scope))),
            Query::IntEq(a, b) => Query::IntEq(bx(f(a, scope)), bx(f(b, scope))),
            Query::ObjEq(a, b) => Query::ObjEq(bx(f(a, scope)), bx(f(b, scope))),
            Query::Record(fields) => Query::Record(
                fields
                    .iter()
                    .map(|(l, q)| (l.clone(), f(q, scope)))
                    .collect(),
            ),
            Query::New(c, attrs) => Query::New(
                c.clone(),
                attrs
                    .iter()
                    .map(|(a, q)| (a.clone(), f(q, scope)))
                    .collect(),
            ),
            Query::Field(q, l) => Query::Field(bx(f(q, scope)), l.clone()),
            Query::Size(q) => Query::Size(bx(f(q, scope))),
            Query::Sum(q) => Query::Sum(bx(f(q, scope))),
            Query::Cast(c, q) => Query::Cast(c.clone(), bx(f(q, scope))),
            Query::Attr(q, a) => Query::Attr(bx(f(q, scope)), a.clone()),
            Query::Invoke(recv, m, args) => {
                let recv = bx(f(recv, scope));
                Query::Invoke(recv, m.clone(), args.iter().map(|q| f(q, scope)).collect())
            }
            Query::If(c, t, e) => Query::If(bx(f(c, scope)), bx(f(t, scope)), bx(f(e, scope))),
            Query::Comp(head, quals) => {
                let mut inner = Cow::Borrowed(scope);
                let mut out = Vec::with_capacity(quals.len());
                for cq in quals {
                    out.push(match cq {
                        Qualifier::Pred(p) => Qualifier::Pred(f(p, &inner)),
                        Qualifier::Gen(x, src) => {
                            let src = f(src, &inner);
                            enter(&mut inner, x, &src);
                            Qualifier::Gen(x.clone(), src)
                        }
                    });
                }
                Query::Comp(bx(f(head, &inner)), out)
            }
        }
    }
}

fn bx(q: Query) -> Box<Query> {
    Box::new(q)
}

impl From<Value> for Query {
    fn from(v: Value) -> Query {
        Query::Lit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_are_values() {
        assert!(Query::int(3).is_value());
        assert!(Query::bool(true).is_value());
        assert!(Query::set_lit([Query::int(1), Query::int(2)]).is_value());
        assert!(!Query::var("x").is_value());
        assert!(!Query::extent("Es").is_value());
    }

    #[test]
    fn set_literal_of_values_collapses() {
        let q = Query::set_lit([Query::int(1), Query::int(1)]);
        assert_eq!(q.as_value(), Some(Value::set([Value::Int(1)])));
    }

    #[test]
    fn record_of_values_is_a_value() {
        let q = Query::record([("a", Query::int(1))]);
        assert_eq!(q.as_value(), Some(Value::record([("a", Value::Int(1))])));
        let q2 = Query::record([("a", Query::var("x"))]);
        assert!(!q2.is_value());
        assert_eq!(q2.as_value(), None);
    }

    #[test]
    fn free_vars_respect_generator_scope() {
        // {x + y | x <- xs, x < z} : x bound in head and later quals;
        // xs, z, y free.
        let q = Query::comp(
            Query::var("x").add(Query::var("y")),
            [
                Qualifier::Gen("x".into(), Query::var("xs")),
                Qualifier::Pred(Query::IntBin(
                    IntOp::Lt,
                    Box::new(Query::var("x")),
                    Box::new(Query::var("z")),
                )),
            ],
        );
        let fv = q.free_vars();
        let names: Vec<_> = fv.iter().map(|v| v.as_str().to_string()).collect();
        assert_eq!(names, ["xs", "y", "z"]);
    }

    #[test]
    fn generator_source_sees_outer_binding() {
        // {1 | x <- x} : the generator source `x` is *outside* the binder.
        let q = Query::comp(Query::int(1), [Qualifier::Gen("x".into(), Query::var("x"))]);
        assert!(q.free_vars().contains(&VarName::new("x")));
    }

    #[test]
    fn shadowing_inner_generator() {
        // {x | x <- a, x <- b} : second generator shadows the first in the
        // head; both sources free.
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen("x".into(), Query::var("a")),
                Qualifier::Gen("x".into(), Query::var("b")),
            ],
        );
        let fv = q.free_vars();
        assert!(fv.contains(&VarName::new("a")));
        assert!(fv.contains(&VarName::new("b")));
        assert!(!fv.contains(&VarName::new("x")));
    }

    #[test]
    fn contains_new_detects_nested() {
        let q = Query::comp(
            Query::new_obj("C", [("a", Query::int(1))]),
            [Qualifier::Gen("x".into(), Query::extent("Cs"))],
        );
        assert!(q.contains_new());
        assert!(!Query::int(1).contains_new());
    }

    #[test]
    fn size_counts_all_nodes() {
        let q = Query::int(1).add(Query::int(2)); // IntBin + 2 lits
        assert_eq!(q.size(), 3);
    }

    #[test]
    fn set_op_apply() {
        let a: BTreeSet<_> = [Value::Int(1), Value::Int(2)].into_iter().collect();
        let b: BTreeSet<_> = [Value::Int(2), Value::Int(3)].into_iter().collect();
        assert_eq!(SetOp::Union.apply(&a, &b).len(), 3);
        assert_eq!(SetOp::Intersect.apply(&a, &b).len(), 1);
        assert_eq!(SetOp::Diff.apply(&a, &b).len(), 1);
    }

    #[test]
    fn int_op_apply() {
        assert_eq!(IntOp::Add.apply(2, 3), Value::Int(5));
        assert_eq!(IntOp::Lt.apply(2, 3), Value::Bool(true));
        assert!(IntOp::Lt.yields_bool());
        assert!(!IntOp::Add.yields_bool());
    }

    #[test]
    fn desugared_connectives() {
        let q = Query::bool(true).and(Query::bool(false));
        assert!(matches!(q, Query::If(_, _, _)));
    }

    #[test]
    fn called_defs_collected() {
        let q = Query::call("d", [Query::call("e", [])]);
        let ds = q.called_defs();
        assert_eq!(ds.len(), 2);
    }
}
