//! Runtime values (paper §3.3).
//!
//! ```text
//! v ::= i | true | false | o | {v₀, …, v_k} | ⟨l₁: v₁, …, l_k: v_k⟩
//! ```
//!
//! Sets are *mathematical* sets: `{1, 1}` and `{1}` are the same value, and
//! element order is unobservable. We realise this with a
//! [`BTreeSet`] over a derived total order — the order is an
//! implementation artifact used only for canonical storage and printing;
//! the semantics never depends on it (the `(ND comp)` rule picks elements
//! through a `Chooser`, precisely so tests can exercise *every* order).
//!
//! A value is immutable once built, so a set's members are shared by
//! pointer ([`SetVal`]): copying a set value — out of a literal, a
//! binding or a cached result — is a reference count, not a tree copy.

use crate::ident::Label;
use crate::oid::Oid;
use std::collections::{btree_set, BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A fully evaluated IOQL value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// An object identifier.
    Oid(Oid),
    /// A set of values.
    Set(SetVal),
    /// A record value.
    Record(BTreeMap<Label, Value>),
}

impl Value {
    /// The empty set value `{}`.
    pub fn empty_set() -> Value {
        Value::Set(SetVal::default())
    }

    /// Builds a set value, collapsing duplicates.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Builds a record value.
    pub fn record<L: Into<Label>>(fields: impl IntoIterator<Item = (L, Value)>) -> Value {
        Value::Record(fields.into_iter().map(|(l, v)| (l.into(), v)).collect())
    }

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The oid inside, if this is an object value.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// The elements, if this is a set.
    pub fn as_set(&self) -> Option<&SetVal> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// The fields, if this is a record.
    pub fn as_record(&self) -> Option<&BTreeMap<Label, Value>> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Collects every oid occurring anywhere in the value, in traversal
    /// order with duplicates removed. Used by the bijection matcher.
    pub fn oids(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        let mut seen = BTreeSet::new();
        self.collect_oids(&mut out, &mut seen);
        out
    }

    fn collect_oids(&self, out: &mut Vec<Oid>, seen: &mut BTreeSet<Oid>) {
        match self {
            Value::Int(_) | Value::Bool(_) => {}
            Value::Oid(o) => {
                if seen.insert(*o) {
                    out.push(*o);
                }
            }
            Value::Set(s) => {
                for v in s {
                    v.collect_oids(out, seen);
                }
            }
            Value::Record(r) => {
                for v in r.values() {
                    v.collect_oids(out, seen);
                }
            }
        }
    }

    /// Rewrites every oid through `f` (used for canonical renaming and for
    /// applying a candidate bijection). `f` must be injective for the
    /// result to be meaningful on sets; the bijection matcher guarantees
    /// this.
    pub fn map_oids(&self, f: &mut impl FnMut(Oid) -> Oid) -> Value {
        match self {
            Value::Int(_) | Value::Bool(_) => self.clone(),
            Value::Oid(o) => Value::Oid(f(*o)),
            Value::Set(s) => Value::Set(s.iter().map(|v| v.map_oids(f)).collect()),
            Value::Record(r) => {
                Value::Record(r.iter().map(|(l, v)| (l.clone(), v.map_oids(f))).collect())
            }
        }
    }

    /// Structural size (number of value nodes).
    pub fn size(&self) -> usize {
        match self {
            Value::Int(_) | Value::Bool(_) | Value::Oid(_) => 1,
            Value::Set(s) => 1 + s.iter().map(Value::size).sum::<usize>(),
            Value::Record(r) => 1 + r.values().map(Value::size).sum::<usize>(),
        }
    }
}

/// The members of a set value, shared by pointer.
///
/// Every set is built in bulk and never mutated afterwards, so `Clone`
/// is a reference count and the members are reachable from every holder
/// through `Deref`. Equality, order, hashing and `Debug` are the
/// [`BTreeSet`]'s: two sets with the same members are the same value
/// however they were built and whoever else holds them.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SetVal(Arc<BTreeSet<Value>>);

impl SetVal {
    /// Whether `a` and `b` share one member tree (not merely equal ones).
    pub fn ptr_eq(a: &SetVal, b: &SetVal) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for SetVal {
    type Target = BTreeSet<Value>;

    fn deref(&self) -> &BTreeSet<Value> {
        &self.0
    }
}

impl From<BTreeSet<Value>> for SetVal {
    fn from(set: BTreeSet<Value>) -> Self {
        SetVal(Arc::new(set))
    }
}

impl FromIterator<Value> for SetVal {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        SetVal::from(BTreeSet::from_iter(items))
    }
}

/// Consumes the members: moved out when this is the only holder, copied
/// otherwise, so the other holders keep theirs.
impl IntoIterator for SetVal {
    type Item = Value;
    type IntoIter = btree_set::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::try_unwrap(self.0)
            .unwrap_or_else(|shared| BTreeSet::clone(&shared))
            .into_iter()
    }
}

impl<'a> IntoIterator for &'a SetVal {
    type Item = &'a Value;
    type IntoIter = btree_set::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for SetVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Oid(o) => write!(f, "{o}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Record(r) => {
                write!(f, "<")?;
                for (i, (l, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}: {v}")?;
                }
                write!(f, ">")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_collapse_duplicates() {
        let v = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(v.as_set().unwrap().len(), 2);
    }

    #[test]
    fn set_equality_ignores_order() {
        let a = Value::set([Value::Int(2), Value::Int(1)]);
        let b = Value::set([Value::Int(1), Value::Int(2)]);
        assert_eq!(a, b);
    }

    #[test]
    fn nested_sets() {
        let inner = Value::set([Value::Int(1)]);
        let outer = Value::set([inner.clone(), inner]);
        assert_eq!(outer.as_set().unwrap().len(), 1);
    }

    #[test]
    fn build_order_is_unobservable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let items = || (0..50).map(|i| Value::Int(i * 7 % 50));
        let forward = Value::set(items());
        let backward = Value::set(items().collect::<Vec<_>>().into_iter().rev());
        let from_tree = Value::Set(SetVal::from(items().collect::<BTreeSet<_>>()));
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        for other in [&backward, &from_tree] {
            assert_eq!(&forward, other);
            assert_eq!(forward.cmp(other), std::cmp::Ordering::Equal);
            assert_eq!(hasher.hash_one(&forward), hasher.hash_one(other));
            assert_eq!(forward.to_string(), other.to_string());
            assert_eq!(format!("{forward:?}"), format!("{other:?}"));
        }
        // Order and `Debug` are the members' own.
        assert!(Value::set([Value::Int(1)]) < Value::set([Value::Int(2)]));
        assert_eq!(
            format!("{:?}", Value::set([Value::Int(1)])),
            "Set({Int(1)})"
        );
    }

    #[test]
    fn consuming_a_shared_set_leaves_the_other_holder_intact() {
        let a: SetVal = (0..4).map(Value::Int).collect();
        let b = a.clone();
        assert!(SetVal::ptr_eq(&a, &b));
        let drained: Vec<Value> = b.into_iter().collect();
        assert_eq!(drained, (0..4).map(Value::Int).collect::<Vec<_>>());
        assert_eq!(a.len(), 4);
        assert_eq!(Value::Set(a.clone()).to_string(), "{0, 1, 2, 3}");
        // The sole holder's members move out; borrowing iterates in place.
        assert_eq!((&a).into_iter().count(), 4);
        assert_eq!(a.into_iter().next_back(), Some(Value::Int(3)));
    }

    #[test]
    fn display_forms() {
        let v = Value::record([("a", Value::Int(1)), ("b", Value::Bool(true))]);
        assert_eq!(v.to_string(), "<a: 1, b: true>");
        assert_eq!(Value::empty_set().to_string(), "{}");
        assert_eq!(Value::Oid(Oid::from_raw(7)).to_string(), "@7");
    }

    #[test]
    fn oid_collection_dedupes_in_order() {
        let o1 = Oid::from_raw(1);
        let o2 = Oid::from_raw(2);
        let v = Value::record([
            ("x", Value::Oid(o2)),
            ("y", Value::set([Value::Oid(o1), Value::Oid(o2)])),
        ]);
        // record iterates labels sorted: x before y
        assert_eq!(v.oids(), vec![o2, o1]);
    }

    #[test]
    fn map_oids_rewrites_everywhere() {
        let o1 = Oid::from_raw(1);
        let v = Value::set([Value::Oid(o1), Value::record([("p", Value::Oid(o1))])]);
        let w = v.map_oids(&mut |o| Oid::from_raw(o.raw() + 10));
        assert_eq!(w.oids(), vec![Oid::from_raw(11)]);
    }

    #[test]
    fn size_counts_nodes() {
        let v = Value::set([Value::Int(1), Value::record([("l", Value::Int(2))])]);
        assert_eq!(v.size(), 4);
    }
}
