//! Runtime values (paper §3.3).
//!
//! ```text
//! v ::= i | true | false | o | {v₀, …, v_k} | ⟨l₁: v₁, …, l_k: v_k⟩
//! ```
//!
//! Sets are *mathematical* sets: `{1, 1}` and `{1}` are the same value, and
//! element order is unobservable. We realise this with one sorted,
//! deduplicated slice per set ([`SetVal`]) under a derived total order —
//! the order is an implementation artifact used only for canonical storage
//! and printing; the semantics never depends on it (the `(ND comp)` rule
//! picks elements through a `Chooser`, precisely so tests can exercise
//! *every* order).
//!
//! A value is immutable once built, so a set's members are shared by
//! pointer: copying a set value — out of a literal, a binding or a cached
//! result — is a reference count, not a copy. A set is built once, in
//! bulk (one sort and deduplication, skipped when the members arrive in
//! order), membership is a binary search, and the set operators are
//! merges of two sorted slices.
use crate::ident::Label;
use crate::oid::Oid;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
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
        let mut seen = HashSet::new();
        self.collect_oids(&mut out, &mut seen);
        out
    }

    fn collect_oids(&self, out: &mut Vec<Oid>, seen: &mut HashSet<Oid>) {
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

/// The members of a set value: sorted, without duplicates, shared by
/// pointer.
///
/// Every set is built in bulk and never mutated afterwards, so `Clone`
/// is a reference count and the members are reachable from every holder
/// as a slice through `Deref`. Equality, order and hashing are the
/// slice's, which are the ones an ordered tree set of the same members
/// has: members compared in order, and the hash of the length followed
/// by each member. Two sets with the same members are the same value
/// however they were built and whoever else holds them.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SetVal(Arc<[Value]>);

impl SetVal {
    /// A set of members already sorted and without duplicates.
    fn sorted(members: Vec<Value>) -> SetVal {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        SetVal(Arc::from(members))
    }

    /// The set of `members`, in any order and with any duplicates: one
    /// sort and deduplication, skipped when they arrive strictly
    /// ascending.
    pub fn from_vec(mut members: Vec<Value>) -> SetVal {
        if !members.windows(2).all(|w| w[0] < w[1]) {
            members.sort_unstable();
            members.dedup();
        }
        SetVal::sorted(members)
    }

    /// Whether `a` and `b` share one member block (not merely equal ones).
    pub fn ptr_eq(a: &SetVal, b: &SetVal) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Whether `v` is a member (a binary search).
    pub fn contains(&self, v: &Value) -> bool {
        self.0.binary_search(v).is_ok()
    }

    /// `self ∪ other`, by one merge.
    pub fn union(&self, other: &SetVal) -> SetVal {
        if other.is_empty() {
            return self.clone();
        }
        if self.is_empty() {
            return other.clone();
        }
        self.merge(other, true, true, true)
    }

    /// `self ∩ other`, by one merge.
    pub fn intersection(&self, other: &SetVal) -> SetVal {
        self.merge(other, false, true, false)
    }

    /// `self \ other`, by one merge.
    pub fn difference(&self, other: &SetVal) -> SetVal {
        if other.is_empty() {
            return self.clone();
        }
        self.merge(other, true, false, false)
    }

    /// Walks both sorted member lists once, keeping the members found
    /// only in `self`, in both, or only in `other` as the flags say.
    fn merge(&self, other: &SetVal, only_a: bool, both: bool, only_b: bool) -> SetVal {
        let (a, b): (&[Value], &[Value]) = (self, other);
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    if only_a {
                        out.push(a[i].clone());
                    }
                    i += 1;
                }
                Ordering::Greater => {
                    if only_b {
                        out.push(b[j].clone());
                    }
                    j += 1;
                }
                Ordering::Equal => {
                    if both {
                        out.push(a[i].clone());
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        if only_a {
            out.extend_from_slice(&a[i..]);
        }
        if only_b {
            out.extend_from_slice(&b[j..]);
        }
        SetVal::sorted(out)
    }
}

impl Default for SetVal {
    fn default() -> Self {
        SetVal::sorted(Vec::new())
    }
}

impl Deref for SetVal {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl FromIterator<Value> for SetVal {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Self {
        SetVal::from_vec(items.into_iter().collect())
    }
}

/// The members, by value, in order: each is cloned out as it is reached,
/// so the other holders keep theirs and nothing is copied up front.
impl IntoIterator for SetVal {
    type Item = Value;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let back = self.len();
        IntoIter {
            set: self,
            front: 0,
            back,
        }
    }
}

/// The owning iterator of a [`SetVal`]: the set and the bounds of the
/// members not yet taken.
#[derive(Clone, Debug)]
pub struct IntoIter {
    set: SetVal,
    front: usize,
    back: usize,
}

impl IntoIter {
    /// The members not yet taken, in order.
    fn left(&self) -> &[Value] {
        &self.set[self.front..self.back]
    }
}

impl Iterator for IntoIter {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        let v = self.left().first()?.clone();
        self.front += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for IntoIter {
    fn next_back(&mut self) -> Option<Value> {
        let v = self.left().last()?.clone();
        self.back -= 1;
        Some(v)
    }
}

impl ExactSizeIterator for IntoIter {}

impl<'a> IntoIterator for &'a SetVal {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Debug for SetVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
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
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(forward, backward);
        assert_eq!(forward.cmp(&backward), std::cmp::Ordering::Equal);
        assert_eq!(hasher.hash_one(&forward), hasher.hash_one(&backward));
        assert_eq!(forward.to_string(), backward.to_string());
        assert_eq!(format!("{forward:?}"), format!("{backward:?}"));
        // Order and `Debug` are the members' own.
        assert!(Value::set([Value::Int(1)]) < Value::set([Value::Int(2)]));
        assert_eq!(
            format!("{:?}", Value::set([Value::Int(1)])),
            "Set({Int(1)})"
        );
    }

    /// A value with small leaves, so duplicates are common, and with
    /// nested sets and records.
    fn arbitrary(rng: &mut ioql_rng::SmallRng, depth: usize) -> Value {
        match rng.gen_range(0..if depth == 0 { 3 } else { 5 }) {
            0 => Value::Int(rng.gen_range(-3..4)),
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Oid(Oid::from_raw(rng.gen_range(0..4))),
            3 => Value::set(members(rng, depth - 1)),
            _ => Value::record(
                ["a", "b"]
                    .into_iter()
                    .take(rng.gen_range(0..3))
                    .map(|l| (l, arbitrary(rng, depth - 1))),
            ),
        }
    }

    /// Up to eight members, duplicates likely, in no particular order.
    fn members(rng: &mut ioql_rng::SmallRng, depth: usize) -> Vec<Value> {
        (0..rng.gen_range(0..9))
            .map(|_| arbitrary(rng, depth))
            .collect()
    }

    /// A set built in any order agrees with a `BTreeSet` of the same
    /// members — the representation it replaced — on its members, `==`,
    /// `cmp`, hash, `Display` and `Debug`, and under `union`, `intersect`
    /// and `except`.
    #[test]
    fn sets_agree_with_a_btree_reference() {
        use std::collections::hash_map::DefaultHasher;
        use std::collections::BTreeSet;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        let shown = |r: &BTreeSet<Value>| {
            let items: Vec<String> = r.iter().map(Value::to_string).collect();
            format!("{{{}}}", items.join(", "))
        };
        let mut rng = ioql_rng::SmallRng::seed_from_u64(0x5E7A1);
        for round in 0..400 {
            let (xs, ys) = (members(&mut rng, 2), members(&mut rng, 2));
            let (ra, rb): (BTreeSet<Value>, BTreeSet<Value>) =
                (xs.iter().cloned().collect(), ys.iter().cloned().collect());
            let a: SetVal = xs.iter().cloned().collect();
            let b: SetVal = ys.iter().cloned().collect();
            // Any build order gives the same value.
            let mut shuffled = xs.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..i + 1));
            }
            for other in [
                xs.iter().rev().cloned().collect(),
                SetVal::from_vec(shuffled),
            ] {
                assert_eq!(a, other, "round {round}");
                assert!(SetVal::ptr_eq(&other, &other.clone()));
            }
            for (set, reference) in [(&a, &ra), (&b, &rb)] {
                assert!(set.iter().eq(reference), "round {round}");
                assert_eq!(set.len(), reference.len());
                assert_eq!(hasher.hash_one(set), hasher.hash_one(reference));
                assert_eq!(format!("{set:?}"), format!("{reference:?}"));
                assert_eq!(Value::Set(set.clone()).to_string(), shown(reference));
                for probe in xs.iter().chain(&ys) {
                    assert_eq!(set.contains(probe), reference.contains(probe));
                }
            }
            assert_eq!(a == b, ra == rb, "round {round}");
            assert_eq!(a.cmp(&b), ra.cmp(&rb), "round {round}");
            assert_eq!(a.partial_cmp(&b), ra.partial_cmp(&rb), "round {round}");
            for (op, got, want) in [
                ("union", a.union(&b), ra.union(&rb).collect::<Vec<_>>()),
                (
                    "intersect",
                    a.intersection(&b),
                    ra.intersection(&rb).collect(),
                ),
                ("except", a.difference(&b), ra.difference(&rb).collect()),
            ] {
                assert!(got.iter().eq(want), "round {round}: {op}");
            }
        }
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
