//! The extent and object environments of paper §3.3.
//!
//! Both environments are instances of one **persistent, copy-on-write**
//! structure, [`Spine`]: oid-sorted slots cut into chunks, each behind an
//! [`std::sync::Arc`], with the spine — the vector of chunk pointers —
//! behind one more. [`ObjectEnv`] (`OE`) is a spine of `(oid, object)`
//! slots and [`MemberSet`] (one extent's members in `EE`) a spine of
//! oids; each slot type fixes only its oid and its chunk target
//! ([`Slot`]). Cloning a spine is therefore a single reference-count
//! bump, whatever the store's size, and everything stays shared until a
//! writer touches it. A writer first un-shares the spine (one pointer
//! copy per chunk, `O(n / CHUNK)`, paid only while a clone is alive) and
//! then path-copies exactly the chunk it mutates via [`Arc::make_mut`].
//! This is what makes a kernel snapshot — and a rollback snapshot —
//! cheap enough to take on every admission: the Theorem-7 scheduler can
//! stamp and clone under the read lock without paying for store size.
//!
//! Routing, splitting and copy counting are decided once, in [`Spine`],
//! for both environments. The layout is invisible to the semantics:
//! equality compares contents in oid order (two spines holding the same
//! slots are equal regardless of how their chunks happen to be cut),
//! iteration order is oid order exactly as with the previous
//! `BTreeMap`/`BTreeSet` layout, and the copy counters used by snapshot
//! telemetry are excluded from `PartialEq` just like the store's extent
//! version counters.

use ioql_ast::{AttrName, ClassName, ExtentName, Oid, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The runtime representation of an object, written
/// `≪C, a₁: v₁, …, a_k: v_k≫` in the paper: its dynamic class and the
/// values of all its attributes (inherited included).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Object {
    /// The dynamic class `C`.
    pub class: ClassName,
    /// Attribute values, in attribute-name order.
    pub attrs: Attrs,
}

impl Object {
    /// Builds an object. Attributes are kept in name order, and of two
    /// bindings of one name the later wins.
    pub fn new<A: Into<AttrName>>(
        class: impl Into<ClassName>,
        attrs: impl IntoIterator<Item = (A, Value)>,
    ) -> Self {
        Object {
            class: class.into(),
            attrs: attrs.into_iter().map(|(a, v)| (a.into(), v)).collect(),
        }
    }

    /// The value of attribute `a`, if present.
    pub fn attr(&self, a: &AttrName) -> Option<&Value> {
        self.attrs.get(a.as_str())
    }
}

/// An object's `a₁: v₁, …, a_k: v_k`: the pairs in one allocation,
/// sorted by name. An object has a handful of attributes and never gains
/// or loses one (the §5 update mode only overwrites values), so a boxed
/// slice holds them in one exactly-sized block, where a map would
/// allocate a node of fixed size however few it held. Lookup is a
/// linear scan: over a handful of names, equality is cheaper than the
/// ordered comparisons a search needs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attrs(Box<[(AttrName, Value)]>);

/// Iterator over an object's pairs, in name order.
pub type AttrIter<'a> = std::iter::Map<
    std::slice::Iter<'a, (AttrName, Value)>,
    fn(&'a (AttrName, Value)) -> (&'a AttrName, &'a Value),
>;

impl Attrs {
    fn slot(&self, a: &str) -> Option<usize> {
        self.0.iter().position(|(k, _)| k.as_str() == a)
    }

    /// The value of attribute `a`, if present.
    pub fn get(&self, a: &str) -> Option<&Value> {
        self.slot(a).map(|i| &self.0[i].1)
    }

    /// Mutable access to the value of attribute `a`, if present. There is
    /// no insert: an object's attributes are fixed when it is built.
    pub fn get_mut(&mut self, a: &str) -> Option<&mut Value> {
        self.slot(a).map(|i| &mut self.0[i].1)
    }

    /// The pairs, in name order.
    pub fn iter(&self) -> AttrIter<'_> {
        let pair: fn(&(AttrName, Value)) -> (&AttrName, &Value) = |(a, v)| (a, v);
        self.0.iter().map(pair)
    }

    /// The names, in order.
    pub fn keys(&self) -> impl Iterator<Item = &AttrName> {
        self.0.iter().map(|(a, _)| a)
    }

    /// The values, in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the object has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Builds the pairs as collecting into a `BTreeMap` would: name order,
/// and the last of several bindings of one name wins.
impl FromIterator<(AttrName, Value)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (AttrName, Value)>>(iter: I) -> Self {
        let mut pairs: Vec<(AttrName, Value)> = iter.into_iter().collect();
        // Stable, so duplicates stay in arrival order; `dedup_by` keeps the
        // first of a run, so the later value is swapped into it.
        pairs.sort_by(|(a, _), (b, _)| a.cmp(b));
        pairs.dedup_by(|later, kept| {
            let dup = later.0 == kept.0;
            if dup {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            dup
        });
        Attrs(pairs.into_boxed_slice())
    }
}

impl<'a> IntoIterator for &'a Attrs {
    type Item = (&'a AttrName, &'a Value);
    type IntoIter = AttrIter<'a>;

    fn into_iter(self) -> AttrIter<'a> {
        self.iter()
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<<{}", self.class)?;
        for (a, v) in &self.attrs {
            write!(f, ", {a}: {v}")?;
        }
        write!(f, ">>")
    }
}

/// What a [`Spine`] holds: a slot keyed and sorted by an oid, and the
/// chunk size its spine is cut at.
pub trait Slot: Clone {
    /// Target chunk size: a chunk splits in half when it reaches twice
    /// this many slots.
    const CHUNK: usize;

    /// The oid the slot is keyed by.
    fn oid(&self) -> Oid;
}

/// An object binding of `OE`.
impl Slot for (Oid, Object) {
    const CHUNK: usize = 128;

    fn oid(&self) -> Oid {
        self.0
    }
}

/// An extent member (oids are small, so member chunks are wider than
/// object chunks).
impl Slot for Oid {
    const CHUNK: usize = 512;

    fn oid(&self) -> Oid {
        *self
    }
}

/// A shared spine of copy-on-write chunks of oid-sorted slots (see the
/// module docs). Chunks are never empty and slots are sorted across the
/// whole spine, so it reads like a `BTreeMap` keyed by oid.
#[derive(Clone, Debug)]
pub struct Spine<T> {
    chunks: Arc<Vec<Arc<Vec<T>>>>,
    len: usize,
    cow_copied: u64,
}

/// The object environment `OE`: oid ↦ object.
pub type ObjectEnv = Spine<(Oid, Object)>;

/// The member oids of one extent.
pub type MemberSet = Spine<Oid>;

/// Iterator over a spine's slots, in oid order.
pub type Slots<'a, T> =
    std::iter::FlatMap<std::slice::Iter<'a, Arc<Vec<T>>>, &'a [T], fn(&'a Arc<Vec<T>>) -> &'a [T]>;

impl<T> Default for Spine<T> {
    fn default() -> Self {
        Spine {
            chunks: Arc::default(),
            len: 0,
            cow_copied: 0,
        }
    }
}

/// Semantic equality: the slots, in oid order. Chunk boundaries and the
/// copy counter are layout, not content.
impl<T: Slot + PartialEq> PartialEq for Spine<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.slots().eq(other.slots())
    }
}

impl<T: Slot + Eq> Eq for Spine<T> {}

impl<T: Slot> Spine<T> {
    /// An empty spine.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chunk holding `o`, if `o` is within the spine's key range.
    fn route(&self, o: Oid) -> Option<usize> {
        let idx = self.chunks.partition_point(|c| match c.last() {
            Some(s) => s.oid() < o,
            None => true,
        });
        (idx < self.chunks.len()).then_some(idx)
    }

    /// The chunk and position of `o`'s slot, if it has one.
    fn find(&self, o: Oid) -> Option<(usize, usize)> {
        let idx = self.route(o)?;
        let at = self.chunks[idx].binary_search_by_key(&o, T::oid).ok()?;
        Some((idx, at))
    }

    /// `o`'s slot, if it has one.
    fn slot(&self, o: Oid) -> Option<&T> {
        self.find(o).map(|(idx, at)| &self.chunks[idx][at])
    }

    /// Marks chunk `idx` for mutation: counts a copy if it is currently
    /// shared with a snapshot, then returns unique access to it. The
    /// spine is un-shared *first*: a snapshot holds the spine, not the
    /// chunks, so only the spine copy makes a chunk's count show it.
    fn chunk_mut(&mut self, idx: usize) -> &mut Vec<T> {
        let spine = Arc::make_mut(&mut self.chunks);
        if Arc::strong_count(&spine[idx]) > 1 {
            self.cow_copied += 1;
        }
        Arc::make_mut(&mut spine[idx])
    }

    /// Binds `slot` at its oid, returning the slot it replaced, if any.
    fn put(&mut self, slot: T) -> Option<T> {
        let o = slot.oid();
        let idx = match self.route(o) {
            Some(idx) => idx,
            None => {
                // `o` is past every existing key (the common fresh-oid
                // append path) — extend the last chunk, or start one.
                if self.chunks.is_empty() {
                    Arc::make_mut(&mut self.chunks).push(Arc::new(Vec::with_capacity(T::CHUNK)));
                }
                self.chunks.len() - 1
            }
        };
        let chunk = self.chunk_mut(idx);
        let prev = match chunk.binary_search_by_key(&o, T::oid) {
            Ok(at) => Some(std::mem::replace(&mut chunk[at], slot)),
            Err(at) => {
                chunk.insert(at, slot);
                self.len += 1;
                None
            }
        };
        if self.chunks[idx].len() >= T::CHUNK * 2 {
            // Both already unique: `chunk_mut` just un-shared them.
            let spine = Arc::make_mut(&mut self.chunks);
            let chunk = Arc::make_mut(&mut spine[idx]);
            let tail = chunk.split_off(chunk.len() / 2);
            spine.insert(idx + 1, Arc::new(tail));
        }
        prev
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the spine is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slots, in oid order.
    fn slots(&self) -> Slots<'_, T> {
        let chunk: fn(&Arc<Vec<T>>) -> &[T] = |c| c;
        self.chunks.iter().flat_map(chunk)
    }

    /// The raw chunk spine, in oid order — the plan executor's chunked
    /// `ExtentScan` drains a member set's chunks directly instead of
    /// re-chunking a cloned set.
    pub fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }

    /// Number of chunks in the spine — what a clone shares, and the unit
    /// the snapshot telemetry counts in.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Cumulative count of chunks this spine has had to copy because a
    /// writer touched a chunk shared with a snapshot. Telemetry only;
    /// excluded from equality.
    pub fn cow_copied_chunks(&self) -> u64 {
        self.cow_copied
    }
}

impl ObjectEnv {
    /// `OE(o)`.
    pub fn get(&self, o: Oid) -> Option<&Object> {
        self.slot(o).map(|(_, obj)| obj)
    }

    /// Mutable access to an object, for the §5 extended (update) mode.
    /// Copies the containing chunk first if it is shared with a snapshot.
    pub fn get_mut(&mut self, o: Oid) -> Option<&mut Object> {
        let (idx, at) = self.find(o)?;
        Some(&mut self.chunk_mut(idx)[at].1)
    }

    /// `OE[o ↦ obj]`. Returns the previous binding, if any (fresh-oid
    /// discipline means there never is one during evaluation; dump loads
    /// and test fixtures may bind arbitrary oids in arbitrary order).
    pub fn insert(&mut self, o: Oid, obj: Object) -> Option<Object> {
        self.put((o, obj)).map(|(_, prev)| prev)
    }

    /// Whether `o` is bound.
    pub fn contains(&self, o: Oid) -> bool {
        self.slot(o).is_some()
    }

    /// Iterates bindings in oid order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Object)> {
        self.slots().map(|(o, obj)| (*o, obj))
    }

    /// Per-class object counts — used by the equivalence check for
    /// unreachable objects and by the optimizer's statistics.
    pub fn class_counts(&self) -> BTreeMap<ClassName, usize> {
        let mut out = BTreeMap::new();
        for (_, obj) in self.iter() {
            *out.entry(obj.class.clone()).or_insert(0) += 1;
        }
        out
    }
}

impl MemberSet {
    /// Adds `o`; returns whether it was newly inserted.
    fn insert(&mut self, o: Oid) -> bool {
        self.put(o).is_none()
    }

    /// Whether `o` is a member.
    pub fn contains(&self, o: &Oid) -> bool {
        self.slot(*o).is_some()
    }

    /// Iterates members in oid order.
    pub fn iter(&self) -> Slots<'_, Oid> {
        self.slots()
    }
}

impl<'a> IntoIterator for &'a MemberSet {
    type Item = &'a Oid;
    type IntoIter = Slots<'a, Oid>;

    fn into_iter(self) -> Slots<'a, Oid> {
        self.slots()
    }
}

/// The extent environment `EE`: extent name ↦ (class, set of member oids).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExtentEnv {
    map: BTreeMap<ExtentName, (ClassName, MemberSet)>,
}

impl ExtentEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an (initially empty) extent for a class. Overwrites any
    /// previous declaration of the same name.
    pub fn declare(&mut self, e: impl Into<ExtentName>, class: impl Into<ClassName>) {
        self.map.insert(e.into(), (class.into(), MemberSet::new()));
    }

    /// `EE(e)`: the class and current members of extent `e`.
    pub fn get(&self, e: &ExtentName) -> Option<(&ClassName, &MemberSet)> {
        self.map.get(e).map(|(c, s)| (c, s))
    }

    /// The member oids of extent `e`.
    pub fn members(&self, e: &ExtentName) -> Option<&MemberSet> {
        self.map.get(e).map(|(_, s)| s)
    }

    /// Adds an oid to extent `e`. Returns `false` if the extent is
    /// undeclared.
    pub fn add(&mut self, e: &ExtentName, o: Oid) -> bool {
        match self.map.get_mut(e) {
            Some((_, s)) => {
                s.insert(o);
                true
            }
            None => false,
        }
    }

    /// Whether `e` is declared.
    pub fn contains(&self, e: &ExtentName) -> bool {
        self.map.contains_key(e)
    }

    /// Iterates extents in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&ExtentName, &ClassName, &MemberSet)> {
        self.map.iter().map(|(e, (c, s))| (e, c, s))
    }

    /// Number of declared extents.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no extents are declared.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total chunks across every extent's member spine.
    pub fn chunk_count(&self) -> u64 {
        self.map.values().map(|(_, s)| s.chunk_count()).sum()
    }

    /// Cumulative copied-chunk count across every extent (telemetry
    /// only).
    pub fn cow_copied_chunks(&self) -> u64 {
        self.map.values().map(|(_, s)| s.cow_copied_chunks()).sum()
    }
}

/// The paper's value type builds sets as `BTreeSet<Value>`; a member
/// set renders the same way.
impl fmt::Display for MemberSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, o) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_display_and_lookup() {
        let o = Object::new("P", [("name", Value::Int(1))]);
        assert_eq!(o.to_string(), "<<P, name: 1>>");
        assert_eq!(o.attr(&AttrName::new("name")), Some(&Value::Int(1)));
        assert_eq!(o.attr(&AttrName::new("ghost")), None);
    }

    /// `Object::new` builds what collecting into a `BTreeMap` built: pairs
    /// in name order, and the last of several bindings of a name wins.
    #[test]
    fn attrs_are_built_like_the_map_they_replaced() {
        let given = [
            ("pal", Value::Int(1)),
            ("age", Value::Int(2)),
            ("name", Value::Int(3)),
            ("age", Value::Int(4)),
            ("Zed", Value::Bool(true)),
            ("pal", Value::Int(5)),
            ("age", Value::Int(6)),
        ];
        let o = Object::new("P", given.clone());
        let map: BTreeMap<AttrName, Value> = given
            .into_iter()
            .map(|(a, v)| (AttrName::new(a), v))
            .collect();
        assert!(o.attrs.iter().eq(map.iter()));
        assert!(o.attrs.keys().eq(map.keys()));
        assert!(o.attrs.values().eq(map.values()));
        assert_eq!(o.attrs.len(), 4);
        assert_eq!(o.attrs.get("age"), Some(&Value::Int(6)));
        assert_eq!(o.attrs.get("pal"), Some(&Value::Int(5)));
        assert_eq!(o.to_string(), "<<P, Zed: true, age: 6, name: 3, pal: 5>>");
        let empty = Object::new("P", Vec::<(&str, Value)>::new());
        assert!(empty.attrs.is_empty() && empty.attrs.iter().next().is_none());
    }

    /// There is no insert: `get_mut` of an absent name is `None`, which is
    /// what makes `Store::set_attr` refuse an undeclared attribute.
    #[test]
    fn get_mut_finds_only_present_names() {
        let mut o = Object::new("P", [("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(o.attrs.get_mut("ghost"), None);
        *o.attrs.get_mut("b").unwrap() = Value::Int(-2);
        assert_eq!(o.to_string(), "<<P, a: 1, b: -2>>");
        assert_eq!(o.attrs.len(), 2);
    }

    /// An object is its class name and one pointer-and-length to its
    /// pairs: 32 bytes, where the `BTreeMap` layout took 40.
    #[test]
    fn an_object_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Object>(), 32);
    }

    #[test]
    fn object_env_basics() {
        let mut oe = ObjectEnv::new();
        let o = Oid::from_raw(1);
        assert!(oe
            .insert(o, Object::new("P", [("a", Value::Int(1))]))
            .is_none());
        assert!(oe.contains(o));
        assert_eq!(oe.len(), 1);
        assert_eq!(oe.get(o).unwrap().class, ClassName::new("P"));
    }

    #[test]
    fn extent_env_add_and_members() {
        let mut ee = ExtentEnv::new();
        ee.declare("Ps", "P");
        assert!(ee.add(&ExtentName::new("Ps"), Oid::from_raw(3)));
        assert!(!ee.add(&ExtentName::new("Ghost"), Oid::from_raw(3)));
        assert_eq!(ee.members(&ExtentName::new("Ps")).unwrap().len(), 1);
        let (c, _) = ee.get(&ExtentName::new("Ps")).unwrap();
        assert_eq!(c, &ClassName::new("P"));
    }

    #[test]
    fn class_counts() {
        let mut oe = ObjectEnv::new();
        oe.insert(
            Oid::from_raw(1),
            Object::new("P", Vec::<(&str, Value)>::new()),
        );
        oe.insert(
            Oid::from_raw(2),
            Object::new("P", Vec::<(&str, Value)>::new()),
        );
        oe.insert(
            Oid::from_raw(3),
            Object::new("Q", Vec::<(&str, Value)>::new()),
        );
        let counts = oe.class_counts();
        assert_eq!(counts[&ClassName::new("P")], 2);
        assert_eq!(counts[&ClassName::new("Q")], 1);
    }

    /// Inserts in arbitrary order (as dump loads and the equivalence
    /// fixtures do) must keep iteration in oid order and split chunks
    /// without losing bindings.
    #[test]
    fn out_of_order_inserts_stay_sorted_across_splits() {
        let mut oe = ObjectEnv::new();
        // A deterministic shuffle: stride through 1000 slots.
        let n = 1000u64;
        for i in 0..n {
            let o = Oid::from_raw((i * 7919) % n);
            oe.insert(o, Object::new("P", [("a", Value::Int(i as i64))]));
        }
        assert_eq!(oe.len(), n as usize);
        let oids: Vec<u64> = oe.iter().map(|(o, _)| o.raw()).collect();
        let mut sorted = oids.clone();
        sorted.sort_unstable();
        assert_eq!(oids, sorted);
        assert!(oe.chunk_count() > 1, "1000 objects must span chunks");
        for i in 0..n {
            assert!(oe.contains(Oid::from_raw(i)), "missing oid {i}");
        }
    }

    /// Re-inserting an existing oid replaces the object in place.
    #[test]
    fn insert_replaces_and_reports_previous() {
        let mut oe = ObjectEnv::new();
        let o = Oid::from_raw(7);
        assert!(oe
            .insert(o, Object::new("P", [("a", Value::Int(1))]))
            .is_none());
        let prev = oe.insert(o, Object::new("P", [("a", Value::Int(2))]));
        assert_eq!(
            prev.unwrap().attr(&AttrName::new("a")),
            Some(&Value::Int(1))
        );
        assert_eq!(oe.len(), 1);
        assert_eq!(
            oe.get(o).unwrap().attr(&AttrName::new("a")),
            Some(&Value::Int(2))
        );
    }

    /// A clone is a snapshot: it shares every chunk until a writer
    /// touches one, and the writer's mutation never shows through.
    #[test]
    fn clone_shares_chunks_and_cow_isolates() {
        let mut oe = ObjectEnv::new();
        for i in 0..400u64 {
            oe.insert(
                Oid::from_raw(i),
                Object::new("P", [("a", Value::Int(i as i64))]),
            );
        }
        let snap = oe.clone();
        assert_eq!(snap.cow_copied_chunks(), oe.cow_copied_chunks());
        let copied_before = oe.cow_copied_chunks();
        *oe.get_mut(Oid::from_raw(0))
            .unwrap()
            .attrs
            .get_mut("a")
            .unwrap() = Value::Int(-1);
        // Exactly one chunk was copied; the snapshot still reads the old
        // value and the environments now differ.
        assert_eq!(oe.cow_copied_chunks(), copied_before + 1);
        assert_eq!(
            snap.get(Oid::from_raw(0))
                .unwrap()
                .attr(&AttrName::new("a")),
            Some(&Value::Int(0))
        );
        assert_eq!(
            oe.get(Oid::from_raw(0)).unwrap().attr(&AttrName::new("a")),
            Some(&Value::Int(-1))
        );
        assert_ne!(snap, oe);
    }

    /// A clone shares the spine itself — one pointer, however many
    /// chunks — and a writer un-shares it before it looks at a chunk's
    /// count, so `cow_copied_chunks` still advances by exactly one per
    /// first write to a chunk a live snapshot shares.
    #[test]
    fn a_writer_unshares_the_spine_before_it_counts_copies() {
        let a = AttrName::new("a");
        let mut oe = ObjectEnv::new();
        for i in 0..400u64 {
            oe.insert(
                Oid::from_raw(i),
                Object::new("P", [("a", Value::Int(i as i64))]),
            );
        }
        assert!(oe.chunk_count() >= 3);
        let set = |oe: &mut ObjectEnv, o: u64, v: i64| {
            let obj = oe.get_mut(Oid::from_raw(o)).unwrap();
            *obj.attrs.get_mut(a.as_str()).unwrap() = Value::Int(v);
        };
        let base = oe.cow_copied_chunks();
        let snap = oe.clone();
        assert!(Arc::ptr_eq(&snap.chunks, &oe.chunks));
        set(&mut oe, 0, -1);
        assert!(!Arc::ptr_eq(&snap.chunks, &oe.chunks));
        assert_eq!(oe.cow_copied_chunks(), base + 1, "first write to chunk 0");
        set(&mut oe, 1, -2);
        assert_eq!(oe.cow_copied_chunks(), base + 1, "chunk 0 is already ours");
        set(&mut oe, 399, -3);
        assert_eq!(
            oe.cow_copied_chunks(),
            base + 2,
            "first write to the last chunk"
        );
        // The snapshot, taken before all three, still reads the old values.
        for (o, old) in [(0u64, 0i64), (1, 1), (399, 399)] {
            let seen = snap.get(Oid::from_raw(o)).unwrap().attr(&a);
            assert_eq!(seen, Some(&Value::Int(old)));
        }
        assert_eq!(snap.cow_copied_chunks(), base);
        assert_eq!(snap.len(), 400);
        assert_ne!(snap, oe);
        // No live snapshot, nothing to copy; a new one, one copy again.
        drop(snap);
        set(&mut oe, 200, -4);
        assert_eq!(oe.cow_copied_chunks(), base + 2);
        let snap = oe.clone();
        set(&mut oe, 200, -5);
        assert_eq!(oe.cow_copied_chunks(), base + 3);
        assert_eq!(
            snap.get(Oid::from_raw(200)).unwrap().attr(&a),
            Some(&Value::Int(-4))
        );

        // The member spine follows the same discipline.
        let mut ms = MemberSet::new();
        for i in 0..3000u64 {
            ms.insert(Oid::from_raw(i * 2));
        }
        assert!(ms.chunk_count() >= 3);
        let base = ms.cow_copied_chunks();
        let snap = ms.clone();
        assert!(Arc::ptr_eq(&snap.chunks, &ms.chunks));
        ms.insert(Oid::from_raw(1));
        ms.insert(Oid::from_raw(3));
        assert_eq!(ms.cow_copied_chunks(), base + 1);
        ms.insert(Oid::from_raw(6001));
        assert_eq!(ms.cow_copied_chunks(), base + 2);
        assert_eq!((snap.len(), ms.len()), (3000, 3003));
        assert!(!snap.contains(&Oid::from_raw(1)) && ms.contains(&Oid::from_raw(1)));
        assert_eq!(snap.cow_copied_chunks(), base);
    }

    /// Equality is content equality: chunk boundaries (driven by insert
    /// order) and copy counters do not participate.
    #[test]
    fn equality_ignores_chunk_layout() {
        let mut fwd = ObjectEnv::new();
        let mut rev = ObjectEnv::new();
        for i in 0..300u64 {
            fwd.insert(Oid::from_raw(i), Object::new("P", [("a", Value::Int(0))]));
        }
        for i in (0..300u64).rev() {
            rev.insert(Oid::from_raw(i), Object::new("P", [("a", Value::Int(0))]));
        }
        assert_eq!(fwd, rev);

        let mut ms_fwd = MemberSet::new();
        let mut ms_rev = MemberSet::new();
        for i in 0..2000u64 {
            ms_fwd.insert(Oid::from_raw(i));
        }
        for i in (0..2000u64).rev() {
            ms_rev.insert(Oid::from_raw(i));
        }
        assert_eq!(ms_fwd, ms_rev);
        assert_eq!(ms_fwd.len(), 2000);
    }

    #[test]
    fn member_set_iter_contains_and_chunks() {
        let mut ee = ExtentEnv::new();
        ee.declare("Ps", "P");
        let e = ExtentName::new("Ps");
        for i in (0..3000u64).rev() {
            assert!(ee.add(&e, Oid::from_raw(i)));
        }
        let members = ee.members(&e).unwrap();
        assert_eq!(members.len(), 3000);
        assert!(members.chunk_count() > 1);
        assert!(members.contains(&Oid::from_raw(0)));
        assert!(!members.contains(&Oid::from_raw(3000)));
        let oids: Vec<u64> = members.iter().map(|o| o.raw()).collect();
        assert!(oids.windows(2).all(|w| w[0] < w[1]));
        // `for o in members` works (used by the equivalence law tests).
        let mut n = 0usize;
        for _o in members {
            n += 1;
        }
        assert_eq!(n, 3000);
        // The chunk spine drains to the same sequence.
        let via_chunks: Vec<u64> = members
            .chunks()
            .iter()
            .flat_map(|c| c.iter().map(|o| o.raw()))
            .collect();
        assert_eq!(oids, via_chunks);
    }

    /// Checks `spine` against its model after an operation: `len` is the
    /// model's, no chunk is empty, `o`'s slot is found exactly when the
    /// model binds it, and iteration yields the model's slots — so, as
    /// the model is keyed by each slot's oid, in strictly increasing oid
    /// order.
    fn agrees<T: Slot + PartialEq + fmt::Debug>(
        spine: &Spine<T>,
        model: &BTreeMap<Oid, T>,
        o: Oid,
    ) {
        assert_eq!(spine.len(), model.len());
        assert!(spine.chunks().iter().all(|c| !c.is_empty()));
        assert_eq!(spine.slot(o), model.get(&o));
        assert!(spine.slots().eq(model.values()), "{spine:?} vs {model:?}");
    }

    /// An in-place write of `v` at a bound oid; `false` if it is unbound.
    type WriteAt<T> = fn(&mut Spine<T>, Oid, i64) -> bool;

    /// One seeded run of a spine instance against a `BTreeMap` model:
    /// inserts in random oid order, re-inserts of bound oids (a
    /// replacement, or a duplicate member), `write`s in place, and
    /// snapshots taken and dropped at random points. After every
    /// operation the spine and every live snapshot agree with their
    /// models, and a write counted one copy exactly when a live snapshot
    /// shared the chunk it wrote. `==` must follow the models however the
    /// chunks are cut: between the spine and each snapshot after every
    /// operation, and every 64th against a copy rebuilt in reverse oid
    /// order. The spine starts with `prefill` random slots, so a run
    /// can begin near a split. Returns how many splits cut a chunk a live
    /// snapshot shared.
    fn run_against_model<T: Slot + PartialEq + fmt::Debug>(
        seed: u64,
        prefill: usize,
        ops: usize,
        slot: impl Fn(Oid, i64) -> T,
        insert: impl Fn(&mut Spine<T>, T) -> bool,
        write: Option<WriteAt<T>>,
    ) -> usize {
        let mut rng = ioql_rng::SmallRng::seed_from_u64(seed);
        let mut spine = Spine::new();
        let mut model = BTreeMap::new();
        let oids = 4 * (prefill + ops) as u64;
        while model.len() < prefill {
            let o = Oid::from_raw(rng.gen_range(0..oids));
            insert(&mut spine, slot(o, 0));
            model.insert(o, slot(o, 0));
        }
        let mut snaps: Vec<(Spine<T>, BTreeMap<Oid, T>)> = Vec::new();
        let mut shared_splits = 0;
        for step in 0..ops {
            let roll = rng.gen_range(0..16u32);
            let o = match model.len() {
                n if n > 0 && (7..=9).contains(&roll) => {
                    *model.keys().nth(rng.gen_range(0..n)).unwrap()
                }
                _ => Oid::from_raw(rng.gen_range(0..oids)),
            };
            let v = rng.gen_range(-1000..1000i64);
            let target = spine.route(o).or(spine.chunks.len().checked_sub(1));
            let shared = target.is_some_and(|i| {
                let chunk = &spine.chunks[i];
                snaps
                    .iter()
                    .any(|(s, _)| s.chunks.iter().any(|c| Arc::ptr_eq(c, chunk)))
            });
            let (chunks, copied) = (spine.chunk_count(), spine.cow_copied_chunks());
            match (roll, write) {
                (0..=5, _) => {
                    if snaps.len() == 2 {
                        snaps.swap_remove(rng.gen_range(0..2));
                    }
                    snaps.push((spine.clone(), model.clone()));
                }
                (6, _) if !snaps.is_empty() => {
                    snaps.swap_remove(rng.gen_range(0..snaps.len()));
                }
                (7..=8, Some(write)) => {
                    let hit = write(&mut spine, o, v);
                    assert_eq!(hit, model.contains_key(&o));
                    if hit {
                        model.insert(o, slot(o, v));
                        assert_eq!(spine.cow_copied_chunks(), copied + u64::from(shared));
                    }
                }
                _ => {
                    let fresh = insert(&mut spine, slot(o, v));
                    assert_eq!(fresh, model.insert(o, slot(o, v)).is_none());
                    assert_eq!(spine.cow_copied_chunks(), copied + u64::from(shared));
                    if shared && spine.chunk_count() > chunks {
                        shared_splits += 1;
                    }
                }
            }
            agrees(&spine, &model, o);
            for (snap, taken) in &snaps {
                agrees(snap, taken, o);
                assert_eq!(*snap == spine, *taken == model);
            }
            if step % 64 == 0 {
                assert!(model.iter().all(|(o, s)| spine.slot(*o) == Some(s)));
                let mut rebuilt = Spine::new();
                for s in model.values().rev() {
                    rebuilt.put(s.clone());
                }
                assert_eq!(rebuilt, spine);
            }
        }
        shared_splits
    }

    /// Both spine instances, under the same model-based run. Across the
    /// seeds, each instance splits a chunk a live snapshot still shares —
    /// a case no fixed test above reaches.
    #[test]
    fn both_spines_agree_with_a_model_under_snapshots() {
        let (mut objects, mut members) = (0, 0);
        for seed in 0..8 {
            objects += run_against_model(
                seed,
                200,
                500,
                |o, v| (o, Object::new("P", [("a", Value::Int(v))])),
                |oe: &mut ObjectEnv, (o, obj)| oe.insert(o, obj).is_none(),
                Some(|oe: &mut ObjectEnv, o, v| match oe.get_mut(o) {
                    Some(obj) => {
                        *obj.attrs.get_mut("a").unwrap() = Value::Int(v);
                        true
                    }
                    None => false,
                }),
            );
            members += run_against_model(
                seed,
                1000,
                400,
                |o, _| o,
                |ms: &mut MemberSet, o| ms.insert(o),
                None,
            );
        }
        assert!(
            objects > 0 && members > 0,
            "objects {objects}, members {members}"
        );
    }
}
