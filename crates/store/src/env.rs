//! The extent and object environments of paper §3.3.
//!
//! Both environments are **persistent, copy-on-write** structures: the
//! data lives in fixed-size chunks, each behind an [`std::sync::Arc`],
//! and the spine — the vector of chunk pointers — sits behind one more.
//! Cloning an environment is therefore a single reference-count bump,
//! whatever the store's size, and everything stays shared until a writer
//! touches it. A writer first un-shares the spine (one pointer copy per
//! chunk, `O(n / CHUNK)`, paid only while a clone is alive) and then
//! path-copies exactly the chunk it mutates via [`Arc::make_mut`]. This
//! is what makes a kernel snapshot — and a rollback snapshot — cheap
//! enough to take on every admission: the Theorem-7 scheduler can stamp
//! and clone under the read lock without paying for store size.
//!
//! The layout is invisible to the semantics: equality compares contents
//! in oid order (two environments holding the same bindings are equal
//! regardless of how their chunks happen to be cut), iteration order is
//! oid order exactly as with the previous `BTreeMap`/`BTreeSet` layout,
//! and the copy counters used by snapshot telemetry are excluded from
//! `PartialEq` just like the store's extent version counters.

use ioql_ast::{AttrName, ClassName, ExtentName, Oid, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Target chunk size for the object environment: chunks split in half
/// when they reach twice this many slots.
const OBJ_CHUNK: usize = 128;

/// Target chunk size for extent member sets (oids are small, so member
/// chunks are wider than object chunks).
const MEM_CHUNK: usize = 512;

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

/// One chunk of the object spine: `(oid, object)` slots sorted by oid.
/// Chunks are never empty and slots are globally sorted across the
/// spine, so the spine as a whole reads like the old `BTreeMap` did.
type ObjChunk = Vec<(Oid, Object)>;

/// The object environment `OE`: oid ↦ object, stored as a shared spine
/// of copy-on-write chunks (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct ObjectEnv {
    chunks: Arc<Vec<Arc<ObjChunk>>>,
    len: usize,
    cow_copied: u64,
}

/// Semantic equality: the bindings, in oid order. Chunk boundaries and
/// the copy counter are layout, not content.
impl PartialEq for ObjectEnv {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ObjectEnv {}

impl ObjectEnv {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// The chunk holding `o`, if `o` is within the spine's key range.
    fn route(&self, o: Oid) -> Option<usize> {
        let idx = self.chunks.partition_point(|c| match c.last() {
            Some((max, _)) => *max < o,
            None => true,
        });
        (idx < self.chunks.len()).then_some(idx)
    }

    /// Marks chunk `idx` for mutation: counts a copy if it is currently
    /// shared with a snapshot, then returns unique access to it. The
    /// spine is un-shared *first*: a snapshot holds the spine, not the
    /// chunks, so only the spine copy makes a chunk's count show it.
    fn chunk_mut(&mut self, idx: usize) -> &mut ObjChunk {
        let spine = Arc::make_mut(&mut self.chunks);
        if Arc::strong_count(&spine[idx]) > 1 {
            self.cow_copied += 1;
        }
        Arc::make_mut(&mut spine[idx])
    }

    /// `OE(o)`.
    pub fn get(&self, o: Oid) -> Option<&Object> {
        let chunk = &self.chunks[self.route(o)?];
        let slot = chunk.binary_search_by_key(&o, |(oid, _)| *oid).ok()?;
        Some(&chunk[slot].1)
    }

    /// Mutable access to an object, for the §5 extended (update) mode.
    /// Copies the containing chunk first if it is shared with a snapshot.
    pub fn get_mut(&mut self, o: Oid) -> Option<&mut Object> {
        let idx = self.route(o)?;
        let slot = self.chunks[idx]
            .binary_search_by_key(&o, |(oid, _)| *oid)
            .ok()?;
        Some(&mut self.chunk_mut(idx)[slot].1)
    }

    /// `OE[o ↦ obj]`. Returns the previous binding, if any (fresh-oid
    /// discipline means there never is one during evaluation; dump loads
    /// and test fixtures may bind arbitrary oids in arbitrary order).
    pub fn insert(&mut self, o: Oid, obj: Object) -> Option<Object> {
        let idx = match self.route(o) {
            Some(idx) => idx,
            None => {
                // `o` is past every existing key (the common fresh-oid
                // append path) — extend the last chunk, or start one.
                if self.chunks.is_empty() {
                    Arc::make_mut(&mut self.chunks).push(Arc::new(Vec::with_capacity(OBJ_CHUNK)));
                }
                self.chunks.len() - 1
            }
        };
        let chunk = self.chunk_mut(idx);
        let prev = match chunk.binary_search_by_key(&o, |(oid, _)| *oid) {
            Ok(slot) => Some(std::mem::replace(&mut chunk[slot].1, obj)),
            Err(slot) => {
                chunk.insert(slot, (o, obj));
                self.len += 1;
                None
            }
        };
        if self.chunks[idx].len() >= OBJ_CHUNK * 2 {
            // Both already unique: `chunk_mut` just un-shared them.
            let spine = Arc::make_mut(&mut self.chunks);
            let chunk = Arc::make_mut(&mut spine[idx]);
            let tail = chunk.split_off(chunk.len() / 2);
            spine.insert(idx + 1, Arc::new(tail));
        }
        prev
    }

    /// Whether `o` is bound.
    pub fn contains(&self, o: Oid) -> bool {
        self.get(o).is_some()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates bindings in oid order.
    pub fn iter(&self) -> impl Iterator<Item = (Oid, &Object)> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter().map(|(o, obj)| (*o, obj)))
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

    /// Number of chunks in the spine — what a clone shares, and the unit
    /// the snapshot telemetry counts in.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Cumulative count of chunks this environment has had to copy
    /// because a writer touched a chunk shared with a snapshot.
    /// Telemetry only; excluded from equality.
    pub fn cow_copied_chunks(&self) -> u64 {
        self.cow_copied
    }
}

/// The member oids of one extent: a sorted, chunked, copy-on-write oid
/// set with the same sharing discipline as [`ObjectEnv`].
#[derive(Clone, Debug, Default)]
pub struct MemberSet {
    chunks: Arc<Vec<Arc<Vec<Oid>>>>,
    len: usize,
    cow_copied: u64,
}

/// Semantic equality: the oids, in order. Layout and counters excluded.
impl PartialEq for MemberSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for MemberSet {}

impl MemberSet {
    /// An empty member set.
    pub fn new() -> Self {
        Self::default()
    }

    fn route(&self, o: Oid) -> Option<usize> {
        let idx = self.chunks.partition_point(|c| match c.last() {
            Some(max) => *max < o,
            None => true,
        });
        (idx < self.chunks.len()).then_some(idx)
    }

    /// Adds `o`; returns whether it was newly inserted.
    fn insert(&mut self, o: Oid) -> bool {
        let route = self.route(o);
        // Spine first, then the chunk's count — see `ObjectEnv::chunk_mut`.
        let spine = Arc::make_mut(&mut self.chunks);
        let idx = route.unwrap_or_else(|| {
            if spine.is_empty() {
                spine.push(Arc::new(Vec::with_capacity(MEM_CHUNK)));
            }
            spine.len() - 1
        });
        if Arc::strong_count(&spine[idx]) > 1 {
            self.cow_copied += 1;
        }
        let chunk = Arc::make_mut(&mut spine[idx]);
        let inserted = match chunk.binary_search(&o) {
            Ok(_) => false,
            Err(slot) => {
                chunk.insert(slot, o);
                self.len += 1;
                true
            }
        };
        if chunk.len() >= MEM_CHUNK * 2 {
            let tail = chunk.split_off(chunk.len() / 2);
            spine.insert(idx + 1, Arc::new(tail));
        }
        inserted
    }

    /// Whether `o` is a member.
    pub fn contains(&self, o: &Oid) -> bool {
        match self.route(*o) {
            Some(idx) => self.chunks[idx].binary_search(o).is_ok(),
            None => false,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates members in oid order.
    pub fn iter(&self) -> MemberIter<'_> {
        MemberIter {
            outer: self.chunks.iter(),
            inner: [].iter(),
        }
    }

    /// The raw chunk spine, in oid order — the plan executor's chunked
    /// `ExtentScan` drains these directly instead of re-chunking a
    /// cloned set.
    pub fn chunks(&self) -> &[Arc<Vec<Oid>>] {
        &self.chunks
    }

    /// Number of chunks in the spine.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Cumulative copied-chunk count (telemetry only).
    pub fn cow_copied_chunks(&self) -> u64 {
        self.cow_copied
    }
}

/// Iterator over a [`MemberSet`] in oid order.
pub struct MemberIter<'a> {
    outer: std::slice::Iter<'a, Arc<Vec<Oid>>>,
    inner: std::slice::Iter<'a, Oid>,
}

impl<'a> Iterator for MemberIter<'a> {
    type Item = &'a Oid;

    fn next(&mut self) -> Option<&'a Oid> {
        loop {
            if let Some(o) = self.inner.next() {
                return Some(o);
            }
            self.inner = self.outer.next()?.iter();
        }
    }
}

impl<'a> IntoIterator for &'a MemberSet {
    type Item = &'a Oid;
    type IntoIter = MemberIter<'a>;

    fn into_iter(self) -> MemberIter<'a> {
        self.iter()
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
}
