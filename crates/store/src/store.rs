//! The combined store: `EE` + `OE` + a fresh-oid source.

use crate::env::{ExtentEnv, Object, ObjectEnv};
use ioql_ast::{AttrName, ClassName, ExtentName, Oid, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Errors raised by direct store manipulation (population helpers). Query
/// evaluation proper cannot hit these on well-typed programs — that is the
/// progress theorem.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// The named extent is not declared.
    UnknownExtent(ExtentName),
    /// The oid is not bound in `OE`.
    UnknownOid(Oid),
    /// The object has no such attribute.
    UnknownAttr(Oid, AttrName),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownExtent(e) => write!(f, "unknown extent `{e}`"),
            StoreError::UnknownOid(o) => write!(f, "dangling oid {o}"),
            StoreError::UnknownAttr(o, a) => write!(f, "object {o} has no attribute `{a}`"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The mutable database state a query runs against: the extent and object
/// environments plus a monotone oid allocator.
///
/// [`Store`] is `Clone`; reduction-outcome exploration and the optimizer's
/// equivalence harness snapshot it freely. Since the environments are
/// chunked copy-on-write structures behind shared spines (see
/// [`crate::env`]), a clone bumps one pointer per environment —
/// `O(extents)`, not `O(n / CHUNK)`, let alone `O(n)` — which is what
/// lets the kernel take a snapshot on every admission without paying for
/// store size.
///
/// Every extent additionally carries a monotonic **version counter**,
/// bumped whenever the data reachable through that extent may have
/// changed: on [`Store::create`] (for each extent the object enters), on
/// [`Store::set_attr`] (for each extent containing the object), and —
/// via [`Store::bump_versions_from`] — when a whole store is replaced by
/// a dump load or a failure rollback. Version counters are *cache
/// metadata*, not semantic state: they are excluded from `PartialEq`, so
/// two stores holding the same objects compare equal regardless of their
/// mutation histories.
#[derive(Clone, Debug, Default)]
pub struct Store {
    /// The extent environment `EE`.
    pub extents: ExtentEnv,
    /// The object environment `OE`.
    pub objects: ObjectEnv,
    next_oid: u64,
    /// Shared with every clone until one of them writes.
    versions: Arc<BTreeMap<ExtentName, u64>>,
}

/// Semantic equality: extents, objects, and the oid allocator. Version
/// counters deliberately do not participate — they only describe *how
/// often* an extent changed, not what it holds.
impl PartialEq for Store {
    fn eq(&self, other: &Self) -> bool {
        self.extents == other.extents
            && self.objects == other.objects
            && self.next_oid == other.next_oid
    }
}

impl Eq for Store {}

impl Store {
    /// An empty store with no extents declared.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an extent (used by schema loading; one per class).
    pub fn declare_extent(&mut self, e: impl Into<ExtentName>, class: impl Into<ClassName>) {
        self.extents.declare(e, class);
    }

    /// Raises the allocator so every future fresh oid is ≥ `floor` —
    /// used when loading a dump that contains explicit oids.
    pub fn bump_oid_floor(&mut self, floor: u64) {
        self.next_oid = self.next_oid.max(floor);
    }

    /// The current version of extent `e` (0 for a never-mutated or
    /// undeclared extent). Monotonic within one store's lifetime; a cache
    /// entry keyed on `(query, version vector of its read set)` is valid
    /// exactly while every read extent still reports its recorded
    /// version.
    pub fn extent_version(&self, e: &ExtentName) -> u64 {
        self.versions.get(e).copied().unwrap_or(0)
    }

    /// Marks extent `e` as changed (its version moves forward).
    pub fn bump_version(&mut self, e: &ExtentName) {
        *Arc::make_mut(&mut self.versions)
            .entry(e.clone())
            .or_insert(0) += 1;
    }

    /// After replacing store *data* wholesale (a dump load installing a
    /// new store, or a failure rollback re-installing a snapshot), move
    /// every extent's version strictly past both histories: the new
    /// version is `max(self, prev) + 1` per extent. Monotonicity is what
    /// keeps stale cache entries from ever matching — a version number,
    /// once associated with one extent state, is never reused for
    /// another.
    pub fn bump_versions_from(&mut self, prev: &Store) {
        let mut names: BTreeSet<ExtentName> = self.versions.keys().cloned().collect();
        names.extend(prev.versions.keys().cloned());
        names.extend(self.extents.iter().map(|(e, _, _)| e.clone()));
        names.extend(prev.extents.iter().map(|(e, _, _)| e.clone()));
        for e in names {
            let v = self.extent_version(&e).max(prev.extent_version(&e));
            Arc::make_mut(&mut self.versions).insert(e, v + 1);
        }
    }

    /// Allocates a fresh oid — `fresh o ∉ dom(OE)` in the `(New)` rule.
    pub fn fresh_oid(&mut self) -> Oid {
        let o = Oid::from_raw(self.next_oid);
        self.next_oid += 1;
        o
    }

    /// The `(New)` rule's store update: binds a fresh oid to the object
    /// and inserts it into each of the given extents (the paper's rule
    /// uses exactly the object's class extent; the ODMG
    /// `inherited_extents` option passes the whole chain).
    pub fn create(
        &mut self,
        obj: Object,
        extents: impl IntoIterator<Item = ExtentName>,
    ) -> Result<Oid, StoreError> {
        let o = self.fresh_oid();
        debug_assert!(!self.objects.contains(o));
        self.objects.insert(o, obj);
        for e in extents {
            if !self.extents.add(&e, o) {
                return Err(StoreError::UnknownExtent(e));
            }
            self.bump_version(&e);
        }
        Ok(o)
    }

    /// Reads `OE(o).a` — the `(Attribute)` rule.
    pub fn attr(&self, o: Oid, a: &AttrName) -> Result<&Value, StoreError> {
        let obj = self.objects.get(o).ok_or(StoreError::UnknownOid(o))?;
        obj.attr(a)
            .ok_or_else(|| StoreError::UnknownAttr(o, a.clone()))
    }

    /// Updates `OE(o).a` — §5 extended (update) mode only. Bumps the
    /// version of every extent containing `o`: an attribute write changes
    /// the data reachable through those extents, so any cached result
    /// whose read set includes them must stop matching.
    pub fn set_attr(&mut self, o: Oid, a: &AttrName, v: Value) -> Result<(), StoreError> {
        let obj = self.objects.get_mut(o).ok_or(StoreError::UnknownOid(o))?;
        match obj.attrs.get_mut(a.as_str()) {
            Some(slot) => {
                *slot = v;
            }
            None => return Err(StoreError::UnknownAttr(o, a.clone())),
        }
        let touched: Vec<ExtentName> = self
            .extents
            .iter()
            .filter(|(_, _, members)| members.contains(&o))
            .map(|(e, _, _)| e.clone())
            .collect();
        for e in touched {
            self.bump_version(&e);
        }
        Ok(())
    }

    /// The dynamic class of `o`.
    pub fn class_of(&self, o: Oid) -> Result<&ClassName, StoreError> {
        self.objects
            .get(o)
            .map(|obj| &obj.class)
            .ok_or(StoreError::UnknownOid(o))
    }

    /// The members of extent `e` as a set value — the `(Extent)` rule.
    pub fn extent_value(&self, e: &ExtentName) -> Result<Value, StoreError> {
        let members = self
            .extents
            .members(e)
            .ok_or_else(|| StoreError::UnknownExtent(e.clone()))?;
        Ok(Value::Set(members.iter().map(|o| Value::Oid(*o)).collect()))
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Total chunks across the object spine and every extent's member
    /// spine — what a clone of this store shares, and what the snapshot
    /// telemetry reports as "shared" on each admission.
    pub fn chunk_count(&self) -> u64 {
        self.objects.chunk_count() + self.extents.chunk_count()
    }

    /// Cumulative count of chunks this store has had to copy because a
    /// writer touched a chunk shared with a live snapshot. Telemetry
    /// only — like extent versions, excluded from `PartialEq`.
    pub fn cow_copied_chunks(&self) -> u64 {
        self.objects.cow_copied_chunks() + self.extents.cow_copied_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Store {
        let mut s = Store::new();
        s.declare_extent("Ps", "P");
        s
    }

    #[test]
    fn fresh_oids_are_distinct() {
        let mut s = store();
        let a = s.fresh_oid();
        let b = s.fresh_oid();
        assert_ne!(a, b);
    }

    #[test]
    fn create_inserts_into_extent_and_objects() {
        let mut s = store();
        let o = s
            .create(
                Object::new("P", [("name", Value::Int(7))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        assert!(s.objects.contains(o));
        assert!(s
            .extents
            .members(&ExtentName::new("Ps"))
            .unwrap()
            .contains(&o));
        assert_eq!(s.attr(o, &AttrName::new("name")).unwrap(), &Value::Int(7));
        assert_eq!(s.class_of(o).unwrap(), &ClassName::new("P"));
    }

    #[test]
    fn create_into_unknown_extent_fails() {
        let mut s = store();
        let r = s.create(
            Object::new("Q", Vec::<(&str, Value)>::new()),
            [ExtentName::new("Qs")],
        );
        assert!(matches!(r, Err(StoreError::UnknownExtent(_))));
    }

    #[test]
    fn extent_value_is_a_set_of_oids() {
        let mut s = store();
        let o1 = s
            .create(
                Object::new("P", Vec::<(&str, Value)>::new()),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        let o2 = s
            .create(
                Object::new("P", Vec::<(&str, Value)>::new()),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        let v = s.extent_value(&ExtentName::new("Ps")).unwrap();
        assert_eq!(v, Value::set([Value::Oid(o1), Value::Oid(o2)]));
    }

    #[test]
    fn attr_errors() {
        let s = store();
        assert!(matches!(
            s.attr(Oid::from_raw(99), &AttrName::new("a")),
            Err(StoreError::UnknownOid(_))
        ));
    }

    #[test]
    fn set_attr_updates() {
        let mut s = store();
        let o = s
            .create(
                Object::new("P", [("name", Value::Int(1))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        s.set_attr(o, &AttrName::new("name"), Value::Int(2))
            .unwrap();
        assert_eq!(s.attr(o, &AttrName::new("name")).unwrap(), &Value::Int(2));
        assert!(matches!(
            s.set_attr(o, &AttrName::new("ghost"), Value::Int(0)),
            Err(StoreError::UnknownAttr(_, _))
        ));
    }

    #[test]
    fn create_bumps_only_touched_extent_versions() {
        let mut s = store();
        s.declare_extent("Qs", "Q");
        let e_ps = ExtentName::new("Ps");
        let e_qs = ExtentName::new("Qs");
        assert_eq!(s.extent_version(&e_ps), 0);
        s.create(
            Object::new("P", Vec::<(&str, Value)>::new()),
            [e_ps.clone()],
        )
        .unwrap();
        assert_eq!(s.extent_version(&e_ps), 1);
        assert_eq!(s.extent_version(&e_qs), 0);
    }

    #[test]
    fn set_attr_bumps_containing_extents() {
        let mut s = store();
        let o = s
            .create(
                Object::new("P", [("name", Value::Int(1))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        let v_after_create = s.extent_version(&ExtentName::new("Ps"));
        s.set_attr(o, &AttrName::new("name"), Value::Int(2))
            .unwrap();
        assert!(s.extent_version(&ExtentName::new("Ps")) > v_after_create);
    }

    #[test]
    fn versions_excluded_from_equality() {
        let mut a = store();
        let mut b = store();
        // Same final contents, different mutation histories.
        let o = a
            .create(
                Object::new("P", [("name", Value::Int(1))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        a.set_attr(o, &AttrName::new("name"), Value::Int(5))
            .unwrap();
        b.create(
            Object::new("P", [("name", Value::Int(5))]),
            [ExtentName::new("Ps")],
        )
        .unwrap();
        assert_ne!(
            a.extent_version(&ExtentName::new("Ps")),
            b.extent_version(&ExtentName::new("Ps"))
        );
        assert_eq!(a, b);
    }

    #[test]
    fn bump_versions_from_moves_past_both_histories() {
        let e = ExtentName::new("Ps");
        let mut old = store();
        for _ in 0..5 {
            old.create(Object::new("P", Vec::<(&str, Value)>::new()), [e.clone()])
                .unwrap();
        }
        // A freshly loaded replacement starts at version 0; adopting the
        // discarded store's history pushes strictly past it.
        let mut fresh = store();
        fresh.bump_versions_from(&old);
        assert!(fresh.extent_version(&e) > old.extent_version(&e));
        // And the other direction: rollback to an *older* snapshot must
        // also move forward, never back.
        let snap = store();
        let mut rolled = snap.clone();
        rolled.bump_versions_from(&old);
        assert!(rolled.extent_version(&e) > old.extent_version(&e));
    }

    /// A snapshot shares every chunk; a writer mutating after the
    /// snapshot copies only the chunks it touches, and the snapshot's
    /// view (values *and* extent membership) is frozen.
    #[test]
    fn snapshot_shares_chunks_until_a_writer_cows() {
        let mut s = store();
        let e = ExtentName::new("Ps");
        let mut first = None;
        for i in 0..1000i64 {
            let o = s
                .create(Object::new("P", [("age", Value::Int(i))]), [e.clone()])
                .unwrap();
            first.get_or_insert(o);
        }
        let snap = s.clone();
        assert_eq!(snap.chunk_count(), s.chunk_count());
        let copied_before = s.cow_copied_chunks();

        s.set_attr(first.unwrap(), &AttrName::new("age"), Value::Int(-1))
            .unwrap();
        s.create(Object::new("P", [("age", Value::Int(7))]), [e.clone()])
            .unwrap();

        // The writer copied a strict subset of the spine, not all of it.
        let copied = s.cow_copied_chunks() - copied_before;
        assert!(copied >= 1, "writer must have copied at least one chunk");
        assert!(
            copied < snap.chunk_count(),
            "COW must copy only touched chunks ({copied} of {})",
            snap.chunk_count()
        );
        // The snapshot is frozen: old value, old membership, old count.
        assert_eq!(
            snap.attr(first.unwrap(), &AttrName::new("age")).unwrap(),
            &Value::Int(0)
        );
        assert_eq!(snap.object_count(), 1000);
        assert_eq!(snap.extents.members(&e).unwrap().len(), 1000);
        assert_eq!(s.object_count(), 1001);
    }

    #[test]
    fn clone_is_a_snapshot() {
        let mut s = store();
        let snap = s.clone();
        s.create(
            Object::new("P", Vec::<(&str, Value)>::new()),
            [ExtentName::new("Ps")],
        )
        .unwrap();
        assert_eq!(snap.object_count(), 0);
        assert_eq!(s.object_count(), 1);
    }
}
