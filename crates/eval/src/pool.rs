//! A generator's draw pool: the elements it has left to draw, in
//! canonical order.
//!
//! `(ND comp)` draws from "the generator set" itself (§3.3), and both
//! kinds of source are already shared, immutable, sorted sequences: a set
//! value's member slice ([`SetVal`]) and an extent's member spine
//! ([`MemberSet`], a clone of which is one reference count, and which
//! later writes copy-on-write around). So a pool does not copy its
//! source: it is a cursor over it, and the picks the deterministic
//! choosers make — the front, or the back — move the cursor in O(1).
//! Only the first interior pick, which only the random and scripted
//! choosers make, copies what remains into a `VecDeque`, which then
//! serves every later pick of the drain.
//!
//! A pool drawn from an extent keeps the members it was built from: a
//! writer that creates objects in the extent it scans draws exactly the
//! members that were there when the scan read it.

use ioql_ast::{Oid, SetVal, Value};
use ioql_store::MemberSet;
use std::borrow::Cow;
use std::collections::VecDeque;

/// The elements a generator has left to draw (see the module docs).
#[derive(Debug)]
pub struct Pool(Left);

#[derive(Debug)]
enum Left {
    /// `set[lo..hi]`.
    Set { set: SetVal, lo: usize, hi: usize },
    /// An extent's members from `front` up to `back`.
    Extent(Members),
    /// What remained at the first interior pick.
    Copied(VecDeque<Value>),
}

/// A cursor over an extent's member spine: `front` is the chunk and
/// offset of the first member left, `back` the chunk and offset one past
/// the last.
#[derive(Debug)]
struct Members {
    members: MemberSet,
    front: (usize, usize),
    back: (usize, usize),
    len: usize,
}

impl Members {
    fn chunk(&self, c: usize) -> &[Oid] {
        &self.members.chunks()[c]
    }

    /// The members left, chunk by chunk.
    fn parts(&self) -> impl Iterator<Item = &[Oid]> + '_ {
        let last = if self.len == 0 { 0 } else { self.back.0 + 1 };
        (self.front.0..last).map(move |c| {
            let chunk = self.chunk(c);
            let lo = if c == self.front.0 { self.front.1 } else { 0 };
            let hi = if c == self.back.0 {
                self.back.1
            } else {
                chunk.len()
            };
            &chunk[lo..hi]
        })
    }

    fn front(&self) -> Option<Oid> {
        (self.len > 0).then(|| self.chunk(self.front.0)[self.front.1])
    }

    /// Drops the first `k ≤ len` members left.
    fn advance(&mut self, mut k: usize) {
        self.len -= k;
        while k > 0 {
            let (c, at) = self.front;
            let avail = self.chunk(c).len() - at;
            if k < avail {
                self.front = (c, at + k);
                k = 0;
            } else {
                self.front = (c + 1, 0);
                k -= avail;
            }
        }
    }

    fn pop_front(&mut self) -> Option<Oid> {
        let o = self.front()?;
        self.advance(1);
        Some(o)
    }

    fn pop_back(&mut self) -> Option<Oid> {
        if self.len == 0 {
            return None;
        }
        let (c, end) = self.back;
        let o = self.chunk(c)[end - 1];
        self.len -= 1;
        self.back = if end > 1 || c == 0 {
            (c, end - 1)
        } else {
            (c - 1, self.chunk(c - 1).len())
        };
        Some(o)
    }
}

impl Pool {
    /// A pool over a set value's members.
    pub fn of_set(set: SetVal) -> Pool {
        let hi = set.len();
        Pool(Left::Set { set, lo: 0, hi })
    }

    /// A pool over an extent's members, held by a clone of its spine.
    pub fn of_extent(members: &MemberSet) -> Pool {
        let chunks = members.chunks();
        let back = match chunks.last() {
            Some(last) => (chunks.len() - 1, last.len()),
            None => (0, 0),
        };
        Pool(Left::Extent(Members {
            members: members.clone(),
            front: (0, 0),
            back,
            len: members.len(),
        }))
    }

    /// How many elements are left.
    pub fn len(&self) -> usize {
        match &self.0 {
            Left::Set { lo, hi, .. } => hi - lo,
            Left::Extent(left) => left.len,
            Left::Copied(left) => left.len(),
        }
    }

    /// Whether every element has been drawn.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first element left.
    pub fn front(&self) -> Option<Cow<'_, Value>> {
        match &self.0 {
            Left::Set { set, lo, hi } => set[*lo..*hi].first().map(Cow::Borrowed),
            Left::Extent(left) => left.front().map(|o| Cow::Owned(Value::Oid(o))),
            Left::Copied(left) => left.front().map(Cow::Borrowed),
        }
    }

    /// Takes the element at index `i` of those left: the front and the
    /// back in O(1), any other after copying what is left, once.
    pub fn take(&mut self, i: usize) -> Option<Value> {
        let n = self.len();
        if i >= n {
            return None;
        }
        match &mut self.0 {
            Left::Set { set, lo, .. } if i == 0 => {
                *lo += 1;
                Some(set[*lo - 1].clone())
            }
            Left::Set { set, hi, .. } if i + 1 == n => {
                *hi -= 1;
                Some(set[*hi].clone())
            }
            Left::Extent(left) if i == 0 => left.pop_front().map(Value::Oid),
            Left::Extent(left) if i + 1 == n => left.pop_back().map(Value::Oid),
            Left::Copied(left) => left.remove(i),
            _ => {
                let mut left: VecDeque<Value> = self.iter().collect();
                let picked = left.remove(i);
                self.0 = Left::Copied(left);
                picked
            }
        }
    }

    /// Drops the first `k ≤ len` elements left.
    pub fn skip(&mut self, k: usize) {
        match &mut self.0 {
            Left::Set { lo, .. } => *lo += k,
            Left::Extent(left) => left.advance(k),
            Left::Copied(left) => {
                left.drain(..k);
            }
        }
    }

    /// How many elements at the front satisfy `pred` — which must hold
    /// of a prefix of the elements left and fail on the rest, as on a
    /// sorted slice.
    pub fn partition_point(&self, mut pred: impl FnMut(&Value) -> bool) -> usize {
        match &self.0 {
            Left::Set { set, lo, hi } => set[*lo..*hi].partition_point(pred),
            Left::Extent(left) => {
                let mut count = 0;
                for part in left.parts() {
                    let p = part.partition_point(|o| pred(&Value::Oid(*o)));
                    count += p;
                    if p < part.len() {
                        break;
                    }
                }
                count
            }
            Left::Copied(left) => left.partition_point(pred),
        }
    }

    /// The elements left, in order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Value> + '_> {
        match &self.0 {
            Left::Set { set, lo, hi } => Box::new(set[*lo..*hi].iter().cloned()),
            Left::Extent(left) => Box::new(
                left.parts()
                    .flat_map(|part| part.iter().map(|o| Value::Oid(*o))),
            ),
            Left::Copied(left) => Box::new(left.iter().cloned()),
        }
    }
}
