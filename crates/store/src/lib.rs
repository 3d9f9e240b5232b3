//! The object store — "essentially the heart of the database!" (paper
//! §3.3).
//!
//! Queries are evaluated against an **Extent Environment** `EE` (extent
//! name ↦ class name × set of oids) and an **Object Environment** `OE`
//! (oid ↦ runtime object `≪C, a₁: v₁, …, a_k: v_k≫`). This crate provides
//! those two environments, a combined [`Store`] with a monotone oid
//! allocator, and the *bijection equivalence* `∼` that Theorems 4, 7 and 8
//! are stated up to ("the bijection is necessary to handle the fresh oid
//! generation").

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod dump;
pub mod env;
pub mod equiv;
pub mod store;
pub mod wal;

pub use dump::{
    crc32, dump_store, load_store, load_store_file, save_store, write_atomic, DumpError,
    DumpErrorKind,
};
pub use env::{Attrs, ExtentEnv, MemberSet, Object, ObjectEnv};
pub use equiv::{equiv_outcomes, equiv_stores, Outcome};
pub use store::{Store, StoreError};
pub use wal::{Durability, Wal, WalError, WalErrorKind, WalPayload, WalRecord, WalSink};
