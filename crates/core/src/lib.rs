//! # IOQL — an executable formal semantics of object queries
//!
//! A from-scratch Rust reproduction of G.M. Bierman, *Formal semantics
//! and analysis of object queries* (SIGMOD 2003): the Idealized Object
//! Query Language **IOQL**, its type system (Figure 1), its small-step
//! non-deterministic operational semantics (Figure 2), its effect system
//! (Figure 3) with the instrumented semantics (Figure 4), the `⊢'`
//! determinism and `⊢''` safe-commutation disciplines, a Java-like method
//! language (read-only §3 and extended §5 modes), and an effect-guided
//! query optimizer.
//!
//! This crate is the *facade*: [`Database`] wires the subsystem crates
//! into an end-to-end pipeline —
//!
//! ```text
//! DDL text ─ ioql-syntax ─▶ ClassDefs ─ ioql-schema ─▶ Schema (+ method checks)
//! query text ─ parse ─▶ resolve extents ─▶ elaborate/type (Fig 1)
//!            ─▶ effect inference (Fig 3, ⊢/⊢'/⊢'') ─▶ optimize ─▶ lower ─▶ execute
//! ```
//!
//! That is production, the default. [`Engine::SmallStep`] is the
//! executable specification: the Figure 2/4 machine on the elaborated
//! query as written, with nothing after effect inference in between.
//!
//! ## Quick start
//!
//! ```
//! use ioql::Database;
//!
//! let mut db = Database::from_ddl(
//!     "class Point extends Object (extent Points) {
//!          attribute int x;
//!          attribute int y;
//!      }",
//! )
//! .unwrap();
//!
//! // Populate through the query language itself.
//! db.query("{ new Point(x: n, y: n * n) | n <- {1, 2, 3} }").unwrap();
//!
//! // Query it back.
//! let r = db.query("{ p.y | p <- Points, p.x < 3 }").unwrap();
//! assert_eq!(r.value.to_string(), "{1, 4}");
//!
//! // Static analysis: the query only reads Points.
//! let a = db.analyze("{ p.x | p <- Points }").unwrap();
//! assert_eq!(a.effect.to_string(), "R(Point), Ra(Point)");
//! assert!(a.deterministic);
//! ```

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

mod admin;
pub mod analysis;
pub mod cache;
pub mod database;
pub mod durable;
pub mod error;
pub mod kernel;
pub mod obs;
pub mod sched;
pub mod server;
pub mod statements;

pub use admin::HELP;
pub use analysis::{Analysis, CommutationVerdict};
pub use cache::CacheStats;
pub use database::{Database, DbMetrics, DbOptions, Engine, QueryResult, Session, StoreRef};
pub use durable::{RecoveryReport, SinkFactory, WalStatus};
pub use error::DbError;
pub use kernel::{DbKernel, Prepared};
pub use obs::ObsHandle;
pub use sched::{Admitted, SchedMetrics};
pub use server::{Client, Frame, ServerHandle};

// Re-export the subsystem crates under stable names so downstream users
// need only one dependency.
pub use ioql_ast as ast;
pub use ioql_effects as effects;
pub use ioql_eval as eval;
pub use ioql_methods as methods;
pub use ioql_opt as opt;
pub use ioql_plan as plan;
pub use ioql_schema as schema;
pub use ioql_store as store;
pub use ioql_syntax as syntax;
pub use ioql_telemetry as telemetry;
pub use ioql_types as types;

pub use ioql_ast::{Program, Query, Type, Value};
pub use ioql_effects::{Discipline, Effect, Thm7};
pub use ioql_eval::{
    CancelToken, Chooser, EvalError, FirstChooser, Governor, LastChooser, Limits, RandomChooser,
    ResourceKind, ScriptedChooser,
};
pub use ioql_methods::Mode;
pub use ioql_store::{Durability, WalError, WalErrorKind};
pub use ioql_telemetry::{FlightRecorder, TraceRecord, TraceSpan};
