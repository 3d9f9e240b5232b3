//! Abstract syntax for IOQL, the Idealized Object Query Language of
//! Bierman, *Formal semantics and analysis of object queries* (SIGMOD 2003).
//!
//! This crate contains the *purely syntactic* artifacts shared by every
//! other crate in the workspace:
//!
//! * cheap-to-clone identifier newtypes ([`ident`]),
//! * the IOQL type grammar σ ([`types`]),
//! * object identifiers ([`oid`]),
//! * runtime values ([`value`]),
//! * the query and qualifier grammar of §3.1 ([`query`]),
//! * programs and query definitions ([`program`]),
//! * ODL-style class definitions and the method-language AST ([`class`],
//!   [`method`]),
//! * substitution of closed values for free variables ([`subst`]), and
//! * pretty-printing ([`pretty`]).
//!
//! Everything *semantic* — well-formedness, subtyping, typing, evaluation,
//! effects — lives in downstream crates (`ioql-schema`, `ioql-types`,
//! `ioql-eval`, `ioql-effects`, ...). Keeping the trees acyclically shared
//! here lets the schema reference method bodies without depending on the
//! method-language interpreter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod ident;
pub mod method;
pub mod oid;
pub mod pretty;
pub mod program;
pub mod query;
pub mod subst;
pub mod types;
pub mod value;

pub use class::{AttrDef, ClassDef};
pub use ident::{AttrName, ClassName, DefName, ExtentName, Label, MethodName, VarName};
pub use method::{MBinOp, MExpr, MStmt, MUnOp, MethodDef};
pub use oid::Oid;
pub use program::{Definition, Program};
pub use query::{IntOp, Qualifier, Query, SetOp};
pub use types::{FnType, Type};
pub use value::{SetVal, Value};
