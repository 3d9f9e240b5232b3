//! Unified error type for the end-to-end pipeline.

use std::fmt;

/// Anything that can go wrong between source text and a value.
#[derive(Clone, Debug)]
pub enum DbError {
    /// Lexing/parsing failed.
    Parse(ioql_syntax::ParseError),
    /// The schema violated a well-formedness condition (paper §2).
    Schema(ioql_schema::SchemaError),
    /// A method body failed its type check.
    MethodType(ioql_methods::MethodTypeError),
    /// The query/program failed the Figure 1 type system.
    Type(ioql_types::TypeError),
    /// The query/program failed the Figure 3 effect system (or a
    /// `⊢'`/`⊢''` discipline).
    Effect(ioql_effects::EffectError),
    /// Evaluation failed (stuck / diverged / fuel).
    Eval(ioql_eval::EvalError),
    /// A store dump could not be parsed or validated.
    Dump(ioql_store::DumpError),
    /// The write-ahead log could not be parsed, replayed, or appended
    /// to (see `ioql_store::wal`).
    Wal(ioql_store::WalError),
    /// An I/O operation (saving/loading a dump file) failed.
    Io(String),
    /// A `:` command line named no command, or its argument was not one
    /// the command takes (see `DbKernel::admin`).
    Command(String),
    /// An engine bug: evaluation panicked. The panic is contained by
    /// `Database::query_with` and the store rolled back to its
    /// pre-query snapshot, so the database stays usable.
    Internal(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(e) => write!(f, "{e}"),
            DbError::Schema(e) => write!(f, "schema error: {e}"),
            DbError::MethodType(e) => write!(f, "method error: {e}"),
            DbError::Type(e) => write!(f, "type error: {e}"),
            DbError::Effect(e) => write!(f, "effect error: {e}"),
            DbError::Eval(e) => write!(f, "evaluation error: {e}"),
            DbError::Dump(e) => write!(f, "{e}"),
            DbError::Wal(e) => write!(f, "{e}"),
            DbError::Io(msg) => write!(f, "io error: {msg}"),
            DbError::Command(msg) => write!(f, "{msg}"),
            DbError::Internal(msg) => write!(f, "internal error (engine bug): {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ioql_syntax::ParseError> for DbError {
    fn from(e: ioql_syntax::ParseError) -> Self {
        DbError::Parse(e)
    }
}

impl From<ioql_schema::SchemaError> for DbError {
    fn from(e: ioql_schema::SchemaError) -> Self {
        DbError::Schema(e)
    }
}

impl From<ioql_methods::MethodTypeError> for DbError {
    fn from(e: ioql_methods::MethodTypeError) -> Self {
        DbError::MethodType(e)
    }
}

impl From<ioql_types::TypeError> for DbError {
    fn from(e: ioql_types::TypeError) -> Self {
        DbError::Type(e)
    }
}

impl From<ioql_effects::EffectError> for DbError {
    /// The fused front end reports Figure 1 violations through the effect
    /// judgement's error type; they are still type errors.
    fn from(e: ioql_effects::EffectError) -> Self {
        match e {
            ioql_effects::EffectError::Type(t) => DbError::Type(t),
            other => DbError::Effect(other),
        }
    }
}

impl From<ioql_eval::EvalError> for DbError {
    fn from(e: ioql_eval::EvalError) -> Self {
        DbError::Eval(e)
    }
}

impl From<ioql_store::DumpError> for DbError {
    fn from(e: ioql_store::DumpError) -> Self {
        DbError::Dump(e)
    }
}

impl From<ioql_store::WalError> for DbError {
    fn from(e: ioql_store::WalError) -> Self {
        DbError::Wal(e)
    }
}
