//! The IOQL type grammar (paper §3.2).
//!
//! ```text
//! σ ::= φ | set(σ) | ⟨l₁: σ₁, …, l_k: σ_k⟩
//! φ ::= int | bool | C
//! ```
//!
//! We additionally include an *internal* least type [`Type::Bottom`], used
//! only to type the empty set literal `{}` as `set(⊥)` (with `⊥ ≤ σ` for
//! every σ). The paper leaves the typing of `{}` implicit; making the least
//! type explicit keeps the subtype lattice well-behaved and never leaks
//! into surface syntax. See `ioql-types` for the subtyping relation itself
//! (it needs the schema's `extends` relation, which is semantic).

use crate::ident::{ClassName, Label};
use std::collections::BTreeMap;
use std::fmt;

/// An IOQL type σ.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Type {
    /// The primitive type of integers.
    Int,
    /// The primitive type of booleans.
    Bool,
    /// A class type `C`. Values are object identifiers of objects whose
    /// dynamic class is `C` or a subclass of `C`.
    Class(ClassName),
    /// The homogeneous collection type `set(σ)`.
    Set(Box<Type>),
    /// A record type `⟨l₁: σ₁, …, l_k: σ_k⟩`. Labels are kept sorted
    /// (records are unordered in the paper: two record types with the same
    /// label–type associations are equal).
    Record(BTreeMap<Label, Type>),
    /// The internal least type `⊥`, subtype of every type. Only produced
    /// when typing the empty set literal; never written by users.
    Bottom,
}

impl Type {
    /// Builds a `set(σ)` type.
    pub fn set(elem: Type) -> Type {
        Type::Set(Box::new(elem))
    }

    /// Builds a class type from anything name-like.
    pub fn class(name: impl Into<ClassName>) -> Type {
        Type::Class(name.into())
    }

    /// Builds a record type from label/type pairs. Later duplicates of a
    /// label overwrite earlier ones, mirroring map insertion; the
    /// well-formedness checker rejects duplicate labels before this matters.
    pub fn record<L: Into<Label>>(fields: impl IntoIterator<Item = (L, Type)>) -> Type {
        Type::Record(fields.into_iter().map(|(l, t)| (l.into(), t)).collect())
    }

    /// The `set(⊥)` type of the empty set literal.
    pub fn empty_set() -> Type {
        Type::set(Type::Bottom)
    }

    /// Whether this is a φ type of the *data model* (paper §2: class
    /// definitions may only mention `int`, `bool` and class names, so that
    /// attribute and method types can be represented precisely in the
    /// method language — paper Note 1).
    pub fn is_data_model_type(&self) -> bool {
        matches!(self, Type::Int | Type::Bool | Type::Class(_))
    }

    /// Whether the type mentions `⊥` anywhere. Useful for asserting that
    /// surface-visible results are ⊥-free.
    pub fn mentions_bottom(&self) -> bool {
        match self {
            Type::Bottom => true,
            Type::Int | Type::Bool | Type::Class(_) => false,
            Type::Set(t) => t.mentions_bottom(),
            Type::Record(fs) => fs.values().any(Type::mentions_bottom),
        }
    }

    /// The element type if this is a set type.
    pub fn as_set_elem(&self) -> Option<&Type> {
        match self {
            Type::Set(t) => Some(t),
            _ => None,
        }
    }

    /// Structural size of the type (number of grammar nodes). Used by the
    /// generators in `ioql-testkit` to bound recursion.
    pub fn size(&self) -> usize {
        match self {
            Type::Int | Type::Bool | Type::Class(_) | Type::Bottom => 1,
            Type::Set(t) => 1 + t.size(),
            Type::Record(fs) => 1 + fs.values().map(Type::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Class(c) => write!(f, "{c}"),
            Type::Set(t) => write!(f, "set({t})"),
            Type::Record(fs) => {
                write!(f, "<")?;
                for (i, (l, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}: {t}")?;
                }
                write!(f, ">")
            }
            Type::Bottom => write!(f, "_|_"),
        }
    }
}

/// A function type `σ₀, …, σ_k → σ'`, used for query definitions and
/// methods (paper §3.2). The *latent effect* annotation of §4 is layered on
/// in `ioql-effects`; the plain type system ignores it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct FnType {
    /// Parameter types, in declaration order.
    pub params: Vec<Type>,
    /// Result type.
    pub result: Type,
}

impl FnType {
    /// Builds a function type.
    pub fn new(params: Vec<Type>, result: Type) -> Self {
        FnType { params, result }
    }
}

impl fmt::Display for FnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ") -> {}", self.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::set(Type::Bool).to_string(), "set(bool)");
        assert_eq!(Type::class("Person").to_string(), "Person");
        let r = Type::record([("age", Type::Int), ("name", Type::class("Name"))]);
        assert_eq!(r.to_string(), "<age: int, name: Name>");
    }

    #[test]
    fn record_labels_are_unordered() {
        let a = Type::record([("x", Type::Int), ("y", Type::Bool)]);
        let b = Type::record([("y", Type::Bool), ("x", Type::Int)]);
        assert_eq!(a, b);
    }

    #[test]
    fn data_model_types() {
        assert!(Type::Int.is_data_model_type());
        assert!(Type::class("C").is_data_model_type());
        assert!(!Type::set(Type::Int).is_data_model_type());
        assert!(!Type::record([("l", Type::Int)]).is_data_model_type());
        assert!(!Type::Bottom.is_data_model_type());
    }

    #[test]
    fn bottom_detection() {
        assert!(Type::empty_set().mentions_bottom());
        assert!(!Type::set(Type::Int).mentions_bottom());
        assert!(Type::record([("l", Type::empty_set())]).mentions_bottom());
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Type::Int.size(), 1);
        assert_eq!(Type::set(Type::set(Type::Int)).size(), 3);
        assert_eq!(
            Type::record([("a", Type::Int), ("b", Type::Bool)]).size(),
            3
        );
    }

    #[test]
    fn fn_type_display() {
        let t = FnType::new(vec![Type::Int, Type::Bool], Type::set(Type::Int));
        assert_eq!(t.to_string(), "(int, bool) -> set(int)");
    }
}
