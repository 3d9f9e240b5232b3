//! The method language.
//!
//! The paper attaches methods to classes but deliberately keeps the method
//! language abstract: all the query semantics needs is a deterministic
//! big-step relation `⇓` (read-only mode, §3.3) or
//! `EE, OE, code ⇓ EE', OE', result` (extended mode, §5), and the paper
//! defers to "a valid fragment of Java" in its extended version. We build
//! that fragment: a small imperative, class-aware language with locals,
//! conditionals, `while` loops (hence genuine potential non-termination —
//! the `loop()` example of §1), attribute reads, method calls, and — in
//! *extended* mode only — attribute updates, `new`, and extent iteration.
//!
//! Expression types are restricted to the data-model types φ (paper Note 1:
//! class-definition types must be representable in the method language), so
//! methods cannot mention `set(σ)`. Reading an extent is instead provided
//! as a `for (x in e) { … }` *statement*, which keeps expression types
//! within φ while still exercising the `R(C)` effect.
//!
//! This module holds only the AST; the type checker, effect analysis, and
//! big-step evaluator live in `ioql-methods`.

use crate::ident::{AttrName, ClassName, ExtentName, MethodName, VarName};
use crate::types::Type;

/// Binary operators of the method language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MBinOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer equality.
    EqInt,
    /// Object identity.
    EqObj,
    /// Boolean conjunction (strict).
    And,
    /// Boolean disjunction (strict).
    Or,
}

impl MBinOp {
    /// Whether the operator's result type is `bool`.
    pub fn yields_bool(self) -> bool {
        !matches!(self, MBinOp::Add | MBinOp::Sub | MBinOp::Mul)
    }
}

/// Unary operators of the method language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MUnOp {
    /// Boolean negation.
    Not,
    /// Integer negation.
    Neg,
}

/// A method-language expression. All expressions are *pure* (even in
/// extended mode, side effects are confined to statements), which keeps the
/// big-step evaluator simple and evaluation order irrelevant within an
/// expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// A local variable or parameter.
    Var(VarName),
    /// The receiver `this`.
    This,
    /// Attribute read `e.a`.
    Attr(Box<MExpr>, AttrName),
    /// Method call `e.m(args)` (dynamic dispatch on the receiver's class).
    Call(Box<MExpr>, MethodName, Vec<MExpr>),
    /// Binary operation.
    Bin(MBinOp, Box<MExpr>, Box<MExpr>),
    /// Unary operation.
    Un(MUnOp, Box<MExpr>),
}

impl MExpr {
    /// Attribute read helper.
    pub fn attr(self, a: impl Into<AttrName>) -> MExpr {
        MExpr::Attr(Box::new(self), a.into())
    }

    /// Method call helper.
    pub fn call(self, m: impl Into<MethodName>, args: impl IntoIterator<Item = MExpr>) -> MExpr {
        MExpr::Call(Box::new(self), m.into(), args.into_iter().collect())
    }

    /// Binary operation helper.
    pub fn bin(op: MBinOp, a: MExpr, b: MExpr) -> MExpr {
        MExpr::Bin(op, Box::new(a), Box::new(b))
    }

    /// `this.a`.
    pub fn this_attr(a: impl Into<AttrName>) -> MExpr {
        MExpr::This.attr(a)
    }
}

/// A method-language statement.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum MStmt {
    /// Local declaration `φ x = e;`.
    Local(VarName, Type, MExpr),
    /// Assignment to a local `x = e;`.
    Assign(VarName, MExpr),
    /// Attribute update `e.a = e';` — **extended mode only** (§5: methods
    /// that "update" the database). Rejected by the read-only checker.
    SetAttr(MExpr, AttrName, MExpr),
    /// Conditional.
    If(MExpr, Vec<MStmt>, Vec<MStmt>),
    /// Loop — the source of potential non-termination (§1's `loop()`).
    While(MExpr, Vec<MStmt>),
    /// Extent iteration `for (x in e) { … }` — **extended mode only**
    /// (reads the extent, effect `R(C)`). Iteration order over the extent
    /// is by oid, which is deterministic for a fixed store — `⇓` must be
    /// deterministic (paper §3.3).
    ForExtent(VarName, ExtentName, Vec<MStmt>),
    /// Object creation bound to a fresh local,
    /// `C x = new C(a₀: e₀, …);` — **extended mode only** (effect `A(C)`).
    NewLocal(VarName, ClassName, Vec<(AttrName, MExpr)>),
    /// `return e;`.
    Return(MExpr),
}

/// A method definition `φ m (φ₀ x₀, …, φ_m x_m) { body }` (paper §2).
///
/// The paper's grammar gives only the *signature*; bodies are supplied by
/// the method language. A `None` body models a signature-only declaration
/// (useful for schema-level tests); invoking it is a runtime error that the
/// well-formedness checker prevents for executable schemas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MethodDef {
    /// The method name.
    pub name: MethodName,
    /// Typed parameters (types restricted to φ, checked by the schema).
    pub params: Vec<(VarName, Type)>,
    /// Return type (restricted to φ).
    pub ret: Type,
    /// The body, a statement sequence ending (on every path) in `return`.
    pub body: Vec<MStmt>,
}

impl MethodDef {
    /// Builds a method definition.
    pub fn new(
        name: impl Into<MethodName>,
        params: impl IntoIterator<Item = (VarName, Type)>,
        ret: Type,
        body: Vec<MStmt>,
    ) -> Self {
        MethodDef {
            name: name.into(),
            params: params.into_iter().collect(),
            ret,
            body,
        }
    }

    /// The paper's `loop` method: `while (true) {}` — never returns.
    /// Used throughout the test suite to exercise non-termination.
    pub fn looping(name: impl Into<MethodName>, ret: Type) -> Self {
        MethodDef::new(name, [], ret, vec![MStmt::While(MExpr::Bool(true), vec![])])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looping_method_shape() {
        let m = MethodDef::looping("loop", Type::Int);
        assert_eq!(m.body.len(), 1);
        assert!(matches!(m.body[0], MStmt::While(MExpr::Bool(true), _)));
    }

    #[test]
    fn op_result_kinds() {
        assert!(MBinOp::Lt.yields_bool());
        assert!(MBinOp::And.yields_bool());
        assert!(!MBinOp::Add.yields_bool());
    }
}
