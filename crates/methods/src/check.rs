//! The method-language type checker — the one static pass over a
//! method body.
//!
//! Expression types are restricted to the data-model types φ (paper
//! Note 1), already enforced on *signatures* by the schema; this module
//! checks *bodies*: scoping, types, definite return, and — under
//! [`Mode::ReadOnly`] — the absence of the §5 extended constructs.
//!
//! The same walk derives each body's latent effect `ε''`, the "methods
//! have also been typed using an effects system" the paper's (Method)
//! rule assumes (§4): every construct adds its atom as it is typed, and
//! a call adds its callee's latent effect through
//! [`MethodEffects::effect_of`], which accounts for dynamic dispatch.
//! [`check_schema_methods`] repeats the walk until the table stops
//! changing, so (mutually) recursive methods reach a fixpoint. In
//! read-only mode the extent atoms are unreachable and every entry holds
//! only `Ra` atoms — the paper's "the value of ε'' will always be ∅" for
//! the database.

use crate::error::MethodTypeError;
use ioql_ast::{
    AttrName, ClassName, MBinOp, MExpr, MStmt, MUnOp, MethodDef, MethodName, Type, VarName,
};
use ioql_effects::{Effect, MethodEffects};
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// Which design point of §5 the database grants its methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// The paper's core discipline (§2/§3): methods are read-only — they
    /// may read attributes and call other methods, but may not touch the
    /// extent or object environments.
    ReadOnly,
    /// §5's extreme point: methods may read extents, create objects, and
    /// update attributes; the `(Method)` reduction rule then threads
    /// `EE`/`OE` through the call.
    Extended,
}

struct Ck<'s> {
    schema: &'s Schema,
    /// The latent effects derived so far; a call reads its callee's here.
    table: &'s MethodEffects,
    class: ClassName,
    method: MethodName,
    mode: Mode,
    /// Scope stack of local frames; index 0 holds the parameters.
    scopes: Vec<BTreeMap<VarName, Type>>,
    /// The body's latent effect, grown as each construct is typed.
    effect: Effect,
}

impl Ck<'_> {
    fn lookup(&self, x: &VarName) -> Result<&Type, MethodTypeError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|frame| frame.get(x))
            .ok_or_else(|| {
                MethodTypeError::Unbound(self.class.clone(), self.method.clone(), x.clone())
            })
    }

    fn declare(&mut self, x: &VarName, t: Type) -> Result<(), MethodTypeError> {
        if self.scopes.iter().any(|frame| frame.contains_key(x)) {
            return Err(MethodTypeError::Shadowing(
                self.class.clone(),
                self.method.clone(),
                x.clone(),
            ));
        }
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(x.clone(), t);
        Ok(())
    }

    fn mismatch(&self, expected: impl Into<String>, got: &Type) -> MethodTypeError {
        MethodTypeError::Mismatch {
            class: self.class.clone(),
            method: self.method.clone(),
            expected: expected.into(),
            got: got.clone(),
        }
    }

    /// `got` must be exactly `want` (`int` or `bool`).
    fn exactly(&self, got: &Type, want: Type) -> Result<Type, MethodTypeError> {
        if *got != want {
            return Err(self.mismatch(want.to_string(), got));
        }
        Ok(want)
    }

    /// `got` must be a class type; returns the class.
    fn object(&self, got: Type) -> Result<ClassName, MethodTypeError> {
        match got {
            Type::Class(c) => Ok(c),
            other => Err(self.mismatch("an object", &other)),
        }
    }

    /// Types `e` and requires a subtype of `want`.
    fn subtype(&mut self, e: &MExpr, want: &Type) -> Result<(), MethodTypeError> {
        let got = self.expr(e)?;
        if !self.schema.subtype(&got, want) {
            return Err(self.mismatch(format!("a subtype of `{want}`"), &got));
        }
        Ok(())
    }

    /// Types `e` and requires a class type: the static receiver class.
    fn receiver(&mut self, e: &MExpr) -> Result<ClassName, MethodTypeError> {
        let t = self.expr(e)?;
        self.object(t)
    }

    fn expr(&mut self, e: &MExpr) -> Result<Type, MethodTypeError> {
        match e {
            MExpr::Int(_) => Ok(Type::Int),
            MExpr::Bool(_) => Ok(Type::Bool),
            MExpr::This => Ok(Type::Class(self.class.clone())),
            MExpr::Var(x) => self.lookup(x).cloned(),
            MExpr::Attr(recv, a) => {
                let c = self.receiver(recv)?;
                self.effect.attr_reads.insert(c.clone());
                self.schema
                    .atype(&c, a)
                    .cloned()
                    .ok_or_else(|| MethodTypeError::UnknownAttr(c, a.clone()))
            }
            MExpr::Call(recv, m, args) => {
                let c = self.receiver(recv)?;
                let fnty = self
                    .schema
                    .mtype(&c, m)
                    .ok_or_else(|| MethodTypeError::UnknownMethod(c.clone(), m.clone()))?;
                if fnty.params.len() != args.len() {
                    return Err(MethodTypeError::Arity {
                        class: self.class.clone(),
                        method: self.method.clone(),
                        callee: m.clone(),
                    });
                }
                for (arg, want) in args.iter().zip(&fnty.params) {
                    self.subtype(arg, want)?;
                }
                self.effect
                    .union_with(&self.table.effect_of(self.schema, &c, m));
                Ok(fnty.result)
            }
            MExpr::Bin(op, a, b) => {
                let (ta, tb) = (self.expr(a)?, self.expr(b)?);
                let operand = match op {
                    MBinOp::Add
                    | MBinOp::Sub
                    | MBinOp::Mul
                    | MBinOp::Lt
                    | MBinOp::Le
                    | MBinOp::EqInt => Type::Int,
                    MBinOp::And | MBinOp::Or => Type::Bool,
                    MBinOp::EqObj => {
                        self.object(ta)?;
                        self.object(tb)?;
                        return Ok(Type::Bool);
                    }
                };
                self.exactly(&ta, operand.clone())?;
                self.exactly(&tb, operand)?;
                Ok(if op.yields_bool() {
                    Type::Bool
                } else {
                    Type::Int
                })
            }
            MExpr::Un(op, a) => {
                let ta = self.expr(a)?;
                match op {
                    MUnOp::Not => self.exactly(&ta, Type::Bool),
                    MUnOp::Neg => self.exactly(&ta, Type::Int),
                }
            }
        }
    }

    fn extended_only(&self) -> Result<(), MethodTypeError> {
        match self.mode {
            Mode::Extended => Ok(()),
            Mode::ReadOnly => Err(MethodTypeError::ExtendedFeatureInReadOnlyMode(
                self.class.clone(),
                self.method.clone(),
            )),
        }
    }

    /// Checks a statement sequence in a fresh frame; returns whether
    /// every control path through it returns. A type error abandons the
    /// whole walk, so frames are popped only on success.
    fn block(&mut self, stmts: &[MStmt], ret: &Type) -> Result<bool, MethodTypeError> {
        self.scopes.push(BTreeMap::new());
        let returns = self.block_inner(stmts, ret)?;
        self.scopes.pop();
        Ok(returns)
    }

    fn block_inner(&mut self, stmts: &[MStmt], ret: &Type) -> Result<bool, MethodTypeError> {
        let mut returns = false;
        for s in stmts {
            match s {
                MStmt::Local(x, t, e) => {
                    self.subtype(e, t)?;
                    if !t.is_data_model_type() {
                        return Err(self.mismatch("a data-model type φ", t));
                    }
                    self.declare(x, t.clone())?;
                }
                MStmt::Assign(x, e) => {
                    let tx = self.lookup(x)?.clone();
                    self.subtype(e, &tx)?;
                }
                MStmt::SetAttr(target, a, e) => {
                    self.extended_only()?;
                    let c = self.receiver(target)?;
                    let want = self
                        .schema
                        .atype(&c, a)
                        .cloned()
                        .ok_or_else(|| MethodTypeError::UnknownAttr(c.clone(), a.clone()))?;
                    self.subtype(e, &want)?;
                    self.effect.updates.insert(c);
                }
                MStmt::If(cond, then, els) => {
                    let tc = self.expr(cond)?;
                    self.exactly(&tc, Type::Bool)?;
                    let rt = self.block(then, ret)?;
                    let re = self.block(els, ret)?;
                    returns = returns || (rt && re);
                }
                MStmt::While(cond, body) => {
                    let tc = self.expr(cond)?;
                    self.exactly(&tc, Type::Bool)?;
                    // A loop body's return does not make the whole
                    // statement definitely-return (the loop may not run) —
                    // except the idiom `while (true) …`, which never falls
                    // through: treat it as returning (it diverges or
                    // returns from inside).
                    self.block(body, ret)?;
                    if matches!(cond, MExpr::Bool(true)) {
                        returns = true;
                    }
                }
                MStmt::ForExtent(x, e, body) => {
                    self.extended_only()?;
                    let class = self
                        .schema
                        .extent_class(e)
                        .cloned()
                        .ok_or_else(|| MethodTypeError::UnknownExtent(e.clone()))?;
                    self.effect.reads.insert(class.clone());
                    self.scopes.push(BTreeMap::new());
                    self.declare(x, Type::Class(class))?;
                    self.block_inner(body, ret)?;
                    self.scopes.pop();
                }
                MStmt::NewLocal(x, c, attrs) => {
                    self.extended_only()?;
                    if c.is_object() || self.schema.class(c).is_none() {
                        return Err(MethodTypeError::UnknownClass(c.clone()));
                    }
                    let declared: BTreeMap<AttrName, Type> =
                        self.schema.atypes(c).into_iter().collect();
                    if declared.len() != attrs.len() {
                        return Err(MethodTypeError::BadNew(c.clone()));
                    }
                    let mut seen = std::collections::BTreeSet::new();
                    for (a, e) in attrs {
                        let want = declared
                            .get(a)
                            .ok_or_else(|| MethodTypeError::BadNew(c.clone()))?;
                        if !seen.insert(a.clone()) {
                            return Err(MethodTypeError::BadNew(c.clone()));
                        }
                        self.subtype(e, want)?;
                    }
                    self.effect.union_with(&Effect::creation(self.schema, c));
                    self.declare(x, Type::Class(c.clone()))?;
                }
                MStmt::Return(e) => {
                    self.subtype(e, ret)?;
                    returns = true;
                }
            }
        }
        Ok(returns)
    }
}

/// Type-checks one method body under `mode`, as declared by `class`, and
/// derives its latent effect with every callee's read from `table`.
fn check_body(
    schema: &Schema,
    table: &MethodEffects,
    class: &ClassName,
    method: &MethodDef,
    mode: Mode,
) -> Result<Effect, MethodTypeError> {
    if method.body.is_empty() {
        return Err(MethodTypeError::NoBody(class.clone(), method.name.clone()));
    }
    let mut ck = Ck {
        schema,
        table,
        class: class.clone(),
        method: method.name.clone(),
        mode,
        scopes: vec![method.params.iter().cloned().collect()],
        effect: Effect::empty(),
    };
    if !ck.block_inner(&method.body, &method.ret)? {
        return Err(MethodTypeError::MissingReturn(
            class.clone(),
            method.name.clone(),
        ));
    }
    Ok(ck.effect)
}

/// Type-checks one method body under `mode`, as declared by `class`.
pub fn check_method(
    schema: &Schema,
    class: &ClassName,
    method: &MethodDef,
    mode: Mode,
) -> Result<(), MethodTypeError> {
    check_body(schema, &MethodEffects::read_only(), class, method, mode).map(drop)
}

/// Type-checks every method body in the schema under `mode` and returns
/// the table of their latent effects, which the query-level (Method)
/// rule reads through [`MethodEffects::effect_of`].
///
/// The bodies are walked in schema order until no entry changes; a call
/// reads its callee's entry as derived so far, so the table climbs the
/// finite effect lattice from ∅ to the least fixpoint. Type errors
/// surface on the first round, the first in schema order.
pub fn check_schema_methods(schema: &Schema, mode: Mode) -> Result<MethodEffects, MethodTypeError> {
    let mut table = MethodEffects::read_only();
    loop {
        let mut changed = false;
        for cd in schema.classes() {
            for md in &cd.methods {
                let effect = check_body(schema, &table, &cd.name, md, mode)?;
                changed |= table.get(&cd.name, &md.name) != Some(&effect);
                table.insert(cd.name.clone(), md.name.clone(), effect);
            }
        }
        if !changed {
            return Ok(table);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef};

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [MethodDef::new(
                "getN",
                [],
                Type::Int,
                vec![MStmt::Return(MExpr::this_attr("n"))],
            )],
        )])
        .unwrap()
    }

    fn p() -> ClassName {
        ClassName::new("P")
    }

    #[test]
    fn simple_getter_checks() {
        let s = schema();
        let md = s.class(&p()).unwrap().methods[0].clone();
        assert!(check_method(&s, &p(), &md, Mode::ReadOnly).is_ok());
        assert!(check_schema_methods(&s, Mode::ReadOnly).is_ok());
    }

    #[test]
    fn locals_and_arithmetic() {
        let s = schema();
        let md = MethodDef::new(
            "double",
            [(VarName::new("x"), Type::Int)],
            Type::Int,
            vec![
                MStmt::Local(
                    VarName::new("y"),
                    Type::Int,
                    MExpr::bin(
                        MBinOp::Add,
                        MExpr::Var(VarName::new("x")),
                        MExpr::Var(VarName::new("x")),
                    ),
                ),
                MStmt::Return(MExpr::Var(VarName::new("y"))),
            ],
        );
        assert!(check_method(&s, &p(), &md, Mode::ReadOnly).is_ok());
    }

    #[test]
    fn unbound_var_rejected() {
        let s = schema();
        let md = MethodDef::new(
            "bad",
            [],
            Type::Int,
            vec![MStmt::Return(MExpr::Var(VarName::new("z")))],
        );
        assert!(matches!(
            check_method(&s, &p(), &md, Mode::ReadOnly),
            Err(MethodTypeError::Unbound(_, _, _))
        ));
    }

    #[test]
    fn missing_return_rejected() {
        let s = schema();
        let md = MethodDef::new(
            "bad",
            [],
            Type::Int,
            vec![MStmt::Local(VarName::new("x"), Type::Int, MExpr::Int(1))],
        );
        assert!(matches!(
            check_method(&s, &p(), &md, Mode::ReadOnly),
            Err(MethodTypeError::MissingReturn(_, _))
        ));
    }

    #[test]
    fn if_must_return_on_both_paths() {
        let s = schema();
        let one_sided = MethodDef::new(
            "bad",
            [(VarName::new("b"), Type::Bool)],
            Type::Int,
            vec![MStmt::If(
                MExpr::Var(VarName::new("b")),
                vec![MStmt::Return(MExpr::Int(1))],
                vec![],
            )],
        );
        assert!(matches!(
            check_method(&s, &p(), &one_sided, Mode::ReadOnly),
            Err(MethodTypeError::MissingReturn(_, _))
        ));
        let both = MethodDef::new(
            "good",
            [(VarName::new("b"), Type::Bool)],
            Type::Int,
            vec![MStmt::If(
                MExpr::Var(VarName::new("b")),
                vec![MStmt::Return(MExpr::Int(1))],
                vec![MStmt::Return(MExpr::Int(2))],
            )],
        );
        assert!(check_method(&s, &p(), &both, Mode::ReadOnly).is_ok());
    }

    #[test]
    fn while_true_counts_as_returning() {
        // The paper's `loop()` method type-checks: it never *falls
        // through* without a return.
        let s = schema();
        let md = MethodDef::looping("loop", Type::Int);
        assert!(check_method(&s, &p(), &md, Mode::ReadOnly).is_ok());
    }

    #[test]
    fn read_only_mode_rejects_extended_constructs() {
        let s = schema();
        let upd = MethodDef::new(
            "poke",
            [],
            Type::Int,
            vec![
                MStmt::SetAttr(MExpr::This, AttrName::new("n"), MExpr::Int(1)),
                MStmt::Return(MExpr::Int(0)),
            ],
        );
        assert!(matches!(
            check_method(&s, &p(), &upd, Mode::ReadOnly),
            Err(MethodTypeError::ExtendedFeatureInReadOnlyMode(_, _))
        ));
        assert!(check_method(&s, &p(), &upd, Mode::Extended).is_ok());
        // A construct nested inside a branch is found all the same.
        let nested = MethodDef::new(
            "maybe",
            [],
            Type::Int,
            vec![
                MStmt::If(
                    MExpr::Bool(true),
                    vec![MStmt::NewLocal(
                        VarName::new("x"),
                        p(),
                        vec![(AttrName::new("n"), MExpr::Int(1))],
                    )],
                    vec![],
                ),
                MStmt::Return(MExpr::Int(0)),
            ],
        );
        assert!(matches!(
            check_method(&s, &p(), &nested, Mode::ReadOnly),
            Err(MethodTypeError::ExtendedFeatureInReadOnlyMode(_, _))
        ));
        assert!(check_method(&s, &p(), &nested, Mode::Extended).is_ok());
    }

    #[test]
    fn extended_new_checks_attrs() {
        let s = schema();
        let bad = MethodDef::new(
            "mk",
            [],
            Type::Int,
            vec![
                MStmt::NewLocal(VarName::new("x"), p(), vec![]),
                MStmt::Return(MExpr::Int(0)),
            ],
        );
        assert!(matches!(
            check_method(&s, &p(), &bad, Mode::Extended),
            Err(MethodTypeError::BadNew(_))
        ));
        let good = MethodDef::new(
            "mk",
            [],
            Type::Int,
            vec![
                MStmt::NewLocal(
                    VarName::new("x"),
                    p(),
                    vec![(AttrName::new("n"), MExpr::Int(1))],
                ),
                MStmt::Return(MExpr::Var(VarName::new("x")).attr("n")),
            ],
        );
        assert!(check_method(&s, &p(), &good, Mode::Extended).is_ok());
    }

    #[test]
    fn for_extent_binds_loop_var() {
        let s = schema();
        let md = MethodDef::new(
            "sum",
            [],
            Type::Int,
            vec![
                MStmt::Local(VarName::new("acc"), Type::Int, MExpr::Int(0)),
                MStmt::ForExtent(
                    VarName::new("q"),
                    ioql_ast::ExtentName::new("Ps"),
                    vec![MStmt::Assign(
                        VarName::new("acc"),
                        MExpr::bin(
                            MBinOp::Add,
                            MExpr::Var(VarName::new("acc")),
                            MExpr::Var(VarName::new("q")).attr("n"),
                        ),
                    )],
                ),
                MStmt::Return(MExpr::Var(VarName::new("acc"))),
            ],
        );
        assert!(check_method(&s, &p(), &md, Mode::Extended).is_ok());
        assert!(matches!(
            check_method(&s, &p(), &md, Mode::ReadOnly),
            Err(MethodTypeError::ExtendedFeatureInReadOnlyMode(_, _))
        ));
    }

    #[test]
    fn shadowing_rejected() {
        let s = schema();
        let md = MethodDef::new(
            "bad",
            [(VarName::new("x"), Type::Int)],
            Type::Int,
            vec![
                MStmt::Local(VarName::new("x"), Type::Int, MExpr::Int(1)),
                MStmt::Return(MExpr::Int(0)),
            ],
        );
        assert!(matches!(
            check_method(&s, &p(), &md, Mode::ReadOnly),
            Err(MethodTypeError::Shadowing(_, _, _))
        ));
    }

    #[test]
    fn empty_body_rejected() {
        let s = schema();
        let md = MethodDef::new("sig", [], Type::Int, vec![]);
        assert!(matches!(
            check_method(&s, &p(), &md, Mode::ReadOnly),
            Err(MethodTypeError::NoBody(_, _))
        ));
    }
}
