//! The big-step method evaluator — the relation `⇓` of §3.3/§5.
//!
//! Determinism (required by the paper: "the (deterministic) evaluation of
//! the method body") holds by construction: expressions are pure,
//! statements execute in order, and extent iteration visits members in
//! oid order. Non-termination is modelled by *fuel*: every statement and
//! expression node costs one unit, and exhaustion yields
//! [`MethodError::Diverged`] — so the §1 `loop()` example is an
//! observable outcome, not a hang.
//!
//! In [`Mode::ReadOnly`] the evaluator still receives `&mut Store` (the
//! signature is shared with extended mode) but the type checker has
//! rejected every mutating construct; a debug assertion re-checks that
//! the store is untouched.

use crate::check::Mode;
use crate::error::MethodError;
use ioql_ast::{ClassName, MBinOp, MExpr, MStmt, MUnOp, MethodName, Oid, Value, VarName};
use ioql_effects::Effect;
use ioql_schema::Schema;
use ioql_store::{Object, Store};
use std::collections::BTreeMap;

/// A method invocation request: receiver, method, and evaluated
/// (call-by-value) arguments.
#[derive(Clone, Debug)]
pub struct MethodCall {
    /// The receiver oid (`this`).
    pub receiver: Oid,
    /// The method name; dispatched on the receiver's *dynamic* class.
    pub method: MethodName,
    /// Argument values.
    pub args: Vec<Value>,
}

/// The result of a successful invocation: the returned value plus the
/// *runtime effect* the execution actually performed — the `ε` label the
/// instrumented semantics (Figure 4) attaches to the `(Method)` step.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// The value returned.
    pub value: Value,
    /// The observed runtime effect (always ∅ in read-only mode).
    pub effect: Effect,
}

enum Flow {
    Normal,
    Returned(Value),
}

struct Ev<'s> {
    schema: &'s Schema,
    fuel: u64,
    effect: Effect,
}

impl<'s> Ev<'s> {
    fn burn(&mut self) -> Result<(), MethodError> {
        if self.fuel == 0 {
            return Err(MethodError::Diverged);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn class_of(&self, store: &Store, o: Oid) -> Result<ClassName, MethodError> {
        store
            .objects
            .get(o)
            .map(|obj| obj.class.clone())
            .ok_or(MethodError::DanglingOid(o))
    }

    fn expr(
        &mut self,
        store: &mut Store,
        env: &BTreeMap<VarName, Value>,
        this: Oid,
        e: &MExpr,
    ) -> Result<Value, MethodError> {
        self.burn()?;
        match e {
            MExpr::Int(i) => Ok(Value::Int(*i)),
            MExpr::Bool(b) => Ok(Value::Bool(*b)),
            MExpr::This => Ok(Value::Oid(this)),
            MExpr::Var(x) => env
                .get(x)
                .cloned()
                .ok_or_else(|| MethodError::Stuck(format!("unbound `{x}`"))),
            MExpr::Attr(recv, a) => {
                let rv = self.expr(store, env, this, recv)?;
                let o = rv
                    .as_oid()
                    .ok_or_else(|| MethodError::Stuck("attr read on non-object".into()))?;
                let class = self.class_of(store, o)?;
                self.effect.union_with(&Effect::attr_read(class));
                store
                    .attr(o, a)
                    .cloned()
                    .map_err(|_| MethodError::Stuck(format!("no attribute `{a}`")))
            }
            MExpr::Call(recv, m, args) => {
                let rv = self.expr(store, env, this, recv)?;
                let o = rv
                    .as_oid()
                    .ok_or_else(|| MethodError::Stuck("call on non-object".into()))?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.expr(store, env, this, a)?);
                }
                self.call(store, o, m, argv)
            }
            MExpr::Bin(op, a, b) => {
                let va = self.expr(store, env, this, a)?;
                let vb = self.expr(store, env, this, b)?;
                self.binop(*op, va, vb)
            }
            MExpr::Un(op, a) => {
                let va = self.expr(store, env, this, a)?;
                match (op, va) {
                    (MUnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (MUnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
                    _ => Err(MethodError::Stuck("unary op on wrong value".into())),
                }
            }
        }
    }

    fn binop(&self, op: MBinOp, a: Value, b: Value) -> Result<Value, MethodError> {
        let int = |v: &Value| {
            v.as_int()
                .ok_or_else(|| MethodError::Stuck("int expected".into()))
        };
        let boolean = |v: &Value| {
            v.as_bool()
                .ok_or_else(|| MethodError::Stuck("bool expected".into()))
        };
        Ok(match op {
            MBinOp::Add => Value::Int(int(&a)?.wrapping_add(int(&b)?)),
            MBinOp::Sub => Value::Int(int(&a)?.wrapping_sub(int(&b)?)),
            MBinOp::Mul => Value::Int(int(&a)?.wrapping_mul(int(&b)?)),
            MBinOp::Lt => Value::Bool(int(&a)? < int(&b)?),
            MBinOp::Le => Value::Bool(int(&a)? <= int(&b)?),
            MBinOp::EqInt => Value::Bool(int(&a)? == int(&b)?),
            MBinOp::EqObj => {
                let oa = a
                    .as_oid()
                    .ok_or_else(|| MethodError::Stuck("object expected".into()))?;
                let ob = b
                    .as_oid()
                    .ok_or_else(|| MethodError::Stuck("object expected".into()))?;
                Value::Bool(oa == ob)
            }
            MBinOp::And => Value::Bool(boolean(&a)? && boolean(&b)?),
            MBinOp::Or => Value::Bool(boolean(&a)? || boolean(&b)?),
        })
    }

    fn block(
        &mut self,
        store: &mut Store,
        env: &mut BTreeMap<VarName, Value>,
        this: Oid,
        stmts: &[MStmt],
    ) -> Result<Flow, MethodError> {
        for s in stmts {
            self.burn()?;
            match s {
                MStmt::Local(x, _, e) | MStmt::Assign(x, e) => {
                    let v = self.expr(store, env, this, e)?;
                    env.insert(x.clone(), v);
                }
                MStmt::SetAttr(target, a, e) => {
                    let tv = self.expr(store, env, this, target)?;
                    let o = tv
                        .as_oid()
                        .ok_or_else(|| MethodError::Stuck("update on non-object".into()))?;
                    let v = self.expr(store, env, this, e)?;
                    let class = self.class_of(store, o)?;
                    self.effect.union_with(&Effect::update(class));
                    store
                        .set_attr(o, a, v)
                        .map_err(|err| MethodError::Stuck(err.to_string()))?;
                }
                MStmt::If(cond, then, els) => {
                    let c = self.expr(store, env, this, cond)?;
                    let branch = if c
                        .as_bool()
                        .ok_or_else(|| MethodError::Stuck("if condition not bool".into()))?
                    {
                        then
                    } else {
                        els
                    };
                    if let Flow::Returned(v) = self.block(store, env, this, branch)? {
                        return Ok(Flow::Returned(v));
                    }
                }
                MStmt::While(cond, body) => loop {
                    self.burn()?;
                    let c = self.expr(store, env, this, cond)?;
                    if !c
                        .as_bool()
                        .ok_or_else(|| MethodError::Stuck("while condition not bool".into()))?
                    {
                        break;
                    }
                    if let Flow::Returned(v) = self.block(store, env, this, body)? {
                        return Ok(Flow::Returned(v));
                    }
                },
                MStmt::ForExtent(x, e, body) => {
                    let class = self
                        .schema
                        .extent_class(e)
                        .cloned()
                        .ok_or_else(|| MethodError::Stuck(format!("unknown extent `{e}`")))?;
                    self.effect.union_with(&Effect::read(class));
                    // Snapshot the membership: iteration is over the
                    // extent as of loop entry, in oid order — keeping ⇓
                    // deterministic even if the body adds members.
                    let members: Vec<Oid> = store
                        .extents
                        .members(e)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    for o in members {
                        env.insert(x.clone(), Value::Oid(o));
                        if let Flow::Returned(v) = self.block(store, env, this, body)? {
                            return Ok(Flow::Returned(v));
                        }
                    }
                }
                MStmt::NewLocal(x, c, attrs) => {
                    let mut vals = Vec::with_capacity(attrs.len());
                    for (a, e) in attrs {
                        vals.push((a.clone(), self.expr(store, env, this, e)?));
                    }
                    self.effect.union_with(&Effect::creation(self.schema, c));
                    let extents = self.schema.extents_for_new(c);
                    let o = store
                        .create(Object::new(c.clone(), vals), extents)
                        .map_err(|err| MethodError::Stuck(err.to_string()))?;
                    env.insert(x.clone(), Value::Oid(o));
                }
                MStmt::Return(e) => {
                    let v = self.expr(store, env, this, e)?;
                    return Ok(Flow::Returned(v));
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn call(
        &mut self,
        store: &mut Store,
        receiver: Oid,
        method: &MethodName,
        args: Vec<Value>,
    ) -> Result<Value, MethodError> {
        let class = self.class_of(store, receiver)?;
        let (_, md) = self
            .schema
            .mbody(&class, method)
            .ok_or_else(|| MethodError::NoSuchMethod(class.clone(), method.clone()))?;
        if md.params.len() != args.len() {
            return Err(MethodError::Stuck("arity mismatch at runtime".into()));
        }
        let mut env: BTreeMap<VarName, Value> = BTreeMap::new();
        for ((x, _), v) in md.params.iter().zip(args) {
            env.insert(x.clone(), v);
        }
        match self.block(store, &mut env, receiver, &md.body)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Err(MethodError::Stuck(
                "method fell through without return".into(),
            )),
        }
    }
}

/// Runs a method to completion (or fuel exhaustion):
/// `EE, OE, body[x⃗ := v⃗, this := o] ⇓ EE', OE', v ! ε`.
///
/// `fuel` bounds the total number of statement/expression steps.
pub fn invoke(
    schema: &Schema,
    store: &mut Store,
    call: &MethodCall,
    mode: Mode,
    fuel: u64,
) -> Result<MethodResult, MethodError> {
    let mut ev = Ev {
        schema,
        fuel,
        effect: Effect::empty(),
    };
    let snapshot = (cfg!(debug_assertions) && mode == Mode::ReadOnly).then(|| store.clone());
    let value = ev.call(store, call.receiver, &call.method, call.args.clone())?;
    if let Some(snap) = snapshot {
        debug_assert!(
            snap == *store,
            "read-only method mutated the store — the checker should have rejected it"
        );
    }
    Ok(MethodResult {
        value,
        effect: ev.effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ExtentName, MethodDef, Type};

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [
                MethodDef::new(
                    "getN",
                    [],
                    Type::Int,
                    vec![MStmt::Return(MExpr::this_attr("n"))],
                ),
                MethodDef::new(
                    "addTo",
                    [(VarName::new("k"), Type::Int)],
                    Type::Int,
                    vec![MStmt::Return(MExpr::bin(
                        MBinOp::Add,
                        MExpr::this_attr("n"),
                        MExpr::Var(VarName::new("k")),
                    ))],
                ),
                MethodDef::looping("loop", Type::Int),
                MethodDef::new(
                    "fact",
                    [(VarName::new("k"), Type::Int)],
                    Type::Int,
                    vec![
                        // if (k <= 0) return 1; return k * this.fact(k - 1);
                        MStmt::If(
                            MExpr::bin(MBinOp::Le, MExpr::Var(VarName::new("k")), MExpr::Int(0)),
                            vec![MStmt::Return(MExpr::Int(1))],
                            vec![MStmt::Return(MExpr::bin(
                                MBinOp::Mul,
                                MExpr::Var(VarName::new("k")),
                                MExpr::This.call(
                                    "fact",
                                    [MExpr::bin(
                                        MBinOp::Sub,
                                        MExpr::Var(VarName::new("k")),
                                        MExpr::Int(1),
                                    )],
                                ),
                            ))],
                        ),
                    ],
                ),
            ],
        )])
        .unwrap()
    }

    fn setup() -> (Schema, Store, Oid) {
        let schema = schema();
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let o = store
            .create(
                Object::new("P", [("n", Value::Int(5))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        (schema, store, o)
    }

    #[test]
    fn getter_returns_attr() {
        let (schema, mut store, o) = setup();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("getN"),
                args: vec![],
            },
            Mode::ReadOnly,
            1_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::Int(5));
        // Attribute read shows up as the runtime Ra effect.
        assert!(r.effect.attr_reads.contains(&ClassName::new("P")));
        assert!(r.effect.adds.is_empty());
        assert!(r.effect.updates.is_empty());
    }

    #[test]
    fn parameters_bound_call_by_value() {
        let (schema, mut store, o) = setup();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("addTo"),
                args: vec![Value::Int(7)],
            },
            Mode::ReadOnly,
            1_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::Int(12));
    }

    #[test]
    fn loop_method_diverges() {
        // The §1 example: `loop()` never terminates; fuel exhaustion is
        // the observable outcome.
        let (schema, mut store, o) = setup();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("loop"),
                args: vec![],
            },
            Mode::ReadOnly,
            10_000,
        );
        assert_eq!(r.unwrap_err(), MethodError::Diverged);
    }

    #[test]
    fn recursion_works_within_fuel() {
        let (schema, mut store, o) = setup();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("fact"),
                args: vec![Value::Int(6)],
            },
            Mode::ReadOnly,
            100_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::Int(720));
    }

    #[test]
    fn extended_update_mutates_store_and_records_effect() {
        let schema = Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [MethodDef::new(
                "bump",
                [],
                Type::Int,
                vec![
                    MStmt::SetAttr(
                        MExpr::This,
                        ioql_ast::AttrName::new("n"),
                        MExpr::bin(MBinOp::Add, MExpr::this_attr("n"), MExpr::Int(1)),
                    ),
                    MStmt::Return(MExpr::this_attr("n")),
                ],
            )],
        )])
        .unwrap();
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let o = store
            .create(
                Object::new("P", [("n", Value::Int(1))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("bump"),
                args: vec![],
            },
            Mode::Extended,
            1_000,
        )
        .unwrap();
        assert_eq!(r.value, Value::Int(2));
        assert_eq!(
            store.attr(o, &ioql_ast::AttrName::new("n")).unwrap(),
            &Value::Int(2)
        );
        assert!(r.effect.updates.contains(&ClassName::new("P")));
    }

    #[test]
    fn extended_for_and_new() {
        // countPs() iterates the extent; spawn() creates a P.
        let schema = Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [
                MethodDef::new(
                    "countPs",
                    [],
                    Type::Int,
                    vec![
                        MStmt::Local(VarName::new("c"), Type::Int, MExpr::Int(0)),
                        MStmt::ForExtent(
                            VarName::new("q"),
                            ExtentName::new("Ps"),
                            vec![MStmt::Assign(
                                VarName::new("c"),
                                MExpr::bin(
                                    MBinOp::Add,
                                    MExpr::Var(VarName::new("c")),
                                    MExpr::Int(1),
                                ),
                            )],
                        ),
                        MStmt::Return(MExpr::Var(VarName::new("c"))),
                    ],
                ),
                MethodDef::new(
                    "spawn",
                    [],
                    Type::Int,
                    vec![
                        MStmt::NewLocal(
                            VarName::new("x"),
                            ClassName::new("P"),
                            vec![(ioql_ast::AttrName::new("n"), MExpr::Int(9))],
                        ),
                        MStmt::Return(MExpr::Var(VarName::new("x")).attr("n")),
                    ],
                ),
            ],
        )])
        .unwrap();
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        let o = store
            .create(
                Object::new("P", [("n", Value::Int(1))]),
                [ExtentName::new("Ps")],
            )
            .unwrap();

        let count = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("countPs"),
                args: vec![],
            },
            Mode::Extended,
            10_000,
        )
        .unwrap();
        assert_eq!(count.value, Value::Int(1));
        assert!(count.effect.reads.contains(&ClassName::new("P")));

        let spawned = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("spawn"),
                args: vec![],
            },
            Mode::Extended,
            10_000,
        )
        .unwrap();
        assert_eq!(spawned.value, Value::Int(9));
        assert!(spawned.effect.adds.contains(&ClassName::new("P")));
        assert_eq!(
            store.extents.members(&ExtentName::new("Ps")).unwrap().len(),
            2
        );

        let count2 = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: o,
                method: MethodName::new("countPs"),
                args: vec![],
            },
            Mode::Extended,
            10_000,
        )
        .unwrap();
        assert_eq!(count2.value, Value::Int(2));
    }

    #[test]
    fn dangling_receiver_reported() {
        let (schema, mut store, _) = setup();
        let r = invoke(
            &schema,
            &mut store,
            &MethodCall {
                receiver: Oid::from_raw(999),
                method: MethodName::new("getN"),
                args: vec![],
            },
            Mode::ReadOnly,
            1_000,
        );
        assert!(matches!(r, Err(MethodError::DanglingOid(_))));
    }
}
