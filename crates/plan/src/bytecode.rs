//! The compiled execution tier: a compact bytecode for row-level
//! expressions, compiled out of elaborated [`Query`] predicates and
//! projection heads, and a dispatch-loop VM that replaces the
//! interpreter's recursive descent on the plan executor's hot path. It
//! runs on the executor's [`Interp`] — the VM reads its binding stack,
//! burns its fuel and writes its effect trace.
//!
//! # What compiles
//!
//! The scalar, draw-free fragment: literals, pipeline-bound variables,
//! attribute loads, integer arithmetic and comparisons, the two
//! equalities, `if`/`then`/`else` (which is also what the parser's
//! boolean connectives desugar to), `size` and `sum`. Everything else —
//! nested comprehensions, set operators, extent reads, definition
//! calls, records, casts — makes [`compile`] return an `Err` with the
//! reason, and the executor evaluates that node on the shared
//! interpreter (rendered as `[interp(reason)]` by `:plan`). The compiled fragment
//! is exactly the fragment whose evaluation makes no chooser draw and
//! no cell charge, so a program run is a pure function of the store
//! snapshot, the row, and the fuel/cancellation state.
//!
//! # Observational parity
//!
//! The VM is held to the same contract as every other engine: byte
//! identical observables. Three disciplines make that hold:
//!
//! * **Fuel.** The big-step evaluator burns one fuel unit (plus one
//!   governor checkpoint) at the *entry* of every recursion. The
//!   compiler mirrors that pre-order cadence by accumulating pending
//!   burns and flushing them as a coalesced [`Instr::Burn`] before
//!   every *fallible* instruction, at the end of each `if` arm, and
//!   before `Ret` — so a budget that exhausts mid-expression exhausts
//!   at a point where the interpreter would also have exhausted before
//!   reaching the next observable action. A `Burn(k)` makes one
//!   governor checkpoint for the k units; the governor contract
//!   (`governor.rs`) licenses engines noticing cancellation/deadline at
//!   slightly different spent values, never a different error class.
//! * **Operand order.** The interpreter evaluates operand `a`, checks
//!   its type, *then* evaluates operand `b`. The compiler emits
//!   `code(a); Check…; code(b); Check…; op` in that order, so `b`'s
//!   burns and attribute-read effects never happen when `a`'s check
//!   sticks — same as the interpreter.
//! * **Stuck messages.** Fallible instructions carry an index into a
//!   table of source subexpressions; on error the VM hands the
//!   subexpression to [`Interp::stuck`], the one function that renders a
//!   stuck state under the bindings in scope, so the text is the
//!   interpreted path's byte for byte.
//!   An attribute load is the interpreter's own read
//!   ([`Interp::read_attr`]), store errors and `Ra` atom included.

use ioql_ast::{AttrName, IntOp, Query, Value, VarName};
use ioql_eval::{EvalError, Interp};
use ioql_store::Store;
use std::sync::Arc;

/// The compile decision for one plan node, rendered by `:plan` as
/// `[vm]` / `[interp(reason)]`.
#[derive(Clone, Debug)]
pub enum CompileVerdict {
    /// The node's expression compiled; the executor runs the program.
    Vm(Arc<Program>),
    /// The expression left the compiled fragment; the executor
    /// interprets it, for this reason.
    Interp(String),
}

/// One VM instruction. Operands are indices into the program's constant
/// pool (`Const`), the row's binding slots (`Load`), or its source-
/// subexpression table (the `u16` on fallible instructions, used only to
/// reconstruct the interpreter's exact stuck message).
#[derive(Clone, Debug)]
pub enum Instr {
    /// Burn `k` fuel units after one governor checkpoint — the coalesced
    /// pre-order entry burns of the nodes compiled since the last flush.
    Burn(u32),
    /// Push a constant.
    Const(u16),
    /// Push the value bound in row slot `i`.
    Load(u8),
    /// The top of stack must be an `Int` (left in place).
    CheckInt(u16),
    /// The top of stack must be an `Oid` (left in place).
    CheckOid(u16),
    /// The top of stack must be a `Set` (left in place).
    CheckSet(u16),
    /// Pop an oid (already checked), read the attribute through
    /// [`Interp::read_attr`] (`Ra` for its dynamic class), push it.
    LoadAttr(AttrName),
    /// Pop two ints (already checked), push the operator's result.
    Arith(IntOp),
    /// Pop two ints (already checked), push their equality.
    IntEq,
    /// Pop two oids (already checked), check both are live, push their
    /// identity.
    ObjEq(u16),
    /// Pop a set (already checked), push the wrapping sum of its
    /// integer elements.
    Sum(u16),
    /// Pop a set (already checked), push its cardinality.
    Size,
    /// Pop a bool; fall through on `true`, jump on `false`, stick on
    /// anything else.
    JumpIfFalse {
        /// Source index for the "non-boolean condition" message.
        src: u16,
        /// Jump target (instruction index) taken on `false`.
        target: u16,
    },
    /// Unconditional jump (joins the `if` arms).
    Jump(u16),
    /// Return the top of stack.
    Ret,
}

/// A compiled row-level expression: straight-line code over a constant
/// pool, with the source subexpressions kept for error reconstruction
/// and the binder environment the slots were resolved against.
#[derive(Debug)]
pub struct Program {
    code: Vec<Instr>,
    consts: Vec<Value>,
    /// Source subexpressions for fallible instructions (as written;
    /// rendered under the row's bindings at error time).
    srcs: Vec<Query>,
    /// The generator binders the slots index, outermost first — the
    /// executor's `binds` stack at the point this expression runs.
    pub slots: Vec<VarName>,
}

/// Reusable per-executor VM scratch state: the value stack, allocated
/// once per execution instead of once per row.
#[derive(Default)]
pub struct VmCtx {
    stack: Vec<Value>,
}

/// Compiles `q` against the pipeline binder environment `binders`
/// (outermost first, matching the executor's `binds` stack). `Err`
/// carries the human-readable fallback reason.
pub fn compile(q: &Query, binders: &[VarName]) -> Result<Program, String> {
    let mut em = Emitter {
        binders,
        code: Vec::new(),
        consts: Vec::new(),
        srcs: Vec::new(),
        pending: 0,
    };
    em.emit(q)?;
    em.flush();
    em.code.push(Instr::Ret);
    Ok(Program {
        code: em.code,
        consts: em.consts,
        srcs: em.srcs,
        slots: binders.to_vec(),
    })
}

struct Emitter<'b> {
    binders: &'b [VarName],
    code: Vec<Instr>,
    consts: Vec<Value>,
    srcs: Vec<Query>,
    /// Entry burns accumulated since the last flush.
    pending: u32,
}

impl Emitter<'_> {
    fn flush(&mut self) {
        if self.pending > 0 {
            self.code.push(Instr::Burn(self.pending));
            self.pending = 0;
        }
    }

    fn const_idx(&mut self, v: &Value) -> Result<u16, String> {
        if let Some(i) = self.consts.iter().position(|c| c == v) {
            return Ok(i as u16);
        }
        let i = self.consts.len();
        if i > u16::MAX as usize {
            return Err("constant pool overflow".into());
        }
        self.consts.push(v.clone());
        Ok(i as u16)
    }

    fn src_idx(&mut self, q: &Query) -> Result<u16, String> {
        let i = self.srcs.len();
        if i > u16::MAX as usize {
            return Err("source table overflow".into());
        }
        self.srcs.push(q.clone());
        Ok(i as u16)
    }

    /// Emits code for one operand and its type check: the check runs
    /// before the *next* operand's code, preserving the interpreter's
    /// evaluate-a, check-a, evaluate-b order.
    fn operand(&mut self, q: &Query, check: fn(u16) -> Instr) -> Result<(), String> {
        self.emit(q)?;
        self.flush();
        let s = self.src_idx(q)?;
        self.code.push(check(s));
        Ok(())
    }

    fn emit(&mut self, q: &Query) -> Result<(), String> {
        // The node's entry burn, in pre-order like the interpreter.
        self.pending += 1;
        match q {
            Query::Lit(v) => {
                let i = self.const_idx(v)?;
                self.code.push(Instr::Const(i));
            }
            Query::Var(x) => {
                // Last binding wins, matching the innermost-first
                // substitution order of the interpreted path.
                let slot = self
                    .binders
                    .iter()
                    .rposition(|b| b == x)
                    .ok_or_else(|| format!("free variable `{x}`"))?;
                if slot > u8::MAX as usize {
                    return Err("too many binders".into());
                }
                self.code.push(Instr::Load(slot as u8));
            }
            Query::Attr(subject, a) => {
                self.operand(subject, Instr::CheckOid)?;
                self.code.push(Instr::LoadAttr(a.clone()));
            }
            Query::IntBin(op, a, b) => {
                self.operand(a, Instr::CheckInt)?;
                self.operand(b, Instr::CheckInt)?;
                self.code.push(Instr::Arith(*op));
            }
            Query::IntEq(a, b) => {
                self.operand(a, Instr::CheckInt)?;
                self.operand(b, Instr::CheckInt)?;
                self.code.push(Instr::IntEq);
            }
            Query::ObjEq(a, b) => {
                self.operand(a, Instr::CheckOid)?;
                self.operand(b, Instr::CheckOid)?;
                let s = self.src_idx(q)?;
                self.code.push(Instr::ObjEq(s));
            }
            Query::Size(inner) => {
                self.operand(inner, Instr::CheckSet)?;
                self.code.push(Instr::Size);
            }
            Query::Sum(inner) => {
                self.operand(inner, Instr::CheckSet)?;
                let s = self.src_idx(q)?;
                self.code.push(Instr::Sum(s));
            }
            Query::If(c, t, e) => {
                self.emit(c)?;
                self.flush();
                let s = self.src_idx(q)?;
                let jf = self.code.len();
                self.code.push(Instr::JumpIfFalse { src: s, target: 0 });
                // Each arm flushes its own burns, so the join point has
                // no pending count to disagree on between the arms.
                self.emit(t)?;
                self.flush();
                let jmp = self.code.len();
                self.code.push(Instr::Jump(0));
                self.patch(jf, self.code.len())?;
                self.emit(e)?;
                self.flush();
                let end = self.code.len();
                self.patch(jmp, end)?;
            }
            Query::SetLit(_) => return Err("set literal".into()),
            Query::SetBin(..) => return Err("set operator".into()),
            Query::Extent(_) => return Err("extent read".into()),
            Query::Comp(..) => return Err("nested comprehension".into()),
            Query::Call(..) => return Err("definition call".into()),
            Query::Record(_) => return Err("record construction".into()),
            Query::Field(..) => return Err("record field access".into()),
            Query::Cast(..) => return Err("cast".into()),
            Query::Invoke(..) => return Err("method invocation".into()),
            Query::New(..) => return Err("object construction".into()),
        }
        if self.code.len() > u16::MAX as usize {
            return Err("program too large".into());
        }
        Ok(())
    }

    fn patch(&mut self, at: usize, target: usize) -> Result<(), String> {
        if target > u16::MAX as usize {
            return Err("program too large".into());
        }
        match &mut self.code[at] {
            Instr::JumpIfFalse { target: t, .. } | Instr::Jump(t) => *t = target as u16,
            // Both callers (`Query::If` in `emit`) pass the index they
            // just pushed a jump at.
            _ => unreachable!("patched instruction is a jump"),
        }
        Ok(())
    }
}

impl Program {
    /// Runs the program for one row on the executor's interpreter state.
    ///
    /// Slot `i` reads `interp.binds[i].1` (the names are only needed for
    /// error messages). The store is read-only — the Theorem 7 guard that
    /// admitted the plan already established the expression cannot
    /// mutate. Fuel burns from the shared budget, attribute reads record
    /// their `Ra` effects into the shared trace as they execute, and a
    /// stuck state is the interpreter's own ([`Interp::stuck`] on the
    /// stored source subexpression).
    pub fn run(
        &self,
        store: &Store,
        interp: &mut Interp<'_, '_>,
        ctx: &mut VmCtx,
    ) -> Result<Value, EvalError> {
        debug_assert!(
            interp.binds.iter().map(|(x, _)| x).eq(&self.slots),
            "row bindings must match the compile-time binder environment"
        );
        let stuck = |interp: &Interp<'_, '_>, src: u16, reason: &str| {
            interp.stuck(&self.srcs[src as usize], reason)
        };
        let stack = &mut ctx.stack;
        stack.clear();
        // Stack discipline, which every `unreachable!` below names its
        // half of: `Emitter::operand` emits an operand's `Check*` right
        // after its code and the check leaves the value in place, so an
        // operator pops exactly the shapes that were checked.
        let mut pc = 0usize;
        loop {
            match &self.code[pc] {
                Instr::Burn(k) => interp.burn(u64::from(*k))?,
                Instr::Const(i) => stack.push(self.consts[*i as usize].clone()),
                Instr::Load(i) => stack.push(interp.binds[*i as usize].1.clone()),
                Instr::CheckInt(s) => {
                    if !matches!(stack.last(), Some(Value::Int(_))) {
                        return stuck(interp, *s, "expected an integer");
                    }
                }
                Instr::CheckOid(s) => {
                    if !matches!(stack.last(), Some(Value::Oid(_))) {
                        return stuck(interp, *s, "expected an object");
                    }
                }
                Instr::CheckSet(s) => {
                    if !matches!(stack.last(), Some(Value::Set(_))) {
                        return stuck(interp, *s, "expected a set");
                    }
                }
                Instr::LoadAttr(a) => {
                    let Some(Value::Oid(o)) = stack.pop() else {
                        unreachable!("CheckOid precedes LoadAttr")
                    };
                    stack.push(interp.read_attr(store, o, a)?.clone());
                }
                Instr::Arith(op) => {
                    let (Some(Value::Int(b)), Some(Value::Int(a))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("CheckInt precedes Arith")
                    };
                    stack.push(op.apply(a, b));
                }
                Instr::IntEq => {
                    let (Some(Value::Int(b)), Some(Value::Int(a))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("CheckInt precedes IntEq")
                    };
                    stack.push(Value::Bool(a == b));
                }
                Instr::ObjEq(s) => {
                    let (Some(Value::Oid(b)), Some(Value::Oid(a))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("CheckOid precedes ObjEq")
                    };
                    if !store.objects.contains(a) || !store.objects.contains(b) {
                        return stuck(interp, *s, "dangling oid");
                    }
                    stack.push(Value::Bool(a == b));
                }
                Instr::Sum(s) => {
                    let Some(Value::Set(set)) = stack.pop() else {
                        unreachable!("CheckSet precedes Sum")
                    };
                    stack.push(interp.sum(&self.srcs[*s as usize], &set)?);
                }
                Instr::Size => {
                    let Some(Value::Set(set)) = stack.pop() else {
                        unreachable!("CheckSet precedes Size")
                    };
                    stack.push(Value::Int(set.len() as i64));
                }
                Instr::JumpIfFalse { src, target } => match stack.pop() {
                    Some(Value::Bool(true)) => {}
                    Some(Value::Bool(false)) => {
                        pc = *target as usize;
                        continue;
                    }
                    _ => return stuck(interp, *src, "non-boolean condition"),
                },
                Instr::Jump(target) => {
                    pc = *target as usize;
                    continue;
                }
                // `compile` ends on `emit(q); Ret`, and every `emit`
                // arm nets one push.
                Instr::Ret => return Ok(stack.pop().expect("compiled program leaves a result")),
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_eval::{DefEnv, EvalConfig, FirstChooser};
    use ioql_store::Object;

    fn store() -> Store {
        let mut s = Store::new();
        s.declare_extent("Ps", "P");
        for n in 1..=3 {
            s.create(
                Object::new("P", [("n", Value::Int(n))]),
                [ioql_ast::ExtentName::new("Ps")],
            )
            .unwrap();
        }
        s
    }

    fn schema() -> ioql_schema::Schema {
        ioql_schema::Schema::new(vec![ioql_ast::ClassDef::plain(
            "P",
            ioql_ast::ClassName::object(),
            "Ps",
            [ioql_ast::AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap()
    }

    /// Runs `q` under `binds` through both the VM and the interpreter at
    /// every fuel level up to its full cost, asserting identical values,
    /// effects, fuel consumption, and errors.
    fn assert_vm_matches_interp(q: &Query, binds: &[(VarName, Value)]) {
        let schema = schema();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let binders: Vec<VarName> = binds.iter().map(|(x, _)| x.clone()).collect();
        let prog = compile(q, &binders).expect("fragment compiles");
        let mut store = store();
        // One run on a fresh state: the outcome, the effect trace, the
        // fuel left.
        let mut run = |vm: bool, fuel: u64| {
            let mut chooser = FirstChooser;
            let mut interp = Interp::new(&cfg, &defs, &mut chooser, fuel);
            interp.binds = binds.to_vec();
            let r = if vm {
                prog.run(&store, &mut interp, &mut VmCtx::default())
            } else {
                interp.eval(&mut store, q)
            };
            (r, interp.fuel, interp.effect)
        };
        let interp_cost = match run(false, 1_000) {
            (Ok(_), left, _) => 1_000 - left,
            _ => 1_000,
        };
        for fuel in 0..=interp_cost.min(64) {
            match (run(true, fuel), run(false, fuel)) {
                ((Ok(v), v_left, v_eff), (Ok(i), i_left, i_eff)) => {
                    assert_eq!(v, i, "value mismatch on {q} fuel={fuel}");
                    assert_eq!(v_left, i_left, "fuel mismatch on {q}");
                    assert_eq!(v_eff, i_eff, "effect mismatch on {q}");
                }
                ((Err(ve), ..), (Err(ie), ..)) => {
                    assert_eq!(ve, ie, "error mismatch on {q} fuel={fuel}")
                }
                ((v, ..), (i, ..)) => {
                    panic!("divergence on {q} fuel={fuel}: vm={v:?} interp={i:?}")
                }
            }
        }
    }

    fn an_oid(store: &Store) -> Value {
        let Value::Set(s) = store
            .extent_value(&ioql_ast::ExtentName::new("Ps"))
            .unwrap()
        else {
            panic!()
        };
        s.into_iter().next().unwrap()
    }

    #[test]
    fn arithmetic_and_comparisons_match_the_interpreter() {
        assert_vm_matches_interp(&Query::int(2).add(Query::int(3)), &[]);
        assert_vm_matches_interp(
            &Query::IntBin(
                IntOp::Mul,
                Box::new(Query::int(i64::MAX).add(Query::int(1))),
                Box::new(Query::int(2)),
            ),
            &[],
        );
        assert_vm_matches_interp(
            &Query::IntBin(IntOp::Lt, Box::new(Query::int(1)), Box::new(Query::int(2))),
            &[],
        );
        assert_vm_matches_interp(&Query::int(1).int_eq(Query::int(1)), &[]);
    }

    #[test]
    fn attribute_loads_and_slots_match_the_interpreter() {
        let store = store();
        let o = an_oid(&store);
        let binds = vec![(VarName::new("p"), o)];
        assert_vm_matches_interp(&Query::var("p").attr("n").add(Query::int(10)), &binds);
        assert_vm_matches_interp(&Query::var("p").obj_eq(Query::var("p")), &binds);
    }

    #[test]
    fn type_errors_reproduce_the_interpreters_stuck_text() {
        // b must not evaluate when a's check sticks; message text and
        // fuel positions must match exactly.
        assert_vm_matches_interp(&Query::bool(true).add(Query::int(1)), &[]);
        assert_vm_matches_interp(&Query::int(1).add(Query::bool(true)), &[]);
        let binds = vec![(VarName::new("p"), Value::Int(9))];
        assert_vm_matches_interp(&Query::var("p").attr("n"), &binds);
    }

    #[test]
    fn dangling_oids_reproduce_store_error_text() {
        let store = store();
        let o = an_oid(&store);
        let dangling = Value::Oid(ioql_ast::Oid::from_raw(9999));
        assert_vm_matches_interp(
            &Query::var("p").obj_eq(Query::var("q")),
            &[
                (VarName::new("p"), o.clone()),
                (VarName::new("q"), dangling.clone()),
            ],
        );
        assert_vm_matches_interp(&Query::var("p").attr("n"), &[(VarName::new("p"), dangling)]);
        assert_vm_matches_interp(&Query::var("p").attr("zzz"), &[(VarName::new("p"), o)]);
    }

    #[test]
    fn if_sum_size_match_the_interpreter() {
        let set = Query::set_lit([Query::int(1), Query::int(2), Query::int(i64::MAX)]);
        // The set literal itself is not compilable; bind it as a value.
        let v = Value::set([Value::Int(1), Value::Int(2), Value::Int(i64::MAX)]);
        let binds = vec![(VarName::new("s"), v)];
        assert_vm_matches_interp(&Query::Sum(Box::new(Query::var("s"))), &binds);
        assert_vm_matches_interp(&Query::Size(Box::new(Query::var("s"))), &binds);
        let _ = set;
        let cond_true = Query::If(
            Box::new(Query::int(1).int_eq(Query::int(1))),
            Box::new(Query::int(10)),
            Box::new(Query::int(20)),
        );
        let cond_false = Query::If(
            Box::new(Query::int(1).int_eq(Query::int(2))),
            Box::new(Query::int(10)),
            Box::new(Query::int(20)),
        );
        let cond_bad = Query::If(
            Box::new(Query::int(7)),
            Box::new(Query::int(10)),
            Box::new(Query::int(20)),
        );
        assert_vm_matches_interp(&cond_true, &[]);
        assert_vm_matches_interp(&cond_false, &[]);
        assert_vm_matches_interp(&cond_bad, &[]);
        // Sum over non-integers sticks identically.
        let mixed = Value::set([Value::Int(1), Value::Bool(true)]);
        assert_vm_matches_interp(
            &Query::Sum(Box::new(Query::var("s"))),
            &[(VarName::new("s"), mixed)],
        );
    }

    #[test]
    fn shadowed_binders_resolve_to_the_innermost() {
        let binds = vec![
            (VarName::new("x"), Value::Int(1)),
            (VarName::new("x"), Value::Int(2)),
        ];
        assert_vm_matches_interp(&Query::var("x").add(Query::int(0)), &binds);
    }

    #[test]
    fn uncompilable_shapes_report_reasons() {
        for (q, reason) in [
            (Query::extent("Ps"), "extent read"),
            (Query::set_lit([Query::int(1)]), "set literal"),
            (
                Query::extent("Ps").union(Query::extent("Ps")),
                "set operator",
            ),
            (
                Query::Call(ioql_ast::DefName::new("f"), vec![]),
                "definition call",
            ),
        ] {
            let err = compile(&q, &[]).unwrap_err();
            assert_eq!(err, reason, "{q}");
        }
        // Free variables are a compile error, not a runtime one.
        assert!(compile(&Query::var("zz"), &[])
            .unwrap_err()
            .contains("free variable"));
    }
}
