//! A big-step ("normalization") evaluator — the *other* presentation of
//! operational semantics the paper weighs and rejects for its proofs:
//!
//! > "One presentation of an operational semantics is based on
//! > normalization ('big-step'), but we shall follow the approach of
//! > [Wright–Felleisen] and use an operational semantics based on
//! > reduction ('single-step')." — §3.3
//!
//! The small-step machine ([`crate::step()`](crate::step::step)) is the
//! specification and states `(ND comp)` and `(Definition)` by
//! substitution `q[x := v]`. This module is the algorithmic presentation
//! of the same rules — syntax-directed, environment-passing — and it is
//! production's interpreter: [`eval_big`] runs the queries Theorem 7
//! refuses to lower, and the `ioql-plan` executor holds an [`Interp`] as
//! its own state, so a plan and the expressions it does not compile share
//! one chooser, one fuel counter, one effect trace and one binding stack.
//! Both evaluators must agree (for the same [`Chooser`] decisions) on
//! every query — the workspace's differential suites drive thousands of
//! generated queries through both.
//!
//! Choice points: the comprehension rule consumes elements through the
//! same [`Chooser`] protocol as the machine — pick index `i` among the
//! *remaining* elements ([`Interp::draw`], production's only draw site),
//! evaluate the body, recurse on the rest, union the results
//! left-to-right.
//!
//! Bindings: a generator pushes one slot per drain and overwrites it per
//! row; a variable is an innermost-first lookup; a definition call runs
//! its body in a frame of its own, so a body sees its parameters and
//! never a caller's binder. No query is cloned or substituted to be
//! evaluated — only to be *shown*: a stuck state renders its
//! subexpression under the bindings in scope ([`Interp::stuck`]), which
//! is byte for byte the text eager substitution would have reached.

use crate::chooser::{bad_pick, Chooser};
use crate::machine::{DefEnv, EvalConfig, EvalError};
use ioql_ast::{
    AttrName, ClassName, ExtentName, Oid, Qualifier, Query, SetOp, SetVal, Value, VarName,
};
use ioql_effects::Effect;
use ioql_methods::{invoke, MethodCall};
use ioql_store::{MemberSet, Object, Store, StoreError};
use std::collections::VecDeque;

/// The result of a big-step evaluation.
#[derive(Clone, Debug)]
pub struct BigStepResult {
    /// The final value.
    pub value: Value,
    /// The accumulated effect trace (matches the small-step machine's
    /// union of step labels).
    pub effect: Effect,
}

/// A comprehension's result set under construction: produced values are
/// appended to a buffer and the set is built once, at completion, instead
/// of one B-tree insert per row (set order is unobservable — §3.3).
///
/// When the buffer reaches twice its last compacted length (floor 4 096)
/// it is sorted and deduplicated in place, so a duplicate-heavy
/// comprehension holds at most about 2 × max(distinct, 4 096) values.
/// [`finish`](SetBuilder::finish) is a bulk build over the buffer; the
/// cardinality is still observed by the caller, once, on the finished
/// set, and a failed run drops the buffer.
#[derive(Debug, Default)]
pub struct SetBuilder {
    buf: Vec<Value>,
    /// The buffer's length after its last compaction.
    compacted: usize,
}

impl SetBuilder {
    /// The buffer length below which no compaction happens.
    const FLOOR: usize = 4096;

    /// An empty builder.
    pub fn new() -> Self {
        SetBuilder::default()
    }

    /// Adds one produced value.
    pub fn push(&mut self, v: Value) {
        self.buf.push(v);
        if self.buf.len() >= (2 * self.compacted).max(Self::FLOOR) {
            self.buf.sort_unstable();
            self.buf.dedup();
            self.compacted = self.buf.len();
        }
    }

    /// The finished set.
    pub fn finish(self) -> SetVal {
        SetVal::from_iter(self.buf)
    }
}

/// The interpreter state of one production execution: `DE`, the chooser,
/// the fuel, the effect trace and the binding stack. The store is passed
/// to each call (`EE, OE` move; the rest is the execution's own).
pub struct Interp<'a, 'c> {
    /// The evaluator configuration (schema, method mode, governor,
    /// telemetry handles).
    pub cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    chooser: &'c mut dyn Chooser,
    /// The effect trace so far.
    pub effect: Effect,
    /// The remaining step budget. An executor that evaluates
    /// speculatively restores it when it discards the attempt.
    pub fuel: u64,
    max_steps: u64,
    /// The binding stack, outermost first: generator binders and, above
    /// `frame`, the parameters of the definition body being evaluated.
    pub binds: Vec<(VarName, Value)>,
    /// Where the current definition frame starts; lookups and rendering
    /// see `binds[frame..]` only.
    frame: usize,
    /// The `OE` chunk the last attribute read found its object in — the
    /// hint [`ObjectEnv::get_near`](ioql_store::ObjectEnv::get_near)
    /// starts from. The execution's own, so the shared store stays
    /// immutable under reads.
    near: usize,
    /// The class the last attribute read noted `Ra` for.
    noted: Option<ClassName>,
}

/// Evaluates `q` to a value in one recursive descent:
/// `DE ⊢ EE, OE, q ⇓ EE', OE', v ! ε`.
pub fn eval_big(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    q: &Query,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<BigStepResult, EvalError> {
    let mut interp = Interp::new(cfg, defs, chooser, max_steps);
    let value = interp.eval(store, q);
    let (value, effect) = interp.finish(value)?;
    Ok(BigStepResult { value, effect })
}

impl<'a, 'c> Interp<'a, 'c> {
    /// A fresh state: no bindings, no effect, `max_steps` fuel units.
    pub fn new(
        cfg: &'a EvalConfig<'a>,
        defs: &'a DefEnv,
        chooser: &'c mut dyn Chooser,
        max_steps: u64,
    ) -> Self {
        Interp {
            cfg,
            defs,
            chooser,
            effect: Effect::empty(),
            fuel: max_steps,
            max_steps,
            binds: Vec::new(),
            frame: 0,
            near: 0,
            noted: None,
        }
    }

    /// Ends the execution: records the fuel it spent (once, not per
    /// descent, and whether or not it failed) and pairs the outcome with
    /// the effect trace.
    pub fn finish(self, value: Result<Value, EvalError>) -> Result<(Value, Effect), EvalError> {
        if let Some(m) = self.cfg.metrics {
            m.recursions.add(self.max_steps - self.fuel);
        }
        Ok((value?, self.effect))
    }

    /// One cancellation/deadline checkpoint, then `k` fuel units — the
    /// cadence of the small-step driver's per-step checkpoint. The
    /// interpreter burns one unit per recursion, a plan operator one per
    /// entry and per draw, the VM a coalesced run of entries.
    pub fn burn(&mut self, k: u64) -> Result<(), EvalError> {
        if let Some(gov) = self.cfg.governor {
            gov.checkpoint()?;
        }
        self.fuel = self.fuel.checked_sub(k).ok_or(EvalError::FuelExhausted)?;
        Ok(())
    }

    /// The stuck state at `q`: the subexpression rendered under the
    /// bindings in scope, innermost first — the closed text eager
    /// substitution would have been looking at.
    pub fn stuck<T>(&self, q: &Query, reason: impl Into<String>) -> Result<T, EvalError> {
        let mut shown = q.clone();
        for (x, v) in self.binds[self.frame..].iter().rev() {
            shown = shown.subst(x, v);
        }
        Err(EvalError::Stuck {
            query: shown.to_string(),
            reason: reason.into(),
        })
    }

    /// Reports a finished set's cardinality to the governor.
    pub fn observe_card(&self, n: usize) -> Result<(), EvalError> {
        match self.cfg.governor {
            Some(gov) => gov.observe_set_card(n as u64),
            None => Ok(()),
        }
    }

    /// The observables of one extent read, in order — the unknown-extent
    /// stuck state, the `R(C)` effect, the cardinality observation —
    /// returning the members.
    pub fn read_extent<'s>(
        &mut self,
        store: &'s Store,
        extent: &ExtentName,
    ) -> Result<&'s MemberSet, EvalError> {
        let Some((class, members)) = store.extents.get(extent) else {
            return self.stuck(
                &Query::Extent(extent.clone()),
                format!("unknown extent `{extent}`"),
            );
        };
        self.effect.union_with(&Effect::read(class.clone()));
        self.observe_card(members.len())?;
        Ok(members)
    }

    /// One extent read ([`read_extent`](Interp::read_extent)) as a set
    /// value.
    pub fn extent(&mut self, store: &Store, extent: &ExtentName) -> Result<Value, EvalError> {
        let members = self.read_extent(store, extent)?;
        Ok(Value::Set(members.iter().map(|o| Value::Oid(*o)).collect()))
    }

    /// A set operator's result, observed.
    pub fn set_op(&self, op: SetOp, a: &SetVal, b: &SetVal) -> Result<Value, EvalError> {
        let result = op.apply(a, b);
        self.observe_card(result.len())?;
        Ok(Value::Set(result))
    }

    /// The wrapping `sum` of a finished set; `q` is the `sum(…)` node a
    /// non-integer element sticks at.
    pub fn sum(&self, q: &Query, set: &SetVal) -> Result<Value, EvalError> {
        let mut total = 0i64;
        for v in set {
            match v {
                Value::Int(i) => total = total.wrapping_add(*i),
                _ => return self.stuck(q, "sum over a non-integer set"),
            }
        }
        Ok(Value::Int(total))
    }

    /// A comprehension predicate's verdict from its value.
    pub fn truth(&self, p: &Query, v: Value) -> Result<bool, EvalError> {
        match v {
            Value::Bool(b) => Ok(b),
            _ => self.stuck(p, "non-boolean predicate"),
        }
    }

    /// A generator source's elements, in canonical order, ready to draw
    /// from.
    pub fn source(&mut self, store: &mut Store, src: &Query) -> Result<VecDeque<Value>, EvalError> {
        match self.eval(store, src)? {
            Value::Set(s) => Ok(s.into_iter().collect()),
            _ => self.stuck(src, "generator over a non-set"),
        }
    }

    /// One `(ND comp)` draw for generator `x`: ask the chooser, charge
    /// one cell, take the element out of the pool. Endpoint picks — the
    /// only picks the deterministic choosers make — are O(1); interior
    /// picks (random/scripted choosers) shift the shorter side. A pick
    /// that breaks the chooser's `i < n` contract is a stuck state.
    pub fn draw(
        &mut self,
        x: &VarName,
        remaining: &mut VecDeque<Value>,
    ) -> Result<Value, EvalError> {
        let n = remaining.len();
        let i = self.chooser.choose(n);
        if let Some(gov) = self.cfg.governor {
            gov.charge_cells(1)?;
        }
        let picked = if i == 0 {
            remaining.pop_front()
        } else if i + 1 == n {
            remaining.pop_back()
        } else {
            remaining.remove(i)
        };
        picked.ok_or_else(|| bad_pick(x, i, n))
    }

    /// A run of `k` draws that would each take the front of `remaining`,
    /// made as one: the chooser takes the `k` front picks at once
    /// ([`Chooser::front_run`]), and the run is charged `k` cells and `k`
    /// fuel units behind one checkpoint — the coalescing the VM's
    /// `Burn(k)` makes. The executor skips a probe's misses with it, and
    /// it is production's only caller of the chooser's run form.
    ///
    /// Exact: `Ok(false)` charges and takes nothing when the chooser
    /// declines or when the run would cross the cell limit or the fuel
    /// left; the caller then draws one element at a time, so every trip
    /// keeps its per-draw `spent`, error class and cell meter.
    pub fn skip(&mut self, remaining: &mut VecDeque<Value>, k: usize) -> Result<bool, EvalError> {
        let n = remaining.len();
        let run = k as u64;
        let cells_left = self.cfg.governor.and_then(|gov| gov.cells_remaining());
        if k > n
            || self.fuel < run
            || cells_left.is_some_and(|left| left < run)
            || !self.chooser.front_run(n, k)
        {
            return Ok(false);
        }
        if let Some(gov) = self.cfg.governor {
            gov.charge_cells(run)?;
        }
        remaining.drain(..k);
        self.burn(run)?;
        Ok(true)
    }

    /// The (Attribute) rule's read of `o.a`: notes `Ra(C)` for `o`'s class
    /// `C` and returns the attribute. The interpreter, the VM's attribute
    /// instructions and the plan's index build all read attributes here.
    ///
    /// A scan reads its objects in oid order, so `OE` is searched from
    /// the chunk the last read found ([`ObjectEnv::get_near`]), and the
    /// `Ra` set is probed only when `C` differs from the class the last
    /// read noted: `effect.attr_reads` only grows within one execution,
    /// so a class noted once is still there.
    ///
    /// [`ObjectEnv::get_near`]: ioql_store::ObjectEnv::get_near
    pub fn read_attr<'s>(
        &mut self,
        store: &'s Store,
        o: Oid,
        a: &AttrName,
    ) -> Result<&'s Value, EvalError> {
        let err = |e: StoreError| EvalError::Store(e.to_string());
        let obj = store
            .objects
            .get_near(o, &mut self.near)
            .ok_or_else(|| err(StoreError::UnknownOid(o)))?;
        if self.noted.as_ref() != Some(&obj.class) {
            if !self.effect.attr_reads.contains(&obj.class) {
                self.effect.attr_reads.insert(obj.class.clone());
            }
            self.noted = Some(obj.class.clone());
        }
        debug_assert!(self.effect.attr_reads.contains(&obj.class));
        obj.attr(a)
            .ok_or_else(|| err(StoreError::UnknownAttr(o, a.clone())))
    }

    fn int(&mut self, store: &mut Store, q: &Query) -> Result<i64, EvalError> {
        match self.eval(store, q)? {
            Value::Int(i) => Ok(i),
            _ => self.stuck(q, "expected an integer"),
        }
    }

    fn set(&mut self, store: &mut Store, q: &Query) -> Result<SetVal, EvalError> {
        match self.eval(store, q)? {
            Value::Set(s) => Ok(s),
            _ => self.stuck(q, "expected a set"),
        }
    }

    fn oid(&mut self, store: &mut Store, q: &Query) -> Result<Oid, EvalError> {
        match self.eval(store, q)? {
            Value::Oid(o) => Ok(o),
            _ => self.stuck(q, "expected an object"),
        }
    }

    /// Evaluates `q` under the bindings in scope.
    pub fn eval(&mut self, store: &mut Store, q: &Query) -> Result<Value, EvalError> {
        self.burn(1)?;
        match q {
            Query::Lit(v) => Ok(v.clone()),
            Query::Var(x) => match self.binds[self.frame..].iter().rfind(|(y, _)| y == x) {
                Some((_, v)) => Ok(v.clone()),
                None => self.stuck(q, format!("free variable `{x}` at runtime")),
            },
            Query::Extent(e) => self.extent(store, e),
            Query::SetLit(items) => {
                let mut set = SetBuilder::new();
                for item in items {
                    set.push(self.eval(store, item)?);
                }
                Ok(Value::Set(set.finish()))
            }
            Query::SetBin(op, a, b) => {
                let va = self.set(store, a)?;
                let vb = self.set(store, b)?;
                self.set_op(*op, &va, &vb)
            }
            Query::IntBin(op, a, b) => {
                let ia = self.int(store, a)?;
                let ib = self.int(store, b)?;
                Ok(op.apply(ia, ib))
            }
            Query::IntEq(a, b) => {
                let ia = self.int(store, a)?;
                let ib = self.int(store, b)?;
                Ok(Value::Bool(ia == ib))
            }
            Query::ObjEq(a, b) => {
                let oa = self.oid(store, a)?;
                let ob = self.oid(store, b)?;
                if !store.objects.contains(oa) || !store.objects.contains(ob) {
                    return self.stuck(q, "dangling oid");
                }
                Ok(Value::Bool(oa == ob))
            }
            Query::Record(fields) => {
                let mut record = std::collections::BTreeMap::new();
                for (l, fq) in fields {
                    record.insert(l.clone(), self.eval(store, fq)?);
                }
                Ok(Value::Record(record))
            }
            Query::Field(subject, l) => match self.eval(store, subject)? {
                Value::Record(fields) => match fields.get(l) {
                    Some(v) => Ok(v.clone()),
                    None => self.stuck(q, format!("no field `{l}`")),
                },
                _ => self.stuck(q, "field access on a non-record"),
            },
            Query::Call(d, args) => {
                let defs = self.defs;
                let Some(def) = defs.get(d) else {
                    return self.stuck(q, format!("unknown definition `{d}`"));
                };
                if def.params.len() != args.len() {
                    return self.stuck(q, "definition arity mismatch");
                }
                let mut argv = Vec::with_capacity(args.len());
                for arg in args {
                    argv.push(self.eval(store, arg)?);
                }
                // The body's frame holds its parameters only. Pushed last
                // to first: `q[x⃗ := v⃗]` substitutes left to right, so of
                // two parameters with one name the first is the one a
                // lookup must find.
                let (caller, base) = (self.frame, self.binds.len());
                self.frame = base;
                let params = def.params.iter().map(|(x, _)| x.clone());
                self.binds.extend(params.zip(argv).rev());
                let r = self.eval(store, &def.body);
                self.binds.truncate(base);
                self.frame = caller;
                r
            }
            Query::Size(inner) => {
                let s = self.set(store, inner)?;
                Ok(Value::Int(s.len() as i64))
            }
            Query::Sum(inner) => {
                let s = self.set(store, inner)?;
                self.sum(q, &s)
            }
            Query::Cast(c, inner) => {
                let o = self.oid(store, inner)?;
                let dynamic = store
                    .class_of(o)
                    .map_err(|e| EvalError::Store(e.to_string()))?;
                if self.cfg.schema.extends(dynamic, c) {
                    Ok(Value::Oid(o))
                } else {
                    self.stuck(q, format!("cast to `{c}` failed"))
                }
            }
            Query::Attr(subject, a) => {
                let o = self.oid(store, subject)?;
                self.read_attr(store, o, a).cloned()
            }
            Query::Invoke(recv, m, args) => {
                let o = self.oid(store, recv)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(store, a)?);
                }
                let call = MethodCall {
                    receiver: o,
                    method: m.clone(),
                    args: argv,
                };
                match invoke(
                    self.cfg.schema,
                    store,
                    &call,
                    self.cfg.method_mode,
                    self.cfg.method_fuel,
                ) {
                    Ok(r) => {
                        self.effect.union_with(&r.effect);
                        Ok(r.value)
                    }
                    Err(ioql_methods::MethodError::Diverged) => Err(EvalError::MethodDiverged {
                        method: m.to_string(),
                    }),
                    Err(e) => self.stuck(q, e.to_string()),
                }
            }
            Query::New(c, attrs) => {
                let mut vals = Vec::with_capacity(attrs.len());
                for (a, aq) in attrs {
                    vals.push((a.clone(), self.eval(store, aq)?));
                }
                let extents = self.cfg.schema.extents_for_new(c);
                if extents.is_empty() {
                    return self.stuck(q, format!("class `{c}` has no extent"));
                }
                if let Some(gov) = self.cfg.governor {
                    gov.charge_growth(1)?;
                }
                self.effect
                    .union_with(&Effect::creation(self.cfg.schema, c));
                let o = store
                    .create(Object::new(c.clone(), vals), extents)
                    .map_err(|e| EvalError::Store(e.to_string()))?;
                Ok(Value::Oid(o))
            }
            Query::If(cond, then, els) => match self.eval(store, cond)? {
                Value::Bool(true) => self.eval(store, then),
                Value::Bool(false) => self.eval(store, els),
                _ => self.stuck(q, "non-boolean condition"),
            },
            Query::Comp(head, quals) => {
                let mut out = SetBuilder::new();
                self.comp(store, head, quals, &mut out)?;
                let out = out.finish();
                // The small-step engine's outermost (Union) observes the
                // completed comprehension; intermediate unions are
                // subsets of it, so one observation of the final set
                // trips exactly when the machine's observations do.
                self.observe_card(out.len())?;
                Ok(Value::Set(out))
            }
        }
    }

    /// Evaluates a comprehension tail, pushing produced elements into
    /// `out`. Mirrors the small-step rules: first qualifier decides; a
    /// generator draws elements through the chooser, evaluating the rest
    /// of the comprehension per element *in the drawn order*.
    fn comp(
        &mut self,
        store: &mut Store,
        head: &Query,
        quals: &[Qualifier],
        out: &mut SetBuilder,
    ) -> Result<(), EvalError> {
        match quals.split_first() {
            None => {
                let v = self.eval(store, head)?;
                out.push(v);
                Ok(())
            }
            Some((Qualifier::Pred(p), rest)) => {
                let v = self.eval(store, p)?;
                if self.truth(p, v)? {
                    self.comp(store, head, rest, out)?;
                }
                Ok(())
            }
            Some((Qualifier::Gen(x, src), rest)) => {
                let mut remaining = self.source(store, src)?;
                // One slot per drain, overwritten per row; the value it
                // is pushed with is never read.
                let slot = self.binds.len();
                self.binds.push((x.clone(), Value::Bool(false)));
                let mut r = Ok(());
                while r.is_ok() && !remaining.is_empty() {
                    r = self.draw(x, &mut remaining).and_then(|picked| {
                        self.binds[slot].1 = picked;
                        self.comp(store, head, rest, out)
                    });
                }
                self.binds.truncate(slot);
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::FirstChooser;
    use ioql_ast::{AttrDef, ClassDef, ClassName, VarName};
    use ioql_schema::Schema;
    use std::collections::BTreeSet;

    fn setup() -> (Schema, Store) {
        let schema = Schema::new(vec![ClassDef::plain(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap();
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        for n in [1, 2, 3] {
            store
                .create(
                    Object::new("P", [("n", Value::Int(n))]),
                    [ioql_ast::ExtentName::new("Ps")],
                )
                .unwrap();
        }
        (schema, store)
    }

    #[test]
    fn agrees_with_small_step_on_a_scan() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let q = Query::comp(
            Query::var("x").attr("n").add(Query::int(10)),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let mut s1 = store.clone();
        let big = eval_big(&cfg, &defs, &mut s1, &q, &mut FirstChooser, 100_000).unwrap();
        let mut s2 = store.clone();
        let small =
            crate::machine::evaluate(&cfg, &defs, &mut s2, &q, &mut FirstChooser, 100_000).unwrap();
        assert_eq!(big.value, small.value);
        assert_eq!(big.effect, small.effect);
        assert_eq!(s1, s2);
    }

    /// Runs `q` through both engines with matched choosers and asserts
    /// value/effect/store agreement (success) or error-class agreement
    /// (failure).
    fn assert_engines_agree(schema: &Schema, store: &Store, q: &Query) {
        use crate::chooser::LastChooser;
        let cfg = EvalConfig::new(schema);
        let defs = DefEnv::new();
        for first in [true, false] {
            let mut s1 = store.clone();
            let mut s2 = store.clone();
            let (big, small) = if first {
                (
                    eval_big(&cfg, &defs, &mut s1, q, &mut FirstChooser, 100_000),
                    crate::machine::evaluate(&cfg, &defs, &mut s2, q, &mut FirstChooser, 100_000),
                )
            } else {
                (
                    eval_big(&cfg, &defs, &mut s1, q, &mut LastChooser, 100_000),
                    crate::machine::evaluate(&cfg, &defs, &mut s2, q, &mut LastChooser, 100_000),
                )
            };
            match (big, small) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.value, s.value, "value mismatch on {q}");
                    assert_eq!(b.effect, s.effect, "effect mismatch on {q}");
                    assert_eq!(s1, s2, "store mismatch on {q}");
                }
                (Err(b), Err(s)) => assert_eq!(
                    std::mem::discriminant(&b),
                    std::mem::discriminant(&s),
                    "error class mismatch on {q}: big={b:?} small={s:?}"
                ),
                (b, s) => panic!("one engine failed on {q}: big={b:?} small={s:?}"),
            }
        }
    }

    // The next four shapes used to exercise the in-evaluator hash-index
    // fast path; that machinery now lives in `ioql-plan` (which has its
    // own parity suite), so here they pin down plain naive agreement on
    // exactly the shapes the plan layer lowers.

    #[test]
    fn attr_equality_agrees_with_small_step() {
        let (schema, store) = setup();
        // `{ x.n + 100 | x <- Ps, x.n = 2 }` — attr access on the
        // generator variable, closed int side.
        let q = Query::comp(
            Query::var("x").attr("n").add(Query::int(100)),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::var("x").attr("n").int_eq(Query::int(2))),
            ],
        );
        assert_engines_agree(&schema, &store, &q);
    }

    #[test]
    fn bare_equality_agrees_with_small_step() {
        let (schema, store) = setup();
        // Closed side on the *left* — `2 = x` over a set literal.
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen(
                    VarName::new("x"),
                    Query::set_lit([Query::int(1), Query::int(2), Query::int(3)]),
                ),
                Qualifier::Pred(Query::int(2).int_eq(Query::var("x"))),
            ],
        );
        assert_engines_agree(&schema, &store, &q);
    }

    #[test]
    fn obj_equality_agrees_with_small_step() {
        let (schema, store) = setup();
        // `{ 1 | x <- Ps, x == x' }` with x' drawn via a nested closed
        // scan is not closed; use identity against a literal oid instead.
        let some_oid = {
            let Value::Set(s) = store
                .extent_value(&ioql_ast::ExtentName::new("Ps"))
                .unwrap()
            else {
                panic!("extent is a set")
            };
            s.into_iter().next().unwrap()
        };
        let q = Query::comp(
            Query::var("x").attr("n"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::var("x").obj_eq(Query::Lit(some_oid))),
            ],
        );
        assert_engines_agree(&schema, &store, &q);
    }

    #[test]
    fn ill_typed_generator_elements_stick_identically() {
        let (schema, store) = setup();
        // A boolean sneaks into the generator set: the equality sticks
        // at the same draw in both engines.
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen(
                    VarName::new("x"),
                    Query::set_lit([Query::int(1), Query::bool(true)]),
                ),
                Qualifier::Pred(Query::var("x").int_eq(Query::int(1))),
            ],
        );
        assert_engines_agree(&schema, &store, &q);
    }

    #[test]
    fn mutating_body_behind_equality_agrees() {
        let (schema, store) = setup();
        // The head contains `new`, so the store moves between draws —
        // both engines must agree on the created objects (the plan
        // layer refuses to lower this shape; here the naive loops run).
        let q = Query::comp(
            Query::New(
                ClassName::new("P"),
                vec![(ioql_ast::AttrName::new("n"), Query::var("x"))],
            ),
            [
                Qualifier::Gen(
                    VarName::new("x"),
                    Query::set_lit([Query::int(7), Query::int(8)]),
                ),
                Qualifier::Pred(Query::var("x").int_eq(Query::int(7))),
            ],
        );
        assert_engines_agree(&schema, &store, &q);
    }

    #[test]
    fn scripted_taken_replays_through_both_engines() {
        use crate::chooser::ScriptedChooser;
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        // `new` in the head makes the outcome order-sensitive, so a
        // wrong replay path would be visible in the produced store.
        let q = Query::comp(
            Query::New(
                ClassName::new("P"),
                vec![(ioql_ast::AttrName::new("n"), Query::var("x"))],
            ),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(1), Query::int(2), Query::int(3)]),
            )],
        );
        // Out-of-range script entries get clamped by `choose`; `taken()`
        // must report the clamped path so it replays to this outcome.
        let mut orig = ScriptedChooser::new(vec![99, 99, 99]);
        let mut s0 = store.clone();
        let r0 = eval_big(&cfg, &defs, &mut s0, &q, &mut orig, 100_000).unwrap();
        let path = orig.taken();
        assert_eq!(path, vec![2, 1, 0], "clamped picks, not raw 99s");
        let mut s1 = store.clone();
        let r1 = eval_big(
            &cfg,
            &defs,
            &mut s1,
            &q,
            &mut ScriptedChooser::new(path.clone()),
            100_000,
        )
        .unwrap();
        assert_eq!(r0.value, r1.value);
        assert_eq!(s0, s1);
        let mut s2 = store.clone();
        let r2 = crate::machine::evaluate(
            &cfg,
            &defs,
            &mut s2,
            &q,
            &mut ScriptedChooser::new(path),
            100_000,
        )
        .unwrap();
        assert_eq!(r0.value, r2.value);
        assert_eq!(s0, s2);
    }

    /// A built set is the B-tree of the pushed values, whatever their
    /// multiplicity and order — across compactions too.
    #[test]
    fn set_builder_finishes_as_from_iter() {
        use ioql_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x5E7);
        for round in 0..64 {
            let len = rng.gen_range(0..3 * SetBuilder::FLOOR);
            let spread = rng.gen_range(1..2 * len as u64 + 2);
            let values: Vec<Value> = (0..len)
                .map(|_| Value::Int(rng.gen_range(0..spread) as i64))
                .collect();
            let mut b = SetBuilder::new();
            for v in &values {
                b.push(v.clone());
            }
            assert_eq!(*b.finish(), BTreeSet::from_iter(values), "round {round}");
        }
    }

    #[test]
    fn set_builder_stays_bounded_under_duplicates() {
        let mut b = SetBuilder::new();
        for i in 0..1_000_000 {
            b.push(Value::Int(i % 3));
            assert!(b.buf.len() <= SetBuilder::FLOOR, "{} buffered", b.buf.len());
        }
        let want: BTreeSet<Value> = (0..3).map(Value::Int).collect();
        assert_eq!(*b.finish(), want);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        // size(Ps) needs two burns; give it one.
        let q = Query::extent("Ps").size_of();
        let mut s = store;
        let r = eval_big(&cfg, &DefEnv::new(), &mut s, &q, &mut FirstChooser, 1);
        assert!(matches!(r, Err(EvalError::FuelExhausted)), "{r:?}");
    }

    #[test]
    fn ill_typed_sticks() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let q = Query::bool(true).add(Query::int(1));
        let mut s = store;
        let r = eval_big(&cfg, &DefEnv::new(), &mut s, &q, &mut FirstChooser, 100);
        assert!(matches!(r, Err(EvalError::Stuck { .. })));
    }
}
