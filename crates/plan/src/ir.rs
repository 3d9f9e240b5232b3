//! The physical operator IR and its renderer.
//!
//! A [`Plan`] is a tree of [`Op`]s; comprehensions become a
//! [`OpKind::Distinct`]/[`OpKind::MapProject`]/[`OpKind::Pipeline`] spine
//! whose [`Stage`]s mirror the qualifier list. The IR is deliberately
//! small: every *row-level* expression (predicate, projection head,
//! generator source that is not an extent) stays an AST [`Query`]. A head
//! or predicate in the scalar, draw-free fragment also gets a
//! [`bytecode`](crate::bytecode) program ([`Plan::compiled`]) that the
//! interpreters are the oracle for; everything else is evaluated at run
//! time by the big-step interpreter ([`ioql_eval::Interp`]) the executor
//! runs on, so those expressions are evaluated by the naive engine itself.
//!
//! Every node carries a stable [`NodeId`], assigned in pre-order by
//! [`Plan::number`] at the end of lowering. Profiles and compile
//! verdicts key per-node state by id rather than by node address, so
//! cloning a subtree (or moving the plan) never orphans them. The tree's
//! shape is spelled twice: `number_op` (the `&mut` pass that assigns
//! ids) and `Plan::walk` (the read-only pre-order every consumer —
//! renderer, verdict bridge, profiler index, compile pass — iterates).

use crate::bytecode::CompileVerdict;
use ioql_ast::{AttrName, DefName, ExtentName, Query, VarName};
use ioql_effects::Effect;
use std::collections::BTreeMap;
use std::fmt;

/// A stable node identifier, assigned in pre-order by [`Plan::number`].
///
/// Ids are dense (`0..n` over the whole tree, stages included), so a
/// profiler can index per-node state by id without hashing node
/// addresses — the address of a node is not stable across clones.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Which equality a [`StageKind::HashIndexProbe`] implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EqKind {
    /// `=` — integer equality.
    Int,
    /// `==` — object identity.
    Obj,
}

impl fmt::Display for EqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EqKind::Int => write!(f, "="),
            EqKind::Obj => write!(f, "=="),
        }
    }
}

/// How a [`HashIndexBuild`] reaches the key inside each generator
/// element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KeyAccess {
    /// The element itself is the key: `x = q` / `q == x`.
    Bare,
    /// One attribute hop: `x.a = q` / `q == x.a`.
    Attr(AttrName),
}

impl KeyAccess {
    /// The key as the plan renders it: `x` or `x.a`.
    fn path(&self, var: &VarName) -> String {
        match self {
            KeyAccess::Bare => var.to_string(),
            KeyAccess::Attr(a) => format!("{var}.{a}"),
        }
    }
}

/// The build side of a hash probe: scan the generator's elements,
/// extracting the key from each, and group the elements by key — once
/// per execution per stage over an extent (the executor's index table),
/// once per drain over a computed source.
#[derive(Clone, Debug)]
pub struct HashIndexBuild {
    /// The equality the index implements.
    pub eq: EqKind,
    /// How the key is reached inside each element.
    pub key: KeyAccess,
    /// Estimated number of keys (the generator's estimated rows).
    pub est_rows: usize,
}

/// One stage of a [`OpKind::Pipeline`]: a stable id and the stage
/// proper.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Stable pre-order id (see [`Plan::number`]).
    pub id: NodeId,
    /// The stage itself.
    pub kind: StageKind,
}

impl Stage {
    /// A stage with a zero id — [`Plan::number`] fills it in.
    pub fn new(kind: StageKind) -> Stage {
        Stage {
            id: NodeId::default(),
            kind,
        }
    }
}

/// The physical form of one qualifier.
#[derive(Clone, Debug)]
pub enum StageKind {
    /// A generator drawing directly from a class extent.
    ExtentScan {
        /// The generator variable.
        var: VarName,
        /// The extent scanned.
        extent: ExtentName,
        /// Estimated rows (from [`ioql_opt::Stats`]).
        est_rows: usize,
    },
    /// A generator over a computed set (evaluated by the interpreter).
    Scan {
        /// The generator variable.
        var: VarName,
        /// The source expression.
        source: Query,
        /// Estimated rows.
        est_rows: usize,
    },
    /// A predicate qualifier, evaluated per row — by its compiled program,
    /// else by the interpreter.
    Filter {
        /// The predicate expression.
        pred: Query,
    },
    /// An equality predicate fused into the preceding generator stage: a
    /// [`HashIndexBuild`] over the generator's elements, built once per
    /// execution per stage when they are an extent's, then per drain one
    /// evaluation of the probe side and a set probe per drawn element
    /// instead of a per-row predicate evaluation. Generalizes to the
    /// cross-generator case (a hash semi-join) when `probe` mentions
    /// variables bound by *enclosing* generators.
    HashIndexProbe {
        /// The generator variable this probe is fused with.
        var: VarName,
        /// The build side.
        build: HashIndexBuild,
        /// The non-variable side of the equality (closed, or bound only
        /// by enclosing generators).
        probe: Query,
        /// The original predicate, kept verbatim for the speculative
        /// fallback path (any build anomaly reverts to per-row
        /// evaluation, reproducing the naive engines' exact error).
        pred: Query,
        /// Estimated cost, per drain, of the naive per-row filter.
        scan_cost: usize,
        /// Estimated cost, per drain, of the build's share plus the
        /// probes.
        index_cost: usize,
    },
}

/// A physical operator: a stable id and the operator proper.
#[derive(Clone, Debug)]
pub struct Op {
    /// Stable pre-order id (see [`Plan::number`]).
    pub id: NodeId,
    /// The operator itself.
    pub kind: OpKind,
}

impl Op {
    /// An operator with a zero id — [`Plan::number`] fills it in.
    pub fn new(kind: OpKind) -> Op {
        Op {
            id: NodeId::default(),
            kind,
        }
    }
}

/// Which fold an [`OpKind::Aggregate`] applies to its input set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggKind {
    /// `sum(q)` — wrapping integer sum of the set's elements.
    Sum,
    /// `size(q)` — the set's cardinality.
    Size,
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggKind::Sum => write!(f, "sum"),
            AggKind::Size => write!(f, "size"),
        }
    }
}

/// The operator alternatives.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Read a whole extent (records `R(C)` and observes its
    /// cardinality, exactly as the naive engines do).
    ExtentScan {
        /// The extent read.
        extent: ExtentName,
        /// Estimated rows.
        est_rows: usize,
    },
    /// Set union of two sub-plans (left evaluated first).
    SetUnion {
        /// Left operand.
        left: Box<Op>,
        /// Right operand.
        right: Box<Op>,
    },
    /// Set intersection of two sub-plans.
    SetIntersect {
        /// Left operand.
        left: Box<Op>,
        /// Right operand.
        right: Box<Op>,
    },
    /// Set difference of two sub-plans.
    SetDiff {
        /// Left operand.
        left: Box<Op>,
        /// Right operand.
        right: Box<Op>,
    },
    /// Deduplicate the input — IOQL comprehensions denote *sets*, so
    /// every pipeline is crowned with a `Distinct`.
    Distinct {
        /// The input operator.
        input: Box<Op>,
    },
    /// Project each pipeline row through the comprehension head.
    MapProject {
        /// The head expression (evaluated per row: compiled program, else
        /// the interpreter).
        head: Query,
        /// The qualifier pipeline feeding it.
        input: Box<Op>,
    },
    /// The qualifier list of one comprehension, as a stage pipeline.
    Pipeline {
        /// The stages, in qualifier order.
        stages: Vec<Stage>,
    },
    /// A definition call inlined at plan time (all arguments were
    /// literals, so parameter substitution is exact).
    InlineDef {
        /// The definition's name (for rendering).
        name: DefName,
        /// The lowered body after parameter substitution.
        body: Box<Op>,
    },
    /// Fold a set-valued sub-plan to one integer — the only operator
    /// whose result is not a set. The input is a *set* (a comprehension
    /// arrives through its `Distinct`), so `sum` is over distinct values,
    /// exactly as in the naive engines.
    Aggregate {
        /// The fold.
        kind: AggKind,
        /// The whole `sum(q)` / `size(q)` query, quoted by the fold's
        /// stuck state (`sum` over a non-integer set) exactly as the
        /// big-step evaluator quotes it.
        expr: Query,
        /// The set-valued input.
        input: Box<Op>,
    },
    /// Escape hatch: a pure expression with no recognized physical shape
    /// — a set operand, an aggregate's input, or a whole scalar/record/
    /// `if` root — evaluated wholesale by the interpreter.
    Eval {
        /// The expression.
        expr: Query,
    },
}

impl Op {
    /// A one-line label for this operator (shared by the renderer's
    /// structure and the executor's profile, so `:plan` and
    /// `:plan analyze` rows line up).
    pub fn label(&self) -> String {
        match &self.kind {
            OpKind::ExtentScan { extent, .. } => format!("ExtentScan {extent}"),
            OpKind::SetUnion { .. } => "SetUnion".into(),
            OpKind::SetIntersect { .. } => "SetIntersect".into(),
            OpKind::SetDiff { .. } => "SetDiff".into(),
            OpKind::Distinct { .. } => "Distinct".into(),
            OpKind::MapProject { head, .. } => format!("MapProject  head = {head}"),
            OpKind::Pipeline { .. } => "Pipeline".into(),
            OpKind::InlineDef { name, .. } => format!("InlineDef {name}"),
            OpKind::Aggregate { kind, .. } => format!("Aggregate {kind}"),
            OpKind::Eval { expr } => format!("Eval  {expr}"),
        }
    }

    /// The optimizer's row estimate for this operator, where one exists.
    pub fn est_rows(&self) -> Option<usize> {
        match &self.kind {
            OpKind::ExtentScan { est_rows, .. } => Some(*est_rows),
            _ => None,
        }
    }
}

impl Stage {
    /// A one-line label for this stage (see [`Op::label`]).
    pub fn label(&self) -> String {
        match &self.kind {
            StageKind::ExtentScan { var, extent, .. } => format!("ExtentScan {var} <- {extent}"),
            StageKind::Scan { var, source, .. } => format!("Scan {var} <- {source}"),
            StageKind::Filter { pred } => format!("Filter  {pred}"),
            StageKind::HashIndexProbe {
                var, build, probe, ..
            } => format!(
                "HashIndexProbe  {} {} {probe}",
                build.key.path(var),
                build.eq
            ),
        }
    }

    /// The optimizer's row estimate for this stage, where one exists.
    pub fn est_rows(&self) -> Option<usize> {
        match &self.kind {
            StageKind::ExtentScan { est_rows, .. } | StageKind::Scan { est_rows, .. } => {
                Some(*est_rows)
            }
            StageKind::Filter { .. } | StageKind::HashIndexProbe { .. } => None,
        }
    }
}

/// The effect evidence licensing a plan — the Theorem 7 guard.
///
/// A plan is only emitted when the query's inferred Figure-3 effect is
/// read-only (no `A(C)`, no `U(C)`), the elaborated query contains no
/// `new` and no method invocation, and every called definition is
/// `new`-free and invocation-free. Under those conditions Theorem 7
/// guarantees evaluation order cannot be observed, which is exactly the
/// freedom the physical operators exploit (index builds scan ahead of
/// the chooser's draw order and serve every drain of the execution; set
/// operands evaluate independently).
#[derive(Clone, Debug)]
pub struct Guard {
    /// The statically inferred effect of the whole query.
    pub effect: Effect,
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Thm 7: effect {} is read-only; new-free; invocation-free defs",
            self.effect
        )
    }
}

/// A complete physical plan: the operator tree, the effect guard that
/// licensed it, and the compile tier's verdicts.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The root operator.
    pub root: Op,
    /// The licensing guard.
    pub guard: Guard,
    /// The compile tier's verdict per expression-bearing node (the
    /// `head` of a `MapProject`, the `pred` of a `Filter`), keyed by
    /// [`NodeId`] and rendered by `:plan` as `[vm]` / `[interp(reason)]`.
    /// Empty when lowering ran with compilation off, keeping `:plan`
    /// output annotation-free.
    pub compiled: BTreeMap<NodeId, CompileVerdict>,
}

impl Plan {
    /// Assigns dense pre-order [`NodeId`]s to every operator and stage.
    ///
    /// Called by the lowering on every plan it emits; hand-built plans
    /// (tests) must call it before profiled execution so per-node keys
    /// are distinct.
    pub fn number(&mut self) {
        let mut next = 0u32;
        number_op(&mut self.root, &mut next);
    }
}

fn number_op(op: &mut Op, next: &mut u32) {
    op.id = NodeId(*next);
    *next += 1;
    match &mut op.kind {
        OpKind::SetUnion { left, right }
        | OpKind::SetIntersect { left, right }
        | OpKind::SetDiff { left, right } => {
            number_op(left, next);
            number_op(right, next);
        }
        OpKind::Distinct { input }
        | OpKind::MapProject { input, .. }
        | OpKind::Aggregate { input, .. } => {
            number_op(input, next);
        }
        OpKind::Pipeline { stages } => {
            for stage in stages {
                stage.id = NodeId(*next);
                *next += 1;
            }
        }
        OpKind::InlineDef { body, .. } => number_op(body, next),
        OpKind::ExtentScan { .. } | OpKind::Eval { .. } => {}
    }
}

/// One node's compile verdict, bridged out of the operator tree for the
/// flight recorder: the `:plan` annotation (`vm` / `interp(reason)`) as
/// a plain string, keyed by the same [`NodeId`]s the profile uses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeVerdict {
    /// The node's stable id.
    pub id: NodeId,
    /// The node's one-line label ([`Op::label`] / [`Stage::label`]).
    pub label: String,
    /// The compile verdict, rendered (`vm` / `interp(reason)`).
    pub compile: String,
}

/// One node of the tree as [`Plan::walk`] visits it.
#[derive(Clone, Copy)]
pub(crate) enum Node<'p> {
    /// An operator.
    Op(&'p Op),
    /// A pipeline stage.
    Stage(&'p Stage),
}

impl Node<'_> {
    pub(crate) fn id(&self) -> NodeId {
        match self {
            Node::Op(op) => op.id,
            Node::Stage(st) => st.id,
        }
    }

    pub(crate) fn label(&self) -> String {
        match self {
            Node::Op(op) => op.label(),
            Node::Stage(st) => st.label(),
        }
    }

    pub(crate) fn est_rows(&self) -> Option<usize> {
        match self {
            Node::Op(op) => op.est_rows(),
            Node::Stage(st) => st.est_rows(),
        }
    }

    /// Whether the node owns a per-row expression the compile pass
    /// judges: a `MapProject` head or a `Filter` predicate.
    pub(crate) fn has_row_expr(&self) -> bool {
        match self {
            Node::Op(op) => matches!(op.kind, OpKind::MapProject { .. }),
            Node::Stage(st) => matches!(st.kind, StageKind::Filter { .. }),
        }
    }

    /// What `:plan` prints after the label, estimate and verdict, for the
    /// kinds that have more to say.
    fn detail(&self, depth: usize) -> String {
        match self {
            Node::Op(op) => match &op.kind {
                OpKind::InlineDef { .. } => "  (literal args inlined)".into(),
                OpKind::Eval { .. } => "  (pure operand, interpreted)".into(),
                _ => String::new(),
            },
            Node::Stage(st) => match &st.kind {
                StageKind::HashIndexProbe {
                    var,
                    build,
                    scan_cost,
                    index_cost,
                    ..
                } => format!(
                    "  (cost: index {index_cost} vs scan {scan_cost})  \
                     [guard: loop-stable body, pure probe]\n{}\
                     HashIndexBuild  {} on {}  (~{} keys)",
                    "  ".repeat(depth + 1),
                    match build.eq {
                        EqKind::Int => "int",
                        EqKind::Obj => "oid",
                    },
                    build.key.path(var),
                    build.est_rows
                ),
                _ => String::new(),
            },
        }
    }
}

fn walk_op<'p>(op: &'p Op, depth: usize, out: &mut Vec<(usize, Node<'p>)>) {
    out.push((depth, Node::Op(op)));
    match &op.kind {
        OpKind::SetUnion { left, right }
        | OpKind::SetIntersect { left, right }
        | OpKind::SetDiff { left, right } => {
            walk_op(left, depth + 1, out);
            walk_op(right, depth + 1, out);
        }
        OpKind::Distinct { input }
        | OpKind::MapProject { input, .. }
        | OpKind::Aggregate { input, .. } => walk_op(input, depth + 1, out),
        OpKind::Pipeline { stages } => {
            out.extend(stages.iter().map(|st| (depth + 1, Node::Stage(st))));
        }
        OpKind::InlineDef { body, .. } => walk_op(body, depth + 1, out),
        OpKind::ExtentScan { .. } | OpKind::Eval { .. } => {}
    }
}

impl Plan {
    /// Every operator and stage with its depth (the root at 1), in the
    /// pre-order [`Plan::number`] assigns ids in — the one read-only
    /// traversal of the tree.
    pub(crate) fn walk(&self) -> Vec<(usize, Node<'_>)> {
        let mut out = Vec::new();
        walk_op(&self.root, 1, &mut out);
        out
    }

    /// The compile verdict of node `id` as `:plan` spells it (`vm` /
    /// `interp(reason)`); `None` for nodes the compile pass did not
    /// annotate (or when compilation is off).
    fn compile_string(&self, id: NodeId) -> Option<String> {
        self.compiled.get(&id).map(|v| match v {
            CompileVerdict::Vm(_) => "vm".to_string(),
            CompileVerdict::Interp(reason) => format!("interp({reason})"),
        })
    }

    /// Renders the plan as an indented operator tree with cost
    /// estimates, guard and compile annotations (the `:plan` / `explain`
    /// output): per node its label — the one `:plan analyze` rows carry —
    /// then the estimate, the verdict and the kind's own detail.
    pub fn render(&self) -> String {
        let mut out = format!("Plan  [guard: {}]\n", self.guard);
        for (depth, node) in self.walk() {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&node.label());
            if let Some(n) = node.est_rows() {
                out.push_str(&format!("  (~{n} rows)"));
            }
            if let Some(c) = self.compile_string(node.id()) {
                out.push_str(&format!("  [{c}]"));
            }
            out.push_str(&node.detail(depth));
            out.push('\n');
        }
        out
    }

    /// Collects every compile-annotated node's verdict in pre-order —
    /// the bridge from the plan tree to the flight recorder's span tree
    /// (so a compile-off plan yields none).
    pub fn verdicts(&self) -> Vec<NodeVerdict> {
        let annotated = |(_, node): (usize, Node<'_>)| {
            Some(NodeVerdict {
                id: node.id(),
                label: node.label(),
                compile: self.compile_string(node.id())?,
            })
        };
        self.walk().into_iter().filter_map(annotated).collect()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
