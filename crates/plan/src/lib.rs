//! Physical query plans for IOQL — the §4 "applications" of the effect
//! system turned into an executable operator layer.
//!
//! The paper's Theorems 7–8 show that a read-only, `new`-free effect
//! licenses execution-strategy freedom: the order in which qualifiers
//! draw and set operands evaluate cannot be observed. This crate cashes
//! that licence in three pieces:
//!
//! * an **operator IR** ([`ir`]) — `ExtentScan`, `HashIndexBuild` /
//!   `HashIndexProbe` (the generalization of the big-step evaluator's
//!   former in-line fast path, including the cross-generator hash
//!   semi-join), `Filter`, `MapProject`, `SetUnion` / `SetIntersect` /
//!   `SetDiff`, `Distinct`, `InlineDef`, `Aggregate` (a `sum`/`size`
//!   over any of those) and `Eval` (any other expression, interpreted
//!   whole) — with a renderer for `explain` / `:plan` output;
//! * a **total lowering** ([`lower()`]) consuming the elaborated query
//!   *and its inferred Figure-3 effect*, emitting a plan for every query
//!   and, where the Theorem 7 verdict licenses an index, choosing scan vs
//!   index cost-based via [`ioql_opt::Stats`];
//! * a **pull-based executor** ([`execute()`]) that keeps observational
//!   parity with the naive engines — one `(ND comp)` loop with the same
//!   [`Chooser`](ioql_eval::Chooser) draw protocol, the same governor
//!   cell charges and cardinality observations; a row-level expression
//!   in the scalar, draw-free fragment runs as [`bytecode`] the
//!   interpreters are the oracle for, every other one is evaluated by
//!   the [`ioql_eval::Interp`] the executor holds as its own state —
//!   so the differential suites can hold it to the same standard as the
//!   two interpreters.
//!
//! A query the guard refuses (one that writes) still lowers, to a plan
//! with no [`StageKind::HashIndexProbe`]: its `new`s, invocations and
//! updates run on the [`ioql_eval::Interp`] big-step uses, at big-step's
//! draw position, so production has one executor.

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod ir;
mod lower;

pub use bytecode::{compile, CompileVerdict, Program, VmCtx};
pub use exec::{execute, execute_with_profile, PlanProfile, PlanResult, ProfEntry};
pub use ir::{
    AggKind, EqKind, Guard, HashIndexBuild, KeyAccess, NodeId, NodeVerdict, Op, OpKind, Plan,
    Stage, StageKind,
};
pub use lower::{lower, lower_with, ParSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ClassName, Qualifier, Query, Value, VarName};
    use ioql_effects::Effect;
    use ioql_eval::{eval_big, DefEnv, EvalConfig, FirstChooser, LastChooser};
    use ioql_opt::Stats;
    use ioql_schema::Schema;
    use ioql_store::{Object, Store};

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
        for n in 1..=20 {
            store
                .create(
                    Object::new("P", [("n", Value::Int(n))]),
                    [ioql_ast::ExtentName::new("Ps")],
                )
                .unwrap();
        }
        (schema, store)
    }

    fn selective_eq() -> Query {
        Query::comp(
            Query::var("x").attr("n").add(Query::int(100)),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::var("x").attr("n").int_eq(Query::int(2))),
            ],
        )
    }

    fn stats_for(store: &Store) -> Stats {
        let mut stats = Stats::new();
        for (e, _, members) in store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        stats
    }

    #[test]
    fn selective_equality_lowers_to_a_probe() {
        let (_, store) = setup();
        let plan = lower(
            &selective_eq(),
            &Effect::read("P").union(&Effect::attr_read("P")),
            &DefEnv::new(),
            &stats_for(&store),
        )
        .expect("eligible query must lower");
        let rendered = plan.render();
        assert!(rendered.contains("HashIndexProbe"), "{rendered}");
        assert!(rendered.contains("HashIndexBuild"), "{rendered}");
        assert!(rendered.contains("ExtentScan"), "{rendered}");
        assert!(rendered.contains("Thm 7"), "{rendered}");
    }

    #[test]
    fn tiny_extents_prefer_the_plain_filter() {
        let q = selective_eq();
        let mut stats = Stats::new();
        stats.set("Ps", 2);
        let plan = lower(
            &q,
            &Effect::read("P").union(&Effect::attr_read("P")),
            &DefEnv::new(),
            &stats,
        )
        .unwrap();
        let rendered = plan.render();
        assert!(rendered.contains("Filter"), "{rendered}");
        assert!(!rendered.contains("HashIndexProbe"), "{rendered}");
    }

    /// A writer lowers like any query, but its plan holds no probe: the
    /// equality `selective_eq` probes stays a `Filter`, and the plan runs
    /// to big-step's value, effect and store.
    #[test]
    fn mutating_queries_lower_without_probes() {
        let (schema, store) = setup();
        let (defs, stats) = (DefEnv::new(), stats_for(&store));
        let Query::Comp(_, quals) = selective_eq() else {
            unreachable!()
        };
        let new_p = Query::New(
            ClassName::new("P"),
            vec![(ioql_ast::AttrName::new("n"), Query::var("x").attr("n"))],
        );
        let writer = Query::comp(new_p, quals);
        let reads = Effect::read("P").union(&Effect::attr_read("P"));
        for (q, effect) in [
            (&writer, Effect::add("P").union(&reads)),
            // Even with a (wrongly) clean effect the text's `new` refuses.
            (&writer, reads.clone()),
            // A read whose *effect* says otherwise is refused.
            (&selective_eq(), Effect::add("P").union(&reads)),
        ] {
            let plan = lower(q, &effect, &defs, &stats).expect("lowering is total");
            let rendered = plan.render();
            assert!(!rendered.contains("HashIndexProbe"), "{rendered}");
            assert!(rendered.contains("Filter  x.n = 2"), "{rendered}");
            assert!(rendered.contains("[guard: Thm 7 refused: "), "{rendered}");
            assert!(rendered.contains("; no index probes]"), "{rendered}");
        }
        let plan = lower(&writer, &Effect::add("P").union(&reads), &defs, &stats).unwrap();
        let cfg = EvalConfig::new(&schema);
        for first in [true, false] {
            let (mut s1, mut s2) = (store.clone(), store.clone());
            let (p, b) = if first {
                (
                    execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000),
                    eval_big(&cfg, &defs, &mut s2, &writer, &mut FirstChooser, 100_000),
                )
            } else {
                (
                    execute(&plan, &cfg, &defs, &mut s1, &mut LastChooser, 100_000),
                    eval_big(&cfg, &defs, &mut s2, &writer, &mut LastChooser, 100_000),
                )
            };
            let (p, b) = (p.unwrap(), b.unwrap());
            assert_eq!((p.value, p.effect), (b.value, b.effect));
            assert!(s1 == s2 && s1.objects.len() == 21);
        }
    }

    #[test]
    fn shapeless_roots_lower_to_eval() {
        let defs = DefEnv::new();
        let stats = Stats::new();
        let sum = Query::int(1).add(Query::int(2));
        let (schema, mut store) = setup();
        for (q, root) in [
            (Query::int(3), "  Eval  3".to_string()),
            (sum.clone(), format!("  Eval  {sum}")),
            // An aggregate is an operator whatever its input is.
            (
                Query::set_lit([Query::int(1)]).size_of(),
                "  Aggregate size\n    Eval  {1}".to_string(),
            ),
        ] {
            let plan = lower(&q, &Effect::empty(), &defs, &stats).expect("the guard holds");
            assert!(plan.render().contains(&root), "{}", plan.render());
            // …and runs to the interpreter's own answer.
            let cfg = EvalConfig::new(&schema);
            let p = execute(&plan, &cfg, &defs, &mut store, &mut FirstChooser, 100).unwrap();
            let b = eval_big(&cfg, &defs, &mut store, &q, &mut FirstChooser, 100).unwrap();
            assert_eq!((p.value, p.effect), (b.value, b.effect), "{q}");
        }
        let plan = lower(
            &Query::extent("Ps").size_of(),
            &Effect::read("P"),
            &defs,
            &stats,
        )
        .expect("size over an extent lowers");
        let rendered = plan.render();
        assert!(
            rendered.contains("  Aggregate size\n    ExtentScan Ps"),
            "{rendered}"
        );
    }

    /// The aggregate's own stuck case stays where the interpreter puts
    /// it: same error, same quoted query.
    #[test]
    fn sum_over_a_non_integer_set_sticks_like_big_step() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let q = Query::comp(
            Query::var("x"),
            [Qualifier::Gen(
                VarName::new("x"),
                Query::set_lit([Query::int(1), Query::bool(true)]),
            )],
        )
        .sum_of();
        let plan = lower(&q, &Effect::empty(), &defs, &Stats::new()).unwrap();
        let p = execute(
            &plan,
            &cfg,
            &defs,
            &mut store.clone(),
            &mut FirstChooser,
            1_000,
        );
        let b = eval_big(
            &cfg,
            &defs,
            &mut store.clone(),
            &q,
            &mut FirstChooser,
            1_000,
        );
        let (pe, be) = (p.unwrap_err(), b.unwrap_err());
        assert_eq!(pe, be);
        assert!(
            pe.to_string().contains("sum over a non-integer set"),
            "{pe}"
        );
    }

    #[test]
    fn executor_agrees_with_big_step_on_probe_and_union() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let queries = [
            selective_eq(),
            Query::extent("Ps").union(Query::comp(
                Query::var("x"),
                [
                    Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                    Qualifier::Pred(Query::var("x").attr("n").int_eq(Query::int(7))),
                ],
            )),
        ];
        for q in &queries {
            let plan = lower(
                q,
                &Effect::read("P").union(&Effect::attr_read("P")),
                &defs,
                &stats_for(&store),
            )
            .unwrap();
            for first in [true, false] {
                let mut s1 = store.clone();
                let mut s2 = store.clone();
                let (p, b) = if first {
                    (
                        execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000).unwrap(),
                        eval_big(&cfg, &defs, &mut s2, q, &mut FirstChooser, 100_000).unwrap(),
                    )
                } else {
                    (
                        execute(&plan, &cfg, &defs, &mut s1, &mut LastChooser, 100_000).unwrap(),
                        eval_big(&cfg, &defs, &mut s2, q, &mut LastChooser, 100_000).unwrap(),
                    )
                };
                assert_eq!(p.value, b.value, "value mismatch on {q}");
                assert_eq!(p.effect, b.effect, "effect mismatch on {q}");
                assert_eq!(s1, s2, "store mismatch on {q}");
            }
        }
    }

    /// A probe binds its generator's variable once: the head of a probed
    /// pipeline is compiled against the slots the executor really pushes.
    #[test]
    fn a_compiled_head_over_a_probe_reads_the_generator_slot() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        // `size(Ps)` keeps the predicate interpreted, so the cost model
        // picks the probe with the compile pass on.
        let q = Query::comp(
            Query::var("x").attr("n").add(Query::int(100)),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(
                    Query::var("x")
                        .attr("n")
                        .int_eq(Query::extent("Ps").size_of()),
                ),
            ],
        );
        let spec = ParSpec {
            compile: true,
            ..ParSpec::off()
        };
        let effect = Effect::read("P").union(&Effect::attr_read("P"));
        let plan = lower_with(&q, &effect, &defs, &stats_for(&store), &spec).unwrap();
        let rendered = plan.render();
        assert!(
            rendered.contains("HashIndexProbe") && rendered.contains("[vm]"),
            "{rendered}"
        );
        let mut s1 = store.clone();
        let mut s2 = store.clone();
        let p = execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000).unwrap();
        let b = eval_big(&cfg, &defs, &mut s2, &q, &mut FirstChooser, 100_000).unwrap();
        assert_eq!((p.value, p.effect), (b.value, b.effect));
    }

    #[test]
    fn profiled_execution_matches_and_reports_actuals() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let q = selective_eq();
        let plan = lower(
            &q,
            &Effect::read("P").union(&Effect::attr_read("P")),
            &defs,
            &stats_for(&store),
        )
        .unwrap();
        let mut s1 = store.clone();
        let mut s2 = store.clone();
        let (p, prof) =
            execute_with_profile(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000).unwrap();
        let plain = execute(&plan, &cfg, &defs, &mut s2, &mut FirstChooser, 100_000).unwrap();
        assert_eq!(p.value, plain.value);
        assert_eq!(p.effect, plain.effect);
        assert_eq!(s1, s2);
        let rendered = prof.render();
        assert!(rendered.contains("Thm 7"), "{rendered}");
        assert!(rendered.contains("(est ~20 rows)"), "{rendered}");
        assert!(rendered.contains("actual:"), "{rendered}");
        // 20 elements scanned; exactly one survives the probe.
        let scan = prof
            .entries
            .iter()
            .find(|e| e.label.starts_with("ExtentScan x <- Ps"))
            .unwrap();
        assert_eq!((scan.calls, scan.rows), (1, 20));
        let probe = prof
            .entries
            .iter()
            .find(|e| e.label.starts_with("HashIndexProbe"))
            .unwrap();
        assert_eq!((probe.calls, probe.rows), (20, 1));
        let distinct = prof.entries.iter().find(|e| e.label == "Distinct").unwrap();
        assert_eq!(distinct.rows, 1);
        assert!(distinct.nanos > 0, "inclusive timing must be recorded");
    }

    #[test]
    fn fallback_reproduces_the_naive_error_class() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        // A boolean sneaks into the generator set: the index build
        // abandons and the fallback sticks exactly like big-step. The
        // cost model would pick a plain Filter on a 2-element source,
        // so the probe stage is built by hand to pin the fallback path.
        let src = Query::set_lit([Query::int(1), Query::bool(true)]);
        let pred = Query::var("x").int_eq(Query::int(1));
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen(VarName::new("x"), src.clone()),
                Qualifier::Pred(pred.clone()),
            ],
        );
        let mut plan = Plan {
            root: Op::new(OpKind::Distinct {
                input: Box::new(Op::new(OpKind::MapProject {
                    head: Query::var("x"),
                    input: Box::new(Op::new(OpKind::Pipeline {
                        stages: vec![
                            Stage::new(StageKind::Scan {
                                var: VarName::new("x"),
                                source: src,
                                est_rows: 2,
                            }),
                            Stage::new(StageKind::HashIndexProbe {
                                var: VarName::new("x"),
                                build: HashIndexBuild {
                                    eq: EqKind::Int,
                                    key: KeyAccess::Bare,
                                    est_rows: 2,
                                },
                                probe: Query::int(1),
                                pred,
                                scan_cost: 100,
                                index_cost: 1,
                            }),
                        ],
                    })),
                })),
            }),
            guard: Guard::new(&q, &Effect::empty()),
            compiled: Default::default(),
        };
        plan.number();
        let mut s1 = store.clone();
        let mut s2 = store.clone();
        let b = eval_big(&cfg, &defs, &mut s2, &q, &mut FirstChooser, 100_000);
        let p = execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000);
        match (p, b) {
            (Err(pe), Err(be)) => assert_eq!(
                std::mem::discriminant(&pe),
                std::mem::discriminant(&be),
                "plan={pe:?} big={be:?}"
            ),
            (p, b) => panic!("expected both to stick: plan={p:?} big={b:?}"),
        }
    }
}
