//! The derivation agrees with the tree. The one `⊢` pass leaves exactly
//! one record per (Comp) and (Sop) node — at that node's
//! `Query::for_each_node` index, of the node's kind, in post-order — and
//! the effects a record holds are what `infer_query` derives for the same
//! subterms under the same binders. This is the invariant that licenses
//! a rewrite: the optimizer, the `⊢'`/`⊢''` checks and `analyze` read
//! premise effects off the records and judge no subterm.

use ioql::effects::{derive_query, infer_query, Derivation, EffectEnv, Record};
use ioql::{Database, DbOptions, Query};
use ioql_testkit::fixtures::{jack_jill, payroll};
use ioql_testkit::gen::{GenConfig, QueryGen};
use std::borrow::Cow;

/// The effect `infer_query` derives for `q` under `env`.
fn effect(env: &EffectEnv<'_>, q: &Query) -> ioql::Effect {
    infer_query(env, q).unwrap_or_else(|e| panic!("{q}: {e}")).1
}

/// Checks `q`, node `*next` of the pre-order, against its record (or the
/// absence of one) under `env`, then its children under their binders;
/// appends every (Comp)/(Sop) node's index to `post` after its
/// children's.
fn agree(env: &EffectEnv<'_>, q: &Query, d: &Derivation, next: &mut usize, post: &mut Vec<usize>) {
    let node = *next;
    *next += 1;
    match (q, d.at(node)) {
        (Query::Comp(head, quals), Some(Record::Comp(got, got_head))) => {
            assert_eq!(quals.len(), got.len(), "{q}");
            let mut inner = env.clone();
            for (cq, (is_generator, got)) in quals.iter().zip(got) {
                assert_eq!(*is_generator, cq.binder().is_some(), "{cq} in {q}");
                assert_eq!(*got, effect(&inner, cq.query()), "{cq} in {q}");
                if let Some(x) = cq.binder() {
                    let (t, _) = infer_query(&inner, cq.query()).unwrap();
                    inner = inner.bind(x.clone(), t.as_set_elem().unwrap().clone());
                }
            }
            assert_eq!(*got_head, effect(&inner, head), "head of {q}");
        }
        (Query::SetBin(op, a, b), Some(Record::Sop(got, left, right))) => {
            assert_eq!(op, got, "{q}");
            assert_eq!(*left, effect(env, a), "left of {q}");
            assert_eq!(*right, effect(env, b), "right of {q}");
        }
        (_, record) => assert!(
            record.is_none() && !matches!(q, Query::Comp(..) | Query::SetBin(..)),
            "node {node} `{q}` has record {record:?}"
        ),
    }
    q.for_each_child(
        env,
        |inner, x, src| {
            let (t, _) = infer_query(inner, src).unwrap();
            let bound = inner.bind(x.clone(), t.as_set_elem().unwrap().clone());
            *inner = Cow::Owned(bound);
        },
        |c, env| agree(env, c, d, next, post),
    );
    if matches!(q, Query::Comp(..) | Query::SetBin(..)) {
        post.push(node);
    }
}

#[test]
fn the_derivation_agrees_with_the_tree() {
    let (mut comps, mut sops) = (0, 0);
    for (fx, cfg) in [
        (jack_jill(), GenConfig::default()),
        (
            payroll(),
            GenConfig {
                allow_invoke: true,
                max_depth: 4,
                ..GenConfig::default()
            },
        ),
    ] {
        let db = Database::from_schema(fx.schema.clone(), DbOptions::default()).unwrap();
        let env =
            EffectEnv::new(&fx.schema).with_method_effects(ioql::methods::effect_table(&fx.schema));
        for seed in 0..150u64 {
            let mut g = QueryGen::new(&fx.schema, seed, cfg);
            let target = g.target_type();
            let src = g.query(&target).to_string();
            let Ok(prepared) = db.prepare(&src) else {
                continue;
            };
            let (mut next, mut post) = (0, Vec::new());
            agree(
                &env,
                &prepared.elab,
                &prepared.derivation,
                &mut next,
                &mut post,
            );
            let recorded: Vec<usize> = prepared
                .derivation
                .records()
                .iter()
                .map(|(node, _)| *node)
                .collect();
            assert_eq!(recorded, post, "{src}");
            // The public entry point leaves the same records.
            let (_, _, public) = derive_query(&env, &prepared.elab).unwrap();
            assert_eq!(public, *prepared.derivation, "{src}");
            for (_, r) in prepared.derivation.records() {
                match r {
                    Record::Comp(..) => comps += 1,
                    Record::Sop(..) => sops += 1,
                }
            }
        }
    }
    println!("{comps} (Comp) and {sops} (Sop) records agree with the tree");
    assert!(
        comps > 100 && sops > 20,
        "{comps} (Comp), {sops} (Sop) records"
    );
}
