//! The effect typing judgement `E; D; Q ⊢ q : σ ! ε` (Figure 3), with the
//! `⊢'` and `⊢''` refinements.
//!
//! Figure 3 restates every Figure 1 premise with effect accumulation, so
//! the rules themselves live once, in `ioql-types`' [`Judgement`]; this
//! module supplies the part that is Figure 3's own — [`EffectRules`], the
//! `R(C)`/`A(C)` algebra that annotates each judgement — and the public
//! entry points that instantiate the walker with it.
//!
//! The inference computes the *least* effect of a query; the paper's
//! (Does) rule — weakening to any supereffect — corresponds to
//! [`Effect::subeffect`] on the result.

use crate::effect::Effect;
use crate::env::{Discipline, EffectEnv};
use crate::error::EffectError;
use crate::method_effects::MethodEffects;
use ioql_ast::{ClassName, DefName, Definition, FnType, MethodName, Program, Query, SetOp, Type};
use ioql_schema::Schema;
use ioql_store::Store;
use ioql_types::{EffectAlgebra, Judgement, TypeError, TypeOptions};
use std::collections::BTreeMap;

/// Figure 3's annotation of the Figure 1 rules: `D` with its latent
/// effects `σ⃗ →ε σ'`, the method-effect table behind (Method)'s `ε''`,
/// and which of `⊢` / `⊢'` / `⊢''` is being derived.
#[derive(Clone, Copy, Debug)]
pub struct EffectRules<'a> {
    /// Definitions with their types and latent effects.
    pub defs: &'a BTreeMap<DefName, (FnType, Effect)>,
    /// Latent effects of methods; the empty table is the paper's
    /// read-only methods, all `∅`.
    pub methods: &'a MethodEffects,
    /// Which side conditions to enforce.
    pub discipline: Discipline,
}

impl EffectAlgebra for EffectRules<'_> {
    type Effect = Effect;
    type Error = EffectError;

    fn union(&self, into: &mut Effect, other: Effect) {
        into.union_with(&other);
    }

    /// (Extent): `e : set(C) ! R(C)`.
    fn on_extent(&self, c: &ClassName) -> Effect {
        Effect::read(c.clone())
    }

    /// (New): `A(C)` for the object's own class, plus — under the ODMG
    /// `inherited_extents` option — every superclass whose extent also
    /// receives the object. Recording the closure at *inference* time
    /// keeps `nonint` a plain per-class disjointness test.
    fn on_new(&self, schema: &Schema, c: &ClassName) -> Effect {
        let mut e = Effect::add(c.clone());
        if schema.options().inherited_extents {
            for sup in schema.proper_superclasses(c) {
                if !sup.is_object() {
                    e.adds.insert(sup);
                }
            }
        }
        e
    }

    /// Attribute reads add `Ra(C)` — used only by the extended-mode
    /// analyses.
    fn on_attr(&self, c: &ClassName) -> Effect {
        Effect::attr_read(c.clone())
    }

    fn def_sig(&self, d: &DefName) -> Option<(&FnType, Effect)> {
        self.defs
            .get(d)
            .map(|(fnty, latent)| (fnty, latent.clone()))
    }

    fn method_latent(&self, schema: &Schema, c: &ClassName, m: &MethodName) -> Effect {
        self.methods.effect_of(schema, c, m)
    }

    /// `⊢'`: a generator's body runs once per element in an unspecified
    /// order, so its effect must be non-interfering.
    fn check_comp_body(&self, body: &Effect) -> Result<(), EffectError> {
        if self.discipline.deterministic_comprehensions && !body.nonint_extended() {
            return Err(EffectError::InterferingComprehension {
                body_effect: body.clone(),
            });
        }
        Ok(())
    }

    /// `⊢''`: the operands of a commutative operator must not interfere.
    fn check_set_operands(
        &self,
        schema: &Schema,
        op: SetOp,
        left: &Effect,
        right: &Effect,
    ) -> Result<(), EffectError> {
        if self.discipline.safe_commutation
            && op.is_commutative()
            && !left.noninterfering_with(right, schema)
        {
            return Err(EffectError::InterferingOperands {
                left: left.clone(),
                right: right.clone(),
            });
        }
        Ok(())
    }
}

impl EffectEnv<'_> {
    /// The shared walker instantiated with this environment's rules. The
    /// plain type system is the gatekeeper for downcasts; the effect system
    /// only accumulates, so casts are accepted in either direction here.
    fn judgement<'a>(&'a self, store: Option<&'a Store>) -> Judgement<'a, EffectRules<'a>> {
        Judgement {
            schema: self.schema,
            store,
            options: TypeOptions {
                allow_downcast: true,
            },
            algebra: EffectRules {
                defs: &self.defs,
                methods: &self.methods,
                discipline: self.discipline,
            },
        }
    }
}

/// Result of effect-checking a whole program.
#[derive(Clone, Debug)]
pub struct InferredProgram {
    /// Each definition's annotated type `σ⃗ →ε σ'`.
    pub def_sigs: BTreeMap<DefName, (FnType, Effect)>,
    /// The main query's type.
    pub ty: Type,
    /// The main query's effect.
    pub effect: Effect,
}

/// Infers the type and (least) effect of a query: `E; D; Q ⊢ q : σ ! ε`.
pub fn infer_query(env: &EffectEnv<'_>, q: &Query) -> Result<(Type, Effect), EffectError> {
    let (_, ty, effect) = env.judgement(None).query(&env.vars, q)?;
    Ok((ty, effect))
}

/// As [`infer_query`] for runtime states (reduced values typed against a
/// store) — the correspondence of Theorems 5/6.
pub fn infer_runtime_query(
    env: &EffectEnv<'_>,
    store: &Store,
    q: &Query,
) -> Result<(Type, Effect), EffectError> {
    let (_, ty, effect) = env.judgement(Some(store)).query(&env.vars, q)?;
    Ok((ty, effect))
}

/// Infers a definition's annotated type `σ⃗ →ε σ'`.
pub fn infer_definition(
    env: &EffectEnv<'_>,
    def: &Definition,
) -> Result<(FnType, Effect), EffectError> {
    let (_, fnty, effect) = env.judgement(None).definition(&env.vars, def)?;
    Ok((fnty, effect))
}

/// Infers a whole program, threading annotated definition types.
pub fn infer_program(
    env: &EffectEnv<'_>,
    program: &Program,
) -> Result<InferredProgram, EffectError> {
    let mut cur = env.clone();
    let mut def_sigs = BTreeMap::new();
    for def in &program.defs {
        if cur.defs.contains_key(&def.name) {
            return Err(TypeError::DuplicateDef(def.name.clone()).into());
        }
        let sig = infer_definition(&cur, def)?;
        cur.defs.insert(def.name.clone(), sig.clone());
        def_sigs.insert(def.name.clone(), sig);
    }
    let (ty, effect) = infer_query(&cur, &program.query)?;
    Ok(InferredProgram {
        def_sigs,
        ty,
        effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Discipline;
    use ioql_ast::{AttrDef, ClassDef, Qualifier, VarName};

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain(
                "P",
                ClassName::object(),
                "Ps",
                [AttrDef::new("name", Type::Int)],
            ),
            ClassDef::plain(
                "F",
                ClassName::object(),
                "Fs",
                [
                    AttrDef::new("name", Type::Int),
                    AttrDef::new("boss", Type::Int),
                ],
            ),
        ])
        .unwrap()
    }

    fn env(s: &Schema) -> EffectEnv<'_> {
        EffectEnv::new(s)
    }

    #[test]
    fn values_have_no_effect() {
        let s = schema();
        let e = env(&s);
        let (_, eff) = infer_query(&e, &Query::int(3)).unwrap();
        assert!(eff.is_empty());
        let (_, eff) = infer_query(&e, &Query::set_lit([Query::int(1), Query::int(2)])).unwrap();
        assert!(eff.is_empty());
    }

    #[test]
    fn extent_rule_reads() {
        let s = schema();
        let (_, eff) = infer_query(&env(&s), &Query::extent("Ps")).unwrap();
        assert_eq!(eff, Effect::read("P"));
    }

    #[test]
    fn new_rule_adds() {
        let s = schema();
        let q = Query::new_obj("P", [("name", Query::int(1))]);
        let (t, eff) = infer_query(&env(&s), &q).unwrap();
        assert_eq!(t, Type::class("P"));
        assert_eq!(eff, Effect::add("P"));
    }

    #[test]
    fn attr_access_records_attr_read() {
        let s = schema();
        let q = Query::comp(
            Query::var("x").attr("name"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        let (_, eff) = infer_query(&env(&s), &q).unwrap();
        assert!(eff.reads.contains(&ClassName::new("P")));
        assert!(eff.attr_reads.contains(&ClassName::new("P")));
        assert!(eff.adds.is_empty());
    }

    #[test]
    fn paper_jack_jill_query_effect() {
        // { (new F(name: x.name, boss: 0)).name | x <- Ps, pred-over-Fs }
        // reads Ps and Fs and adds to Fs: interference on F.
        let s = schema();
        let body_pred = Query::extent("Fs").size_of().int_eq(Query::int(0));
        let q = Query::comp(
            Query::new_obj(
                "F",
                [
                    ("name", Query::var("x").attr("name")),
                    ("boss", Query::int(0)),
                ],
            )
            .attr("name"),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(body_pred),
            ],
        );
        let (_, eff) = infer_query(&env(&s), &q).unwrap();
        assert!(eff.reads.contains(&ClassName::new("F")));
        assert!(eff.adds.contains(&ClassName::new("F")));
        assert!(!eff.nonint());

        // ⊢' rejects it.
        let det = env(&s).with_discipline(Discipline::deterministic());
        assert!(matches!(
            infer_query(&det, &q),
            Err(EffectError::InterferingComprehension { .. })
        ));
    }

    #[test]
    fn deterministic_discipline_accepts_functional_bodies() {
        let s = schema();
        let det = env(&s).with_discipline(Discipline::deterministic());
        let q = Query::comp(
            Query::var("x").attr("name"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        assert!(infer_query(&det, &q).is_ok());
    }

    #[test]
    fn generator_source_effect_not_part_of_body_check() {
        // { 1 | x <- Fs-reading-source } with a body that *adds* to F:
        // the source is evaluated once, so R(F) from the source must not
        // clash with the body's A(F) under ⊢'. (The body alone is the
        // check.)
        let s = schema();
        let det = env(&s).with_discipline(Discipline::deterministic());
        let q = Query::comp(
            Query::new_obj("F", [("name", Query::int(1)), ("boss", Query::int(2))]).attr("name"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Fs"))],
        );
        // Body effect: A(F), Ra(F) — no R(F), so nonint holds.
        assert!(infer_query(&det, &q).is_ok());
        // The overall effect still contains both R(F) and A(F).
        let (_, eff) = infer_query(&env(&s), &q).unwrap();
        assert!(!eff.nonint());
    }

    #[test]
    fn safe_commutation_check() {
        let s = schema();
        let sc = env(&s).with_discipline(Discipline::safe_commute());
        // Reading Ps on both sides: fine.
        let ok = Query::extent("Ps").union(Query::extent("Ps"));
        assert!(infer_query(&sc, &ok).is_ok());
        // One side reads Fs, the other creates an F: interferes.
        let reader = Query::extent("Fs");
        let adder = Query::set_lit([Query::new_obj(
            "F",
            [("name", Query::int(1)), ("boss", Query::int(2))],
        )]);
        let bad = reader.union(adder);
        assert!(matches!(
            infer_query(&sc, &bad),
            Err(EffectError::InterferingOperands { .. })
        ));
        // Permissive mode accepts it (and reports the union effect).
        let (_, eff) = infer_query(&env(&s), &bad).unwrap();
        assert!(eff.reads.contains(&ClassName::new("F")));
        assert!(eff.adds.contains(&ClassName::new("F")));
    }

    #[test]
    fn definition_latent_effect() {
        let s = schema();
        let def = Definition::new("allPs", [], Query::extent("Ps"));
        let mut e = env(&s);
        let (fnty, latent) = infer_definition(&e, &def).unwrap();
        assert_eq!(latent, Effect::read("P"));
        e.defs.insert(def.name.clone(), (fnty, latent.clone()));
        // Calling the definition surfaces its latent effect.
        let (_, eff) = infer_query(&e, &Query::call("allPs", [])).unwrap();
        assert_eq!(eff, Effect::read("P"));
    }

    #[test]
    fn program_inference() {
        let s = schema();
        let p = Program::new(
            [Definition::new("allPs", [], Query::extent("Ps"))],
            Query::call("allPs", []).size_of(),
        );
        let out = infer_program(&env(&s), &p).unwrap();
        assert_eq!(out.ty, Type::Int);
        assert_eq!(out.effect, Effect::read("P"));
    }

    #[test]
    fn inherited_extents_close_the_add_effect() {
        let defs = vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Emp", "Person", "Emps", []),
        ];
        let s = ioql_schema::Schema::with_options(
            defs,
            ioql_schema::SchemaOptions {
                inherited_extents: true,
                ..Default::default()
            },
        )
        .unwrap();
        let q = Query::new_obj("Emp", Vec::<(&str, Query)>::new());
        let (_, eff) = infer_query(&env(&s), &q).unwrap();
        assert!(eff.adds.contains(&ClassName::new("Emp")));
        assert!(eff.adds.contains(&ClassName::new("Person")));
    }

    #[test]
    fn strict_discipline_composes_both_checks() {
        let s = schema();
        let strict = env(&s).with_discipline(Discipline::strict());
        // Fails the ⊢' half.
        let comp = Query::comp(
            Query::new_obj(
                "F",
                [
                    ("name", Query::extent("Fs").size_of()),
                    ("boss", Query::int(0)),
                ],
            )
            .attr("name"),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        assert!(matches!(
            infer_query(&strict, &comp),
            Err(EffectError::InterferingComprehension { .. })
        ));
        // Fails the ⊢'' half.
        let bad_union = Query::extent("Fs").union(Query::set_lit([Query::new_obj(
            "F",
            [("name", Query::int(1)), ("boss", Query::int(2))],
        )]));
        assert!(matches!(
            infer_query(&strict, &bad_union),
            Err(EffectError::InterferingOperands { .. })
        ));
        // Clean queries pass both.
        let ok = Query::extent("Ps").union(Query::extent("Fs"));
        assert!(infer_query(&strict, &ok).is_ok());
    }

    #[test]
    fn if_unions_all_branches() {
        let s = schema();
        let q = Query::ite(
            Query::extent("Ps").size_of().int_eq(Query::int(0)),
            Query::extent("Fs"),
            Query::set_lit([]),
        );
        let (_, eff) = infer_query(&env(&s), &q).unwrap();
        assert!(eff.reads.contains(&ClassName::new("P")));
        assert!(eff.reads.contains(&ClassName::new("F")));
    }
}
