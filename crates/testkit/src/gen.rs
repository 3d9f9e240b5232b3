//! A seeded generator of *well-typed* IOQL queries.
//!
//! The soundness theorems quantify over all well-typed queries; the
//! oracles in [`crate::oracles`] need a large, varied population of them.
//! Generating raw ASTs and filtering through the type checker would
//! almost never succeed, so this generator is *type-directed*: asked for
//! a query of type σ, it picks among the productions whose conclusion
//! can have type σ, generating premise subqueries recursively with a
//! shrinking depth budget and falling back to guaranteed terminals
//! (literals, `{}`, `new` of constructible classes) at depth zero.
//!
//! Generated queries are closed (their only free names are extents), so
//! they can be typed, effect-analysed, and *evaluated* against a store.
//! A generator-soundness test in the workspace checks every emitted
//! query against the Figure 1 checker.

use ioql_ast::{AttrName, ClassName, ExtentName, MethodName, Qualifier, Query, Type, VarName};
use ioql_rng::SmallRng;
use ioql_schema::Schema;
use std::collections::BTreeMap;

/// Generator tuning.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Maximum expression depth.
    pub max_depth: usize,
    /// Permit `new` expressions (off ⇒ only *functional* queries, the
    /// population of Theorem 4).
    pub allow_new: bool,
    /// Permit method invocation (methods must then be total for the
    /// progress oracles; fixtures' `loop` is avoided by name).
    pub allow_invoke: bool,
    /// Integer literals are drawn from `-range..=range`.
    pub int_range: i64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 5,
            allow_new: true,
            allow_invoke: false,
            int_range: 20,
        }
    }
}

/// The generator.
pub struct QueryGen<'s> {
    schema: &'s Schema,
    rng: SmallRng,
    cfg: GenConfig,
    /// (class, attr, type) triples for attribute-access productions.
    attrs: Vec<(ClassName, AttrName, Type)>,
    /// (class, method, params, ret) for invocation productions.
    methods: Vec<(ClassName, MethodName, Vec<Type>, Type)>,
    /// Classes with a finite construction cost (see below), with that
    /// cost. A class is constructible when `new` can initialise all its
    /// attributes from literals and other constructible classes.
    constructible: BTreeMap<ClassName, usize>,
    fresh: usize,
    /// The binders in scope that draw from an extent, innermost last.
    extent_binders: Vec<VarName>,
}

impl<'s> QueryGen<'s> {
    /// A generator over `schema`, seeded for reproducibility.
    pub fn new(schema: &'s Schema, seed: u64, cfg: GenConfig) -> Self {
        let mut attrs = Vec::new();
        let mut methods = Vec::new();
        for cd in schema.classes() {
            for (a, t) in schema.atypes(&cd.name) {
                attrs.push((cd.name.clone(), a, t));
            }
            for md in &cd.methods {
                // Skip known-divergent fixtures.
                if md.name.as_str() == "loop" {
                    continue;
                }
                methods.push((
                    cd.name.clone(),
                    md.name.clone(),
                    md.params.iter().map(|(_, t)| t.clone()).collect(),
                    md.ret.clone(),
                ));
            }
        }
        let constructible = construction_costs(schema);
        QueryGen {
            schema,
            rng: SmallRng::seed_from_u64(seed),
            cfg,
            attrs,
            methods,
            constructible,
            fresh: 0,
            extent_binders: Vec::new(),
        }
    }

    fn fresh_var(&mut self) -> VarName {
        self.fresh += 1;
        VarName::new(format!("g{}", self.fresh))
    }

    /// Generates a closed query of type (a subtype of) `target`.
    pub fn query(&mut self, target: &Type) -> Query {
        let depth = self.cfg.max_depth;
        self.gen(&mut Vec::new(), target, depth)
    }

    /// A random "interesting" target type over this schema.
    pub fn target_type(&mut self) -> Type {
        let classes: Vec<ClassName> = self.schema.classes().map(|c| c.name.clone()).collect();
        match self.rng.gen_range(0..6) {
            0 => Type::Int,
            1 => Type::Bool,
            2 => Type::set(Type::Int),
            3 if !classes.is_empty() => {
                let c = classes[self.rng.gen_range(0..classes.len())].clone();
                Type::set(Type::Class(c))
            }
            4 => Type::record([("a", Type::Int), ("b", Type::Bool)]),
            _ => Type::set(Type::set(Type::Int)),
        }
    }

    // -- terminals -----------------------------------------------------

    fn terminal(&mut self, scope: &[(VarName, Type)], target: &Type) -> Query {
        // A variable of a suitable type beats a literal.
        let candidates: Vec<&(VarName, Type)> = scope
            .iter()
            .filter(|(_, t)| self.schema.subtype(t, target))
            .collect();
        let prefer_var = !self.cfg.allow_new || self.rng.gen_bool(0.7);
        if !candidates.is_empty() && prefer_var {
            let (x, _) = candidates[self.rng.gen_range(0..candidates.len())];
            return Query::Var(x.clone());
        }
        match target {
            Type::Int => Query::int(self.rng.gen_range(-self.cfg.int_range..=self.cfg.int_range)),
            Type::Bool => Query::bool(self.rng.gen_bool(0.5)),
            Type::Set(_) => Query::set_lit([]),
            Type::Record(fields) => {
                let fs: Vec<(ioql_ast::Label, Query)> = fields
                    .iter()
                    .map(|(l, t)| (l.clone(), self.terminal(scope, t)))
                    .collect();
                Query::Record(fs)
            }
            Type::Class(c) => {
                // A constructible subclass via `new`, or a scope variable.
                match self.pick_constructible_subclass(c) {
                    Some(d) => self.gen_new(scope, &d, 0),
                    None => match candidates.first() {
                        Some((x, _)) => Query::Var(x.clone()),
                        None => panic!(
                            "generator invariant: asked for unreachable class                              target `{c}` (scope: {scope:?})"
                        ),
                    },
                }
            }
            Type::Bottom => Query::set_lit([]),
        }
    }

    fn pick_constructible_subclass(&mut self, c: &ClassName) -> Option<ClassName> {
        if !self.cfg.allow_new {
            return None;
        }
        let subs: Vec<ClassName> = self
            .constructible
            .keys()
            .filter(|d| self.schema.extends(d, c))
            .cloned()
            .collect();
        if subs.is_empty() {
            None
        } else {
            Some(subs[self.rng.gen_range(0..subs.len())].clone())
        }
    }

    fn gen_new(&mut self, scope: &[(VarName, Type)], c: &ClassName, depth: usize) -> Query {
        let attrs = self.schema.atypes(c);
        let inits: Vec<(AttrName, Query)> = attrs
            .into_iter()
            .map(|(a, t)| {
                let q = if depth == 0 {
                    self.terminal(scope, &t)
                } else {
                    self.gen(&mut scope.to_vec(), &t, depth - 1)
                };
                (a, q)
            })
            .collect();
        Query::New(c.clone(), inits)
    }

    // -- recursive generation -------------------------------------------

    fn gen(&mut self, scope: &mut Vec<(VarName, Type)>, target: &Type, depth: usize) -> Query {
        if depth == 0 {
            return self.terminal(scope, target);
        }
        // Try a handful of random productions; fall back to a terminal.
        for _ in 0..8 {
            if let Some(q) = self.try_production(scope, target, depth) {
                return q;
            }
        }
        self.terminal(scope, target)
    }

    fn try_production(
        &mut self,
        scope: &mut Vec<(VarName, Type)>,
        target: &Type,
        depth: usize,
    ) -> Option<Query> {
        let d = depth - 1;
        match target {
            Type::Int => match self.rng.gen_range(0..11) {
                0 | 1 => Some(self.terminal(scope, target)),
                2 | 3 => {
                    let a = self.gen(scope, &Type::Int, d);
                    let b = self.gen(scope, &Type::Int, d);
                    let op = [
                        ioql_ast::IntOp::Add,
                        ioql_ast::IntOp::Sub,
                        ioql_ast::IntOp::Mul,
                    ][self.rng.gen_range(0..3usize)];
                    Some(Query::IntBin(op, Box::new(a), Box::new(b)))
                }
                4 | 5 => {
                    let elem = self.element_type();
                    let s = self.gen(scope, &Type::set(elem), d);
                    Some(s.size_of())
                }
                9 => {
                    let s = self.gen(scope, &Type::set(Type::Int), d);
                    Some(s.sum_of())
                }
                6 => self.gen_if(scope, target, d),
                7 | 8 => self.gen_attr_access(scope, &Type::Int, d),
                _ => self.gen_invoke(scope, &Type::Int, d),
            },
            Type::Bool => match self.rng.gen_range(0..8) {
                0 => Some(self.terminal(scope, target)),
                1 | 2 => {
                    let a = self.gen(scope, &Type::Int, d);
                    let b = self.gen(scope, &Type::Int, d);
                    Some(a.int_eq(b))
                }
                3 => {
                    let a = self.gen(scope, &Type::Int, d);
                    let b = self.gen(scope, &Type::Int, d);
                    let op =
                        [ioql_ast::IntOp::Lt, ioql_ast::IntOp::Le][self.rng.gen_range(0..2usize)];
                    Some(Query::IntBin(op, Box::new(a), Box::new(b)))
                }
                4 => {
                    let c = self.any_generable_class(scope)?;
                    let a = self.gen(scope, &Type::Class(c.clone()), d);
                    let b = self.gen(scope, &Type::Class(c), d);
                    Some(a.obj_eq(b))
                }
                5 => self.gen_if(scope, target, d),
                _ => self.gen_attr_access(scope, &Type::Bool, d),
            },
            Type::Class(c) => match self.rng.gen_range(0..6) {
                0 | 1 => Some(self.terminal(scope, target)),
                2 | 3 if self.cfg.allow_new => {
                    let dcls = self.pick_constructible_subclass(c)?;
                    Some(self.gen_new(scope, &dcls, d))
                }
                4 => {
                    // Upcast from a subclass.
                    let dcls = self.pick_constructible_subclass(c)?;
                    if &dcls == c {
                        return None;
                    }
                    let inner = self.gen(scope, &Type::Class(dcls), d);
                    Some(inner.cast(c.clone()))
                }
                _ => {
                    if self.class_generable(scope, c) {
                        self.gen_if(scope, target, d)
                    } else {
                        None
                    }
                }
            },
            Type::Set(elem) => match self.rng.gen_range(0..10) {
                0 => Some(self.terminal(scope, target)),
                1 | 2 => {
                    if let Type::Class(c) = &**elem {
                        if !self.class_generable(scope, c) {
                            return None;
                        }
                    }
                    let n = self.rng.gen_range(0..3);
                    let items: Vec<Query> = (0..n).map(|_| self.gen(scope, elem, d)).collect();
                    Some(Query::SetLit(items))
                }
                3 | 4 => {
                    let a = self.gen(scope, target, d);
                    let b = self.gen(scope, target, d);
                    let op = [
                        ioql_ast::SetOp::Union,
                        ioql_ast::SetOp::Intersect,
                        ioql_ast::SetOp::Diff,
                    ][self.rng.gen_range(0..3usize)];
                    Some(Query::SetBin(op, Box::new(a), Box::new(b)))
                }
                5 => {
                    // An extent whose class fits the element type.
                    let fitting: Vec<ExtentName> = self
                        .schema
                        .extents()
                        .filter(|(_, c)| self.schema.subtype(&Type::Class((*c).clone()), elem))
                        .map(|(e, _)| e.clone())
                        .collect();
                    if fitting.is_empty() {
                        None
                    } else {
                        let e = fitting[self.rng.gen_range(0..fitting.len())].clone();
                        Some(Query::Extent(e))
                    }
                }
                _ => self.gen_comp(scope, elem, d),
            },
            Type::Record(fields) => match self.rng.gen_range(0..4) {
                0 => Some(self.terminal(scope, target)),
                _ => {
                    let fs: Vec<(ioql_ast::Label, Query)> = fields
                        .iter()
                        .map(|(l, t)| (l.clone(), self.gen(&mut scope.clone(), t, d)))
                        .collect();
                    Some(Query::Record(fs))
                }
            },
            Type::Bottom => Some(Query::set_lit([])),
        }
    }

    fn gen_if(
        &mut self,
        scope: &mut Vec<(VarName, Type)>,
        target: &Type,
        d: usize,
    ) -> Option<Query> {
        let c = self.gen(scope, &Type::Bool, d);
        let t = self.gen(scope, target, d);
        let e = self.gen(scope, target, d);
        Some(Query::ite(c, t, e))
    }

    /// `subject.a` where `atype(C, a)` is the wanted type.
    fn gen_attr_access(
        &mut self,
        scope: &mut Vec<(VarName, Type)>,
        want: &Type,
        d: usize,
    ) -> Option<Query> {
        let options: Vec<(ClassName, AttrName)> = self
            .attrs
            .iter()
            .filter(|(c, _, t)| t == want && self.class_generable(scope, c))
            .map(|(c, a, _)| (c.clone(), a.clone()))
            .collect();
        if options.is_empty() {
            return None;
        }
        let (c, a) = options[self.rng.gen_range(0..options.len())].clone();
        let subject = self.gen(scope, &Type::Class(c), d);
        Some(Query::Attr(Box::new(subject), a))
    }

    fn gen_invoke(
        &mut self,
        scope: &mut Vec<(VarName, Type)>,
        want: &Type,
        d: usize,
    ) -> Option<Query> {
        if !self.cfg.allow_invoke {
            return None;
        }
        let options: Vec<(ClassName, MethodName, Vec<Type>)> = self
            .methods
            .iter()
            .filter(|(c, _, _, ret)| ret == want && self.class_generable(scope, c))
            .map(|(c, m, ps, _)| (c.clone(), m.clone(), ps.clone()))
            .collect();
        if options.is_empty() {
            return None;
        }
        let (c, m, params) = options[self.rng.gen_range(0..options.len())].clone();
        // The receiver is drawn from what a run really reaches: a binder
        // over a fitting extent, else (for an `int` method) each member
        // of a fitting extent, the calls summed. A receiver generated
        // like any other object is mostly a `new` or an element of `{}`,
        // and would leave the population almost without a `U(C)` writer.
        let binders: Vec<VarName> = scope
            .iter()
            .filter(|(x, t)| {
                self.extent_binders.contains(x)
                    && matches!(t, Type::Class(k) if self.schema.extends(k, &c))
            })
            .map(|(x, _)| x.clone())
            .collect();
        if !binders.is_empty() && self.rng.gen_bool(0.75) {
            let x = binders[self.rng.gen_range(0..binders.len())].clone();
            let args: Vec<Query> = params.iter().map(|t| self.gen(scope, t, d)).collect();
            return Some(Query::Invoke(Box::new(Query::Var(x)), m, args));
        }
        let extents: Vec<(ExtentName, ClassName)> = self
            .schema
            .extents()
            .filter(|(_, k)| self.schema.extends(k, &c))
            .map(|(e, k)| (e.clone(), k.clone()))
            .collect();
        if *want == Type::Int && !extents.is_empty() && self.rng.gen_bool(0.75) {
            let (e, k) = extents[self.rng.gen_range(0..extents.len())].clone();
            let x = self.fresh_var();
            scope.push((x.clone(), Type::Class(k)));
            let args: Vec<Query> = params.iter().map(|t| self.gen(scope, t, d)).collect();
            scope.pop();
            let call = Query::Invoke(Box::new(Query::Var(x.clone())), m, args);
            return Some(Query::comp(call, [Qualifier::Gen(x, Query::Extent(e))]).sum_of());
        }
        let recv = self.gen(scope, &Type::Class(c), d);
        let args: Vec<Query> = params.iter().map(|t| self.gen(scope, t, d)).collect();
        Some(Query::Invoke(Box::new(recv), m, args))
    }

    /// A comprehension producing `set(elem)`: pick a generator source
    /// type, bind a fresh variable, maybe add a predicate, generate the
    /// head at the element type.
    fn gen_comp(
        &mut self,
        scope: &mut Vec<(VarName, Type)>,
        elem: &Type,
        d: usize,
    ) -> Option<Query> {
        let mut src_elem = self.element_type();
        // If the head's element type is a class we cannot otherwise
        // produce, draw it from the generator's own binder: sources of
        // type set(C) are always available ({}, the extent, …).
        if let Type::Class(c) = elem {
            if !self.class_generable(scope, c) {
                src_elem = elem.clone();
            }
        }
        let src = self.gen(scope, &Type::set(src_elem.clone()), d);
        let x = self.fresh_var();
        scope.push((x.clone(), src_elem));
        let over_extent = matches!(src, Query::Extent(_));
        if over_extent {
            self.extent_binders.push(x.clone());
        }
        let mut quals = vec![Qualifier::Gen(x, src)];
        if self.rng.gen_bool(0.5) {
            let p = self.gen(scope, &Type::Bool, d);
            quals.push(Qualifier::Pred(p));
        }
        let head = self.gen(scope, elem, d);
        if over_extent {
            self.extent_binders.pop();
        }
        scope.pop();
        Some(Query::Comp(Box::new(head), quals))
    }

    /// A random element type for generator sources: ints, or a class with
    /// an extent.
    fn element_type(&mut self) -> Type {
        let classes: Vec<ClassName> = self.schema.classes().map(|c| c.name.clone()).collect();
        if !classes.is_empty() && self.rng.gen_bool(0.5) {
            Type::Class(classes[self.rng.gen_range(0..classes.len())].clone())
        } else {
            Type::Int
        }
    }

    fn class_generable(&self, scope: &[(VarName, Type)], c: &ClassName) -> bool {
        scope
            .iter()
            .any(|(_, t)| matches!(t, Type::Class(d) if self.schema.extends(d, c)))
            || (self.cfg.allow_new && self.constructible.keys().any(|d| self.schema.extends(d, c)))
    }

    fn any_generable_class(&mut self, scope: &[(VarName, Type)]) -> Option<ClassName> {
        let all: Vec<ClassName> = self
            .schema
            .classes()
            .map(|c| c.name.clone())
            .filter(|c| self.class_generable(scope, c))
            .collect();
        if all.is_empty() {
            None
        } else {
            Some(all[self.rng.gen_range(0..all.len())].clone())
        }
    }
}

/// Fixpoint computation of construction costs: a class is constructible
/// iff every attribute is `int`/`bool` or of a constructible class; cost
/// is the nesting depth of `new`s required.
fn construction_costs(schema: &Schema) -> BTreeMap<ClassName, usize> {
    let mut costs: BTreeMap<ClassName, usize> = BTreeMap::new();
    loop {
        let mut changed = false;
        for cd in schema.classes() {
            if costs.contains_key(&cd.name) {
                continue;
            }
            let mut cost = 1usize;
            let mut ok = true;
            for (_, t) in schema.atypes(&cd.name) {
                match t {
                    Type::Int | Type::Bool => {}
                    Type::Class(c) => {
                        // Any constructible subclass of the attribute's
                        // class will do.
                        let best = costs
                            .iter()
                            .filter(|(d, _)| schema.extends(d, &c))
                            .map(|(_, k)| *k)
                            .min();
                        match best {
                            Some(k) => cost = cost.max(k + 1),
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                costs.insert(cd.name.clone(), cost);
                changed = true;
            }
        }
        if !changed {
            return costs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use ioql_types::{check_query, TypeEnv};

    #[test]
    fn construction_costs_handle_cycles() {
        // F has a P-valued attribute; P is scalar-only. Both constructible.
        let fx = fixtures::jack_jill();
        let costs = construction_costs(&fx.schema);
        assert_eq!(costs[&ClassName::new("P")], 1);
        assert_eq!(costs[&ClassName::new("F")], 2);

        // A self-referential class is not constructible.
        let schema = Schema::new(vec![ioql_ast::ClassDef::plain(
            "Node",
            ClassName::object(),
            "Nodes",
            [ioql_ast::AttrDef::new("next", Type::class("Node"))],
        )])
        .unwrap();
        assert!(construction_costs(&schema).is_empty());
    }

    #[test]
    fn generated_queries_are_well_typed() {
        let fx = fixtures::jack_jill();
        let env = TypeEnv::new(&fx.schema);
        for seed in 0..300u64 {
            let mut g = QueryGen::new(&fx.schema, seed, GenConfig::default());
            let target = g.target_type();
            let q = g.query(&target);
            assert!(q.free_vars().is_empty(), "seed {seed}: open query {q}");
            match check_query(&env, &q) {
                Ok((_, t)) => {
                    assert!(
                        fx.schema.subtype(&t, &target),
                        "seed {seed}: {q} : {t} not ≤ {target}"
                    );
                }
                Err(e) => panic!("seed {seed}: ill-typed {q}: {e}"),
            }
        }
    }

    #[test]
    fn functional_mode_produces_no_new() {
        let fx = fixtures::jack_jill();
        let cfg = GenConfig {
            allow_new: false,
            ..Default::default()
        };
        for seed in 0..100u64 {
            let mut g = QueryGen::new(&fx.schema, seed, cfg);
            // Class-typed targets may *require* new; restrict to sets of
            // ints for the functional population.
            let q = g.query(&Type::set(Type::Int));
            assert!(!q.contains_new(), "seed {seed}: {q}");
        }
    }

    #[test]
    fn generator_produces_varied_shapes() {
        let fx = fixtures::jack_jill();
        let mut saw_comp = false;
        let mut saw_new = false;
        let mut saw_extent = false;
        for seed in 0..200u64 {
            let mut g = QueryGen::new(&fx.schema, seed, GenConfig::default());
            let target = g.target_type();
            let q = g.query(&target);
            q.for_each_node(&mut |n| match n {
                Query::Comp(_, _) => saw_comp = true,
                Query::New(_, _) => saw_new = true,
                Query::Extent(_) => saw_extent = true,
                _ => {}
            });
        }
        assert!(saw_comp, "no comprehension in 200 samples");
        assert!(saw_new, "no new in 200 samples");
        assert!(saw_extent, "no extent in 200 samples");
    }
}
