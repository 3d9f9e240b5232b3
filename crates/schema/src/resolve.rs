//! Extent-name resolution.
//!
//! The paper treats extent identifiers as a designated subset of the free
//! identifiers of a query. The parser cannot know which names those are,
//! so it produces [`Query::Var`] uniformly; this pass rewrites every free
//! occurrence of a name in the schema's extent map to [`Query::Extent`].
//! Bound variables shadow extent names (a generator `Employees <- q` would
//! make later `Employees` a variable — the parser forbids that spelling
//! anyway, but the pass is scope-correct regardless).

use crate::schema::Schema;
use ioql_ast::{Definition, ExtentName, Program, Query, VarName};

impl Schema {
    /// Rewrites free variables that name extents into explicit
    /// [`Query::Extent`] nodes.
    pub fn resolve_query(&self, q: &Query) -> Query {
        self.resolve_in(q, &[])
    }

    /// Resolves a definition's body (its parameters shadow extent names).
    pub fn resolve_def(&self, d: &Definition) -> Definition {
        let bound: Vec<VarName> = d.params.iter().map(|(x, _)| x.clone()).collect();
        Definition {
            name: d.name.clone(),
            params: d.params.clone(),
            body: self.resolve_in(&d.body, &bound),
        }
    }

    /// Resolves every definition and the main query of a program.
    pub fn resolve_program(&self, p: &Program) -> Program {
        Program {
            defs: p.defs.iter().map(|d| self.resolve_def(d)).collect(),
            query: self.resolve_query(&p.query),
        }
    }

    /// The scope is the names bound around `q`; generators extend it
    /// through [`Query::map_children`].
    fn resolve_in(&self, q: &Query, bound: &[VarName]) -> Query {
        if let Query::Var(x) = q {
            if !bound.contains(x) {
                let e = ExtentName::new(x.as_str());
                if self.extent_class(&e).is_some() {
                    return Query::Extent(e);
                }
            }
        }
        q.map_children(
            bound,
            |b, x, _| b.to_mut().push(x.clone()),
            |c, b| self.resolve_in(c, b),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{ClassDef, ClassName, Qualifier, Type};

    fn schema() -> Schema {
        Schema::new(vec![ClassDef::plain("P", ClassName::object(), "Ps", [])]).unwrap()
    }

    #[test]
    fn free_extent_name_resolved() {
        let s = schema();
        let q = Query::var("Ps");
        assert_eq!(s.resolve_query(&q), Query::extent("Ps"));
    }

    #[test]
    fn non_extent_var_untouched() {
        let s = schema();
        let q = Query::var("x");
        assert_eq!(s.resolve_query(&q), Query::var("x"));
    }

    #[test]
    fn bound_occurrence_not_resolved() {
        let s = schema();
        // { Ps | Ps <- Ps } : the generator source is free (→ extent), the
        // head occurrence is bound (→ stays a variable).
        let q = Query::comp(
            Query::var("Ps"),
            [Qualifier::Gen(VarName::new("Ps"), Query::var("Ps"))],
        );
        let r = s.resolve_query(&q);
        if let Query::Comp(head, quals) = r {
            assert_eq!(*head, Query::var("Ps"));
            assert_eq!(
                quals[0],
                Qualifier::Gen(VarName::new("Ps"), Query::extent("Ps"))
            );
        } else {
            panic!("expected comprehension");
        }
    }

    #[test]
    fn def_params_shadow_extents() {
        let s = schema();
        let d = Definition::new(
            "f",
            [(VarName::new("Ps"), Type::set(Type::class("P")))],
            Query::var("Ps"),
        );
        let r = s.resolve_def(&d);
        assert_eq!(r.body, Query::var("Ps"));
    }

    #[test]
    fn program_resolution_covers_defs_and_query() {
        let s = schema();
        let p = Program::new(
            [Definition::new("f", [], Query::var("Ps"))],
            Query::call("f", []).union(Query::var("Ps")),
        );
        let r = s.resolve_program(&p);
        assert_eq!(r.defs[0].body, Query::extent("Ps"));
        assert_eq!(r.query, Query::call("f", []).union(Query::extent("Ps")));
    }
}
