//! Substitution `q[x := v]` of a *closed value* for a free identifier
//! (paper §3.3: "We write q[x := v] for the substitution of value v for all
//! free instances of identifier x in query q").
//!
//! Because only closed values are ever substituted (IOQL is call-by-value
//! and generator elements are drawn from evaluated sets), substitution can
//! never capture: values have no free variables. We must still respect
//! *shadowing* — a generator that rebinds `x` stops the substitution for
//! the comprehension head and later qualifiers. That scope is
//! [`Query::map_children`]'s (rule (Comp2)); the scope threaded here is
//! "is `x` shadowed?", and a shadowed subtree is copied, not descended.

use crate::ident::VarName;
use crate::query::Query;
use crate::value::Value;
use std::borrow::Cow;

impl Query {
    /// Returns `self[x := v]`.
    pub fn subst(&self, x: &VarName, v: &Value) -> Query {
        self.replace_free(x, &|| Query::Lit(v.clone()))
    }

    /// Returns `self[x := r]` for an arbitrary query `r`. Shadowing is
    /// respected, but capture is the caller's to rule out: no binder of
    /// `self` whose scope holds a free `x` may be free in `r`.
    pub fn replace_var(&self, x: &VarName, r: &Query) -> Query {
        self.replace_free(x, &|| r.clone())
    }

    /// `r` builds the replacement where a free `x` is found, so `subst`
    /// clones its value only there.
    fn replace_free(&self, x: &VarName, r: &impl Fn() -> Query) -> Query {
        match self {
            Query::Var(y) if y == x => r(),
            _ => self.map_children(
                &false,
                |shadowed, y, _| {
                    if y == x {
                        *shadowed = Cow::Owned(true);
                    }
                },
                |c, &shadowed| {
                    if shadowed {
                        c.clone()
                    } else {
                        c.replace_free(x, r)
                    }
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Qualifier;

    fn x() -> VarName {
        VarName::new("x")
    }

    #[test]
    fn substitutes_free_occurrences() {
        let q = Query::var("x").add(Query::var("y"));
        let r = q.subst(&x(), &Value::Int(5));
        assert_eq!(r, Query::int(5).add(Query::var("y")));
    }

    #[test]
    fn respects_shadowing_in_head() {
        // {x | x <- x}[x := 3] = {x | x <- 3}: source substituted, head not.
        let q = Query::comp(Query::var("x"), [Qualifier::Gen(x(), Query::var("x"))]);
        let r = q.subst(&x(), &Value::Int(3));
        // Generator source substituted; head still the bound x.
        assert_eq!(
            r,
            Query::comp(Query::var("x"), [Qualifier::Gen(x(), Query::int(3))])
        );
    }

    #[test]
    fn later_qualifiers_shadowed() {
        // {1 | x <- s, x = 2}[x := 9]: the predicate's x is bound, so stays.
        let q = Query::comp(
            Query::int(1),
            [
                Qualifier::Gen(x(), Query::var("s")),
                Qualifier::Pred(Query::var("x").int_eq(Query::int(2))),
            ],
        );
        let r = q.subst(&x(), &Value::Int(9));
        if let Query::Comp(_, quals) = r {
            assert_eq!(
                quals[1],
                Qualifier::Pred(Query::var("x").int_eq(Query::int(2)))
            );
        } else {
            panic!("expected comprehension");
        }
    }

    #[test]
    fn earlier_qualifiers_substituted() {
        // {1 | x = 2, y <- s}[x := 9]: predicate comes before any binder of
        // x, so it is substituted.
        let q = Query::comp(
            Query::int(1),
            [
                Qualifier::Pred(Query::var("x").int_eq(Query::int(2))),
                Qualifier::Gen(VarName::new("y"), Query::var("s")),
            ],
        );
        let r = q.subst(&x(), &Value::Int(9));
        if let Query::Comp(_, quals) = r {
            assert_eq!(
                quals[0],
                Qualifier::Pred(Query::int(9).int_eq(Query::int(2)))
            );
        } else {
            panic!("expected comprehension");
        }
    }

    #[test]
    fn substitution_makes_closed() {
        let q = Query::comp(
            Query::var("x").add(Query::var("y")),
            [Qualifier::Gen(x(), Query::var("s"))],
        );
        let s = VarName::new("s");
        let y = VarName::new("y");
        let vs = Value::set([Value::Int(1)]);
        let vy = Value::Int(10);
        let r = q.subst(&s, &vs).subst(&y, &vy);
        assert!(r.free_vars().is_empty());
    }
}
