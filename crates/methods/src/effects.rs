//! The method-effect table on its own — the latent `ε''` effects the
//! query-level (Method) rule (Figure 3) consumes, for a caller that has
//! a schema but no database.
//!
//! There is no second walk here: the table is what the type checker
//! ([`check_schema_methods`]) derives while it types each body, and
//! dynamic dispatch is accounted for when the table is read
//! ([`MethodEffects::effect_of`]).

use crate::check::{check_schema_methods, Mode};
use ioql_effects::MethodEffects;
use ioql_schema::Schema;

/// The latent-effect table of `schema`'s methods: [`check_schema_methods`]
/// under [`Mode::Extended`]. A schema that checks under either mode gets
/// the table a database over it derives. A schema whose methods do not
/// type-check, which no database accepts, gets the empty table.
pub fn effect_table(schema: &Schema) -> MethodEffects {
    check_schema_methods(schema, Mode::Extended).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{
        AttrDef, ClassDef, ClassName, ExtentName, MBinOp, MExpr, MStmt, MethodDef, MethodName,
        Type, VarName,
    };

    #[test]
    fn read_only_methods_have_no_db_effects() {
        let schema = Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [MethodDef::new(
                "getN",
                [],
                Type::Int,
                vec![MStmt::Return(MExpr::this_attr("n"))],
            )],
        )])
        .unwrap();
        let table = effect_table(&schema);
        let e = table
            .get(&ClassName::new("P"), &MethodName::new("getN"))
            .unwrap();
        assert!(e.reads.is_empty() && e.adds.is_empty() && e.updates.is_empty());
        assert!(e.attr_reads.contains(&ClassName::new("P")));
    }

    #[test]
    fn extended_constructs_show_up() {
        let schema = Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", Type::Int)],
            [
                MethodDef::new(
                    "scan",
                    [],
                    Type::Int,
                    vec![
                        MStmt::ForExtent(VarName::new("q"), ExtentName::new("Ps"), vec![]),
                        MStmt::Return(MExpr::Int(0)),
                    ],
                ),
                MethodDef::new(
                    "poke",
                    [],
                    Type::Int,
                    vec![
                        MStmt::SetAttr(MExpr::This, ioql_ast::AttrName::new("n"), MExpr::Int(1)),
                        MStmt::Return(MExpr::Int(0)),
                    ],
                ),
                MethodDef::new(
                    "mk",
                    [],
                    Type::Int,
                    vec![
                        MStmt::NewLocal(
                            VarName::new("x"),
                            ClassName::new("P"),
                            vec![(ioql_ast::AttrName::new("n"), MExpr::Int(1))],
                        ),
                        MStmt::Return(MExpr::Int(0)),
                    ],
                ),
            ],
        )])
        .unwrap();
        let table = effect_table(&schema);
        let p = ClassName::new("P");
        assert!(table
            .get(&p, &MethodName::new("scan"))
            .unwrap()
            .reads
            .contains(&p));
        assert!(table
            .get(&p, &MethodName::new("poke"))
            .unwrap()
            .updates
            .contains(&p));
        assert!(table
            .get(&p, &MethodName::new("mk"))
            .unwrap()
            .adds
            .contains(&p));
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        // even/odd mutual recursion; odd() also scans the extent, so both
        // must end up with R(P).
        let schema = Schema::new(vec![ClassDef::new(
            "P",
            ClassName::object(),
            "Ps",
            [],
            [
                MethodDef::new(
                    "even",
                    [(VarName::new("k"), Type::Int)],
                    Type::Bool,
                    vec![MStmt::If(
                        MExpr::bin(MBinOp::EqInt, MExpr::Var(VarName::new("k")), MExpr::Int(0)),
                        vec![MStmt::Return(MExpr::Bool(true))],
                        vec![MStmt::Return(MExpr::This.call(
                            "odd",
                            [MExpr::bin(
                                MBinOp::Sub,
                                MExpr::Var(VarName::new("k")),
                                MExpr::Int(1),
                            )],
                        ))],
                    )],
                ),
                MethodDef::new(
                    "odd",
                    [(VarName::new("k"), Type::Int)],
                    Type::Bool,
                    vec![
                        MStmt::ForExtent(VarName::new("q"), ExtentName::new("Ps"), vec![]),
                        MStmt::If(
                            MExpr::bin(MBinOp::EqInt, MExpr::Var(VarName::new("k")), MExpr::Int(0)),
                            vec![MStmt::Return(MExpr::Bool(false))],
                            vec![MStmt::Return(MExpr::This.call(
                                "even",
                                [MExpr::bin(
                                    MBinOp::Sub,
                                    MExpr::Var(VarName::new("k")),
                                    MExpr::Int(1),
                                )],
                            ))],
                        ),
                    ],
                ),
            ],
        )])
        .unwrap();
        let table = effect_table(&schema);
        let p = ClassName::new("P");
        assert!(table
            .get(&p, &MethodName::new("odd"))
            .unwrap()
            .reads
            .contains(&p));
        assert!(
            table
                .get(&p, &MethodName::new("even"))
                .unwrap()
                .reads
                .contains(&p),
            "mutual recursion must propagate effects to the caller"
        );
    }

    #[test]
    fn dynamic_dispatch_unions_overrides() {
        // A::m is pure; B overrides m with an extent scan. A call through
        // a statically-A receiver may dispatch to B::m, so the effect of
        // calling m on A (the ε'' consumed by the query rule) includes
        // R(B).
        let schema = Schema::new(vec![
            ClassDef::new(
                "A",
                ClassName::object(),
                "As",
                [],
                [MethodDef::new(
                    "m",
                    [],
                    Type::Int,
                    vec![MStmt::Return(MExpr::Int(1))],
                )],
            ),
            ClassDef::new(
                "B",
                "A",
                "Bs",
                [],
                [
                    MethodDef::new(
                        "m",
                        [],
                        Type::Int,
                        vec![
                            MStmt::ForExtent(VarName::new("q"), ExtentName::new("Bs"), vec![]),
                            MStmt::Return(MExpr::Int(2)),
                        ],
                    ),
                    // wrap() calls m on a statically-A receiver (this
                    // upcast is implicit: `this` in B is also an A).
                    MethodDef::new(
                        "wrap",
                        [],
                        Type::Int,
                        vec![MStmt::Return(MExpr::This.call("m", []))],
                    ),
                ],
            ),
        ])
        .unwrap();
        let table = effect_table(&schema);
        // B::wrap's effect must include B::m's R(B).
        let wrap = table
            .get(&ClassName::new("B"), &MethodName::new("wrap"))
            .unwrap();
        assert!(wrap.reads.contains(&ClassName::new("B")));
        // And so must a call through a statically-A receiver.
        let through_a = table.effect_of(&schema, &ClassName::new("A"), &MethodName::new("m"));
        assert!(through_a.reads.contains(&ClassName::new("B")));
    }
}
