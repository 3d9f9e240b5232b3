//! Typing of *reduced values* against a store.
//!
//! Source programs only contain integer and boolean literals, but the
//! subject-reduction oracle must type intermediate states, which embed
//! oids and realised sets/records. An oid's type is its object's dynamic
//! class (looked up in `OE`); sets take the lub of their element types
//! (`set(⊥)` when empty), mirroring the set-literal rule.

use crate::error::TypeError;
use ioql_ast::{Type, Value};
use ioql_schema::Schema;
use ioql_store::Store;

/// The type of a value, relative to a schema and — for the oids in it —
/// a store. Source programs have none (`store = None`): their literals
/// are oid-free, and an oid met without a store is an error.
pub fn type_of_value(schema: &Schema, store: Option<&Store>, v: &Value) -> Result<Type, TypeError> {
    match v {
        Value::Int(_) => Ok(Type::Int),
        Value::Bool(_) => Ok(Type::Bool),
        Value::Oid(o) => match store.ok_or(TypeError::OidNeedsStore(*o))?.objects.get(*o) {
            Some(obj) => Ok(Type::Class(obj.class.clone())),
            None => Err(TypeError::DanglingOid(*o)),
        },
        Value::Set(items) => {
            let mut elem = Type::Bottom;
            for item in items {
                let t = type_of_value(schema, store, item)?;
                elem = schema
                    .lub(&elem, &t)
                    .ok_or_else(|| TypeError::NoLub(elem.clone(), t))?;
            }
            Ok(Type::set(elem))
        }
        Value::Record(fields) => {
            let mut out = std::collections::BTreeMap::new();
            for (l, fv) in fields {
                out.insert(l.clone(), type_of_value(schema, store, fv)?);
            }
            Ok(Type::Record(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{ClassDef, ClassName, Oid};
    use ioql_store::Object;

    fn setup() -> (Schema, Store) {
        let schema = Schema::new(vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Employee", "Person", "Employees", []),
        ])
        .unwrap();
        let mut store = Store::new();
        store.declare_extent("Persons", "Person");
        store.declare_extent("Employees", "Employee");
        (schema, store)
    }

    #[test]
    fn primitives() {
        let (schema, store) = setup();
        assert_eq!(
            type_of_value(&schema, Some(&store), &Value::Int(1)).unwrap(),
            Type::Int
        );
        assert_eq!(
            type_of_value(&schema, Some(&store), &Value::Bool(true)).unwrap(),
            Type::Bool
        );
    }

    #[test]
    fn oid_types_at_dynamic_class() {
        let (schema, mut store) = setup();
        let o = store
            .create(
                Object::new("Employee", Vec::<(&str, Value)>::new()),
                [ioql_ast::ExtentName::new("Employees")],
            )
            .unwrap();
        assert_eq!(
            type_of_value(&schema, Some(&store), &Value::Oid(o)).unwrap(),
            Type::class("Employee")
        );
    }

    #[test]
    fn dangling_oid_rejected() {
        let (schema, store) = setup();
        assert!(matches!(
            type_of_value(&schema, Some(&store), &Value::Oid(Oid::from_raw(9))),
            Err(TypeError::DanglingOid(_))
        ));
    }

    #[test]
    fn heterogeneous_set_takes_lub() {
        let (schema, mut store) = setup();
        let p = store
            .create(
                Object::new("Person", Vec::<(&str, Value)>::new()),
                [ioql_ast::ExtentName::new("Persons")],
            )
            .unwrap();
        let e = store
            .create(
                Object::new("Employee", Vec::<(&str, Value)>::new()),
                [ioql_ast::ExtentName::new("Employees")],
            )
            .unwrap();
        let v = Value::set([Value::Oid(p), Value::Oid(e)]);
        assert_eq!(
            type_of_value(&schema, Some(&store), &v).unwrap(),
            Type::set(Type::class("Person"))
        );
    }

    #[test]
    fn empty_set_is_bottom_set() {
        let (schema, store) = setup();
        assert_eq!(
            type_of_value(&schema, Some(&store), &Value::empty_set()).unwrap(),
            Type::empty_set()
        );
    }

    #[test]
    fn incompatible_set_elements_rejected() {
        let (schema, store) = setup();
        let v = Value::set([Value::Int(1), Value::Bool(true)]);
        assert!(matches!(
            type_of_value(&schema, Some(&store), &v),
            Err(TypeError::NoLub(_, _))
        ));
    }

    #[test]
    fn record_value_type() {
        let (schema, store) = setup();
        let v = Value::record([("a", Value::Int(1)), ("b", Value::Bool(false))]);
        assert_eq!(
            type_of_value(&schema, Some(&store), &v).unwrap(),
            Type::record([("a", Type::Int), ("b", Type::Bool)])
        );
    }
}
