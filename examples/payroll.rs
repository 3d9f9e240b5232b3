//! The paper's §2 data model as a working payroll database: inheritance,
//! object-valued attributes, path expressions, method invocation with
//! dynamic dispatch, and named query definitions.
//!
//! ```sh
//! cargo run --example payroll
//! ```

use ioql::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::from_ddl(
        "
        class Person extends Object (extent Persons) {
            attribute int name;
        }
        // The paper's §2 example class, verbatim modulo the int-only data
        // model (NetSalary returns gross * (100 - rate), i.e. basis points).
        class Employee extends Person (extent Employees) {
            attribute int EmpID;
            attribute int GrossSalary;
            attribute Manager UniqueManager;
            int NetSalary(int TaxRate) {
                return this.GrossSalary * (100 - TaxRate);
            }
        }
        class Manager extends Employee (extent Managers) {
            attribute int TeamBudget;
            // Managers also answer NetSalary — inherited, dispatched on
            // the dynamic class.
        }
        ",
    )?;

    // Build the org chart bottom-up: a manager, then her reports. Note
    // the manager manages herself (ODL would express this with a
    // relationship; an object-valued attribute does fine here).
    db.define(
        "define reports(m: Manager) as \
             { e | e <- Employees, e.UniqueManager == m };",
    )?;

    let boss = db.query(
        "{ new Manager(name: 100, EmpID: 1, GrossSalary: 9000,
                       UniqueManager: m, TeamBudget: 50000)
           | m <- Managers }",
    );
    // First manager can't reference an existing one — bootstrap with a
    // self-managed seed written directly:
    if boss.is_err() || db.extent_len("Managers") == 0 {
        // There is no manager yet, so build the seed on a copy of the
        // store with the store API, then install the copy.
        use ioql::ast::{AttrName, Value};
        use ioql::store::Object;
        let mut store = db.store().clone();
        let o = store.fresh_oid();
        store.objects.insert(
            o,
            Object::new(
                "Manager",
                [
                    (AttrName::new("name"), Value::Int(100)),
                    (AttrName::new("EmpID"), Value::Int(1)),
                    (AttrName::new("GrossSalary"), Value::Int(9000)),
                    (AttrName::new("UniqueManager"), Value::Oid(o)),
                    (AttrName::new("TeamBudget"), Value::Int(50_000)),
                ],
            ),
        );
        for e in db
            .schema()
            .extents_for_new(&ioql::ast::ClassName::new("Manager"))
        {
            store.extents.add(&e, o);
        }
        db.install(store)?;
    }

    // Reports, created through the query language (each picks the boss
    // out of the Managers extent).
    db.query(
        "{ new Employee(name: 200 + n, EmpID: 10 + n,
                        GrossSalary: 4000 + n * 500, UniqueManager: m)
           | n <- {1, 2, 3}, m <- Managers }",
    )?;

    println!("managers  : {}", db.extent_len("Managers"));
    println!("employees : {}", db.extent_len("Employees"));

    // Method invocation per employee.
    let net = db.query("{ struct(id: e.EmpID, net: e.NetSalary(30)) | e <- Employees }")?;
    println!("net pay   : {}", net.value);

    // A path expression through the object graph (paper §3.1).
    let budgets = db.query("{ e.UniqueManager.TeamBudget | e <- Employees }")?;
    println!("budgets   : {}", budgets.value);

    // The named definition, parameterised by an object.
    let report_counts = db.query("{ size(reports(m)) | m <- Managers }")?;
    println!("reports   : {}", report_counts.value);

    // Everything above was statically checked; here is what the checker
    // knows about the last query:
    let a = db.analyze("{ size(reports(m)) | m <- Managers }")?;
    println!("type      : {}", a.ty);
    println!("effect    : {}", a.effect);
    Ok(())
}
