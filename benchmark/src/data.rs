//! The paper's §2 payroll schema, its seeded population, and the plain-Rust
//! mirror of everything inserted. The mirror is the oracle: it never touches
//! the program under test.

use crate::rng::Rng;
use ioql::{Database, DbOptions, Durability, Engine};

pub const DDL: &str = "
class Person extends Object (extent Persons) {
    attribute int name;
    attribute int age;
}
class Employee extends Person (extent Employees) {
    attribute int EmpID;
    attribute int GrossSalary;
    attribute int dept;
    int NetSalary(int TaxRate) { return this.GrossSalary * (100 - TaxRate); }
}";

pub const DEFINE: &str = "define inDept(d: int) as { e | e <- Employees, e.dept = d };";

/// `Employee.name = NAME_BASE + EmpID`: unique, and disjoint from every
/// `Person.name`.
const NAME_BASE: i64 = 20_000;
pub const DEPTS: i64 = 50;

/// The one configuration every workload opens the database with — the
/// production path. Workloads state their exceptions by overriding a field.
pub fn bench_options() -> DbOptions {
    DbOptions {
        engine: Engine::Plan,
        compile: true,
        optimize: true,
        parallelism: 0,
        telemetry: false,
        trace_capacity: 0,
        cache_capacity: 1024,
        durability: Durability::Off,
        ..DbOptions::default()
    }
}

/// How many objects to create. `Person`s are `decades × ages` with
/// `name = decade·100 + age + 1`, so `age = (name − 1) mod 100`; `Employee`s
/// are `rows × depts` with `EmpID = row·50 + dept + 1`, so
/// `dept = (EmpID − 1) mod 50`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub decades: i64,
    pub ages: i64,
    pub rows: i64,
    pub depts: i64,
}

/// 20 000 `Person`s, 2 000 `Employee`s.
pub const FULL: Scale = Scale {
    decades: 200,
    ages: 100,
    rows: 40,
    depts: DEPTS,
};

/// 50 `Person`s, 10 `Employee`s — small enough for the Figure 2 machine.
pub const SMALL: Scale = Scale {
    decades: 1,
    ages: 50,
    rows: 1,
    depts: 10,
};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Emp {
    pub name: i64,
    pub age: i64,
    pub emp_id: i64,
    pub gross: i64,
    pub dept: i64,
}

/// Everything the harness has inserted, as plain tuples.
#[derive(Clone, Debug)]
pub struct Mirror {
    /// `(name, age)`.
    pub persons: Vec<(i64, i64)>,
    pub emps: Vec<Emp>,
    /// Seeded: `GrossSalary = gross_base + 7·EmpID`.
    pub gross_base: i64,
}

impl Mirror {
    pub fn new(seed: u64) -> Mirror {
        Mirror {
            persons: Vec::new(),
            emps: Vec::new(),
            gross_base: 30_000 + Rng::derive(seed, 0xDA7A).below(1_000) as i64,
        }
    }
}

fn int_set(r: std::ops::Range<i64>) -> String {
    let items: Vec<String> = r.map(|n| n.to_string()).collect();
    format!("{{{}}}", items.join(", "))
}

/// Populates `db` through the query language in cross-product batches of at
/// most 1 000 objects (IOQL has no division, so the batches enumerate the two
/// factors of each key), registers [`DEFINE`], and returns the mirror.
pub fn populate(db: &mut Database, scale: Scale, seed: u64) -> Result<Mirror, String> {
    let mut mirror = Mirror::new(seed);
    let run = |db: &mut Database, q: String, want: i64| -> Result<(), String> {
        let got = db.query(&q).map_err(|e| format!("populate: {e}"))?;
        if got.value == ioql::Value::Int(want) {
            Ok(())
        } else {
            Err(format!(
                "populate: batch made {} objects, not {want}",
                got.value
            ))
        }
    };
    let ages = int_set(0..scale.ages);
    for d0 in (0..scale.decades).step_by(10) {
        let d1 = (d0 + 10).min(scale.decades);
        let q = format!(
            "size({{ new Person(name: d * 100 + a + 1, age: a) | d <- {}, a <- {ages} }})",
            int_set(d0..d1)
        );
        run(db, q, (d1 - d0) * scale.ages)?;
        for d in d0..d1 {
            mirror
                .persons
                .extend((0..scale.ages).map(|a| (d * 100 + a + 1, a)));
        }
    }
    let depts = int_set(0..scale.depts);
    let g = mirror.gross_base;
    for j0 in (0..scale.rows).step_by(20) {
        let j1 = (j0 + 20).min(scale.rows);
        let q = format!(
            "size({{ new Employee(name: {NAME_BASE} + j * 50 + d + 1, age: 20 + j, \
             EmpID: j * 50 + d + 1, GrossSalary: {g} + (j * 50 + d + 1) * 7, dept: d) \
             | j <- {}, d <- {depts} }})",
            int_set(j0..j1)
        );
        run(db, q, (j1 - j0) * scale.depts)?;
        for j in j0..j1 {
            mirror.emps.extend((0..scale.depts).map(|d| {
                let emp_id = j * 50 + d + 1;
                Emp {
                    name: NAME_BASE + emp_id,
                    age: 20 + j,
                    emp_id,
                    gross: g + 7 * emp_id,
                    dept: d,
                }
            }));
        }
    }
    db.define(DEFINE).map_err(|e| format!("define: {e}"))?;
    Ok(mirror)
}

/// A populated in-memory database under `options`.
pub fn open(options: DbOptions, scale: Scale, seed: u64) -> Result<(Database, Mirror), String> {
    let mut db = Database::from_ddl_with(DDL, options).map_err(|e| format!("schema: {e}"))?;
    let mirror = populate(&mut db, scale, seed)?;
    Ok((db, mirror))
}

/// Runs every text on a [`SMALL`] store under `options` and under
/// `Engine::SmallStep` (the Figure 2 machine, the executable specification)
/// and requires equal rendered values.
pub fn spec_check(options: &DbOptions, texts: &[String], seed: u64) -> Result<(), String> {
    let (mut bench, _) = open(options.clone(), SMALL, seed)?;
    let spec_options = DbOptions {
        engine: Engine::SmallStep,
        compile: false,
        optimize: false,
        cache_capacity: 0,
        ..bench_options()
    };
    let (mut spec, _) = open(spec_options, SMALL, seed)?;
    for text in texts {
        let got = bench
            .query(text)
            .map_err(|e| format!("spec-check: {text}: {e}"))?;
        let want = spec
            .query(text)
            .map_err(|e| format!("spec-check (Figure 2 machine): {text}: {e}"))?;
        if got.value.to_string() != want.value.to_string() {
            return Err(format!(
                "spec-check: {text}: bench configuration gave {}, the Figure 2 machine {}",
                got.value, want.value
            ));
        }
    }
    Ok(())
}
