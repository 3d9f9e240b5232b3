//! The work ledger: exact per-request work rows that need no benchmark
//! run to resolve.
//!
//! A small, fixed `Person`/`Employee` store answers the eight
//! `embedded_analytic` shapes and a unique-key probe under the
//! production options, each run cold (the text's first request: parsed,
//! judged, planned and executed) and warm (a statement and result-cache
//! hit). Per row the ledger records, on the requesting thread:
//!
//! * `allocs`, `bytes` — allocations made and bytes asked for, counted
//!   by this binary's allocator (reallocations count as one each);
//! * `peak` — peak live bytes above the request's starting point;
//! * `cells` — comprehension cells charged to the request's governor;
//! * `draws` — `(ND comp)` picks the chooser made (a coalesced run of
//!   `k` front picks counts `k`);
//! * `vm` — rows the plan executor dispatched through its bytecode VM;
//! * `rows/result` — draws per element of the answer.
//!
//! The rows are compared against `tests/golden/work_ledger.txt`
//! (re-capture with `IOQL_BLESS=1`). A change that moves a row
//! re-captures the golden and names the row as a gain or a cost.

use ioql::eval::{Chooser, FirstChooser};
use ioql::{Database, DbOptions, Value};
use std::cell::Cell;
use std::fmt::Write as _;

const DDL: &str = "
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

const DEFINE: &str = "define inDept(d: int) as { e | e <- Employees, e.dept = d };";

/// The texts, by row name: the eight `embedded_analytic` shapes at fixed
/// constants, then a unique-key probe.
const TEXTS: [(&str, &str); 9] = [
    ("scan_project", "{ p.name + 7 | p <- Persons }"),
    ("filter_scan", "{ p.name | p <- Persons, p.age < 30 }"),
    ("agg_sum", "sum({ p.age | p <- Persons, p.name <= 500 })"),
    ("point_probe", "{ p.name | p <- Persons, p.age = 42 }"),
    (
        "join_late_filter",
        "{ e.EmpID + f.EmpID | e <- Employees, f <- Employees, e.dept = 3, f.dept = e.dept }",
    ),
    (
        "setop_union",
        "{ p.name | p <- Persons, p.age < 20 } union { e.name | e <- Employees, e.dept = 4 }",
    ),
    ("def_call", "{ e.EmpID | e <- inDept(5) }"),
    ("method_call", "{ e.NetSalary(20) | e <- Employees }"),
    ("unique_probe", "{ p.name | p <- Persons, p.name = 321 }"),
];

fn int_set(r: std::ops::Range<i64>) -> String {
    let items: Vec<String> = r.map(|n| n.to_string()).collect();
    format!("{{{}}}", items.join(", "))
}

/// 1 200 `Person`s (`name = d·100 + age + 1`) and 100 `Employee`s
/// (`EmpID = j·50 + dept + 1`), so `Persons` spans more than one member
/// chunk.
fn database(telemetry: bool) -> Database {
    let options = DbOptions {
        telemetry,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, options).unwrap();
    db.query(&format!(
        "size({{ new Person(name: d * 100 + a + 1, age: a) | d <- {}, a <- {} }})",
        int_set(0..12),
        int_set(0..100)
    ))
    .unwrap();
    db.query(&format!(
        "size({{ new Employee(name: 20000 + j * 50 + d + 1, age: 20 + j, EmpID: j * 50 + d + 1, \
         GrossSalary: 1000 + (j * 50 + d + 1) * 7, dept: d) | j <- {}, d <- {} }})",
        int_set(0..2),
        int_set(0..50)
    ))
    .unwrap();
    db.define(DEFINE).unwrap();
    db
}

/// Production's chooser, counting the picks it makes.
struct Counted {
    draws: u64,
}

impl Chooser for Counted {
    fn choose(&mut self, n: usize) -> usize {
        self.draws += 1;
        FirstChooser.choose(n)
    }

    fn front_run(&mut self, n: usize, k: usize) -> bool {
        let taken = FirstChooser.front_run(n, k);
        if taken {
            self.draws += k as u64;
        }
        taken
    }
}

/// One request's rows, besides the VM's.
struct Work {
    allocs: u64,
    bytes: u64,
    peak: u64,
    cells: u64,
    draws: u64,
    card: u64,
}

fn run(db: &mut Database, src: &str) -> Work {
    let governor = db.governor();
    let mut chooser = Counted { draws: 0 };
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    let value = db
        .query_governed(src, &mut chooser, &governor)
        .unwrap_or_else(|e| panic!("{src}: {e}"))
        .value;
    let work = Work {
        allocs: ALLOCS.with(Cell::get) - allocs,
        bytes: BYTES.with(Cell::get) - bytes,
        peak: PEAK.with(Cell::get) - live,
        cells: governor.cells_spent(),
        draws: chooser.draws,
        card: match &value {
            Value::Set(s) => s.len() as u64,
            _ => 1,
        },
    };
    drop(value);
    work
}

/// The ledger, one line per text and phase.
fn ledger() -> String {
    // The allocation rows come from a database with telemetry off (the
    // production configuration); the VM's counter is only kept with it
    // on, so a second database answers the same requests for that row.
    let mut bare = database(false);
    let mut metered = database(true);
    let mut out = String::from(
        "# text phase: allocs bytes peak cells draws vm rows/result\n\
         # (re-capture with IOQL_BLESS=1)\n",
    );
    for (name, src) in TEXTS {
        for phase in ["cold", "warm"] {
            let w = run(&mut bare, src);
            let before = metered.metrics().eval.dispatches.get();
            run(&mut metered, src);
            let vm = metered.metrics().eval.dispatches.get() - before;
            let per = w.draws as f64 / w.card.max(1) as f64;
            writeln!(
                out,
                "{name} {phase}: allocs={} bytes={} peak={} cells={} draws={} vm={vm} rows/result={per:.2}",
                w.allocs, w.bytes, w.peak, w.cells, w.draws
            )
            .unwrap();
        }
    }
    out
}

/// Every row reproduces (two ledgers in one process agree) and matches
/// the golden.
#[test]
fn the_ledger_matches_the_golden() {
    let got = ledger();
    assert_eq!(got, ledger(), "a ledger row does not reproduce");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/work_ledger.txt"
    );
    if std::env::var_os("IOQL_BLESS").is_some() {
        std::fs::write(golden, &got).unwrap();
    }
    assert_eq!(got, std::fs::read_to_string(golden).unwrap());
}

/// This binary's allocator: the system's, counting per thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; the counts are thread-local
// `Cell`s with `const` initializers and no destructors, so bumping them
// never allocates or reenters the allocator.
unsafe impl std::alloc::GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let size = layout.size() as u64;
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + size));
        let _ = LIVE.try_with(|live| {
            let now = live.get().wrapping_add(size);
            live.set(now);
            let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
        });
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        let size = layout.size() as u64;
        let _ = LIVE.try_with(|live| live.set(live.get().wrapping_sub(size)));
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;
