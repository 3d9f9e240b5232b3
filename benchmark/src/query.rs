//! Request templates: the IOQL text the program receives, and the answer the
//! mirror gives for it. The two are written independently — the answer never
//! parses the text or calls the program.

use crate::data::{Emp, DEPTS};
use crate::rng::{Rng, Weyl, Zipf};
use ioql::Value;
use std::collections::BTreeSet;

/// The eight `embedded_analytic` shapes, in round-robin order.
pub const SHAPES: [&str; 8] = [
    "scan_project",
    "filter_scan",
    "agg_sum",
    "point_probe",
    "join_late_filter",
    "setop_union",
    "def_call",
    "method_call",
];

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tpl {
    /// `{ p.name | p <- Persons, p.name = K }`
    UniqueProbe(i64),
    /// `{ p.name + K | p <- Persons }`
    ScanProject(i64),
    /// `{ e.EmpID + K | e <- Employees }`
    EmpScan(i64),
    /// `{ p.name | p <- Persons, p.age < K }`
    FilterScan(i64),
    /// `sum({ p.age | p <- Persons, p.name <= K })`
    AggSum(i64),
    /// `{ p.name | p <- Persons, p.age = K }`
    PointProbe(i64),
    /// `{ e.EmpID + f.EmpID | e <- Employees, f <- Employees, e.dept = K, f.dept = e.dept }`
    JoinLateFilter(i64),
    /// `{ p.name | p <- Persons, p.age < K } union { e.name | e <- Employees, e.dept = J }`
    SetopUnion(i64, i64),
    /// `{ e.EmpID | e <- inDept(K) }`
    DefCall(i64),
    /// `{ e.NetSalary(K) | e <- Employees }`
    MethodCall(i64),
    /// Sixteen `UniqueProbe`s joined by `union` — about 0.8 KB of source.
    UnionChain(Vec<i64>),
    /// `sum({ e.GrossSalary | e <- Employees, e.dept = K })`
    SumGrossDept(i64),
    /// `size({ e.EmpID | e <- Employees, e.dept = K })`
    SizeDept(i64),
    /// `size(Employees)`
    SizeEmployees,
    /// `size({ new Person(name: N, age: (N − 1) mod 100) | n <- {1} })` —
    /// creates exactly one object.
    Write(i64),
}

/// What the mirror says a request must return.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Answer {
    Int(i64),
    /// Sorted, without duplicates — IOQL sets are sets.
    Set(Vec<i64>),
}

fn set(items: impl IntoIterator<Item = i64>) -> Answer {
    Answer::Set(
        items
            .into_iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
    )
}

fn set_sum(items: impl IntoIterator<Item = i64>) -> Answer {
    Answer::Int(items.into_iter().collect::<BTreeSet<_>>().into_iter().sum())
}

impl Tpl {
    pub fn text(&self) -> String {
        match self {
            Tpl::UniqueProbe(k) => format!("{{ p.name | p <- Persons, p.name = {k} }}"),
            Tpl::ScanProject(k) => format!("{{ p.name + {k} | p <- Persons }}"),
            Tpl::EmpScan(k) => format!("{{ e.EmpID + {k} | e <- Employees }}"),
            Tpl::FilterScan(k) => format!("{{ p.name | p <- Persons, p.age < {k} }}"),
            Tpl::AggSum(k) => format!("sum({{ p.age | p <- Persons, p.name <= {k} }})"),
            Tpl::PointProbe(k) => format!("{{ p.name | p <- Persons, p.age = {k} }}"),
            Tpl::JoinLateFilter(k) => format!(
                "{{ e.EmpID + f.EmpID | e <- Employees, f <- Employees, \
                 e.dept = {k}, f.dept = e.dept }}"
            ),
            Tpl::SetopUnion(k, j) => format!(
                "{{ p.name | p <- Persons, p.age < {k} }} union \
                 {{ e.name | e <- Employees, e.dept = {j} }}"
            ),
            Tpl::DefCall(k) => format!("{{ e.EmpID | e <- inDept({k}) }}"),
            Tpl::MethodCall(k) => format!("{{ e.NetSalary({k}) | e <- Employees }}"),
            Tpl::UnionChain(keys) => keys
                .iter()
                .map(|k| Tpl::UniqueProbe(*k).text())
                .collect::<Vec<_>>()
                .join(" union "),
            Tpl::SumGrossDept(k) => {
                format!("sum({{ e.GrossSalary | e <- Employees, e.dept = {k} }})")
            }
            Tpl::SizeDept(k) => format!("size({{ e.EmpID | e <- Employees, e.dept = {k} }})"),
            Tpl::SizeEmployees => "size(Employees)".to_string(),
            Tpl::Write(name) => format!(
                "size({{ new Person(name: {name}, age: {}) | n <- {{1}} }})",
                written_age(*name)
            ),
        }
    }

    /// The answer over the given `(name, age)` persons and employees.
    pub fn answer(&self, persons: &[(i64, i64)], emps: &[Emp]) -> Answer {
        let names_where = |keep: &dyn Fn(i64, i64) -> bool| {
            persons
                .iter()
                .filter(|(n, a)| keep(*n, *a))
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
        };
        let in_dept = |k: i64| emps.iter().filter(move |e| e.dept == k);
        match self {
            Tpl::UniqueProbe(k) => set(names_where(&|n, _| n == *k)),
            Tpl::ScanProject(k) => set(persons.iter().map(|(n, _)| n + k)),
            Tpl::EmpScan(k) => set(emps.iter().map(|e| e.emp_id + k)),
            Tpl::FilterScan(k) => set(names_where(&|_, a| a < *k)),
            Tpl::AggSum(k) => set_sum(persons.iter().filter(|(n, _)| n <= k).map(|(_, a)| *a)),
            Tpl::PointProbe(k) => set(names_where(&|_, a| a == *k)),
            Tpl::JoinLateFilter(k) => {
                set(in_dept(*k).flat_map(|e| in_dept(*k).map(move |f| e.emp_id + f.emp_id)))
            }
            Tpl::SetopUnion(k, j) => set(names_where(&|_, a| a < *k)
                .into_iter()
                .chain(in_dept(*j).map(|e| e.name))),
            Tpl::DefCall(k) => set(in_dept(*k).map(|e| e.emp_id)),
            Tpl::MethodCall(k) => set(emps.iter().map(|e| e.gross * (100 - k))),
            Tpl::UnionChain(keys) => set(names_where(&|n, _| keys.contains(&n))),
            Tpl::SumGrossDept(k) => set_sum(in_dept(*k).map(|e| e.gross)),
            Tpl::SizeDept(k) => {
                Answer::Int(in_dept(*k).map(|e| e.emp_id).collect::<BTreeSet<_>>().len() as i64)
            }
            Tpl::SizeEmployees => Answer::Int(emps.len() as i64),
            Tpl::Write(_) => Answer::Int(1),
        }
    }

    /// Whether the answer depends on `Persons` (and so on concurrent writes).
    pub fn reads_persons(&self) -> bool {
        matches!(
            self,
            Tpl::UniqueProbe(_)
                | Tpl::ScanProject(_)
                | Tpl::FilterScan(_)
                | Tpl::AggSum(_)
                | Tpl::PointProbe(_)
                | Tpl::SetopUnion(..)
                | Tpl::UnionChain(_)
        )
    }
}

impl Answer {
    /// How the program renders this value (one line on the wire).
    pub fn render(&self) -> String {
        match self {
            Answer::Int(n) => n.to_string(),
            Answer::Set(items) => {
                let items: Vec<String> = items.iter().map(|n| n.to_string()).collect();
                format!("{{{}}}", items.join(", "))
            }
        }
    }

    /// Structural comparison with an in-process result, without rendering.
    pub fn matches(&self, value: &Value) -> bool {
        match (self, value) {
            (Answer::Int(n), Value::Int(m)) => n == m,
            (Answer::Set(want), Value::Set(got)) => {
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(w, g)| matches!(g, Value::Int(g) if g == w))
            }
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Request streams. Each is a pure function of `(seed, client)`.
// ---------------------------------------------------------------------------

/// `wire_point`: unique-key probes, `K` uniform in `1..=20000`.
pub struct PointStream(Rng);

impl PointStream {
    pub fn new(seed: u64, client: u64) -> PointStream {
        PointStream(Rng::derive(seed, 0x100 + client))
    }
}

impl Iterator for PointStream {
    type Item = Tpl;
    fn next(&mut self) -> Option<Tpl> {
        Some(Tpl::UniqueProbe(1 + self.0.below(20_000) as i64))
    }
}

/// `embedded_analytic`: round-robin over [`SHAPES`], each with its own
/// stratified constant sequence.
pub struct AnalyticStream {
    next: usize,
    plus: Weyl,
    age_lt: Weyl,
    name_le: Weyl,
    age_eq: Weyl,
    join_dept: Weyl,
    union_age: Weyl,
    union_dept: Weyl,
    def_dept: Weyl,
    tax: Weyl,
}

impl AnalyticStream {
    pub fn new(seed: u64) -> AnalyticStream {
        let mut rng = Rng::derive(seed, 0x200);
        let mut weyl = |lo, range| Weyl::new(&mut rng, lo, range);
        AnalyticStream {
            next: 0,
            plus: weyl(1, 100),
            age_lt: weyl(1, 100),
            name_le: weyl(1, 20_000),
            age_eq: weyl(0, 100),
            join_dept: weyl(0, DEPTS as u64),
            union_age: weyl(1, 100),
            union_dept: weyl(0, DEPTS as u64),
            def_dept: weyl(0, DEPTS as u64),
            tax: weyl(1, 50),
        }
    }
}

impl Iterator for AnalyticStream {
    type Item = Tpl;
    fn next(&mut self) -> Option<Tpl> {
        let shape = self.next % SHAPES.len();
        self.next += 1;
        Some(match shape {
            0 => Tpl::ScanProject(self.plus.next()),
            1 => Tpl::FilterScan(self.age_lt.next()),
            2 => Tpl::AggSum(self.name_le.next()),
            3 => Tpl::PointProbe(self.age_eq.next()),
            4 => Tpl::JoinLateFilter(self.join_dept.next()),
            5 => Tpl::SetopUnion(self.union_age.next(), self.union_dept.next()),
            6 => Tpl::DefCall(self.def_dept.next()),
            _ => Tpl::MethodCall(self.tax.next()),
        })
    }
}

/// `k` distinct values in `lo..lo + range`.
fn distinct(rng: &mut Rng, k: usize, lo: i64, range: u64) -> Vec<i64> {
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = lo + rng.below(range) as i64;
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// `session_hot`'s fixed hot set of 32 read-only texts. Rank `r` is of kind
/// `r mod 4` — union chain, full scan, aggregate, probe — so every seed puts
/// the same kind at the same Zipf rank and only the constants move. The full
/// scans are over `Employees`: a cached 2 000-element set costs ≈ 40 µs to
/// clone under the cache mutex. (Over `Persons` it is ≈ 400 µs; with two
/// clients the mutex was then held most of the time, every percentile sat in
/// the queue behind it, and a 15 % change in host speed moved them 30–45 %.)
pub fn hot_set(seed: u64) -> Vec<Tpl> {
    let mut rng = Rng::derive(seed, 0x300);
    let scan_plus = distinct(&mut rng, 8, 1, 100);
    let ages = distinct(&mut rng, 4, 0, 100);
    let names = distinct(&mut rng, 4, 1, 20_000);
    let depts = distinct(&mut rng, 6, 0, DEPTS as u64);
    let sums = distinct(&mut rng, 2, 1, 20_000);
    (0..32)
        .map(|rank| {
            let i = rank / 4;
            match rank % 4 {
                0 => Tpl::UnionChain(distinct(&mut rng, 16, 1, 20_000)),
                1 => Tpl::EmpScan(scan_plus[i]),
                2 => match i {
                    0..=2 => Tpl::SumGrossDept(depts[i]),
                    3..=5 => Tpl::SizeDept(depts[i]),
                    _ => Tpl::AggSum(sums[i - 6]),
                },
                _ if i % 2 == 0 => Tpl::PointProbe(ages[i / 2]),
                _ => Tpl::UniqueProbe(names[i / 2]),
            }
        })
        .collect()
}

/// `wire_mixed_durable`'s 16 read texts, all with one-line replies. The
/// workload's writes create `Person`s. Even ranks read `Employees` only:
/// `Ra(Employee)` covers `Employees` and its subclasses' extents, which no
/// write touches, so after warm-up they always hit the cache. Odd ranks read
/// `Persons`, whose version every write bumps, so they miss unless the same
/// text was just asked. (The other way round would not work: `Ra(Person)`
/// covers `Employees` too, because an `Employee` is a `Person`.)
pub fn mixed_reads(seed: u64) -> Vec<Tpl> {
    let mut rng = Rng::derive(seed, 0x400);
    let names = distinct(&mut rng, 3, 1, 20_000);
    let ages = distinct(&mut rng, 3, 0, 100);
    let depts = distinct(&mut rng, 6, 0, DEPTS as u64);
    let tax = 1 + rng.below(50) as i64;
    let employees = [
        Tpl::DefCall(depts[0]),
        Tpl::SizeDept(depts[1]),
        Tpl::SumGrossDept(depts[2]),
        Tpl::SizeEmployees,
        Tpl::DefCall(depts[3]),
        Tpl::SizeDept(depts[4]),
        Tpl::SumGrossDept(depts[5]),
        Tpl::MethodCall(tax),
    ];
    let persons = [
        Tpl::UniqueProbe(names[0]),
        Tpl::PointProbe(ages[0]),
        Tpl::FilterScan(1),
        Tpl::UniqueProbe(names[1]),
        Tpl::PointProbe(ages[1]),
        Tpl::FilterScan(2),
        Tpl::UniqueProbe(names[2]),
        Tpl::PointProbe(ages[2]),
    ];
    employees
        .into_iter()
        .zip(persons)
        .flat_map(|(e, p)| [e, p])
        .collect()
}

/// Zipf draws from a fixed list of texts (`session_hot`, and the reads of
/// `wire_mixed_durable`).
pub struct ZipfStream {
    rng: Rng,
    zipf: Zipf,
}

impl ZipfStream {
    pub fn new(seed: u64, client: u64, texts: usize) -> ZipfStream {
        ZipfStream {
            rng: Rng::derive(seed, 0x500 + client),
            zipf: Zipf::new(texts),
        }
    }

    /// The rank of the next text to send.
    pub fn next_rank(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// The `i`-th fresh `Person.name` of writer `lane` in `0..4` (the window's
/// two clients and the traced pass's two writers each own a lane, so names
/// never collide and never depend on thread timing).
pub fn fresh_name(lane: i64, i: i64) -> i64 {
    100_000 + 1 + 4 * i + lane
}

/// The age a written `Person` gets: the population's own rule.
pub fn written_age(name: i64) -> i64 {
    (name - 1) % 100
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{bench_options, open, SMALL};
    use ioql::{DbOptions, Engine};

    fn texts(stream: impl Iterator<Item = Tpl>, n: usize) -> Vec<String> {
        stream.take(n).map(|t| t.text()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            texts(PointStream::new(5, 0), 64),
            texts(PointStream::new(5, 0), 64)
        );
        assert_ne!(
            texts(PointStream::new(5, 0), 64),
            texts(PointStream::new(6, 0), 64)
        );
        assert_ne!(
            texts(PointStream::new(5, 0), 64),
            texts(PointStream::new(5, 1), 64)
        );
        assert_eq!(
            texts(AnalyticStream::new(5), 80),
            texts(AnalyticStream::new(5), 80)
        );
        assert_ne!(
            texts(AnalyticStream::new(5), 80),
            texts(AnalyticStream::new(6), 80)
        );
        let render = |v: Vec<Tpl>| v.iter().map(Tpl::text).collect::<Vec<_>>();
        assert_eq!(render(hot_set(5)), render(hot_set(5)));
        assert_ne!(render(hot_set(5)), render(hot_set(6)));
        assert_eq!(render(mixed_reads(5)), render(mixed_reads(5)));
        assert_ne!(render(mixed_reads(5)), render(mixed_reads(6)));
        let ranks = |seed| {
            let mut s = ZipfStream::new(seed, 0, 32);
            (0..200).map(|_| s.next_rank()).collect::<Vec<_>>()
        };
        assert_eq!(ranks(5), ranks(5));
        assert_ne!(ranks(5), ranks(6));
    }

    #[test]
    fn hot_sets_hold_distinct_texts_of_the_stated_kinds() {
        let hot = hot_set(11);
        assert_eq!(hot.len(), 32);
        let distinct: BTreeSet<String> = hot.iter().map(Tpl::text).collect();
        assert_eq!(distinct.len(), 32);
        assert!(hot
            .iter()
            .step_by(4)
            .all(|t| { matches!(t, Tpl::UnionChain(k) if k.len() == 16) && t.text().len() > 700 }));
        let mixed = mixed_reads(11);
        assert_eq!(mixed.len(), 16);
        assert!(mixed.iter().step_by(2).all(|t| !t.reads_persons()));
        assert!(mixed.iter().skip(1).step_by(2).all(Tpl::reads_persons));
    }

    /// The mirror agrees with the Figure 2 machine on a 50-object store, for
    /// the eight analytic shapes and every other template the workloads send.
    #[test]
    fn mirror_oracle_agrees_with_the_small_step_machine() {
        let spec = DbOptions {
            engine: Engine::SmallStep,
            compile: false,
            optimize: false,
            cache_capacity: 0,
            ..bench_options()
        };
        let (mut db, mirror) = open(spec, SMALL, 9).unwrap();
        let emps = mirror.emps.clone();
        let mut sent: Vec<Tpl> = AnalyticStream::new(9).take(24).collect();
        sent.extend(hot_set(9));
        sent.extend(mixed_reads(9));
        sent.extend(PointStream::new(9, 0).take(4));
        // Constants the 50-object store actually holds, so answers are not
        // all empty.
        sent.extend([
            Tpl::UniqueProbe(7),
            Tpl::FilterScan(30),
            Tpl::AggSum(40),
            Tpl::PointProbe(12),
            Tpl::JoinLateFilter(3),
            Tpl::SetopUnion(5, 2),
            Tpl::DefCall(4),
            Tpl::SumGrossDept(1),
            Tpl::SizeDept(9),
            Tpl::UnionChain((1..=16).map(|k| k * 4).collect()),
        ]);
        for tpl in sent {
            let got = db.query(&tpl.text()).unwrap().value;
            let want = tpl.answer(&mirror.persons, &emps);
            assert_eq!(want.render(), got.to_string(), "{}", tpl.text());
            assert!(want.matches(&got), "{}", tpl.text());
        }
        // A write creates exactly the person the mirror adds.
        let mut persons = mirror.persons.clone();
        let name = fresh_name(2, 0);
        let write = Tpl::Write(name);
        assert!(write
            .answer(&persons, &emps)
            .matches(&db.query(&write.text()).unwrap().value));
        persons.push((name, written_age(name)));
        for tpl in [
            Tpl::UniqueProbe(name),
            Tpl::PointProbe(written_age(name)),
            Tpl::FilterScan(written_age(name) + 1),
            Tpl::AggSum(name),
        ] {
            let got = db.query(&tpl.text()).unwrap().value;
            assert_eq!(tpl.answer(&persons, &emps).render(), got.to_string());
        }
    }
}
