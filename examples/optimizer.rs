//! The §4 application: using effect information to license (or refuse)
//! query rewrites, plus the measurable payoff of predicate promotion.
//!
//! ```sh
//! cargo run --example optimizer
//! ```

use ioql::{Database, DbOptions, Engine};
use ioql_testkit::fixtures::{commute_counterexample_query, persons_employees};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- Part 1: the paper's counterexample ---------------------------
    let fx = persons_employees();
    let mut db = Database::from_schema(fx.schema.clone(), DbOptions::default())?;
    db.install(fx.store.clone())?;

    let q = commute_counterexample_query();
    println!("§4 counterexample:\n  {q}\n");

    let as_written = db.query(q)?;
    println!("as written          : {}", as_written.value);

    let commuted = "{ (new Person(name: 1, address: 1)).name } intersect { size(Persons) }";
    let fx2 = persons_employees();
    let mut db2 = Database::from_schema(fx2.schema.clone(), DbOptions::default())?;
    db2.install(fx2.store.clone())?;
    let swapped = db2.query(commuted)?;
    println!("naively commuted    : {}  ← different!", swapped.value);

    let analysis = db.analyze(q)?;
    let v = &analysis.commutations[0];
    println!(
        "effect guard        : left {{{}}}, right {{{}}} → safe to commute: {}",
        v.left, v.right, v.safe
    );
    let (_, applied) = db.optimize(q)?;
    println!(
        "optimizer           : applied {:?} (no commute-by-cost)\n",
        applied.iter().map(|r| r.rule).collect::<Vec<_>>()
    );

    // ----- Part 2: rewrites that DO fire, and what they buy -------------
    let mut big = Database::from_ddl(
        "
        class Item extends Object (extent Items) {
            attribute int sku;
            attribute int price;
        }
        class Order extends Object (extent Orders) {
            attribute int id;
            attribute int sku;
        }
        ",
    )?;
    // 40 items, 40 orders.
    big.query("{ new Item(sku: n, price: n * 3) | n <- {1,2,3,4,5,6,7,8,9,10} }")?;
    big.query("{ new Item(sku: 10 + n, price: n) | n <- {1,2,3,4,5,6,7,8,9,10} }")?;
    big.query("{ new Order(id: n, sku: n) | n <- {1,2,3,4,5,6,7,8,9,10} }")?;
    big.query("{ new Order(id: 10 + n, sku: n) | n <- {1,2,3,4,5,6,7,8,9,10} }")?;

    // A join with a late, one-sided predicate: the naive plan evaluates
    // the predicate (and expands the cross product) per (item, order)
    // pair; promotion filters items first.
    let join = "{ i.price + o.id | i <- Items, o <- Orders, i.sku < 3 }";
    let (optimized, applied) = big.optimize(join)?;
    println!("join query:\n  {join}");
    println!("optimized to:\n  {optimized}");
    println!(
        "rewrites            : {:?}",
        applied.iter().map(|r| r.rule).collect::<Vec<_>>()
    );

    // Measure the difference in reduction steps — on the spec machine,
    // which runs each text as written and counts (production optimizes
    // both texts to the same plan; `benchmark/run.sh` measures its
    // wall-clock). With no cache, every run is evaluated.
    let mut spec = big.session("spec");
    spec.set_options(DbOptions {
        engine: Engine::SmallStep,
        cache_capacity: 0,
        ..big.options()
    });
    let naive_steps = spec.query(join)?.steps;
    let optimized_steps = spec.query(&optimized.to_string())?.steps;
    println!("steps (naive)       : {naive_steps}");
    println!("steps (optimized)   : {optimized_steps}");
    println!(
        "speedup             : {:.1}×",
        naive_steps as f64 / optimized_steps as f64
    );

    // Same results, of course:
    let a = big.query(join)?.value;
    let b = big.query(&optimized.to_string())?.value;
    assert_eq!(a, b);
    println!("results identical   : {}", a == b);
    Ok(())
}
