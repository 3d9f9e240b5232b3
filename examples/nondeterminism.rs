//! The paper's §1 motivating example, end to end: an observably
//! non-deterministic query, its exhaustive outcome set, and the static
//! effect analysis that detects the problem without running anything.
//!
//! ```sh
//! cargo run --example nondeterminism
//! ```

use ioql::{Database, DbOptions, LastChooser};
use ioql_testkit::fixtures::{jack_jill, jack_jill_loop_query, jack_jill_query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Class P (extent Ps) holds "Jack" (name 1) and "Jill" (name 2);
    // class F (extent Fs, initially empty) has name and pal attributes —
    // exactly the paper's setup, with names encoded as ints.
    let fx = jack_jill();
    let mut db = Database::from_schema(fx.schema.clone(), DbOptions::default())?;
    db.install(fx.store.clone())?;

    let query = jack_jill_query();
    println!("query:\n  {query}\n");

    // --- Run it twice with opposite iteration orders -------------------
    let first = db.query(query)?; // visits Jack first
    println!("visiting Jack first : {}", first.value);

    let fx2 = jack_jill();
    let mut db2 = Database::from_schema(fx2.schema.clone(), DbOptions::default())?;
    db2.install(fx2.store.clone())?;
    let second = db2.query_with(query, &mut LastChooser)?; // Jill first
    println!("visiting Jill first : {}", second.value);
    println!("(0 = Peter, 1 = Jack, 2 = Jill)\n");

    // --- Enumerate EVERY order the semantics admits ---------------------
    let fresh = jack_jill();
    let mut db3 = Database::from_schema(fresh.schema.clone(), DbOptions::default())?;
    db3.install(fresh.store.clone())?;
    let exploration = db3.explore(query, 10_000)?;
    let distinct = exploration.distinct_outcomes();
    println!(
        "exhaustive exploration: {} runs, {} distinct outcomes (mod oid bijection):",
        exploration.runs.len(),
        distinct.len()
    );
    for o in &distinct {
        println!("  result {}", o.value);
    }
    println!();

    // --- The effect system sees it statically --------------------------
    let analysis = db3.analyze(query)?;
    println!("static effect        : {}", analysis.effect);
    println!("⊢' accepts           : {}", analysis.deterministic);
    if let Some(reason) = &analysis.determinism_diagnosis {
        println!("diagnosis            : {reason}");
    }
    println!();

    // --- The second §1 example: order-dependent termination -------------
    let opts = DbOptions {
        method_fuel: 10_000,
        ..DbOptions::default()
    };
    let fx4 = jack_jill();
    let mut db4 = Database::from_schema(fx4.schema.clone(), opts.clone())?;
    db4.install(fx4.store.clone())?;
    println!("loop variant:\n  {}\n", jack_jill_loop_query());
    match db4.query(jack_jill_loop_query()) {
        Err(e) => println!("visiting Jack first : {e}"),
        Ok(r) => println!("visiting Jack first : {}", r.value),
    }
    let fx5 = jack_jill();
    let mut db5 = Database::from_schema(fx5.schema.clone(), opts)?;
    db5.install(fx5.store.clone())?;
    match db5.query_with(jack_jill_loop_query(), &mut LastChooser) {
        Err(e) => println!("visiting Jill first : {e}"),
        Ok(r) => println!("visiting Jill first : {}", r.value),
    }
    Ok(())
}
