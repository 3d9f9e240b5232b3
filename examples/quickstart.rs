//! Quickstart: define a schema, populate it through the query language,
//! and run typed, effect-analysed queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ioql::{Database, DbOptions, Engine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The data model: ODL-style class definitions (paper §2). Methods
    //    are written in the built-in Java-like method language.
    let mut db = Database::from_ddl(
        "
        class Book extends Object (extent Books) {
            attribute int title;     // IOQL's data model is int/bool/classes
            attribute int year;
            attribute int pages;
            bool isLong() { return 500 < this.pages; }
        }
        class Novel extends Book (extent Novels) {
            attribute int protagonist;
        }
        ",
    )?;

    // 2. Populate through IOQL itself: `new` returns the fresh object and
    //    registers it in its class extent (paper §3.1).
    db.query("{ new Book(title: n, year: 1990 + n, pages: n * 100) | n <- {1, 2, 3, 4, 5, 6} }")?;
    db.query("{ new Novel(title: 100, year: 2001, pages: 900, protagonist: 7) }")?;

    // 3. Query with comprehensions (the paper's core syntax) …
    let long_books = db.query("{ b.title | b <- Books, b.isLong() }")?;
    println!("long books       = {}", long_books.value);

    // … or with OQL's select-from-where, which is pure sugar:
    let recent =
        db.query("select struct(t: b.title, y: b.year) from b in Books where 1993 <= b.year")?;
    println!("recent books     = {}", recent.value);

    // 4. Every query is statically typed (Figure 1) and effect-analysed
    //    (Figure 3) before it runs.
    let analysis = db.analyze("{ b.pages | b <- Books } union { n.pages | n <- Novels }")?;
    println!("type             = {}", analysis.ty);
    println!("effect           = {}", analysis.effect);
    println!("deterministic    = {}", analysis.deterministic);

    // 5. Queries that create objects are still checked: this one both
    //    reads and adds to the Books extent inside one comprehension, so
    //    its result depends on iteration order — the analysis says so
    //    *before* you run it.
    let risky = "{ (new Book(title: size(Books), year: 0, pages: 0)).title | b <- Books }";
    let verdict = db.analyze(risky)?;
    println!(
        "risky query      : deterministic = {}, because {}",
        verdict.deterministic,
        verdict
            .determinism_diagnosis
            .unwrap_or_else(|| "n/a".into()),
    );

    // 6. And the runtime effect trace of any run stays inside the static
    //    bound (Theorem 5). Everything above ran on the production path;
    //    the Figure 2 machine — the executable specification — is one
    //    option away, and is the engine that counts reduction steps:
    db.set_options(DbOptions {
        engine: Engine::SmallStep,
        ..db.options()
    });
    let r = db.query("size(Books)")?;
    println!(
        "size(Books)      = {} (static effect {{{}}}, runtime {{{}}}, {} steps)",
        r.value, r.static_effect, r.runtime_effect, r.steps
    );
    Ok(())
}
