//! Test harness for the IOQL reproduction.
//!
//! * [`fixtures`] — the paper's schemas and stores (the §1 Jack/Jill
//!   classes `P`/`F`, the §2 `Employee` payroll schema, the §4
//!   `Person`/`Employee` optimization example), plus population helpers.
//! * [`gen`] — a seeded generator of *well-typed* queries over a schema:
//!   the population the theorem oracles quantify over.
//! * [`oracles`] — executable statements of the paper's theorems
//!   (subject reduction, progress, effect consistency, system agreement),
//!   applied per reduction step.
//! * [`workloads`] — parameterised stores of a requested size.
//! * [`faults`] — seed-driven fault injection (deadline/budget/cancel
//!   plans, a chaos chooser, dump corruption) for the robustness suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod fixtures;
pub mod gen;
pub mod oracles;
pub mod workloads;

pub use faults::{
    corrupt_dump, ChaosChooser, Corruption, CrashSink, Fault, FaultPlan, WalSinkFactory,
};
pub use fixtures::{deep_hierarchy, jack_jill, payroll, persons_employees, Fixture};
pub use gen::{GenConfig, QueryGen};
pub use oracles::{
    effect_soundness_holds, observationally_equivalent, progress_and_preservation_hold,
    systems_agree, OracleError,
};
