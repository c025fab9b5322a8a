//! # saintbench — the end-to-end benchmark of SAINTDroid-RS
//!
//! Four seeded workloads (see `BENCHMARK.json` and `BENCHMARK.md`),
//! each run in fresh child processes: the inputs are generated first
//! and untimed, the program under test only sees those files, every
//! verdict is checked against an independent reference, and a separate
//! traced run attributes the time to the layers through a ledger whose
//! rows plus a stated residual add up to the traced wall time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod inputs;
pub mod oracle;
pub mod run;
pub mod schedule;
pub mod spec;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod wire;
pub mod workload;
