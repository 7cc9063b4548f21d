//! The repository's benchmark. See `README.md` for the metric glossary and
//! what each workload isolates; `BENCHMARK.json` at the repository root is
//! the contract this crate prints to.

#![warn(missing_docs)]

pub mod aa;
pub mod apps;
pub mod estimators;
pub mod harness;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workloads;
