//! # sedna-e2e
//!
//! One seeded end-to-end benchmark for the Sedna reproduction: four named
//! workloads driven through the engine's public API, an oracle that checks
//! the answers, and a traced run that splits each statement's time by layer.
//! `README.md` beside this crate says how to run it and how each number is
//! derived; `BENCHMARK.json` at the repository root is its contract.

pub mod gen;
pub mod metrics;
pub mod oracle;
pub mod pin;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;

/// Any failure of a run: an engine error, a wrong answer, a failed gate.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
