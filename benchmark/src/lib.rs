//! # pqc-benchmark
//!
//! The repo benchmark: four workloads, end-to-end TTFT / TPOT /
//! tokens-per-second, and a per-layer anatomy of prefill and decode timed
//! from outside the crates. It drives only public functions of the library
//! crates and claims no gain itself; `BENCHMARK.json` at the repo root is
//! the contract it is measured by, and `README.md` beside this package
//! explains every metric.

pub mod anatomy;
pub mod json;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
