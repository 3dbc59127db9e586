//! End-to-end and per-layer benchmark of the randmod campaign engine.
//!
//! The benchmark drives the engine from outside, through the public API
//! of `randmod-workloads`, `randmod-sim` and `randmod-mbpta`: one caller
//! runs campaigns back to back on one worker thread, at the default
//! lane width.  An untraced run reports the end-to-end metrics; a traced
//! run records a span around every call into a layer and reports each
//! layer's self time and work counts.  `BENCHMARK.json` at the repository
//! root lists the workloads and metrics.

pub mod bench;
pub mod report;
pub mod spans;
pub mod workload;
