//! `e2e`: the repository's benchmark. Four named workloads driven through
//! the public session API (`SummarySession` / `DurableSession`) in a closed
//! loop with one client; every answer checked against an oracle; end-to-end
//! metrics with tracing off, and a per-layer breakdown from a separate traced
//! replay that times calls into each crate's public functions from here.
//! See `README.md` beside this crate.

pub mod cli;
pub mod compare;
pub mod fixture;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod streams;
pub mod trace;
