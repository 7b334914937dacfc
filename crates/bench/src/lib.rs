//! # repro-bench — the paper's evaluation harness
//!
//! Every table/figure of the paper is one [`scenario::Scenario`]; the
//! `experiments` bench target (`harness = false`) runs them all, or an
//! `--only` selection, and writes the `BENCH_*.json` row record. This
//! library holds the scenarios, their shared experiment runners, the
//! record writer and the table printers. See `EXPERIMENTS.md` at the
//! repository root for the paper-vs-measured record it regenerates.

#![deny(missing_docs)]

pub mod experiments;
pub mod record;
pub mod rmr;
pub mod scenario;
pub mod service;
pub mod service_native;
pub mod table;
