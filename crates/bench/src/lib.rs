//! # repro-bench — the paper's evaluation harness
//!
//! Every table/figure of the paper is one [`scenario::Scenario`] value,
//! written beside the workload it runs in its family's module under
//! `scenario/`; its claims are [`claim::Claim`]s. The `experiments`
//! bench target (`harness = false`) runs them all, or an `--only`
//! selection, and writes the `BENCH_*.json` row record through
//! [`record::rows_json`], as does `sim_throughput`. The one probe
//! outside a row is [`service_native::path_costs`]. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record it regenerates.

#![deny(missing_docs)]

pub mod claim;
pub mod record;
pub mod scenario;
pub mod service_native;
pub mod table;
