//! # reactive-sync
//!
//! A reproduction of *Reactive Synchronization Algorithms for
//! Multiprocessors* (Beng-Hong Lim, MIT, 1994; ASPLOS '94 with Anant
//! Agarwal) as a Rust workspace. This facade crate re-exports the member
//! crates under stable names:
//!
//! * [`sim`] — the Alewife/NWO-like deterministic multiprocessor
//!   simulator the experiments run on.
//! * [`api`] — the shared reactive protocol-selection API: the
//!   [`Policy`](api::Policy) trait, [`ProtocolId`](api::ProtocolId)s,
//!   the switching kernel with its
//!   [`SwitchableObject`](api::SwitchableObject) hooks, and switch-event
//!   instrumentation, used by both the simulator-side and native
//!   reactive objects.
//! * [`protocols`] — the passive synchronization protocols the paper
//!   compares (test-and-set/TTS/MCS locks, lock-based and combining-tree
//!   fetch-and-op, message-passing protocols, barriers, J-structures).
//! * [`reactive`] — the paper's contribution: protocol-selection
//!   algorithms built on consensus objects, the reactive spin lock, the
//!   reactive fetch-and-op, switching policies, and two-phase waiting.
//! * [`waiting`] — Chapter 4's competitive analysis of waiting
//!   algorithms (expected costs, optimal `Lpoll`, task systems).
//! * [`native`] — the same reactive algorithms on real hardware
//!   (`std::sync::atomic` + thread parking), usable as a library.
//! * [`apps`] — miniature parallel applications with the paper's
//!   synchronization signatures, used by the benchmark harness.
//! * [`service`] — the multi-tenant adaptive lock service: millions of
//!   reactive objects in a sharded arena (one packed word per object at
//!   rest), with lock inflation, per-shard switch-rate limiting, an
//!   offline no-stampede oracle, and tail-latency reporting.
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every table and figure.

pub use alewife_sim as sim;
pub use lock_service as service;
pub use reactive_api as api;
pub use reactive_core as reactive;
pub use reactive_native as native;
pub use sim_apps as apps;
pub use sync_protocols as protocols;
pub use waiting_theory as waiting;
