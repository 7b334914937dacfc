//! # alewife-sim — a deterministic multiprocessor simulator
//!
//! This crate is the experimental substrate for the reproduction of
//! *Reactive Synchronization Algorithms for Multiprocessors* (Lim, 1994).
//! The paper ran its experiments on NWO, a cycle-accurate simulator of the
//! MIT Alewife machine. This crate provides the equivalent substrate: a
//! deterministic, event-driven simulation of a distributed-memory
//! multiprocessor that supports the shared-memory abstraction through a
//! directory-based cache-coherence protocol, plus an active-message layer
//! and a non-preemptive multithreaded node runtime.
//!
//! The mechanisms the paper's results depend on are modelled explicitly:
//!
//! * **Directory coherence with sequential invalidations** — a write to a
//!   line with *k* read-cached copies occupies the home directory while it
//!   issues *k* invalidations one after the other, which is what makes
//!   test-and-test-and-set locks melt down under contention (§3.1.3).
//! * **Limited hardware directory pointers (LimitLESS)** — once a line has
//!   more readers than hardware pointers, every directory operation on it
//!   pays a software-trap penalty, reproducing the `Dir_NB` comparison of
//!   Figure 3.2.
//! * **Directory occupancy** — each home node services coherence requests
//!   serially, so hot synchronization objects serialize requesters.
//! * **Atomic active messages** — handlers run atomically at the
//!   destination node, enabling the message-passing protocols of §3.6.
//! * **Multithreaded nodes with Alewife cost structure** — context switch
//!   14 cycles, blocking ≈ 500 cycles split into unload / reenable /
//!   reload as in Table 4.1, non-preemptive scheduling (§2.2.4), which is
//!   what Chapter 4's two-phase waiting experiments need.
//!
//! Everything is single-threaded and deterministic: events are ordered by
//! `(virtual time, sequence number)` and all randomness comes from a
//! seeded xorshift generator, so every experiment is exactly reproducible.
//!
//! ## Quick start
//!
//! ```
//! use alewife_sim::{Machine, Config};
//!
//! let m = Machine::new(Config::default().nodes(4));
//! let counter = m.alloc_on(0, 1);
//! for p in 0..4 {
//!     let cpu = m.cpu(p);
//!     m.spawn(p, async move {
//!         for _ in 0..10 {
//!             cpu.fetch_and_add(counter, 1).await;
//!             cpu.work(50).await;
//!         }
//!     });
//! }
//! let elapsed = m.run();
//! assert_eq!(m.read_word(counter), 40);
//! assert!(elapsed > 0);
//! ```

#![deny(missing_docs)]
#![allow(clippy::new_without_default)]

mod coherence;
mod cost;
mod cpu;
mod exec;
mod fault;
mod machine;
mod msg;
mod net;
pub mod parallel;
mod queue;
pub mod rng;
mod state;
pub mod stats;
mod thread;

pub use cost::CostModel;
pub use cpu::Cpu;
pub use exec::TaskId;
pub use fault::{FaultEvent, FaultPlan};
pub use machine::{Config, Machine};
pub use msg::{HandlerCtx, Port, PrivAddr, ReplyToken};
pub use parallel::{Cluster, ClusterReport, ParallelConfig, RemoteMail, ShardCtx};
pub use queue::{EventEntry, EventQueue};
pub use state::Addr;
pub use stats::{Stats, WaitHistogram};
pub use thread::WaitQueueId;

/// Result of a full/empty-bit tagged read (see [`Cpu::take_if_full`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FullEmpty {
    /// The word was full; the payload is its value.
    Full(u64),
    /// The word was empty.
    Empty,
}
