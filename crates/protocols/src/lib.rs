//! # sync-protocols — passive synchronization algorithms
//!
//! The *passive* (fixed-protocol) synchronization algorithms the paper
//! compares its reactive algorithms against (Chapter 3, §3.1), running on
//! the [`alewife_sim`] substrate:
//!
//! * **Spin locks** — the [`spin::Lock`] trait and
//!   [`spin::TestAndSetLock`] (test&set with randomized exponential
//!   backoff). The test-and-test-and-set and MCS queue locks are
//!   written once for both worlds in `reactive_api::spin` and run here
//!   through `reactive_core::spin`.
//! * **Fetch-and-op** — [`fetch_op::LockFetchOp`] (a counter protected by
//!   any lock) and [`fetch_op::CombiningTree`] (the Goodman, Vernon &
//!   Woest software combining tree, §3.1.2 / Appendix C).
//! * **Message-passing protocols** (§3.6) — [`mp::MpQueueLock`],
//!   [`mp::MpCounter`], and [`mp::MpCombiningTree`], built on atomic
//!   active-message handlers.
//! * **Barriers** — [`barrier::SenseBarrier`], a sense-reversing
//!   centralized barrier with a pluggable waiting strategy.
//! * **Producer-consumer structures** — [`pc::JStructure`] and
//!   [`pc::FutureCell`], full/empty-bit based (§4.6.1). Each slot is one
//!   simulated line plus one wait queue; both handles are `Copy`.
//! * **Waiting strategies** — the [`waiting::WaitStrategy`] trait (one
//!   `wait` over a condition on the watched word; word-predicate and
//!   full/empty waits are the two conditions) plus the always-spin and
//!   always-block baselines; the two-phase waiting algorithm itself
//!   lives in `reactive-core` (it is the contribution).
//! * **Robust locks** — [`recover::RecoverableMutex`] (a Golab–Ramaraju
//!   style recoverable mutex whose per-process progress words live in
//!   NVM and survive crashes injected by `alewife_sim::FaultPlan`) and
//!   [`abortable::AbortableMcsLock`] (an abandonable queue lock with
//!   constant amortized RMR cost per passage or abort).

#![deny(missing_docs)]

pub mod abortable;
pub mod barrier;
pub mod fetch_op;
pub mod mp;
pub mod pc;
pub mod recover;
pub mod spin;
pub mod waiting;

/// Re-exported substrate types used throughout this crate's API.
pub use alewife_sim::{Addr, Cpu, Machine};
