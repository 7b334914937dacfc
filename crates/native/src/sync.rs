//! Synchronization facade for the native protocols.
//!
//! Every protocol file imports its atomics, mutexes, thread parking and
//! clock through this module instead of `std`, so the whole native
//! world can be compiled in two shapes:
//!
//! * **default** — thin re-exports of the real `std` primitives; zero
//!   cost, identical behavior to writing `std::sync::atomic::*`
//!   directly.
//! * **`--features model`** — the `conc-check` model checker's shims
//!   (`crate::model::shim`): every shared-memory access becomes a
//!   scheduling point of a deterministic turn-based scheduler, which
//!   explores interleavings exhaustively under a preemption bound and
//!   runs a vector-clock race detector over the trapped accesses.
//!
//! The shims pass through to the real primitives whenever no model run
//! is active on the current thread, so `model` builds remain usable
//! outside the checker (e.g. `cargo test --features model`).

/// Memory orderings are always the `std` type; the shims interpret them
/// to build happens-before edges.
pub use std::sync::atomic::Ordering;

#[cfg(not(feature = "model"))]
mod real {
    pub use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8};
    pub use std::sync::{Mutex, MutexGuard};
    pub use std::time::Instant;

    /// Threading primitives the protocols use (parking and yielding).
    pub mod thread {
        pub use std::thread::{current, park, spawn, yield_now, JoinHandle, Thread};
    }

    /// CPU relax hint inside spin loops.
    #[inline]
    pub fn spin_loop() {
        std::hint::spin_loop();
    }
}

#[cfg(not(feature = "model"))]
pub use real::*;

#[cfg(feature = "model")]
pub use crate::model::shim::{
    spin_loop, thread, AtomicBool, AtomicPtr, AtomicU64, AtomicU8, Instant, Mutex, MutexGuard,
};

/// Polls between `yield_now` calls in spin-wait loops. Under the model
/// this is 1 so every failed probe reaches a voluntary yield point and
/// the scheduler's round-robin rule keeps spinners from monopolizing
/// the (finite) exploration budget.
pub const YIELD_MASK: u32 = if cfg!(feature = "model") { 1 } else { 256 };

/// Initial backoff spin iterations for TTS-style locks; 0 under the
/// model (backoff burns steps without adding interleavings — every
/// shim access is already a preemption point).
pub const BACKOFF_INITIAL: u64 = if cfg!(feature = "model") { 0 } else { 8 };

/// Backoff cap, scaled down with [`BACKOFF_INITIAL`].
pub const BACKOFF_MAX: u64 = if cfg!(feature = "model") { 0 } else { 4_096 };
