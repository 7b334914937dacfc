//! # reactive-native — the reactive algorithms on real hardware
//!
//! The same algorithms as `reactive-core`, implemented on
//! `std::sync::atomic` and OS threads, so the library is directly usable
//! (parking_lot-style adaptive mutexes exist; *protocol-switching* locks
//! like this one are the paper's contribution and are rarely
//! implemented):
//!
//! * [`tts::TtsLock`] — test-and-test-and-set with randomized
//!   exponential backoff.
//! * [`mcs::McsLock`] — the MCS queue lock (waiters spin on their own
//!   cache line; FIFO). Both run `reactive_api::spin`'s shared text.
//! * [`reactive::ReactiveLock`] / [`reactive::ReactiveMutex`] — the
//!   reactive lock: TTS under low contention, MCS queue under high
//!   contention, switching at run time with the paper's
//!   never-both-free consensus discipline. Built through
//!   `ReactiveLock::builder()`, it takes any [`api::Policy`] impl and
//!   reports protocol changes to an [`api::Instrument`] sink — the same
//!   traits the simulator-side algorithms use.
//! * [`two_phase::TwoPhaseWait`] — spin up to `Lpoll`, then park the
//!   thread (Chapter 4's two-phase waiting, with `Lpoll ≈ 0.54 × park
//!   cost` as the §4.5.1 default).

#![deny(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod host;
pub mod mcs;
#[cfg(feature = "model")]
pub mod model;
pub mod reactive;
pub mod sync;
pub mod tts;
pub mod two_phase;

pub use mcs::McsLock;
pub use reactive::{ReactiveLock, ReactiveMutex};
pub use reactive_api as api;
pub use tts::TtsLock;
pub use two_phase::{Event, TwoPhaseWait};
