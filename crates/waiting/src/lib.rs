//! # waiting-theory — competitive analysis of waiting algorithms
//!
//! Chapter 4 of the paper, as executable mathematics:
//!
//! * [`dist`] — the waiting-time distributions of §4.4.3 (exponential
//!   for producer-consumer, uniform for barriers) behind the
//!   *restricted adversary* model.
//! * [`expected`] — the expected-cost model of §4.4.2 (Equations 4.1 and
//!   4.2): `E[C_2phase/α]`, `E[C_poll]`, `E[C_signal]`, `E[C_opt]`, and
//!   the resulting competitive factors.
//! * [`optimal`] — derivation of the optimal static `Lpoll` (§4.5):
//!   `α* = ln(e-1) ≈ 0.5413` (1.58-competitive) under exponential
//!   waiting times, `α* ≈ 0.62` (1.62-competitive) under uniform ones.
//! * [`task_system`] — the on-line task systems of Chapter 2: the cost
//!   model, the exact off-line optimum, a lookahead-one driver for any
//!   on-line decision rule, and the worst-case adversary of Figure 3.14.
//!   (The switching policies it is driven with live in `reactive-api`.)
//! * [`montecarlo`] — simulation of waiting algorithms against sampled
//!   waiting times, used to corroborate the closed forms.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod expected;
pub mod montecarlo;
pub mod optimal;
pub mod task_system;

pub use dist::WaitDist;
pub use expected::{competitive_factor, expected_opt, expected_signal, expected_two_phase};
pub use optimal::{optimal_alpha, EXP_ALPHA_STAR, EXP_RHO_STAR, UNI_ALPHA_STAR, UNI_RHO_STAR};
