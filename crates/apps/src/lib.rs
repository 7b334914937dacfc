//! # sim-apps — the paper's application benchmarks
//!
//! Miniature parallel applications preserving the *synchronization
//! signatures* of the programs the thesis measures (Table 4.2, §3.5.6):
//! the same synchronization objects, contention mixes, and waiting-time
//! distributions, with computation modelled as cycle costs. Numerics are
//! simplified — the paper's results are driven by synchronization
//! structure, not physics.
//!
//! | Module | Paper application | Synchronization |
//! |---|---|---|
//! | [`gamteb`] | Gamteb photon transport | 9 fetch-and-op interaction counters |
//! | [`tsp`] | Traveling Salesman (branch & bound) | fetch-and-inc work queue |
//! | [`aq`] | Adaptive Quadrature | fetch-and-inc work queue / futures |
//! | [`mp3d`] | MP3D rarefied flow | cell locks + collision-count lock |
//! | [`cholesky`] | Sparse Cholesky | column locks, task counter |
//! | [`jacobi`] | Jacobi relaxation | J-structures (and a barrier variant) |
//! | [`cgrad`] | Conjugate gradient | barriers |
//! | [`fib`] | Fibonacci with futures | futures |
//! | [`fibheap`] | Concurrent Fibonacci heap | one hot mutex |
//! | [`countnet`] | Counting network | balancer mutexes |
//! | [`mutex_app`] | Synthetic mutex benchmark | one mutex, tunable load |
//!
//! The [`alg`] module provides runtime-selectable wrappers
//! ([`alg::AnyLock`], [`alg::AnyFetchOp`], [`alg::WaitAlg`],
//! [`alg::WaitLock`]) so the benchmark harness can sweep algorithms.

#![deny(missing_docs)]

use alewife_sim::Stats;

/// Result of one application run.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Total execution time in cycles.
    pub elapsed: u64,
    /// Machine statistics (waiting-time histograms, counters).
    pub stats: Stats,
}

pub mod alg;
pub mod aq;
pub mod cgrad;
pub mod cholesky;
pub mod countnet;
pub mod fib;
pub mod fibheap;
pub mod gamteb;
pub mod jacobi;
pub mod mp3d;
pub mod mutex_app;
pub mod tsp;
