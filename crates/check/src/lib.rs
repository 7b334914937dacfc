//! In-repo verification tooling (never a dependency of shipping code).
//!
//! Two engines, each with a thin binary wrapper:
//!
//! * [`scenarios`] + `conc-check` — the repo's lock/kernel scenarios
//!   run under the bounded interleaving model checker in
//!   `reactive_native::model`. A clean pass proves the native
//!   protocols and the switching kernel race-free up to the preemption
//!   bound; the seeded regression mutants (`--cfg conc_check_mutant` +
//!   `CONC_CHECK_MUTANT`) prove the checker can still see each race
//!   they seed back in.
//! * [`lint`] + `lint` — textual/structural repo invariants: memory
//!   orderings justified, `unsafe` blocks documented, no maps on the
//!   simulator hot path, the 16-byte event assert present, and the
//!   experiment tables in sync with the benchmark output keys.

pub mod lint;
pub mod scenarios;
