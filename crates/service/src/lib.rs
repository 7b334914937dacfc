//! `lock-service`: a multi-tenant adaptive lock service.
//!
//! The crates below this one answer "how does *one* reactive lock
//! switch protocols?" (Lim & Agarwal, ASPLOS '94). This crate answers
//! the operational question a real system asks next: what does it take
//! to host **millions** of such adaptive objects at once — and keep
//! per-object memory flat, keep tail latency bounded, and keep a load
//! spike from stampeding every hot object through a protocol switch at
//! the same instant?
//!
//! The pieces:
//!
//! * [`arena`] — the sharded [`ObjectArena`]: one packed 4-byte slot
//!   word per object at rest ([`slot`] defines the layout); journals,
//!   stats, and inflated locks are lazily allocated for hot objects
//!   only, and [`Footprint`] measures the result.
//! * [`workload`] — tenants: [`Zipf`] object skew, open-/closed-loop
//!   [`Load`], and constant/diurnal/bursty [`ArrivalCurve`]s, all
//!   seeded and deterministic.
//! * [`limiter`] — the per-shard switch-rate [`TokenBucket`], and
//! * [`oracle`] — the offline no-stampede checker that holds it to its
//!   window bound from the switch log alone, and the online form a
//!   native shard runs over the `burst + 65` commit times it needs.
//! * [`exec`] — the deterministic virtual-time executor
//!   ([`ServiceSim`]) behind every CI-gated number: p50/p99/p999
//!   acquire latency, switch and abort rates, bytes/object.
//! * [`native`] — the threaded executor ([`NativeService`]): real
//!   threads over real kernel-backed [`reactive_native::ReactiveLock`]s
//!   via lock inflation and (for durably calm objects) deflation.
//! * [`drive`] — the native load driver ([`run_native`]): worker
//!   threads replaying the same tenant configs against a
//!   [`NativeService`], reporting measured wall-clock percentiles next
//!   to the simulated ones.
//!
//! Quick taste (the bench scenarios in `crates/bench` are the real
//! entry point):
//!
//! ```
//! use lock_service::{Load, ServiceConfig, ServiceSim, TenantConfig, Zipf};
//!
//! let mut cfg = ServiceConfig::new(10_000, 8, 42);
//! cfg.tenants.push(TenantConfig {
//!     first_object: 0,
//!     objects: 10_000,
//!     theta: 0.9,
//!     load: Load::Closed { clients: 16, think_ns: 500 },
//!     hold_ns: 200,
//!     deadline_ns: 0,
//! });
//! let report = ServiceSim::new(cfg).run();
//! assert!(report.acquires > 0);
//! assert!(report.stampedes().is_empty());
//! ```

#![deny(missing_docs)]

pub mod arena;
pub mod drive;
pub mod exec;
pub mod limiter;
pub mod native;
pub mod oracle;
mod slab;
pub mod slot;
pub mod workload;

pub use arena::{Footprint, ObjectArena};
pub use drive::{run_native, NativeReport, NativeRunConfig};
pub use exec::{ArenaMode, ServiceConfig, ServiceReport, ServiceSim};
pub use limiter::{LimiterConfig, TokenBucket};
pub use native::{NativeGuard, NativeService};
pub use oracle::{check_no_stampede, Stampede, SwitchRecord};
pub use workload::{ArrivalCurve, Arrivals, Load, TenantConfig, Zipf};
