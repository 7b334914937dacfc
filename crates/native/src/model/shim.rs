//! Trap-everything synchronization shims.
//!
//! Drop-in replacements for the `std` primitives the native protocols
//! use (`AtomicBool`, `AtomicU8`, `AtomicU64`, `AtomicPtr`, `Mutex`,
//! thread parking, `Instant`). Inside a model run every operation is a
//! scheduling point of [`super::rt`]; outside a run (or while a thread
//! unwinds) each shim passes straight through to the real primitive,
//! so `--features model` builds stay usable everywhere.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::time::Duration;

use super::rt::{self, Edge, OpDesc, OpKind};

/// Lazily-assigned per-run object id (0 = unassigned; otherwise
/// generation-stamped so objects created in one run re-register in the
/// next).
#[derive(Debug)]
struct ObjId(StdAtomicU64);

impl ObjId {
    const fn new() -> ObjId {
        ObjId(StdAtomicU64::new(0))
    }
}

impl Default for ObjId {
    fn default() -> ObjId {
        ObjId::new()
    }
}

fn acq(ord: Ordering) -> bool {
    // order: meta — classifies a caller's ordering; not an access.
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn rel(ord: Ordering) -> bool {
    // order: meta — classifies a caller's ordering; not an access.
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn load_edge(ord: Ordering) -> Edge {
    if acq(ord) {
        Edge::Acquire
    } else {
        Edge::None
    }
}

fn store_edge(ord: Ordering) -> Edge {
    if rel(ord) {
        Edge::Release
    } else {
        Edge::None
    }
}

fn rmw_edge(ord: Ordering) -> Edge {
    match (acq(ord), rel(ord)) {
        (true, true) => Edge::AcqRel,
        (true, false) => Edge::Acquire,
        (false, true) => Edge::Release,
        (false, false) => Edge::None,
    }
}

/// Run `f` at a scheduling point against object `id` (pass-through when
/// no run is active).
fn shim_op<R>(
    id: &ObjId,
    name: &'static str,
    kind: OpKind,
    label: &'static str,
    f: impl FnOnce() -> (R, Edge),
) -> R {
    match rt::obj_id(&id.0, name) {
        None => f().0,
        Some(obj) => rt::point(
            OpDesc {
                kind,
                label,
                obj: Some(obj),
            },
            f,
        ),
    }
}

macro_rules! shim_atomic {
    // `fetch_add`, when given, names the one method `std` has only on
    // the integer atomics.
    ($name:ident $(<$p:ident>)?, $std:ty, $t:ty $(, $fetch_add:ident)?) => {
        /// Model-checked drop-in for the matching `std` atomic.
        #[derive(Debug)]
        pub struct $name$(<$p>)? {
            v: $std,
            id: ObjId,
        }

        impl$(<$p>)? Default for $name$(<$p>)? {
            fn default() -> Self {
                Self {
                    v: <$std>::default(),
                    id: ObjId::new(),
                }
            }
        }

        impl$(<$p>)? $name$(<$p>)? {
            /// New atomic holding `v`.
            pub const fn new(v: $t) -> Self {
                Self {
                    v: <$std>::new(v),
                    id: ObjId::new(),
                }
            }

            /// Atomic load (a scheduling point in-run).
            pub fn load(&self, ord: Ordering) -> $t {
                shim_op(
                    &self.id,
                    stringify!($name),
                    OpKind::Load,
                    concat!(stringify!($name), "::load"),
                    || (self.v.load(ord), load_edge(ord)),
                )
            }

            /// Atomic store (a scheduling point in-run).
            pub fn store(&self, val: $t, ord: Ordering) {
                shim_op(
                    &self.id,
                    stringify!($name),
                    OpKind::Store,
                    concat!(stringify!($name), "::store"),
                    || (self.v.store(val, ord), store_edge(ord)),
                )
            }

            /// Atomic swap (a scheduling point in-run).
            pub fn swap(&self, val: $t, ord: Ordering) -> $t {
                shim_op(
                    &self.id,
                    stringify!($name),
                    OpKind::Rmw,
                    concat!(stringify!($name), "::swap"),
                    || (self.v.swap(val, ord), rmw_edge(ord)),
                )
            }

            /// Atomic compare-exchange (a scheduling point in-run). A
            /// failed exchange synchronizes per `fail` only.
            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                fail: Ordering,
            ) -> Result<$t, $t> {
                shim_op(
                    &self.id,
                    stringify!($name),
                    OpKind::Rmw,
                    concat!(stringify!($name), "::compare_exchange"),
                    || {
                        let r = self.v.compare_exchange(current, new, success, fail);
                        let edge = match r {
                            Ok(_) => rmw_edge(success),
                            Err(_) => load_edge(fail),
                        };
                        (r, edge)
                    },
                )
            }

            $(
                /// Atomic fetch-add (a scheduling point in-run).
                pub fn $fetch_add(&self, val: $t, ord: Ordering) -> $t {
                    shim_op(
                        &self.id,
                        stringify!($name),
                        OpKind::Rmw,
                        concat!(stringify!($name), "::", stringify!($fetch_add)),
                        || (self.v.$fetch_add(val, ord), rmw_edge(ord)),
                    )
                }
            )?
        }
    };
}

shim_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
shim_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8, fetch_add);
shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64, fetch_add);
shim_atomic!(AtomicPtr<T>, std::sync::atomic::AtomicPtr<T>, *mut T);

/// Poison marker for the shim [`Mutex`] (API parity with `std`).
#[derive(Debug)]
pub struct Poisoned;

/// Model-checked drop-in for `std::sync::Mutex`. In-run, acquisition
/// order is a scheduler decision and lock/unlock carry the usual
/// happens-before edges; the real inner mutex is still taken (it can
/// never block, the scheduler admits one holder at a time).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
    id: ObjId,
}

impl<T> Mutex<T> {
    /// New mutex holding `v`.
    pub const fn new(v: T) -> Mutex<T> {
        Mutex {
            inner: std::sync::Mutex::new(v),
            id: ObjId::new(),
        }
    }

    /// Acquire (a blocking scheduling point in-run).
    pub fn lock(&self) -> Result<MutexGuard<'_, T>, Poisoned> {
        if let Some(obj) = rt::obj_id(&self.id.0, "Mutex") {
            rt::point(
                OpDesc {
                    kind: OpKind::MutexLock,
                    label: "Mutex::lock",
                    obj: Some(obj),
                },
                || ((), Edge::None),
            );
            let g = self
                .inner
                .try_lock()
                .expect("model invariant: scheduler admits one mutex holder");
            Ok(MutexGuard {
                g: Some(g),
                model_obj: Some(obj),
            })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    g: Some(g),
                    model_obj: None,
                }),
                Err(_) => Err(Poisoned),
            }
        }
    }
}

/// Guard for the shim [`Mutex`].
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    g: Option<std::sync::MutexGuard<'a, T>>,
    model_obj: Option<u32>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.g.as_ref().expect("guard present")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.g.as_mut().expect("guard present")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(obj) = self.model_obj {
            if rt::in_run() {
                rt::point(
                    OpDesc {
                        kind: OpKind::MutexUnlock,
                        label: "Mutex::unlock",
                        obj: Some(obj),
                    },
                    || ((), Edge::None),
                );
            }
            // The real guard drops after the model unlock; no other
            // thread can run until our next scheduling point, so the
            // next holder's try_lock still succeeds.
        }
        self.g = None;
    }
}

/// Threading shims: spawn/join/park/unpark/yield as scheduling points.
pub mod thread {
    use super::super::rt;

    /// Handle to a (possibly model-) thread, as from [`current`].
    #[derive(Clone, Debug)]
    pub struct Thread {
        tid: Option<usize>,
        real: std::thread::Thread,
    }

    impl Thread {
        /// Wake the thread (sets the park token in-run).
        pub fn unpark(&self) {
            match self.tid {
                Some(t) if rt::in_run() => rt::unpark_model(t),
                _ => self.real.unpark(),
            }
        }
    }

    /// The current thread's handle.
    pub fn current() -> Thread {
        Thread {
            tid: rt::current_tid(),
            real: std::thread::current(),
        }
    }

    /// Park the current thread (a blocking scheduling point in-run).
    pub fn park() {
        if rt::in_run() {
            rt::park_model();
        } else {
            std::thread::park();
        }
    }

    /// Voluntarily yield (round-robins the model scheduler in-run).
    pub fn yield_now() {
        if rt::in_run() {
            rt::yield_model();
        } else {
            std::thread::yield_now();
        }
    }

    /// Handle to a spawned thread.
    #[derive(Debug)]
    pub struct JoinHandle {
        tid: Option<usize>,
        real: Option<std::thread::JoinHandle<()>>,
    }

    impl JoinHandle {
        /// Wait for the thread (a blocking scheduling point in-run).
        pub fn join(mut self) -> std::thread::Result<()> {
            if let Some(t) = self.tid {
                rt::join_model(t);
            }
            match self.real.take() {
                Some(h) => h.join(),
                None => Ok(()),
            }
        }
    }

    /// Spawn a thread. In-run this registers a model thread whose every
    /// shim operation the scheduler controls; outside a run it is a
    /// plain `std::thread::spawn`.
    pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle {
        if rt::in_run() {
            let tid = rt::spawn_model(f);
            JoinHandle {
                tid: Some(tid),
                real: None,
            }
        } else {
            JoinHandle {
                tid: None,
                real: Some(std::thread::spawn(f)),
            }
        }
    }
}

/// CPU relax hint; never a scheduling point (the surrounding loads
/// already are), so spin loops cost no exploration.
#[inline]
pub fn spin_loop() {
    std::hint::spin_loop();
}

/// Model-checked drop-in for `std::time::Instant`. In-run, time is the
/// virtual step clock (one nanosecond per granted operation), keeping
/// deadline-based polling loops — two-phase waiting's first phase —
/// deterministic, replayable and finite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instant {
    /// Wall-clock time (outside a run).
    Real(std::time::Instant),
    /// Virtual step-clock time (inside a run).
    Virtual(u64),
}

impl Instant {
    /// The current (virtual or real) time.
    pub fn now() -> Instant {
        match rt::virtual_now() {
            Some(v) => Instant::Virtual(v),
            None => Instant::Real(std::time::Instant::now()),
        }
    }

    /// Time elapsed since `self`.
    pub fn elapsed(&self) -> Duration {
        match *self {
            Instant::Real(i) => i.elapsed(),
            Instant::Virtual(v) => {
                let now = rt::virtual_now().unwrap_or(v);
                Duration::from_nanos(now.saturating_sub(v))
            }
        }
    }
}

impl std::ops::Add<Duration> for Instant {
    type Output = Instant;

    fn add(self, d: Duration) -> Instant {
        match self {
            Instant::Real(i) => Instant::Real(i + d),
            Instant::Virtual(v) => Instant::Virtual(v.saturating_add(d.as_nanos() as u64)),
        }
    }
}

impl PartialOrd for Instant {
    /// Ordered within a domain; mixed real/virtual compare as `None`
    /// (a `<` on mixed instants is simply `false`).
    fn partial_cmp(&self, other: &Instant) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Instant::Real(a), Instant::Real(b)) => a.partial_cmp(b),
            (Instant::Virtual(a), Instant::Virtual(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

/// Plain (non-atomic) shared data under race detection: the model's
/// stand-in for "the data the lock protects". Every access is checked
/// against the vector-clock happens-before relation; two unordered
/// accesses (at least one a write) fail the run with a counterexample.
#[derive(Debug)]
pub struct RaceCell<T> {
    v: UnsafeCell<T>,
    id: ObjId,
    name: &'static str,
}

// SAFETY: accesses are serialized by the model scheduler (one thread
// owns the turn at a time) and checked for logical races; outside a
// run RaceCell is only sound single-threaded, which is all the
// pass-through path is used for.
unsafe impl<T: Send> Send for RaceCell<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for RaceCell<T> {}

impl<T: Copy> RaceCell<T> {
    /// New cell named `name` (the name appears in race reports).
    pub const fn new(name: &'static str, v: T) -> RaceCell<T> {
        RaceCell {
            v: UnsafeCell::new(v),
            id: ObjId::new(),
            name,
        }
    }

    /// Read the value (race-checked scheduling point in-run).
    pub fn get(&self) -> T {
        shim_op(
            &self.id,
            self_name(self),
            OpKind::CellRead,
            "RaceCell::get",
            || {
                // SAFETY: the scheduler serializes model threads; the race
                // detector reports (rather than prevents) logical races,
                // and the underlying reads never overlap writes in time.
                (unsafe { *self.v.get() }, Edge::None)
            },
        )
    }

    /// Write the value (race-checked scheduling point in-run).
    pub fn set(&self, val: T) {
        shim_op(
            &self.id,
            self_name(self),
            OpKind::CellWrite,
            "RaceCell::set",
            || {
                // SAFETY: as in `get` — accesses are time-serialized.
                (unsafe { *self.v.get() = val }, Edge::None)
            },
        )
    }
}

fn self_name<T>(c: &RaceCell<T>) -> &'static str {
    c.name
}
