//! The reactive lock on host atomics (§3.3.1 / §3.7.3).
//!
//! The protocol is [`reactive_api::lock`]'s, the same text the
//! simulator runs: TTS ([`crate::TtsLock`]'s flag) when uncontended,
//! the MCS queue ([`crate::McsLock`]'s tail, `fetch&store` only) when
//! contended, the two sub-locks never free at the same time, the mode
//! word only a hint, and every switch made by the holder under the
//! kernel's `Handoff`. This module holds the words, the kernel and the
//! host row of the constant table ([`Tuning::HOST`]).
//!
//! The pluggable [`Policy`] (shared trait from `reactive-api`) decides,
//! and every committed protocol change is reported to the configured
//! [`Instrument`] sink as a [`SwitchEvent`](reactive_api::SwitchEvent)
//! stamped in nanoseconds since lock creation.
//!
//! ```
//! use std::sync::Arc;
//! use reactive_native::api::{Hysteresis, SwitchLog};
//! use reactive_native::ReactiveLock;
//!
//! let log = Arc::new(SwitchLog::new());
//! let lock = ReactiveLock::builder()
//!     .policy(Hysteresis::new(4, 4))
//!     .instrument(log.clone())
//!     .build();
//! let held = lock.acquire();
//! lock.release(held);
//! assert_eq!(log.count(), 0);
//! ```

use std::sync::Arc;

use crate::sync::{AtomicU64, Instant, Ordering};

use reactive_api::lock::{LockRef, ReleaseMode, Tuning};
use reactive_api::spin::{self, BUSY, FREE, INVALID_PTR, NIL};
use reactive_api::{
    drive, Instrument, KernelBuilder, Policy, ProtocolId, SharedWorld, SwitchKernel, SwitchStyle,
};

use crate::host::{Host, NodeRef};

pub use reactive_api::lock::{PROTO_QUEUE, PROTO_TTS};

/// This world's row of the constant table.
const TUNING: Tuning = if cfg!(feature = "model") {
    Tuning::MODEL
} else {
    Tuning::HOST
};

/// What `release` must do (the paper's release-mode token), carrying
/// the queue node of a queue-mode hold.
#[derive(Debug)]
pub struct Held(ReleaseMode<NodeRef>);

/// Builder for [`ReactiveLock`]: policy ([`Always`](reactive_api::Always)
/// by default), sink (none) and initial protocol ([`PROTO_TTS`]) go
/// straight into the kernel's own builder.
#[derive(Default)]
pub struct ReactiveLockBuilder {
    kernel: KernelBuilder<SharedWorld>,
}

impl ReactiveLockBuilder {
    /// Use the given switching policy (default: [`Always`](reactive_api::Always)).
    pub fn policy(mut self, p: impl Policy + Send + 'static) -> Self {
        self.kernel = self.kernel.policy(Box::new(p));
        self
    }

    /// Report every committed protocol change to `sink`.
    pub fn instrument(mut self, sink: Arc<dyn Instrument + Send + Sync>) -> Self {
        self.kernel = self.kernel.sink(sink);
        self
    }

    /// Start in the given protocol ([`PROTO_TTS`] by default). §3.5
    /// shows the initial choice matters for short-running applications:
    /// start scalable when contention is expected from the outset.
    ///
    /// # Panics
    /// If `p` is not one of this lock's two protocol slots.
    pub fn initial_protocol(mut self, p: ProtocolId) -> Self {
        assert!(
            p == PROTO_TTS || p == PROTO_QUEUE,
            "reactive lock has protocols {PROTO_TTS} and {PROTO_QUEUE}, not {p}"
        );
        self.kernel = self.kernel.initial(p);
        self
    }

    /// Build the lock, unlocked, in the configured initial protocol
    /// (the other sub-lock starts pinned busy — never both free).
    pub fn build(self) -> ReactiveLock {
        // Holder-based consensus on both sides, as in the simulator:
        // the switcher holds a sub-lock through the whole transaction.
        let kernel = self
            .kernel
            .register(PROTO_TTS, "tts", SwitchStyle::Handoff)
            .register(PROTO_QUEUE, "mcs-queue", SwitchStyle::Handoff)
            .build();
        let queue = kernel.current() == PROTO_QUEUE;
        ReactiveLock {
            flag: AtomicU64::new(if queue { BUSY } else { FREE }),
            tail: AtomicU64::new(if queue { NIL } else { INVALID_PTR }),
            mode: AtomicU64::new(kernel.current().0 as u64),
            kernel,
            epoch: Instant::now(),
        }
    }
}

/// The reactive lock. Usable directly (acquire/release) or through
/// [`ReactiveMutex`] for RAII data protection.
#[derive(Debug)]
pub struct ReactiveLock {
    /// The TTS flag, the queue tail and the mode hint.
    flag: AtomicU64,
    tail: AtomicU64,
    mode: AtomicU64,
    /// Consulted only by the holder, so its mutex is never contended.
    kernel: SwitchKernel<SharedWorld>,
    epoch: Instant,
}

impl Default for ReactiveLock {
    fn default() -> Self {
        Self::new()
    }
}

impl ReactiveLock {
    /// Start building a reactive lock.
    pub fn builder() -> ReactiveLockBuilder {
        ReactiveLockBuilder::default()
    }

    /// Create in TTS mode (unlocked), with the default
    /// switch-immediately policy and no instrumentation.
    pub fn new() -> ReactiveLock {
        ReactiveLock::builder().build()
    }

    /// Number of protocol changes performed.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// The protocol the dispatch hint currently points at; diagnostics
    /// only (it may be mid-change).
    pub fn current_protocol(&self) -> ProtocolId {
        // order: Relaxed — diagnostic snapshot (it may be mid-change).
        ProtocolId(self.mode.load(Ordering::Relaxed) as u8)
    }

    /// The shared lock text over `host`.
    #[inline(always)]
    fn at<'a>(&'a self, host: &'a Host<'a>) -> LockRef<'a, Host<'a>, SharedWorld> {
        LockRef {
            mem: host,
            flag: &self.flag,
            tail: &self.tail,
            mode: &self.mode,
            kernel: &self.kernel,
            backoff: crate::tts::backoff(),
            tuning: TUNING,
        }
    }

    /// Acquire; keep the returned [`Held`] and pass it to
    /// [`ReactiveLock::release`].
    #[inline(always)] // a few instructions; the hint alone loses to large callers
    pub fn acquire(&self) -> Held {
        // Only the optimistic TTS attempt is inlined into callers.
        let host = Host::timed(&self.epoch);
        match drive(self.at(&host).try_acquire()) {
            Some(rm) => Held(rm),
            None => self.acquire_contended(),
        }
    }

    #[inline(never)]
    fn acquire_contended(&self) -> Held {
        let host = Host::timed(&self.epoch);
        Held(drive(self.at(&host).acquire_contended()))
    }

    /// Release, performing any protocol change the acquisition decided.
    #[inline]
    pub fn release(&self, held: Held) {
        match held.0 {
            // Only the plain TTS arm is inlined (DESIGN.md, "Inlining on the host").
            ReleaseMode::Tts => drive(spin::tts_release(&Host::default(), &self.flag)),
            rm => self.release_slow(rm),
        }
    }

    #[inline(never)]
    fn release_slow(&self, rm: ReleaseMode<NodeRef>) {
        let host = Host::timed(&self.epoch);
        drive(self.at(&host).release(rm))
    }
}

/// RAII mutex over a [`ReactiveLock`].
///
/// ```
/// use reactive_native::ReactiveMutex;
/// let m = ReactiveMutex::new(0u64);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ReactiveMutex<T> {
    lock: ReactiveLock,
    data: std::cell::UnsafeCell<T>,
}

// SAFETY: the lock provides mutual exclusion over `data`.
unsafe impl<T: Send> Send for ReactiveMutex<T> {}
// SAFETY: shared access only hands out `&T`/`&mut T` under the lock.
unsafe impl<T: Send> Sync for ReactiveMutex<T> {}

impl<T> ReactiveMutex<T> {
    /// Wrap `value` (default lock: [`Always`](reactive_api::Always) policy, no sink).
    pub fn new(value: T) -> ReactiveMutex<T> {
        ReactiveMutex::with_lock(ReactiveLock::new(), value)
    }

    /// Wrap `value` behind an explicitly built lock — the hook for
    /// custom policies and instrumentation:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use reactive_native::api::{Competitive3, SwitchLog};
    /// use reactive_native::{ReactiveLock, ReactiveMutex};
    ///
    /// let log = Arc::new(SwitchLog::new());
    /// let m = ReactiveMutex::with_lock(
    ///     ReactiveLock::builder()
    ///         .policy(Competitive3::new(8_800.0))
    ///         .instrument(log.clone())
    ///         .build(),
    ///     0u64,
    /// );
    /// *m.lock() += 1;
    /// ```
    pub fn with_lock(lock: ReactiveLock, value: T) -> ReactiveMutex<T> {
        ReactiveMutex {
            lock,
            data: std::cell::UnsafeCell::new(value),
        }
    }

    /// Acquire; the guard releases on drop.
    pub fn lock(&self) -> ReactiveGuard<'_, T> {
        let held = self.lock.acquire();
        ReactiveGuard {
            mutex: self,
            held: Some(held),
        }
    }

    /// Number of protocol switches the underlying lock performed.
    pub fn switches(&self) -> u64 {
        self.lock.switches()
    }

    /// Consume and return the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

/// Guard for [`ReactiveMutex`]; derefs to the protected data.
#[derive(Debug)]
pub struct ReactiveGuard<'a, T> {
    mutex: &'a ReactiveMutex<T>,
    held: Option<Held>,
}

impl<T> std::ops::Deref for ReactiveGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for ReactiveGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: we hold the lock exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for ReactiveGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(held) = self.held.take() {
            self.mutex.lock.release(held);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::McsNode;
    use reactive_api::spin::Memory;
    use reactive_api::{Observation, SwitchLog};
    use std::cell::Cell;
    use std::future::{ready, Future};
    use std::sync::Arc;

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReactiveMutex<u64>>();
        assert_send_sync::<ReactiveLock>();
    }

    /// The address of the queue node a `Held` carries.
    fn node_of(h: &Held) -> u64 {
        match h.0 {
            ReleaseMode::Queue(q) | ReleaseMode::QueueToTts(q) => Host::enc(q),
            _ => panic!("expected a queue-mode hold"),
        }
    }

    #[test]
    fn queue_node_is_reused_through_the_thread_cache() {
        struct Never;
        impl Policy for Never {
            fn decide(&mut self, _obs: &Observation) -> reactive_api::Decision {
                reactive_api::Decision::Stay
            }
        }
        let queue_lock = || {
            ReactiveLock::builder()
                .initial_protocol(PROTO_QUEUE)
                .policy(Never)
                .build()
        };
        // Own thread: the test harness may reuse this one's cache.
        std::thread::spawn(move || {
            let (a, b) = (Arc::new(queue_lock()), queue_lock());
            let h = a.acquire();
            let first = node_of(&h);
            a.release(h);
            // A release refills the cache; the next acquire drains it.
            let outer = a.acquire();
            assert_eq!(node_of(&outer), first, "cached node must be reused");
            // Nested: the cache is empty, so the inner hold allocates.
            let inner = b.acquire();
            assert_ne!(node_of(&inner), first);
            b.release(inner);
            // A `Held` released elsewhere lands in *that* thread's
            // cache and leaves this one's as it was.
            let a2 = a.clone();
            std::thread::spawn(move || {
                a2.release(outer);
                assert_eq!(Host::enc(Host::default().take_node()), first);
            })
            .join()
            .unwrap();
            let h = a.acquire();
            assert_ne!(node_of(&h), first, "the travelled node is gone");
            a.release(h);
        })
        .join()
        .unwrap();
    }

    /// Host memory that runs `hook` once, right after the first swap
    /// that empties a word: inside `mcs_release`'s usurper window.
    struct Window<'a> {
        host: Host<'a>,
        hook: Cell<Option<Box<dyn FnOnce() + 'a>>>,
    }

    impl<'a> Memory for Window<'a> {
        type Word = &'a AtomicU64;
        type Node = NodeRef;

        fn load(&self, w: Self::Word, o: Ordering) -> impl Future<Output = u64> {
            self.host.load(w, o)
        }
        fn store(&self, w: Self::Word, v: u64, o: Ordering) -> impl Future<Output = ()> {
            self.host.store(w, v, o)
        }
        fn swap(&self, w: Self::Word, v: u64, o: Ordering) -> impl Future<Output = u64> {
            let old = drive(self.host.swap(w, v, o));
            if v == NIL {
                if let Some(hook) = self.hook.take() {
                    hook();
                }
            }
            ready(old)
        }
        fn test_and_set(&self, w: Self::Word, o: Ordering) -> impl Future<Output = u64> {
            self.host.test_and_set(w, o)
        }
        fn poll_until(
            &self,
            w: Self::Word,
            pred: impl Fn(u64) -> bool + Unpin + 'static,
            deadline: u64,
            o: Ordering,
        ) -> impl Future<Output = Option<u64>> {
            self.host.poll_until(w, pred, deadline, o)
        }
        fn pause(&self, delay: u64) -> impl Future<Output = ()> {
            self.host.pause(delay)
        }
        fn take_node(&self) -> NodeRef {
            self.host.take_node()
        }
        fn put_node(&self, q: NodeRef) {
            self.host.put_node(q)
        }
        fn next(q: NodeRef) -> Self::Word {
            Host::next(q)
        }
        fn status(q: NodeRef) -> Self::Word {
            Host::status(q)
        }
        fn enc(q: NodeRef) -> u64 {
            Host::enc(q)
        }
        fn dec(v: u64) -> NodeRef {
            Host::dec(v)
        }
        fn now(&self) -> u64 {
            self.host.now()
        }
    }

    /// The lock's text over `mem`, proposing TTS at the second
    /// consecutive empty-queue grant.
    fn hair_trigger<'m, 'a: 'm, M: Memory<Word = &'a AtomicU64>>(
        lock: &'a ReactiveLock,
        mem: &'m M,
    ) -> LockRef<'m, M, SharedWorld> {
        LockRef {
            mem,
            flag: &lock.flag,
            tail: &lock.tail,
            mode: &lock.mode,
            kernel: &lock.kernel,
            backoff: crate::tts::backoff(),
            tuning: Tuning {
                empty_queue_limit: 1,
                ..TUNING
            },
        }
    }

    /// The usurper window of the `fetch&store`-only release, forced on
    /// one thread: the releaser R has emptied the tail to find its
    /// successor E, which has swapped in but not linked; a usurper U
    /// takes the empty queue, and its calm grant switches the lock to
    /// TTS (sentinel in the tail, flag free). R's restoring swap then
    /// takes the sentinel out, so R must put it back and bounce E.
    #[test]
    fn release_bounces_its_successor_after_a_usurper_switch() {
        let lock = ReactiveLock::builder()
            .initial_protocol(PROTO_QUEUE)
            .build();
        let host = Host::timed(&lock.epoch);
        let Held(ReleaseMode::Queue(r)) =
            Held(drive(hair_trigger(&lock, &host).acquire_contended()))
        else {
            panic!("the first empty-queue grant stays in the queue");
        };
        let node = McsNode::new();
        let e = NodeRef::of(&node);
        drive(spin::mcs_prepare(&host, e));
        let pred = drive(spin::mcs_swap(&host, &lock.tail, e));
        assert_eq!(pred, Host::enc(r));
        let window = Window {
            host,
            hook: Cell::new(Some(Box::new(|| {
                let u = drive(hair_trigger(&lock, &host).acquire_contended());
                assert!(matches!(u, ReleaseMode::QueueToTts(_)), "{u:?}");
                drive(hair_trigger(&lock, &host).release(u));
                // order: Relaxed — one thread.
                assert_eq!(lock.tail.load(Ordering::Relaxed), INVALID_PTR);
                assert_eq!(lock.current_protocol(), PROTO_TTS);
                drive(spin::mcs_chain(&host, e, pred));
            }))),
        };
        drive(hair_trigger(&lock, &window).release(ReleaseMode::Queue(r)));
        // order: Relaxed — one thread.
        assert_eq!(lock.tail.load(Ordering::Relaxed), INVALID_PTR);
        // order: Relaxed — one thread.
        assert_eq!(lock.flag.load(Ordering::Relaxed), FREE);
        // order: Relaxed — one thread.
        let status = Host::status(e).load(Ordering::Relaxed);
        assert_eq!(status, spin::INVALID_STATUS, "E must re-dispatch");
        assert_eq!(lock.switches(), 1);
        // E re-dispatches on the TTS hint and wins the flag.
        let held = lock.acquire();
        assert!(matches!(held.0, ReleaseMode::Tts));
        lock.release(held);
    }

    #[test]
    fn uncontended_stays_tts() {
        let l = ReactiveLock::new();
        for _ in 0..100 {
            let h = l.acquire();
            l.release(h);
        }
        assert_eq!(l.switches(), 0);
        assert_eq!(l.current_protocol(), PROTO_TTS);
    }

    #[test]
    fn starts_in_queue_mode_when_asked() {
        let l = ReactiveLock::builder()
            .initial_protocol(PROTO_QUEUE)
            .build();
        assert_eq!(l.current_protocol(), PROTO_QUEUE);
        // Usable from birth, and the default Always policy pulls it
        // down to TTS once the empty-queue streak registers.
        for _ in 0..100 {
            let h = l.acquire();
            l.release(h);
        }
        assert_eq!(l.current_protocol(), PROTO_TTS);
        assert_eq!(l.switches(), 1);
    }

    #[test]
    fn mutex_guard_protects_data() {
        let m = Arc::new(ReactiveMutex::new(0u64));
        let threads = 8;
        let iters = 6_000;
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), threads * iters);
    }

    #[test]
    fn contention_can_switch_and_stays_correct() {
        let m = Arc::new(ReactiveMutex::new(0u64));
        let threads = 16;
        let iters = 8_000;
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), threads * iters);
        // Under this much contention the lock normally switches at least
        // once; we assert only correctness plus the counter being sane.
        assert!(m.switches() < 1_000_000);
    }

    #[test]
    fn phase_change_round_trip() {
        // Drive contention, then single-threaded use, and verify the
        // counter keeps counting across any switches.
        let m = Arc::new(ReactiveMutex::new(0u64));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..4_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        for _ in 0..15_000 {
            *m.lock() += 1;
        }
        assert_eq!(*m.lock(), 8 * 4_000 + 15_000);
    }

    #[test]
    fn sink_sees_every_switch() {
        let log = Arc::new(SwitchLog::new());
        let m = Arc::new(ReactiveMutex::with_lock(
            ReactiveLock::builder().instrument(log.clone()).build(),
            0u64,
        ));
        let hs: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..4_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(log.count() as u64, m.switches());
        for ev in log.events() {
            assert_ne!(ev.from, ev.to);
        }
    }

    #[test]
    fn into_inner() {
        let m = ReactiveMutex::new(7);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 8);
    }
}
