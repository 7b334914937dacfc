//! The shared spin locks' [`Memory`] on host atomics: every word is a
//! [`crate::sync`] `AtomicU64` (the model checker's shims under
//! `--features model`), and every future is ready when made, so
//! [`reactive_api::drive`] runs the shared text in one poll.

use std::cell::Cell;
use std::future::{ready, Future};
use std::ptr::NonNull;

use crossbeam_utils::CachePadded;
use reactive_api::spin::{Memory, Ordering, BUSY, INVALID_PTR};

use crate::sync::{spin_loop, thread, AtomicU64, Instant, YIELD_MASK};

/// An MCS queue node: a `next` pointer, and a status word on its own
/// cache line that only its owner spins on. One per acquisition (the
/// stack is fine: it must outlive the release).
#[derive(Debug, Default)]
pub struct McsNode {
    next: AtomicU64,
    status: CachePadded<AtomicU64>,
}

impl McsNode {
    /// Fresh node.
    pub fn new() -> McsNode {
        McsNode::default()
    }
}

/// A handle naming a live [`McsNode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeRef(NonNull<McsNode>);

// SAFETY: a `NodeRef` is an address. The MCS protocol hands a node
// between threads only through atomic words, and its owner keeps it
// alive until no other thread can reach it.
unsafe impl Send for NodeRef {}

impl NodeRef {
    /// The handle of a caller-owned node.
    pub(crate) fn of(node: &McsNode) -> NodeRef {
        NodeRef(NonNull::from(node))
    }

    fn get<'a>(self) -> &'a McsNode {
        // SAFETY: the MCS ownership contract — a node's owner keeps it
        // alive while it is enqueued and until its release (or the
        // invalidation walk) has signalled it, which covers every
        // access another thread makes through its pointer word.
        unsafe { self.0.as_ref() }
    }
}

thread_local! {
    /// One-slot cache of this thread's last released queue node, so a
    /// queue-mode acquisition normally allocates nothing. A node lives
    /// in the reactive lock's `Held` from acquire to release and comes
    /// back here afterwards — to whichever thread ran the release.
    static SPARE_NODE: Cell<Option<Box<McsNode>>> = const { Cell::new(None) };
}

/// Host memory, as the calling thread sees it. `epoch` starts the clock
/// that poll deadlines and switch events read; the default has none,
/// for sub-locks that poll without a deadline.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Host<'a> {
    epoch: Option<&'a Instant>,
}

impl<'a> Host<'a> {
    /// Memory whose clock counts nanoseconds since `epoch`.
    pub(crate) fn timed(epoch: &'a Instant) -> Host<'a> {
        Host { epoch: Some(epoch) }
    }

    #[inline(never)]
    fn spin(&self, w: &AtomicU64, pred: impl Fn(u64) -> bool, t: u64, o: Ordering) -> Option<u64> {
        let mut polls = 0u32;
        loop {
            let v = w.load(o);
            if pred(v) {
                return Some(v);
            }
            spin_loop();
            polls += 1;
            if polls.is_multiple_of(YIELD_MASK) {
                // Keep progress on oversubscribed hosts.
                thread::yield_now();
                if t != u64::MAX && self.now() >= t {
                    return None;
                }
            }
        }
    }
}

impl<'a> Memory for Host<'a> {
    type Word = &'a AtomicU64;
    type Node = NodeRef;

    fn load(&self, w: &'a AtomicU64, order: Ordering) -> impl Future<Output = u64> {
        ready(w.load(order))
    }

    fn store(&self, w: &'a AtomicU64, v: u64, order: Ordering) -> impl Future<Output = ()> {
        w.store(v, order);
        ready(())
    }

    fn swap(&self, w: &'a AtomicU64, v: u64, order: Ordering) -> impl Future<Output = u64> {
        ready(w.swap(v, order))
    }

    fn test_and_set(&self, w: &'a AtomicU64, order: Ordering) -> impl Future<Output = u64> {
        ready(w.swap(BUSY, order))
    }

    fn poll_until(
        &self,
        w: &'a AtomicU64,
        pred: impl Fn(u64) -> bool + Unpin + 'static,
        deadline: u64,
        order: Ordering,
    ) -> impl Future<Output = Option<u64>> {
        ready(self.spin(w, pred, deadline, order))
    }

    fn pause(&self, delay: u64) -> impl Future<Output = ()> {
        pause(delay);
        ready(())
    }

    fn take_node(&self) -> NodeRef {
        let node = SPARE_NODE
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        NodeRef(NonNull::from(Box::leak(node)))
    }

    fn put_node(&self, q: NodeRef) {
        // SAFETY: the reactive lock puts back exactly the nodes it took
        // (each leaked from a `Box` by `take_node`), once each, after
        // the last access any thread makes to them.
        let node = unsafe { Box::from_raw(q.0.as_ptr()) };
        // Dropped if the slot is taken or the thread is tearing down.
        let _ = SPARE_NODE.try_with(|slot| slot.set(Some(node)));
    }

    fn next(q: NodeRef) -> &'a AtomicU64 {
        &q.get().next
    }

    fn status(q: NodeRef) -> &'a AtomicU64 {
        &q.get().status
    }

    fn enc(q: NodeRef) -> u64 {
        // A node is at least word-aligned, so never NIL (0) or the
        // INVALID sentinel (1).
        q.0.as_ptr() as u64
    }

    fn dec(v: u64) -> NodeRef {
        // NIL and the INVALID sentinel name no node (as in the simulator).
        assert!(v > INVALID_PTR, "dec: not a queue-node pointer: {v}");
        NodeRef(NonNull::new(v as *mut McsNode).expect("nonzero"))
    }

    fn now(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }
}

/// Spin for a jittered `delay`, out of line: only waiters run it.
#[inline(never)]
fn pause(delay: u64) {
    for _ in 0..jitter(delay) {
        spin_loop();
    }
}

/// Per-thread xorshift for backoff jitter. Returns 0 under the model
/// checker: jittered spinning adds no interleavings (every shim access
/// is already a scheduling point) and would break deterministic replay.
fn jitter(bound: u64) -> u64 {
    if cfg!(feature = "model") {
        return 0;
    }
    thread_local! {
        // Zero until a thread's first backoff step seeds it.
        static S: Cell<u64> = const { Cell::new(0) };
    }
    S.with(|s| {
        // The slot's own address: distinct among live threads.
        let mut x = s.get().max(s as *const Cell<u64> as u64 | 1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        s.set(x);
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % bound.max(1)
    })
}
