//! The MCS queue lock (Figure 3.1) on host atomics: the shared
//! [`reactive_api::spin`] text over host atomics.
//!
//! Each waiter spins on the status word of its own queue node (own
//! cache line), so a release invalidates exactly one remote cache and
//! grants are FIFO. Queue nodes are caller-provided ([`McsNode`]),
//! keeping the lock allocation-free on the hot path.

use reactive_api::drive;
use reactive_api::spin::{self, Ordering, NIL};

use crate::host::{Host, NodeRef};
use crate::sync::AtomicU64;

pub use crate::host::McsNode;

/// The MCS list-based queue lock, `fetch&store`-only variant.
#[derive(Debug, Default)]
pub struct McsLock {
    tail: AtomicU64,
}

impl McsLock {
    /// Create an unlocked lock.
    pub const fn new() -> McsLock {
        McsLock {
            tail: AtomicU64::new(NIL),
        }
    }

    /// Acquire using `node` (must outlive the matching [`McsLock::unlock`]).
    ///
    /// Returns `true` if the queue was empty at enqueue time (the
    /// reactive lock's low-contention monitor).
    #[inline]
    pub fn lock(&self, node: &McsNode) -> bool {
        let q = NodeRef::of(node);
        drive(spin::mcs_acquire(&Host::default(), &self.tail, q))
    }

    /// Release using the node passed to [`McsLock::lock`].
    #[inline]
    pub fn unlock(&self, node: &McsNode) {
        let q = NodeRef::of(node);
        drive(spin::mcs_release(&Host::default(), &self.tail, q))
    }

    /// Whether the queue is (instantaneously) empty.
    pub fn is_unlocked(&self) -> bool {
        // order: Relaxed — momentary snapshot, explicitly racy.
        self.tail.load(Ordering::Relaxed) == NIL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended() {
        let l = McsLock::new();
        let n = McsNode::new();
        assert!(l.lock(&n));
        assert!(!l.is_unlocked());
        l.unlock(&n);
        assert!(l.is_unlocked());
    }

    #[test]
    fn mutual_exclusion_stress() {
        use std::sync::atomic::AtomicU64;
        let l = Arc::new(McsLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let threads = 8;
        let iters = 3_000;
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let l = l.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let node = McsNode::new();
                        l.lock(&node);
                        // order: Relaxed — the lock orders these.
                        let v = c.load(Ordering::Relaxed);
                        // order: Relaxed — the lock orders these.
                        c.store(v + 1, Ordering::Relaxed);
                        l.unlock(&node);
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        // order: Relaxed — all threads joined; no concurrency left.
        assert_eq!(counter.load(Ordering::Relaxed), threads * iters);
    }

    /// `invalidate_from` walking a chain of three threads queued behind
    /// the holder signals each of them `INVALID_STATUS` and leaves the
    /// sentinel in the tail (the simulator runs the same text in
    /// `reactive_core::spin`'s test of this name).
    #[test]
    fn invalidate_from_bounces_a_three_deep_chain() {
        use reactive_api::spin::{Memory, INVALID_PTR, INVALID_STATUS};
        use std::sync::atomic::AtomicUsize;
        let lock = Arc::new(McsLock::new());
        let holder = McsNode::new();
        let host = Host::default();
        let head = NodeRef::of(&holder);
        drive(spin::mcs_prepare(&host, head));
        assert_eq!(drive(spin::mcs_swap(&host, &lock.tail, head)), NIL);
        let (enqueued, bounced) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (lock, enqueued, bounced) = (lock.clone(), enqueued.clone(), bounced.clone());
                std::thread::spawn(move || {
                    let (host, node) = (Host::default(), McsNode::new());
                    let q = NodeRef::of(&node);
                    drive(spin::mcs_prepare(&host, q));
                    let pred = drive(spin::mcs_swap(&host, &lock.tail, q));
                    // order: Relaxed — a test counter.
                    enqueued.fetch_add(1, Ordering::Relaxed);
                    drive(spin::mcs_chain(&host, q, pred));
                    assert!(!drive(spin::mcs_wait(&host, q)), "a waiter got GO");
                    // order: Relaxed — our own node, already signalled.
                    assert_eq!(Host::status(q).load(Ordering::Relaxed), INVALID_STATUS);
                    // order: Relaxed — a test counter.
                    bounced.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        // order: Relaxed — a test counter; the walk waits for the links.
        while enqueued.load(Ordering::Relaxed) < 3 {
            std::thread::yield_now();
        }
        drive(spin::invalidate_from(&host, &lock.tail, head));
        for w in waiters {
            w.join().unwrap();
        }
        // order: Relaxed — every thread joined.
        assert_eq!(
            bounced.load(Ordering::Relaxed),
            3,
            "a waiter was never signalled"
        );
        // order: Relaxed — every thread joined.
        assert_eq!(lock.tail.load(Ordering::Relaxed), INVALID_PTR);
    }

    /// A racer that dispatched on a stale hint swaps onto the invalid
    /// queue; the switcher lands behind it, is bounced by its
    /// invalidation walk, and retries until it is the head.
    #[test]
    fn acquire_invalid_racers_leave_one_head() {
        use reactive_api::spin::{Memory, INVALID_PTR, INVALID_STATUS};
        let lock = Arc::new(McsLock::new());
        // order: Relaxed — no other thread yet.
        lock.tail.store(INVALID_PTR, Ordering::Relaxed);
        let stale_node = McsNode::new();
        let host = Host::default();
        let stale = NodeRef::of(&stale_node);
        drive(spin::mcs_prepare(&host, stale));
        assert_eq!(drive(spin::mcs_swap(&host, &lock.tail, stale)), INVALID_PTR);
        let l2 = lock.clone();
        let switcher = std::thread::spawn(move || {
            let node = Box::new(McsNode::new());
            let q = NodeRef::of(&node);
            drive(spin::acquire_invalid(&Host::default(), &l2.tail, q));
            // order: Relaxed — the switcher's own node.
            let bounced = Host::status(q).load(Ordering::Relaxed) == INVALID_STATUS;
            (node, Host::enc(q), bounced)
        });
        // Invalidate only once the switcher has swapped in behind us.
        // order: Relaxed — the walk itself waits for the link.
        while lock.tail.load(Ordering::Relaxed) == Host::enc(stale) {
            std::thread::yield_now();
        }
        drive(spin::invalidate_from(&host, &lock.tail, stale));
        let (_node, head, bounced_once) = switcher.join().unwrap();
        // order: Relaxed — every thread joined.
        assert_eq!(lock.tail.load(Ordering::Relaxed), head);
        assert!(bounced_once, "the switcher never raced the stale acquirer");
    }

    #[test]
    fn empty_queue_signal() {
        let l = McsLock::new();
        let a = McsNode::new();
        assert!(l.lock(&a), "first acquisition sees an empty queue");
        l.unlock(&a);
        let b = McsNode::new();
        assert!(l.lock(&b));
        l.unlock(&b);
    }
}
