//! An abortable queue lock with constant amortized RMR cost
//! (Jayanti–Jayanti style: MCS with abandonment, cost of each
//! abandonment charged to the abort that caused it).
//!
//! Waiters enqueue behind a fetch&store'd tail and spin on a status
//! word in their *own* queue node (homed on their node, so waiting is
//! local under both the CC and DSM cost models). An abort is one CAS —
//! `WAITING → ABORTED` — after which the aborter leaves immediately;
//! it never unlinks itself. The releaser walks the queue, granting the
//! first still-waiting successor and *skipping* aborted nodes; each
//! skip costs O(1) remote references and is charged to the abort that
//! created it, giving total RMRs ≤ c·(passages + aborts) — the bound
//! the `rmr_abortable` scenario and the property tests gate.
//!
//! Queue nodes come from a small per-process ring. A node becomes
//! reusable only after a release walk has passed it (status
//! `REUSABLE`), so a pointer held by an in-flight releaser can never
//! alias a recycled node. Waiting for one's own ring slot is a local
//! spin and therefore RMR-free.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};

use crate::spin::{dec, enc, NIL};

/// Queue-node status: recycled, free for its owner to reuse.
pub const REUSABLE: u64 = 0;
/// Queue-node status: enqueued, waiting for a grant.
pub const WAITING: u64 = 1;
/// Queue-node status: lock granted by the releaser.
pub const GRANTED: u64 = 2;
/// Queue-node status: the waiter gave up (timeout or abort signal).
pub const ABORTED: u64 = 3;

/// Queue-node field offsets: `next` pointer then `status`.
const QN_NEXT: u64 = 0;
const QN_STATUS: u64 = 1;

/// Queue nodes per process: bounds how many abandoned attempts can be
/// outstanding before an acquire must wait (locally) for a recycle.
const RING: usize = 8;

/// Outcome of [`AbortableMcsLock::acquire`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquired {
    /// The lock is held; pass the token to `release`.
    Granted(Addr),
    /// The wait was abandoned (deadline passed or abort delivered).
    Aborted,
}

/// The abortable MCS-style queue lock. Cheaply cloneable.
#[derive(Clone)]
pub struct AbortableMcsLock {
    tail: Addr,
    /// Per-process qnode rings and cursor.
    rings: Rc<RefCell<Vec<Ring>>>,
}

struct Ring {
    nodes: Vec<Addr>,
    next: usize,
}

impl std::fmt::Debug for AbortableMcsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbortableMcsLock")
            .field("tail", &self.tail)
            .finish()
    }
}

impl AbortableMcsLock {
    /// Create a lock whose tail is homed on `home`, with per-process
    /// queue-node rings for `procs` processes (process `p` on node
    /// `p % nodes`).
    pub fn new(m: &Machine, home: usize, procs: usize) -> AbortableMcsLock {
        let rings = (0..procs)
            .map(|p| Ring {
                nodes: (0..RING).map(|_| m.alloc_on(p % m.nodes(), 2)).collect(),
                next: 0,
            })
            .collect();
        AbortableMcsLock {
            tail: m.alloc_on(home, 1),
            rings: Rc::new(RefCell::new(rings)),
        }
    }

    /// The tail pointer word (the protocol's consensus object).
    pub fn tail(&self) -> Addr {
        self.tail
    }

    /// Acquire as process `p`, abandoning at `deadline` (absolute
    /// cycles; `u64::MAX` = wait forever) or when an abort signal is
    /// delivered to this node. On [`Acquired::Aborted`] the caller owns
    /// nothing and may retry later.
    pub async fn acquire(&self, cpu: &Cpu, p: usize, deadline: u64) -> Acquired {
        let q = {
            let mut rings = self.rings.borrow_mut();
            let ring = &mut rings[p];
            let q = ring.nodes[ring.next];
            ring.next = (ring.next + 1) % RING;
            q
        };
        // The slot may still be queued from an earlier abandoned
        // attempt; wait (locally — the node is homed here) until a
        // release walk has recycled it.
        cpu.poll_until(q.plus(QN_STATUS), |s| s == REUSABLE).await;
        cpu.write(q.plus(QN_NEXT), NIL).await;
        cpu.write(q.plus(QN_STATUS), WAITING).await;
        let pred = cpu.fetch_and_store(self.tail, enc(q)).await;
        if pred == NIL {
            return Acquired::Granted(q);
        }
        cpu.write(dec(pred).plus(QN_NEXT), enc(q)).await;
        match cpu
            .poll_until_abortable(q.plus(QN_STATUS), |s| s != WAITING, deadline)
            .await
        {
            Some(_) => Acquired::Granted(q),
            None => {
                // Timeout or abort signal: one CAS decides against a
                // racing grant.
                if cpu
                    .compare_and_swap(q.plus(QN_STATUS), WAITING, ABORTED)
                    .await
                {
                    Acquired::Aborted
                } else {
                    // The releaser granted us first; take the lock.
                    Acquired::Granted(q)
                }
            }
        }
    }

    /// Release the lock held via `q`: grant the first still-waiting
    /// successor, skipping (and recycling) aborted nodes along the way.
    pub async fn release(&self, cpu: &Cpu, q: Addr) {
        let mut passed: Vec<Addr> = Vec::new();
        let mut cur = q;
        loop {
            let mut next = cpu.read(cur.plus(QN_NEXT)).await;
            if next == NIL {
                if cpu.compare_and_swap(self.tail, enc(cur), NIL).await {
                    // Queue drained; recycle everything we walked.
                    passed.push(cur);
                    break;
                }
                // An enqueuer has swapped the tail but not yet linked;
                // its link write is imminent.
                next = cpu.poll_until(cur.plus(QN_NEXT), |v| v != NIL).await;
            }
            let succ = dec(next);
            passed.push(cur);
            if cpu
                .compare_and_swap(succ.plus(QN_STATUS), WAITING, GRANTED)
                .await
            {
                break;
            }
            // Successor aborted: skip it. The O(1) work here is charged
            // to that abort.
            cur = succ;
        }
        // Recycle walked nodes (ours + skipped aborted ones) only now,
        // when no pointer into them remains.
        for node in passed {
            cpu.write(node.plus(QN_STATUS), REUSABLE).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::{Config, FaultPlan, Machine};

    fn hammer(procs: usize, iters: u64, deadline_gap: Option<u64>) -> (u64, u64, u64) {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let lock = AbortableMcsLock::new(&m, 0, procs);
        let shared = m.alloc_on(0, 1);
        let aborts = m.alloc_on(1, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let deadline = match deadline_gap {
                        Some(gap) => cpu.now() + gap,
                        None => u64::MAX,
                    };
                    match lock.acquire(&cpu, p, deadline).await {
                        Acquired::Granted(q) => {
                            let v = cpu.read(shared).await;
                            cpu.work(10).await;
                            cpu.write(shared, v + 1).await;
                            lock.release(&cpu, q).await;
                        }
                        Acquired::Aborted => {
                            cpu.fetch_and_add(aborts, 1).await;
                            cpu.work(50).await;
                        }
                    }
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "deadlock");
        (
            m.read_word(shared),
            m.read_word(aborts),
            m.stats().rmr_cc_total(),
        )
    }

    #[test]
    fn mutual_exclusion_no_aborts() {
        let (v, a, _) = hammer(8, 25, None);
        assert_eq!(v, 200);
        assert_eq!(a, 0);
    }

    #[test]
    fn single_proc_repeated() {
        let (v, a, _) = hammer(1, 100, None);
        assert_eq!(v, 100);
        assert_eq!(a, 0);
    }

    #[test]
    fn tight_deadlines_abort_but_never_corrupt() {
        // Deadlines shorter than the critical section force aborts.
        let (v, a, _) = hammer(8, 25, Some(400));
        assert_eq!(v + a, 200, "every attempt must end in grant or abort");
        assert!(a > 0, "tight deadlines should cause at least one abort");
    }

    #[test]
    fn abort_signals_from_fault_plan_are_delivered() {
        let procs = 4;
        let m = Machine::new(
            Config::default()
                .nodes(procs)
                .faults(FaultPlan::abort_storm(9, procs, 12, 60_000)),
        );
        let lock = AbortableMcsLock::new(&m, 0, procs);
        let shared = m.alloc_on(0, 1);
        let aborts = m.alloc_on(1, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..30 {
                    match lock.acquire(&cpu, p, u64::MAX).await {
                        Acquired::Granted(q) => {
                            let v = cpu.read(shared).await;
                            cpu.work(200).await;
                            cpu.write(shared, v + 1).await;
                            lock.release(&cpu, q).await;
                        }
                        Acquired::Aborted => {
                            cpu.fetch_and_add(aborts, 1).await;
                        }
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let v = m.read_word(shared);
        let a = m.read_word(aborts);
        assert_eq!(v + a, 30 * procs as u64);
    }

    /// Total lock-protocol RMRs stay linear in (passages + aborts):
    /// the amortized-O(1) property at test scale.
    #[test]
    fn rmr_linear_in_passages_plus_aborts() {
        let (v, a, rmr) = hammer(8, 30, Some(600));
        let budget = 14 * (v + a) + 200;
        assert!(
            rmr <= budget,
            "RMR {rmr} exceeds c·(passages {v} + aborts {a}) = {budget}"
        );
    }
}
