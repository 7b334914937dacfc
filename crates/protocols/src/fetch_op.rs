//! Passive fetch-and-op protocols (§3.1.2).
//!
//! * [`LockFetchOp`] — a centralized variable protected by any
//!   [`crate::spin::Lock`]; minimal latency, fully serialized.
//! * [`CombiningTree`] — a software combining tree after Goodman, Vernon
//!   & Woest (Appendix C): processes climb a binary tree from their leaf;
//!   the first arriver at a node *marks* it and continues, a second
//!   arriver deposits its (already combined) contribution at the marked
//!   node and waits there; the winner collects deposits on a second
//!   upward pass, applies the combined operation at the root, and
//!   distributes results downward. Low throughput per op when idle
//!   (three tree traversals), but combining parallelizes the operation
//!   under contention — overhead *drops* as contention rises (Fig 3.2).
//!
//! Both implement [`FetchOp`]; the reactive fetch-and-op in
//! `reactive-core` selects among them at run time.

use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};

use crate::spin::{Backoff, Lock};

/// A fetch-and-add protocol on the simulated machine. (Fetch-and-add is
/// the paper's representative combinable fetch-and-op.)
pub trait FetchOp: Clone + 'static {
    /// Atomically add `delta` and return the previous value.
    fn fetch_add(&self, cpu: &Cpu, delta: u64) -> impl std::future::Future<Output = u64>;
}

// ---------------------------------------------------------------------
// Lock-based fetch-and-op
// ---------------------------------------------------------------------

/// A fetch-and-op variable protected by a mutual-exclusion lock.
#[derive(Clone, Debug)]
pub struct LockFetchOp<L> {
    lock: L,
    var: Addr,
}

impl<L: Lock> LockFetchOp<L> {
    /// Protect a fresh variable (homed on `home`) with `lock`.
    pub fn new(m: &Machine, home: usize, lock: L) -> Self {
        LockFetchOp {
            lock,
            var: m.alloc_on(home, 1),
        }
    }

    /// The protected variable.
    pub fn var(&self) -> Addr {
        self.var
    }
}

impl<L: Lock> FetchOp for LockFetchOp<L> {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        let t = self.lock.acquire(cpu).await;
        let old = cpu.read(self.var).await;
        cpu.write(self.var, old.wrapping_add(delta)).await;
        self.lock.release(cpu, t).await;
        old
    }
}

// ---------------------------------------------------------------------
// Software combining tree
// ---------------------------------------------------------------------

/// Tree-node status: open for marking.
const FREE: u64 = 0;
/// Tree-node status: marked by a climber; a second may deposit here.
const COMBINE: u64 = 1;
/// Tree-node status: a second's contribution is deposited.
const LOADED: u64 = 2;

/// Node field offsets within one allocation.
const F_LOCK: u64 = 0;
const F_STATUS: u64 = 1;
const F_SECOND: u64 = 2;
const F_RESULT: u64 = 3;

/// Instruction overhead charged per tree-node visit (the protocol runs a
/// few dozen instructions per node; the simulator only charges memory
/// operations, so this models the difference).
const NODE_VISIT_WORK: u64 = 24;

/// Result value reserved to tell combined waiters to retry (used by the
/// reactive fetch-and-op when the tree protocol is invalidated). Counter
/// values must stay below this sentinel.
pub const RETRY_SENTINEL: u64 = u64::MAX;

/// The Goodman/Vernon/Woest software combining tree for fetch-and-add.
///
/// The tree is a complete binary heap over `leaves` leaves (one per
/// processor, radix 2 as in the paper's experiments); node lines are
/// distributed across the machine. The counter itself lives at
/// [`CombiningTree::var`]; the *root node* of the tree is the protocol's
/// consensus object (every operation passes through it exactly once,
/// either directly or via a combined representative).
#[derive(Clone)]
pub struct CombiningTree {
    /// Heap-indexed node base addresses; index 0 unused.
    nodes: Rc<Vec<Addr>>,
    var: Addr,
    leaves: usize,
}

impl std::fmt::Debug for CombiningTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombiningTree")
            .field("leaves", &self.leaves)
            .field("var", &self.var)
            .finish()
    }
}

impl CombiningTree {
    /// Build a tree with one leaf per participating processor (`procs`,
    /// rounded up to a power of two, minimum 2). The counter is homed on
    /// `home`.
    pub fn new(m: &Machine, home: usize, procs: usize) -> CombiningTree {
        let leaves = procs.next_power_of_two().max(2);
        let mut nodes = vec![Addr(0); 2 * leaves];
        for (idx, slot) in nodes.iter_mut().enumerate().skip(1) {
            // Spread node lines across the machine for parallelism.
            *slot = m.alloc_on(idx % m.nodes(), 4);
        }
        CombiningTree {
            nodes: Rc::new(nodes),
            var: m.alloc_on(home, 1),
            leaves,
        }
    }

    /// The fetch-and-op variable at the root.
    pub fn var(&self) -> Addr {
        self.var
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    fn node(&self, idx: usize) -> Addr {
        self.nodes[idx]
    }

    fn leaf_of(&self, proc_id: usize) -> usize {
        self.leaves + (proc_id % self.leaves)
    }

    async fn lock_node(&self, cpu: &Cpu, idx: usize) {
        let a = self.node(idx).plus(F_LOCK);
        let mut b = Backoff::new(4, 256);
        loop {
            if cpu.test_and_set(a).await == 0 {
                return;
            }
            b.pause(cpu).await;
        }
    }

    async fn unlock_node(&self, cpu: &Cpu, idx: usize) {
        cpu.write(self.node(idx).plus(F_LOCK), 0).await;
    }

    /// Close-and-collect pass over nodes we marked (bottom -> top): pick
    /// up deposited seconds, recording the distribution offset for each;
    /// close (free) nodes with no deposit.
    async fn collect(
        &self,
        cpu: &Cpu,
        owned: &mut Vec<usize>,
        owed: &mut Vec<(usize, u64)>,
        total: &mut u64,
    ) {
        for &idx in owned.iter() {
            cpu.work(NODE_VISIT_WORK).await;
            self.lock_node(cpu, idx).await;
            let s = cpu.read(self.node(idx).plus(F_STATUS)).await;
            if s == LOADED {
                let second = cpu.read(self.node(idx).plus(F_SECOND)).await;
                owed.push((idx, *total));
                *total = total.wrapping_add(second);
                // Leave LOADED: the depositor is waiting here and third
                // arrivers must keep out until it resets the node.
            } else {
                debug_assert_eq!(s, COMBINE, "collect on unmarked node");
                cpu.write(self.node(idx).plus(F_STATUS), FREE).await;
            }
            self.unlock_node(cpu, idx).await;
        }
        owned.clear();
    }

    /// Distribute results to the waiters whose contributions we carried:
    /// the waiter recorded at `(node, offset)` receives `base + offset`
    /// (or [`RETRY_SENTINEL`], which propagates unchanged).
    pub async fn distribute(&self, cpu: &Cpu, owed: &[(usize, u64)], base: u64) {
        // Top -> bottom so deeper subtrees start their own distribution
        // as early as possible.
        for &(idx, offset) in owed.iter().rev() {
            let val = if base == RETRY_SENTINEL {
                RETRY_SENTINEL
            } else {
                base.wrapping_add(offset)
            };
            cpu.write_fill(self.node(idx).plus(F_RESULT), val).await;
        }
    }

    /// Run the combining protocol up to the root. Returns
    /// `Ok((total, owed))` if this process won the root (the caller must
    /// apply the operation and then call [`CombiningTree::distribute`]),
    /// or `Err(base)` if the operation was combined into another process
    /// and `base` is this process's result (or [`RETRY_SENTINEL`]).
    ///
    /// Exposed so the reactive fetch-and-op can interpose its consensus
    /// check at the root.
    pub async fn climb(&self, cpu: &Cpu, delta: u64) -> Result<(u64, Vec<(usize, u64)>), u64> {
        let mut total = delta;
        let mut owned: Vec<usize> = Vec::new();
        let mut owed: Vec<(usize, u64)> = Vec::new();
        let mut idx = self.leaf_of(cpu.node());
        loop {
            cpu.work(NODE_VISIT_WORK).await;
            self.lock_node(cpu, idx).await;
            let s = cpu.read(self.node(idx).plus(F_STATUS)).await;
            match s {
                FREE => {
                    cpu.write(self.node(idx).plus(F_STATUS), COMBINE).await;
                    self.unlock_node(cpu, idx).await;
                    owned.push(idx);
                    if idx == 1 {
                        // Reached the top as owner: winner.
                        self.collect(cpu, &mut owned, &mut owed, &mut total).await;
                        return Ok((total, owed));
                    }
                    idx /= 2;
                }
                COMBINE => {
                    // Merge point: finalize our subtree, then deposit.
                    self.unlock_node(cpu, idx).await;
                    self.collect(cpu, &mut owned, &mut owed, &mut total).await;
                    self.lock_node(cpu, idx).await;
                    let s2 = cpu.read(self.node(idx).plus(F_STATUS)).await;
                    match s2 {
                        COMBINE => {
                            cpu.write(self.node(idx).plus(F_SECOND), total).await;
                            cpu.write(self.node(idx).plus(F_STATUS), LOADED).await;
                            self.unlock_node(cpu, idx).await;
                            // Wait at this node for our result.
                            let r = self.node(idx).plus(F_RESULT);
                            let base = cpu.poll_until_full(r).await;
                            // Reset the node for the next generation.
                            cpu.reset_empty(r).await;
                            cpu.write(self.node(idx).plus(F_STATUS), FREE).await;
                            self.distribute(cpu, &owed, base).await;
                            return Err(base);
                        }
                        FREE => {
                            // The owner closed it before we deposited:
                            // mark it ourselves and keep climbing.
                            cpu.write(self.node(idx).plus(F_STATUS), COMBINE).await;
                            self.unlock_node(cpu, idx).await;
                            owned.push(idx);
                            if idx == 1 {
                                self.collect(cpu, &mut owned, &mut owed, &mut total).await;
                                return Ok((total, owed));
                            }
                            idx /= 2;
                        }
                        _ => {
                            // LOADED: another second beat us; wait for
                            // the node to free and retry it.
                            self.unlock_node(cpu, idx).await;
                            cpu.poll_until(self.node(idx).plus(F_STATUS), |v| v != LOADED)
                                .await;
                        }
                    }
                }
                _ => {
                    // LOADED: generation in progress; wait and retry.
                    self.unlock_node(cpu, idx).await;
                    cpu.poll_until(self.node(idx).plus(F_STATUS), |v| v != LOADED)
                        .await;
                }
            }
        }
    }
}

impl FetchOp for CombiningTree {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        match self.climb(cpu, delta).await {
            Ok((total, owed)) => {
                let base = cpu.fetch_and_add(self.var, total).await;
                self.distribute(cpu, &owed, base).await;
                base
            }
            Err(base) => {
                debug_assert_ne!(base, RETRY_SENTINEL, "passive tree never invalidates");
                base
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::{Config, Machine};
    use std::cell::RefCell;

    /// Each of `procs` processors performs `iters` fetch_add(1) calls and
    /// records every return value; verifies the returns form exactly the
    /// set {0, .., procs*iters-1} (a correct fetch-and-add
    /// linearization) and returns the elapsed time.
    fn hammer<F: FetchOp>(mk: impl Fn(&Machine) -> F, procs: usize, iters: u64) -> u64 {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let f = mk(&m);
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let v = f.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(200)).await;
                }
            });
        }
        let t = m.run();
        assert_eq!(m.live_tasks(), 0, "deadlock in fetch-op test");
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..procs as u64 * iters).collect();
        assert_eq!(got, want, "fetch-and-add returns not a permutation");
        t
    }

    #[test]
    fn combining_tree_single_proc() {
        hammer(|m| CombiningTree::new(m, 0, 1), 1, 50);
    }

    #[test]
    fn combining_tree_two_procs() {
        hammer(|m| CombiningTree::new(m, 0, 2), 2, 50);
    }

    #[test]
    fn combining_tree_many_procs() {
        hammer(|m| CombiningTree::new(m, 0, 16), 16, 25);
    }

    #[test]
    fn combining_tree_odd_proc_count() {
        hammer(|m| CombiningTree::new(m, 0, 7), 7, 20);
    }

    #[test]
    fn combining_actually_combines_under_contention() {
        // With simultaneous arrivals, the root should see fewer
        // operations than the number of requests.
        let m = Machine::new(Config::default().nodes(16));
        let tree = CombiningTree::new(&m, 0, 16);
        let root_ops = Rc::new(RefCell::new(0u64));
        for p in 0..16 {
            let cpu = m.cpu(p);
            let tree = tree.clone();
            let root_ops = root_ops.clone();
            m.spawn(p, async move {
                for _ in 0..10 {
                    if let Ok((total, owed)) = tree.climb(&cpu, 1).await {
                        *root_ops.borrow_mut() += 1;
                        let base = cpu.fetch_and_add(tree.var(), total).await;
                        tree.distribute(&cpu, &owed, base).await;
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(tree.var()), 160);
        let roots = *root_ops.borrow();
        assert!(
            roots < 160,
            "no combining happened: {roots} root operations for 160 requests"
        );
    }
}
