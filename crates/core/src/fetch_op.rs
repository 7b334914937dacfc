//! The reactive fetch-and-op algorithm (§3.3.2, Appendix C).
//!
//! Chooses among three protocols at run time:
//!
//! 1. [`PROTO_TTS`] — a counter protected by a **test-and-test-and-set
//!    lock** (lowest latency, worst scaling),
//! 2. [`PROTO_QUEUE`] — a counter protected by an **MCS queue lock**
//!    (fair, moderate scaling), and
//! 3. [`PROTO_TREE`] — a **software combining tree** (high throughput
//!    under contention, high fixed cost).
//!
//! The consensus objects are the two lock words and the tree root (a
//! one-word lock guarding the `tree_valid` flag and the counter). The
//! invariant mirrors the reactive lock: at most one protocol is valid,
//! invalid locks are left busy/INVALID, and the combining-tree root
//! answers climbs with a retry sentinel while invalid — a process that
//! reaches an invalid root *completes the protocol* by distributing the
//! retry down to everyone it combined with (§3.3.2).
//!
//! Monitoring (§3.3.2): failed `test&set`s (TTS → queue), queue waiting
//! time (queue → tree, the queue is FIFO so waiting time estimates
//! contention), and two kinds of calm execution — an empty-queue
//! acquisition (queue → TTS) and a root visit that combined little
//! (tree → queue) — whose runs the switching kernel's calm streak
//! counts against [`EMPTY_QUEUE_LIMIT`] and [`TREE_LOW_STREAK`]. The
//! monitor only *proposes* a
//! better protocol through an [`Observation`]; the configured
//! [`Policy`](crate::policy::Policy) decides, and may direct a change to
//! **any** of the three slots — the switch machinery below handles all
//! six ordered protocol pairs, which is what lets a 3-protocol object
//! express e.g. "switch from the queue-counter straight to the combining
//! tree". The paper's optimization of keeping the fetch-and-op value "in
//! a common location so updates are not necessary" is used: all three
//! protocols mutate the same counter word.

use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};
use sync_protocols::fetch_op::{CombiningTree, FetchOp, RETRY_SENTINEL};
use sync_protocols::spin::Lock;

pub use crate::lock::{EMPTY_QUEUE_LIMIT, TTS_RETRY_LIMIT};
use crate::lock::{QUEUE_RESIDUAL, TTS_RESIDUAL};
use crate::policy::{Observation, ProtocolId, SimKernel, SwitchStyle, SwitchableObject};
use crate::spin::{McsLock, TtsLock};
use crate::{Builder, MaxProcs, Reactive};
use reactive_api::spin::{self, Backoff, Memory, FREE, INVALID_PTR, NIL};

/// Slot of the TTS-lock-protected counter.
pub const PROTO_TTS: ProtocolId = ProtocolId(0);
/// Slot of the queue-lock-protected counter.
pub const PROTO_QUEUE: ProtocolId = ProtocolId(1);
/// Slot of the software combining tree.
pub const PROTO_TREE: ProtocolId = ProtocolId(2);

const MODE_TTS: u64 = PROTO_TTS.0 as u64;
const MODE_QUEUE: u64 = PROTO_QUEUE.0 as u64;

/// Queue waiting time (cycles) above which combining pays off.
pub const QUEUE_WAIT_LIMIT: u64 = 1_800;
/// Minimum ops combined at the root for the tree to be worthwhile.
pub const TREE_COMBINE_MIN: usize = 2;
/// Consecutive low-combining root visits before leaving the tree.
pub const TREE_LOW_STREAK: u64 = 4;

impl Reactive for ReactiveFetchOp {
    type Params = ();

    // All three slots are holder-based consensus objects (two lock
    // words and the root lock guarding `tree_valid`); the tree's
    // invalidation is performed at decision time under the root lock,
    // so its invalidate hook is a no-op (see the kernel's hook
    // contract).
    const PROTOCOLS: &'static [(&'static str, SwitchStyle)] = &[
        ("tts-counter", SwitchStyle::Handoff),
        ("queue-counter", SwitchStyle::Handoff),
        ("combining-tree", SwitchStyle::Handoff),
    ];

    /// TTS valid; queue and tree invalid.
    fn assemble(m: &Machine, home: usize, n: usize, _: (), kernel: Rc<SimKernel>) -> Self {
        let locks = m.alloc_on(home, 2);
        let mode = m.alloc_on(home, 1);
        let var = m.alloc_on(home, 1);
        let root = m.alloc_on(home, 2);
        m.write_word(locks, FREE);
        m.write_word(locks.plus(1), INVALID_PTR);
        m.write_word(mode, MODE_TTS);
        m.write_word(root, 0); // root lock free
        m.write_word(root.plus(1), 0); // tree invalid
        ReactiveFetchOp {
            tts: TtsLock::over(locks, n),
            queue: McsLock::over(m, locks.plus(1)),
            mode,
            var,
            root,
            tree: CombiningTree::new(m, home, n),
            kernel,
        }
    }
}

impl MaxProcs for ReactiveFetchOp {}

/// The reactive fetch-and-op object. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct ReactiveFetchOp {
    /// The two lock sub-protocols, over one line `[tts_flag,
    /// queue_tail]`.
    tts: TtsLock,
    queue: McsLock,
    /// Mode hint on its own line.
    mode: Addr,
    /// The fetch-and-op variable, shared by all three protocols.
    var: Addr,
    /// `[root_lock, tree_valid]` — the combining tree's consensus.
    root: Addr,
    tree: CombiningTree,
    kernel: Rc<SimKernel>,
}

impl std::fmt::Debug for ReactiveFetchOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactiveFetchOp")
            .field("var", &self.var)
            .finish()
    }
}

impl ReactiveFetchOp {
    /// Start building a reactive fetch-and-op homed on `home`.
    pub fn builder(m: &Machine, home: usize) -> Builder<'_, ReactiveFetchOp> {
        Builder::new(m, home, m.nodes(), ())
    }

    /// Create a reactive fetch-and-op homed on `home`, with a combining
    /// tree sized for `max_procs` and the default always-switch policy.
    pub fn new(m: &Machine, home: usize, max_procs: usize) -> ReactiveFetchOp {
        Builder::new(m, home, max_procs, ()).build()
    }

    fn root_lock(&self) -> Addr {
        self.root
    }

    fn tree_valid(&self) -> Addr {
        self.root.plus(1)
    }

    /// The counter word (for post-run inspection).
    pub fn var(&self) -> Addr {
        self.var
    }

    /// Number of protocol changes performed so far.
    pub fn switches(&self) -> u64 {
        self.kernel.switches()
    }

    /// Atomically add `delta`, returning the previous value. Dispatches
    /// on the mode hint; invalid protocols bounce us back here.
    pub async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        loop {
            let mode = cpu.read(self.mode).await;
            let r = match mode {
                MODE_TTS => self.try_tts(cpu, delta).await,
                MODE_QUEUE => self.try_queue(cpu, delta).await,
                _ => self.try_tree(cpu, delta).await,
            };
            if let Some(v) = r {
                return v;
            }
        }
    }

    // ------------------------------------------------------------------
    // TTS-lock protocol
    // ------------------------------------------------------------------

    async fn try_tts(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        let failures = self.tts.acquire_while(cpu, self.mode, MODE_TTS).await?;
        // Critical section: apply the op.
        let old = cpu.read(self.var).await;
        cpu.write(self.var, old.wrapping_add(delta)).await;
        let obs = if failures > TTS_RETRY_LIMIT {
            Observation::suboptimal(PROTO_TTS, PROTO_QUEUE, TTS_RESIDUAL)
        } else {
            Observation::optimal(PROTO_TTS)
        };
        match self.kernel.observe(&obs) {
            Some(target) if target == PROTO_QUEUE => {
                // Switch TTS -> queue: the kernel validates the queue
                // and leaves TTS busy; releasing through the new
                // protocol is ours.
                let q = self.queue.mem(cpu).take_node();
                self.kernel
                    .switch(
                        &FopSwitch {
                            f: self,
                            q: Some(q),
                        },
                        cpu,
                        PROTO_TTS,
                        PROTO_QUEUE,
                    )
                    .await;
                self.queue.release_qnode(cpu, q).await;
            }
            Some(target) => {
                // Switch TTS -> tree directly: the kernel validates the
                // root's consensus object; both locks stay busy/INVALID.
                debug_assert_eq!(target, PROTO_TREE);
                self.kernel
                    .switch(&FopSwitch { f: self, q: None }, cpu, PROTO_TTS, PROTO_TREE)
                    .await;
            }
            None => self.tts.release(cpu, ()).await,
        }
        Some(old)
    }

    // ------------------------------------------------------------------
    // Queue-lock protocol
    // ------------------------------------------------------------------

    async fn try_queue(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        // The waiting-time clock starts between preparing the node and
        // swapping it in.
        let m = self.queue.mem(cpu);
        let q = m.take_node();
        spin::mcs_prepare(&m, q).await;
        let t_enqueue = cpu.now();
        let pred = spin::mcs_swap(&m, self.queue.tail(), q).await;
        if pred == INVALID_PTR {
            spin::invalidate_from(&m, self.queue.tail(), q).await;
            m.put_node(q);
            return None;
        }
        let empty = pred == NIL;
        if !empty {
            spin::mcs_chain(&m, q, pred).await;
            if !spin::mcs_wait(&m, q).await {
                m.put_node(q);
                return None;
            }
        }
        let wait_time = cpu.now() - t_enqueue;

        // Critical section.
        let old = cpu.read(self.var).await;
        cpu.write(self.var, old.wrapping_add(delta)).await;

        // Monitoring: the queue is FIFO, so waiting time estimates
        // contention (§3.3.2). Long waits favour the combining tree;
        // empty-queue streaks favour TTS.
        let target = if empty {
            self.kernel
                .observe_calm(PROTO_QUEUE, PROTO_TTS, EMPTY_QUEUE_LIMIT, QUEUE_RESIDUAL)
        } else if wait_time > QUEUE_WAIT_LIMIT {
            self.kernel.observe(&Observation::suboptimal(
                PROTO_QUEUE,
                PROTO_TREE,
                wait_time as f64 / 4.0,
            ))
        } else {
            self.kernel.observe(&Observation::optimal(PROTO_QUEUE))
        };
        match target {
            Some(target) if target == PROTO_TTS => {
                // Switch queue -> TTS: the kernel invalidates the queue
                // (bouncing waiters); freeing the TTS flag is our
                // release through the new protocol.
                self.kernel
                    .switch(
                        &FopSwitch {
                            f: self,
                            q: Some(q),
                        },
                        cpu,
                        PROTO_QUEUE,
                        PROTO_TTS,
                    )
                    .await;
                self.tts.release(cpu, ()).await;
            }
            Some(target) => {
                // Switch queue -> tree: validate the root, invalidate
                // the queue. TTS stays busy.
                debug_assert_eq!(target, PROTO_TREE);
                self.kernel
                    .switch(
                        &FopSwitch {
                            f: self,
                            q: Some(q),
                        },
                        cpu,
                        PROTO_QUEUE,
                        PROTO_TREE,
                    )
                    .await;
            }
            None => self.queue.release_qnode(cpu, q).await,
        }
        Some(old)
    }

    // ------------------------------------------------------------------
    // Combining-tree protocol
    // ------------------------------------------------------------------

    async fn try_tree(&self, cpu: &Cpu, delta: u64) -> Option<u64> {
        match self.tree.climb(cpu, delta).await {
            Ok((total, owed)) => {
                // We won the root: take the consensus lock and check
                // validity atomically with the update.
                self.lock_root(cpu).await;
                let valid = cpu.read(self.tree_valid()).await == 1;
                if !valid {
                    self.unlock_root(cpu).await;
                    self.tree.distribute(cpu, &owed, RETRY_SENTINEL).await;
                    return None;
                }
                let old = cpu.read(self.var).await;
                cpu.write(self.var, old.wrapping_add(total)).await;

                // Monitoring: how much combining did this root visit
                // carry? (The paper piggybacks a fetch-and-increment to
                // measure the combining rate.) Decide while we hold the
                // root so an approved change can clear `tree_valid`
                // atomically with the update (the tree's invalidation
                // happens here, under its consensus object; the
                // kernel's invalidate hook for the tree slot is
                // therefore a no-op).
                let combined = owed.len() + 1;
                let target = if combined < TREE_COMBINE_MIN {
                    self.kernel
                        .observe_calm(PROTO_TREE, PROTO_QUEUE, TREE_LOW_STREAK, 400.0)
                } else {
                    self.kernel.observe(&Observation::optimal(PROTO_TREE))
                };
                if target.is_some() {
                    cpu.write(self.tree_valid(), 0).await;
                }
                self.unlock_root(cpu).await;
                match target {
                    Some(t) if t == PROTO_QUEUE => {
                        // Switch tree -> queue.
                        let q = self.queue.mem(cpu).take_node();
                        self.kernel
                            .switch(
                                &FopSwitch {
                                    f: self,
                                    q: Some(q),
                                },
                                cpu,
                                PROTO_TREE,
                                t,
                            )
                            .await;
                        self.queue.release_qnode(cpu, q).await;
                    }
                    Some(t) => {
                        // Switch tree -> TTS directly: the queue is
                        // already invalid; just free the TTS flag.
                        debug_assert_eq!(t, PROTO_TTS);
                        self.kernel
                            .switch(&FopSwitch { f: self, q: None }, cpu, PROTO_TREE, t)
                            .await;
                        self.tts.release(cpu, ()).await;
                    }
                    None => {}
                }
                self.tree.distribute(cpu, &owed, old).await;
                Some(old)
            }
            Err(base) => {
                if base == RETRY_SENTINEL {
                    None
                } else {
                    Some(base)
                }
            }
        }
    }

    async fn lock_root(&self, cpu: &Cpu) {
        let mut b = Backoff::new(4, 256);
        loop {
            if cpu.test_and_set(self.root_lock()).await == 0 {
                return;
            }
            b.pause(&self.queue.mem(cpu)).await;
        }
    }

    async fn unlock_root(&self, cpu: &Cpu) {
        cpu.write(self.root_lock(), 0).await;
    }
}

/// The fetch-op's [`SwitchableObject`] hooks for all six ordered
/// protocol pairs: `q` carries the queue node involved in the
/// transition (the node being installed when entering the queue
/// protocol, the held node when leaving it; `None` for TTS ↔ tree
/// routes). The pair machinery that used to be six hand-written switch
/// blocks is now this one hook table — the kernel sequences it.
struct FopSwitch<'a> {
    f: &'a ReactiveFetchOp,
    q: Option<Addr>,
}

impl SwitchableObject for FopSwitch<'_> {
    type Ctx = Cpu;

    async fn validate(&self, cpu: &Cpu, to: ProtocolId, _from: ProtocolId, _state: u64) {
        match to {
            PROTO_QUEUE => {
                let q = self.q.expect("entering the queue protocol needs a node");
                let queue = &self.f.queue;
                spin::acquire_invalid(&queue.mem(cpu), queue.tail(), q).await;
            }
            PROTO_TREE => {
                // Set the root's validity flag under its lock.
                self.f.lock_root(cpu).await;
                cpu.write(self.f.tree_valid(), 1).await;
                self.f.unlock_root(cpu).await;
            }
            _ => {
                // TTS becomes valid when the switcher frees the flag —
                // its release through the new protocol, after the
                // transaction.
            }
        }
    }

    async fn invalidate(&self, cpu: &Cpu, from: ProtocolId, _to: ProtocolId) -> Option<u64> {
        if from == PROTO_QUEUE {
            let q = self
                .q
                .expect("leaving the queue protocol needs the held node");
            let m = self.f.queue.mem(cpu);
            spin::invalidate_from(&m, self.f.queue.tail(), q).await;
            m.put_node(q);
        }
        // An invalid TTS flag is left BUSY; the tree's `tree_valid` was
        // cleared at decision time under the root lock. Both are
        // exclusive holds, so this cannot lose.
        Some(0)
    }

    async fn publish_mode(&self, cpu: &Cpu, to: ProtocolId) {
        cpu.write(self.f.mode, to.0 as u64).await;
    }

    fn now(&self, cpu: &Cpu) -> u64 {
        cpu.now()
    }

    fn note_switch(&self, cpu: &Cpu, from: ProtocolId, to: ProtocolId) {
        let name = match (from, to) {
            (_, PROTO_QUEUE) if from == PROTO_TREE => "reactive_fop.tree_to_queue",
            (_, PROTO_TTS) if from == PROTO_TREE => "reactive_fop.tree_to_tts",
            (_, PROTO_QUEUE) => "reactive_fop.to_queue",
            (_, PROTO_TREE) => "reactive_fop.to_tree",
            _ => "reactive_fop.to_tts",
        };
        cpu.bump(name, 1);
    }
}

impl FetchOp for ReactiveFetchOp {
    async fn fetch_add(&self, cpu: &Cpu, delta: u64) -> u64 {
        ReactiveFetchOp::fetch_add(self, cpu, delta).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Decision, Policy, SwitchLog};
    use alewife_sim::{Config, Machine};
    use std::cell::RefCell;
    use sync_protocols::fetch_op::LockFetchOp;

    /// All returns must form the exact set {0..procs*iters}.
    fn hammer(procs: usize, iters: u64, think: u64) -> (u64, u64) {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let f = ReactiveFetchOp::new(&m, 0, procs);
        let seen = Rc::new(RefCell::new(Vec::new()));
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let v = f.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(think.max(1))).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "reactive fetch-op deadlock");
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..procs as u64 * iters).collect();
        assert_eq!(got, want, "returns not a fetch-and-add permutation");
        (m.read_word(f.var()), f.switches())
    }

    /// [`hammer`] for any [`FetchOp`]: each processor adds 1 `iters`
    /// times with up to 200 cycles of think time; returns the elapsed
    /// cycles.
    fn hammer_static<F: FetchOp>(mk: impl Fn(&Machine) -> F, procs: usize, iters: u64) -> u64 {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let f = mk(&m);
        let seen = Rc::new(RefCell::new(Vec::new()));
        for p in 0..procs {
            let (cpu, f, seen) = (m.cpu(p), f.clone(), seen.clone());
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
    fn lock_based_tts_correct() {
        hammer_static(|m| LockFetchOp::new(m, 0, TtsLock::new(m, 0, 8)), 8, 20);
    }

    #[test]
    fn lock_based_mcs_correct() {
        hammer_static(|m| LockFetchOp::new(m, 0, McsLock::new(m, 0)), 8, 20);
    }

    #[test]
    fn tree_beats_lock_at_high_contention_and_loses_alone() {
        let tree = |procs| move |m: &Machine| CombiningTree::new(m, 0, procs);
        let lock = |procs| move |m: &Machine| LockFetchOp::new(m, 0, TtsLock::new(m, 0, procs));
        let (t_tree_1, t_lock_1) = (hammer_static(tree(2), 1, 40), hammer_static(lock(2), 1, 40));
        assert!(
            t_lock_1 < t_tree_1,
            "lock-based ({t_lock_1}) should beat tree ({t_tree_1}) uncontended"
        );
        let t_tree_32 = hammer_static(tree(32), 32, 12);
        let t_lock_32 = hammer_static(lock(32), 32, 12);
        assert!(
            t_tree_32 < t_lock_32,
            "tree ({t_tree_32}) should beat TTS-lock-based ({t_lock_32}) at 32 procs"
        );
    }

    #[test]
    fn single_proc_stays_cheap() {
        let (v, switches) = hammer(1, 100, 50);
        assert_eq!(v, 100);
        assert_eq!(switches, 0);
    }

    #[test]
    fn two_procs_correct() {
        let (v, _) = hammer(2, 60, 100);
        assert_eq!(v, 120);
    }

    #[test]
    fn eight_procs_correct() {
        let (v, _) = hammer(8, 25, 100);
        assert_eq!(v, 200);
    }

    #[test]
    fn sixteen_procs_correct_and_adaptive() {
        let (v, switches) = hammer(16, 25, 50);
        assert_eq!(v, 400);
        assert!(switches >= 1, "16-way contention should trigger a switch");
    }

    #[test]
    fn thirtytwo_procs_reaches_tree() {
        let m = Machine::new(Config::default().nodes(32));
        let f = ReactiveFetchOp::new(&m, 0, 32);
        for p in 0..32 {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(f.var()), 640);
        let st = m.stats();
        assert!(
            st.counter("reactive_fop.to_tree") >= 1,
            "32-way contention should reach the combining tree; counters: {:?}",
            st.counters
        );
    }

    #[test]
    fn contention_fade_returns_from_tree() {
        let m = Machine::new(Config::default().nodes(32));
        let f = ReactiveFetchOp::new(&m, 0, 32);
        for p in 0..32 {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for _ in 0..15 {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
                if cpu.node() == 0 {
                    // Solo phase.
                    for _ in 0..40 {
                        f.fetch_add(&cpu, 1).await;
                        cpu.work(30).await;
                    }
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(f.var()), 32 * 15 + 40);
        let st = m.stats();
        // It must have left the tree once contention faded.
        if st.counter("reactive_fop.to_tree") > 0 {
            assert!(
                st.counter("reactive_fop.tree_to_queue") + st.counter("reactive_fop.tree_to_tts")
                    >= 1,
                "never left the tree; counters: {:?}",
                st.counters
            );
        }
    }

    #[test]
    fn deltas_other_than_one() {
        let m = Machine::new(Config::default().nodes(4));
        let f = ReactiveFetchOp::new(&m, 0, 4);
        for p in 0..4 {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for i in 0..20 {
                    f.fetch_add(&cpu, (p as u64) + i % 3).await;
                    cpu.work(cpu.rand_below(60)).await;
                }
            });
        }
        m.run();
        let expect: u64 = (0..4u64)
            .map(|p| (0..20u64).map(|i| p + i % 3).sum::<u64>())
            .sum();
        assert_eq!(m.read_word(f.var()), expect);
    }

    /// A policy that replays a fixed script of decisions — used to force
    /// specific protocol routes regardless of observed contention.
    struct Scripted {
        script: Vec<Decision>,
        at: usize,
    }

    impl Policy for Scripted {
        fn decide(&mut self, _obs: &Observation) -> Decision {
            let d = self.script.get(self.at).copied().unwrap_or(Decision::Stay);
            self.at += 1;
            d
        }
    }

    /// Regression for the old binary-`Mode` API: a 3-protocol object
    /// must be able to express "switch from the queue-counter to the
    /// combining tree" as a first-class (ProtocolId -> ProtocolId)
    /// transition, visible in the instrumentation stream.
    #[test]
    fn three_protocol_switch_queue_to_tree_is_expressible() {
        let m = Machine::new(Config::default().nodes(8));
        let log = Rc::new(SwitchLog::new());
        let f = ReactiveFetchOp::builder(&m, 0)
            .max_procs(8)
            .policy(Scripted {
                // 1st observation: go TTS -> queue; 2nd: queue -> tree.
                script: vec![
                    Decision::SwitchTo(PROTO_QUEUE),
                    Decision::SwitchTo(PROTO_TREE),
                ],
                at: 0,
            })
            .instrument(log.clone())
            .build();
        for p in 0..8 {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for _ in 0..12 {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(50)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(f.var()), 96);
        let evs = log.events();
        assert_eq!(evs.len(), 2, "expected exactly the scripted switches");
        assert_eq!((evs[0].from, evs[0].to), (PROTO_TTS, PROTO_QUEUE));
        assert_eq!(
            (evs[1].from, evs[1].to),
            (PROTO_QUEUE, PROTO_TREE),
            "queue-counter -> combining-tree must be expressible"
        );
        assert_eq!(f.switches(), 2);
    }

    /// The generalized selector also supports routes the old API could
    /// not name at all: TTS straight to the tree, and tree straight back
    /// to TTS.
    #[test]
    fn direct_tts_tree_round_trip_is_expressible() {
        let m = Machine::new(Config::default().nodes(8));
        let log = Rc::new(SwitchLog::new());
        let f = ReactiveFetchOp::builder(&m, 0)
            .max_procs(8)
            .policy(Scripted {
                script: vec![
                    Decision::SwitchTo(PROTO_TREE),
                    Decision::Stay,
                    Decision::Stay,
                    Decision::SwitchTo(PROTO_TTS),
                ],
                at: 0,
            })
            .instrument(log.clone())
            .build();
        for p in 0..8 {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for _ in 0..12 {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(50)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(f.var()), 96);
        let evs = log.events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].from, evs[0].to), (PROTO_TTS, PROTO_TREE));
        assert_eq!((evs[1].from, evs[1].to), (PROTO_TREE, PROTO_TTS));
    }
}
