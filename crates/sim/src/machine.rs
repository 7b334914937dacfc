//! The public machine facade: configuration, allocation, task spawning,
//! and the event loop.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use crate::cost::CostModel;
use crate::cpu::Cpu;
use crate::exec::{self, Ev, TaskId};
use crate::fault::{FaultAction, FaultEvent, FaultPlan};
use crate::msg::{HandlerCtx, Port};
use crate::state::{Addr, State};
use crate::stats::Stats;
use crate::thread::{self, WaitQueueId};
use crate::{coherence, fault, msg};

/// Machine configuration. Construct with [`Config::default`] and chain
/// the builder-style setters. A node runs any number of threads, one
/// at a time; no hardware-context count is modelled.
///
/// ```
/// use alewife_sim::{Config, CostModel};
/// let cfg = Config::default().nodes(16).cost(CostModel::prototype());
/// ```
#[derive(Clone, Debug)]
pub struct Config {
    pub(crate) nodes: usize,
    pub(crate) cost: CostModel,
    pub(crate) full_map: bool,
    pub(crate) seed: u64,
    pub(crate) faults: FaultPlan,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nodes: 1,
            cost: CostModel::nwo(),
            full_map: false,
            seed: 0xA1EF_17E5,
            faults: FaultPlan::new(),
        }
    }
}

impl Config {
    /// Number of processing nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "a machine needs at least one node");
        self.nodes = n;
        self
    }

    /// Cycle cost model.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Model a full-map directory (`Dir_NB`): no LimitLESS traps.
    pub fn full_map(mut self, b: bool) -> Self {
        self.full_map = b;
        self
    }

    /// Seed for the deterministic random stream.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Install a fault-injection plan. The empty (default) plan adds no
    /// events and leaves the simulation bit-identical to a machine
    /// without one.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

/// A simulated multiprocessor. See the crate docs for an example.
///
/// The machine owns what it is given to run: spawned tasks, message
/// handlers and recovery factories. Dropping it drops all of them,
/// whether the run finished, deadlocked, or never started; each is
/// dropped after the machine lets go of its state, so a destructor may
/// still use a [`Cpu`] it holds. A `Cpu` that outlives its machine keeps
/// the state alive and can still read it, but nothing runs any more.
pub struct Machine {
    st: Rc<RefCell<State>>,
}

impl Drop for Machine {
    fn drop(&mut self) {
        // Each of these may hold a `Cpu`, a second `Rc` to the state, so
        // left in place they would keep the state, and themselves, alive.
        // A state already borrowed is left as it is: a drop must not panic.
        let Ok(mut st) = self.st.try_borrow_mut() else {
            return;
        };
        let futs: Vec<_> = st.futs.iter_mut().filter_map(Option::take).collect();
        let handlers: Vec<_> = st.handlers.iter_mut().map(std::mem::take).collect();
        let recovery: Vec<_> = st.recovery.iter_mut().filter_map(Option::take).collect();
        drop(st);
        drop((futs, handlers, recovery));
    }
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Panics
    ///
    /// If the configuration has more than 32767 nodes: a directory
    /// entry names nodes with 16-bit pointers and counts its sharers in
    /// 15 bits.
    pub fn new(cfg: Config) -> Machine {
        assert!(
            cfg.nodes <= coherence::MAX_NODES,
            "a machine has at most {} nodes (a directory entry counts sharers in 15 bits), not {}",
            coherence::MAX_NODES,
            cfg.nodes
        );
        let mut st = State::new(cfg.nodes, cfg.cost, cfg.full_map, cfg.seed);
        // The fault plan becomes ordinary events up front; an empty
        // plan schedules nothing, so event sequence numbers (and hence
        // the determinism goldens) are untouched.
        for &(at, act) in &cfg.faults.entries {
            let (ev, n) = match act {
                FaultAction::Kill(n) => (Ev::Kill(n), n),
                FaultAction::Recover(n) => (Ev::Recover(n), n),
                FaultAction::Abort(n) => (Ev::Abort(n), n),
            };
            assert!(
                (n as usize) < cfg.nodes,
                "fault plan names a node out of range"
            );
            st.schedule(at, ev);
        }
        Machine {
            st: Rc::new(RefCell::new(st)),
        }
    }

    /// Handle for issuing operations as node `node`.
    pub fn cpu(&self, node: usize) -> Cpu {
        assert!(node < self.st.borrow().nodes_n, "cpu: node out of range");
        Cpu {
            st: self.st.clone(),
            node,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.st.borrow().nodes_n
    }

    /// Allocate `words` words of shared memory homed on `node`
    /// (line-aligned; never false-shares with other allocations).
    pub fn alloc_on(&self, node: usize, words: u64) -> Addr {
        self.st.borrow_mut().alloc_on(node, words)
    }

    /// `n` allocations of `words` words each, striped over the nodes:
    /// the same addresses, lines and homes as `n` successive
    /// `alloc_on(i % nodes, words)` calls, with the machine's per-line
    /// tables grown once instead of `n` times. Returns the first
    /// allocation's address and the stride between allocations, so
    /// allocation `i` starts at `first.plus(i as u64 * stride)`.
    pub fn alloc_striped(&self, n: usize, words: u64) -> (Addr, u64) {
        self.st.borrow_mut().alloc_striped(n, words)
    }

    /// Read a word directly (no cycles charged; for setup/inspection).
    pub fn read_word(&self, a: Addr) -> u64 {
        self.st.borrow().mem[a.0 as usize]
    }

    /// Write a word directly (no cycles charged; for setup only — do not
    /// call while the simulation is running).
    pub fn write_word(&self, a: Addr, v: u64) {
        self.st.borrow_mut().mem[a.0 as usize] = v;
    }

    /// Set a word's full/empty bit directly (setup only).
    pub fn set_full(&self, a: Addr, full: bool) {
        crate::state::set_bit(&mut self.st.borrow_mut().full_bits, a.0 as usize, full);
    }

    /// Spawn a scheduler-managed thread on `node`.
    pub fn spawn(&self, node: usize, fut: impl Future<Output = ()> + 'static) -> TaskId {
        assert!(node < self.st.borrow().nodes_n, "spawn: node out of range");
        thread::spawn_thread(&mut self.st.borrow_mut(), node, Box::pin(fut))
    }

    /// Create a wait queue for blocking threads.
    pub fn new_wait_queue(&self) -> WaitQueueId {
        thread::new_wait_queues(&mut self.st.borrow_mut(), 1)
    }

    /// Create `n` wait queues with consecutive ids and return the first;
    /// queue `i` is `first.offset(i)` ([`WaitQueueId::offset`]).
    pub fn new_wait_queues(&self, n: usize) -> WaitQueueId {
        thread::new_wait_queues(&mut self.st.borrow_mut(), n)
    }

    /// Register an active-message handler for `(node, port)`.
    pub fn register_handler(
        &self,
        node: usize,
        port: Port,
        f: impl FnMut(&mut HandlerCtx<'_>, [u64; 4]) + 'static,
    ) {
        let mut st = self.st.borrow_mut();
        assert!(node < st.nodes_n, "register_handler: node out of range");
        let table = &mut st.handlers[node];
        let slot = port.0 as usize;
        if table.len() <= slot {
            table.resize_with(slot + 1, || None);
        }
        table[slot] = Some(Box::new(f));
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.st.borrow().now
    }

    /// Time of the earliest pending event, if any. The parallel
    /// scheduler reads every shard's next-event time to compute the
    /// global safe horizon; reading commits nothing (event order is
    /// untouched).
    pub fn next_event_time(&self) -> Option<u64> {
        self.st.borrow().events.peek_time()
    }

    /// Inject an externally-routed active message (cross-shard
    /// delivery) for `node` at absolute virtual time `at`, which must
    /// not precede any event this machine has already executed.
    pub(crate) fn inject_message(
        &self,
        node: usize,
        from: usize,
        port: Port,
        args: [u64; 4],
        at: u64,
    ) {
        let mut st = self.st.borrow_mut();
        assert!(node < st.nodes_n, "inject_message: node out of range");
        assert!(
            at >= st.now,
            "inject_message: delivery at {at} precedes shard time {}",
            st.now
        );
        msg::inject(&mut st, node, from, port, args, at);
    }

    /// Cumulative executor events, cheap to poll between `run_until`
    /// calls (the parallel scheduler differences this per epoch for its
    /// deterministic critical-path accounting).
    pub(crate) fn events_executed(&self) -> u64 {
        self.st.borrow().stats.sim_events
    }

    /// Number of live (unfinished) tasks — nonzero after [`Machine::run`]
    /// indicates deadlock (tasks waiting on conditions that never fire).
    pub fn live_tasks(&self) -> usize {
        self.st.borrow().live_tasks
    }

    /// Snapshot of machine statistics.
    pub fn stats(&self) -> Stats {
        self.st.borrow().stats.clone()
    }

    /// Register the recovery thread factory for `node`: each time the
    /// node recovers from a kill, `f()` is spawned as a fresh thread
    /// there (it should inspect NVM — shared memory — and repair).
    pub fn on_recovery(
        &self,
        node: usize,
        f: impl Fn() -> Pin<Box<dyn Future<Output = ()>>> + 'static,
    ) {
        let mut st = self.st.borrow_mut();
        assert!(node < st.nodes_n, "on_recovery: node out of range");
        st.recovery[node] = Some(Box::new(f));
    }

    /// Whether `node` is currently alive (not killed, or recovered).
    pub fn alive(&self, node: usize) -> bool {
        self.st.borrow().alive[node]
    }

    /// The fault actions that actually fired so far, in order.
    pub fn fault_log(&self) -> Vec<FaultEvent> {
        self.st.borrow().fault_log.clone()
    }

    /// Run until no events remain; returns the final virtual time.
    pub fn run(&self) -> u64 {
        self.run_until(u64::MAX)
    }

    /// Run until no events remain or virtual time would exceed `limit`;
    /// returns the time reached.
    pub fn run_until(&self, limit: u64) -> u64 {
        // Processed-event count accumulates locally and is flushed to
        // `stats.sim_events` on exit (nothing reads it mid-run).
        let mut popped = 0u64;
        // A finished poll's bookkeeping is deferred into the next
        // iteration's borrow, so each task event costs one borrow.
        let mut finished: Option<(TaskId, exec::PolledFut, Option<exec::SpentCompletion>)> = None;
        // A kill's dead futures, dropped once the borrow has ended: a
        // task's destructor may use its `Cpu`.
        let mut killed = Vec::new();
        loop {
            // Engine events (directory, message, dispatch) take `&mut
            // State` directly, so consecutive runs of them — the common
            // case under contention — drain beneath a single borrow.
            // Only an actual task poll needs the `Rc` released, because
            // the polled future re-borrows the state.
            let poll_next = {
                let mut st = self.st.borrow_mut();
                if let Some((tid, (fut, res), spent)) = finished.take() {
                    exec::end_poll(&mut st, tid, fut, res, spent);
                }
                loop {
                    let Some(e) = st.events.pop_at_most(limit) else {
                        break None;
                    };
                    st.now = e.time;
                    popped += 1;
                    match e.ev {
                        Ev::Wake(tid) => {
                            if let Some(fut) = exec::begin_poll(&mut st, tid) {
                                break Some((tid, fut, None));
                            }
                        }
                        Ev::Complete(c) => match c.finish() {
                            Some(tid) => match exec::begin_poll(&mut st, tid) {
                                // The poll's closing borrow recycles `c`.
                                Some(fut) => break Some((tid, fut, Some(c))),
                                None => st.recycle_completion(c),
                            },
                            None => st.recycle_completion(c),
                        },
                        Ev::DirArrive(n, idx) => coherence::dir_arrive(&mut st, n as usize, idx),
                        Ev::DirService(n) => coherence::dir_service(&mut st, n as usize),
                        Ev::MsgArrive(n, idx) => msg::msg_arrive(&mut st, n as usize, idx),
                        Ev::MsgService(n) => msg::msg_service(&mut st, n as usize),
                        Ev::Dispatch(n) => thread::dispatch(&mut st, n as usize),
                        Ev::Kill(n) => {
                            killed = fault::kill_node(&mut st, n as usize);
                            if !killed.is_empty() {
                                break None;
                            }
                        }
                        Ev::Recover(n) => fault::recover_node(&mut st, n as usize),
                        Ev::Abort(n) => fault::abort_node(&mut st, n as usize),
                    }
                }
            };
            let Some((tid, mut fut, spent)) = poll_next else {
                if killed.is_empty() {
                    break;
                }
                killed.clear();
                continue;
            };
            let res = exec::poll_once(&mut fut);
            finished = Some((tid, (fut, res), spent));
        }
        let mut st = self.st.borrow_mut();
        if let Some((tid, (fut, res), spent)) = finished.take() {
            exec::end_poll(&mut st, tid, fut, res, spent);
        }
        st.stats.sim_events += popped;
        st.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::HW_PTRS;

    #[test]
    fn single_processor_counter() {
        let m = Machine::new(Config::default());
        let a = m.alloc_on(0, 1);
        let cpu = m.cpu(0);
        m.spawn(0, async move {
            for _ in 0..100 {
                cpu.fetch_and_add(a, 1).await;
            }
        });
        m.run();
        assert_eq!(m.read_word(a), 100);
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    fn concurrent_fetch_and_add_is_atomic() {
        let m = Machine::new(Config::default().nodes(8));
        let a = m.alloc_on(0, 1);
        for p in 0..8 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..50 {
                    cpu.fetch_and_add(a, 1).await;
                    cpu.work(cpu.rand_below(40)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.read_word(a), 400);
    }

    #[test]
    fn test_and_set_grants_exactly_one_winner() {
        let m = Machine::new(Config::default().nodes(16));
        let flag = m.alloc_on(0, 1);
        let winners = m.alloc_on(0, 2).plus(1); // separate line not needed; distinct word
        let winners = {
            // Keep winners on its own line to avoid interference.
            let _ = winners;
            m.alloc_on(1, 1)
        };
        for p in 0..16 {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                if cpu.test_and_set(flag).await == 0 {
                    cpu.fetch_and_add(winners, 1).await;
                }
            });
        }
        m.run();
        assert_eq!(m.read_word(winners), 1);
    }

    #[test]
    fn read_polling_wakes_on_write() {
        let m = Machine::new(Config::default().nodes(2));
        let flag = m.alloc_on(0, 1);
        let seen = m.alloc_on(1, 1);
        let c0 = m.cpu(0);
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            let v = c1.poll_until(flag, |v| v != 0).await;
            c1.write(seen, v).await;
        });
        m.spawn(0, async move {
            c0.work(5_000).await;
            c0.write(flag, 42).await;
        });
        m.run();
        assert_eq!(m.read_word(seen), 42);
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    fn remote_miss_costs_more_than_hit() {
        // One read from far away vs. a re-read (hit).
        let m = Machine::new(Config::default().nodes(64));
        let a = m.alloc_on(0, 1);
        let cpu = m.cpu(63);
        let times = m.alloc_on(1, 2);
        m.spawn(63, async move {
            let t0 = cpu.now();
            cpu.read(a).await;
            let t1 = cpu.now();
            cpu.read(a).await;
            let t2 = cpu.now();
            cpu.write(times, t1 - t0).await;
            cpu.write(times.plus(1), t2 - t1).await;
        });
        m.run();
        let miss = m.read_word(times);
        let hit = m.read_word(times.plus(1));
        assert!(miss >= 30, "remote miss only {miss} cycles");
        assert!(hit <= 4, "cache hit took {hit} cycles");
    }

    #[test]
    fn striped_allocation_matches_successive_alloc_on() {
        const NODES: usize = 3;
        for words in [1, 4, 5] {
            for n in [0, 1, NODES, 3 * NODES + 1] {
                let (a, b) = (
                    Machine::new(Config::default().nodes(NODES)),
                    Machine::new(Config::default().nodes(NODES)),
                );
                // Something allocated before, so the batch starts mid-arena.
                assert_eq!(a.alloc_on(1, 3), b.alloc_on(1, 3));
                let (first, stride) = a.alloc_striped(n, words);
                for i in 0..n {
                    let want = b.alloc_on(i % NODES, words);
                    assert_eq!(first.plus(i as u64 * stride), want, "n={n} w={words} i={i}");
                }
                assert_eq!(a.alloc_on(2, 1), b.alloc_on(2, 1), "n={n} w={words}");
                let (sa, sb) = (a.st.borrow(), b.st.borrow());
                assert_eq!(sa.line_home, sb.line_home, "n={n} w={words}");
                assert_eq!(sa.next_word, sb.next_word);
                assert_eq!(sa.mem.len(), sb.mem.len());
                assert_eq!(sa.line_ver.len(), sb.line_ver.len());
                assert_eq!(sa.dir.len(), sb.dir.len());
            }
        }
    }

    #[test]
    fn striped_allocation_grows_each_arena_once_and_exactly() {
        let m = Machine::new(Config::default().nodes(4));
        m.alloc_striped(1_000, 5);
        let st = m.st.borrow();
        let lines = 2 * 1_000;
        assert_eq!(st.line_home.capacity(), lines);
        assert_eq!(st.line_ver.capacity(), lines);
        assert_eq!(st.dir.capacity(), lines);
        assert_eq!(st.watchers.capacity(), lines);
        assert_eq!(st.mem.capacity(), 4 * lines);
        assert_eq!(st.full_bits.capacity(), (4 * lines).div_ceil(64));
        // A line at rest pays only for its arena slots: no sharer spills
        // over its inline pointers and nobody watches it.
        assert_eq!(st.dir_spill.slots.capacity(), 0);
        assert_eq!(st.watch_nodes.nodes.capacity(), 0);
    }

    #[test]
    fn wait_queue_batch_has_consecutive_ids() {
        let m = Machine::new(Config::default().nodes(2));
        let before = m.new_wait_queue();
        let first = m.new_wait_queues(5);
        assert_eq!(first, before.offset(1));
        let after = m.new_wait_queue();
        assert_eq!(after, first.offset(5));
        assert_eq!(m.new_wait_queues(0), after.offset(1));
        assert_eq!(m.new_wait_queue(), after.offset(1));
        assert_eq!(m.st.borrow().wait_queues.len(), 8);
    }

    #[test]
    fn blocking_and_signalling_threads() {
        let m = Machine::new(Config::default().nodes(2));
        let q = m.new_wait_queue();
        let done = m.alloc_on(0, 1);
        let c0 = m.cpu(0);
        let c1 = m.cpu(1);
        m.spawn(0, async move {
            c0.block_on(q).await;
            c0.write(done, 1).await;
        });
        m.spawn(1, async move {
            c1.work(2_000).await;
            assert!(c1.signal_one(q).await);
        });
        let elapsed = m.run();
        assert_eq!(m.read_word(done), 1);
        assert_eq!(m.live_tasks(), 0);
        // Block + signal + reload should land past the signal time.
        assert!(elapsed >= 2_000);
    }

    #[test]
    fn two_threads_share_one_processor_nonpreemptively() {
        let m = Machine::new(Config::default().nodes(1));
        let a = m.alloc_on(0, 2);
        let c0 = m.cpu(0);
        let c1 = m.cpu(0);
        m.spawn(0, async move {
            c0.work(100).await;
            c0.write(a, c0.now()).await;
            c0.yield_now().await;
            c0.work(100).await;
        });
        m.spawn(0, async move {
            c1.write(a.plus(1), c1.now()).await;
        });
        m.run();
        let first = m.read_word(a);
        let second = m.read_word(a.plus(1));
        // Thread 2 only ran after thread 1 yielded.
        assert!(second > first, "t2 at {second} should follow t1 at {first}");
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    fn rpc_round_trip() {
        let m = Machine::new(Config::default().nodes(4));
        m.register_handler(2, Port(7), |ctx, args| {
            let tok = ctx.token();
            ctx.reply_to(tok, args[0] * 2);
        });
        let out = m.alloc_on(0, 1);
        let cpu = m.cpu(0);
        m.spawn(0, async move {
            let r = cpu.rpc(2, Port(7), [21, 0, 0, 0]).await;
            cpu.write(out, r).await;
        });
        m.run();
        assert_eq!(m.read_word(out), 42);
    }

    #[test]
    fn bounded_run_then_more_scheduling() {
        // A bounded run that stops short of a far-future event must not
        // advance the event queue's window past the limit: scheduling
        // new work afterwards (at a now <= limit) has to stay legal and
        // keep total event order intact.
        let m = Machine::new(Config::default().nodes(2));
        let cpu = m.cpu(0);
        m.spawn(0, async move {
            cpu.work(10_000).await;
        });
        let reached = m.run_until(500);
        assert!(reached <= 500);
        let flag = m.alloc_on(1, 1);
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            c1.work(5).await;
            c1.write(flag, 1).await;
        });
        m.run();
        assert_eq!(m.read_word(flag), 1);
        assert_eq!(m.live_tasks(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let m = Machine::new(Config::default().nodes(8).seed(99));
            let a = m.alloc_on(0, 1);
            for p in 0..8 {
                let cpu = m.cpu(p);
                m.spawn(p, async move {
                    for _ in 0..20 {
                        cpu.fetch_and_add(a, 1).await;
                        cpu.work(cpu.rand_below(100)).await;
                    }
                });
            }
            let t = m.run();
            (t, m.stats().net_msgs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn dropping_a_machine_frees_its_state() {
        let m = Machine::new(Config::default().nodes(2));
        let (c0, c1, c2) = (m.cpu(0), m.cpu(1), m.cpu(1));
        m.spawn(0, async move { c0.work(10).await });
        m.register_handler(1, Port(3), move |_, _| assert_eq!(c1.node(), 1));
        m.on_recovery(1, move || {
            let c = c2.clone();
            Box::pin(async move { c.work(1).await })
        });
        let st = Rc::downgrade(&m.st);
        drop(m);
        assert!(st.upgrade().is_none(), "the state outlived its machine");
    }

    #[test]
    #[should_panic(expected = "at most 32767 nodes")]
    fn a_node_count_past_the_directory_pointers_is_refused() {
        assert_eq!(coherence::MAX_NODES, 32767);
        Machine::new(Config::default().nodes(coherence::MAX_NODES + 1));
    }

    #[test]
    fn limitless_traps_fire_beyond_hw_pointers() {
        // LimitLESS traps taken when `readers` distinct nodes of a
        // 16-node machine read one line homed on node 0.
        let traps = |readers: &[usize], full_map: bool| {
            let m = Machine::new(Config::default().nodes(16).full_map(full_map));
            let a = m.alloc_on(0, 1);
            for &p in readers {
                let cpu = m.cpu(p);
                m.spawn(p, async move {
                    cpu.read(a).await;
                });
            }
            m.run();
            m.stats().limitless_traps
        };
        for first in [0, 1] {
            let readers = |n: usize| (first..first + n).collect::<Vec<_>>();
            assert_eq!(traps(&readers(HW_PTRS), false), 0);
            assert_eq!(traps(&readers(HW_PTRS + 1), false), 1);
            assert_eq!(traps(&readers(HW_PTRS + 2), false), 2);
        }
        assert_eq!(traps(&(0..16).collect::<Vec<_>>(), true), 0);
    }

    #[test]
    fn invalidation_fan_out_scales_with_sharers() {
        // Writing a line cached by k readers should take longer as k grows.
        let time_release = |k: usize| {
            let m = Machine::new(Config::default().nodes(33));
            let a = m.alloc_on(0, 1);
            let ready = m.alloc_on(1, 1);
            for p in 1..=k {
                let cpu = m.cpu(p);
                m.spawn(p, async move {
                    cpu.read(a).await;
                    cpu.fetch_and_add(ready, 1).await;
                    // Keep the copy cached; do nothing else.
                });
            }
            let cpu = m.cpu(32);
            let out = m.alloc_on(2, 1);
            let kk = k as u64;
            m.spawn(32, async move {
                cpu.poll_until(ready, move |v| v == kk).await;
                let t0 = cpu.now();
                cpu.write(a, 1).await;
                let t1 = cpu.now();
                cpu.write(out, t1 - t0).await;
            });
            m.run();
            m.read_word(out)
        };
        let t2 = time_release(2);
        let t16 = time_release(16);
        assert!(
            t16 > t2 + 20,
            "16-sharer inval ({t16}) not costlier than 2-sharer ({t2})"
        );
    }
}
