//! The shared TTS and MCS locks ([`reactive_api::spin`]) on the
//! simulated machine: `SimMem` is their [`Memory`] on a [`Cpu`], and
//! [`TtsLock`]/[`McsLock`] — the static arms of every experiment and the
//! reactive objects' sub-locks — hold the words.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};
use reactive_api::lock::Tuning;
use reactive_api::spin::{self, Backoff, Memory, Ordering};
use sync_protocols::spin::{backoff_cap, dec, enc, Lock, INITIAL_DELAY};

/// Free queue nodes per requesting node, each homed on that node.
type NodePool = RefCell<Vec<Vec<Addr>>>;

/// Queue-node field offsets: `next` pointer then `status` flag.
const QN_NEXT: u64 = 0;
const QN_STATUS: u64 = 1;

/// The spin locks' [`Memory`] on one simulated processor: each operation
/// is its coherence transaction, the backoff step a random stretch of
/// work, and queue nodes come from a per-lock pool homed on the
/// requester. Orderings are ignored (the memory is sequentially
/// consistent).
pub(crate) struct SimMem<'a> {
    cpu: &'a Cpu,
    /// `None` for the TTS lock, which takes no queue nodes.
    pool: Option<&'a NodePool>,
}

impl Memory for SimMem<'_> {
    type Word = Addr;
    type Node = Addr;

    fn load(&self, w: Addr, _: Ordering) -> impl Future<Output = u64> {
        self.cpu.read(w)
    }

    fn store(&self, w: Addr, v: u64, _: Ordering) -> impl Future<Output = ()> {
        self.cpu.write(w, v)
    }

    fn swap(&self, w: Addr, v: u64, _: Ordering) -> impl Future<Output = u64> {
        self.cpu.fetch_and_store(w, v)
    }

    fn test_and_set(&self, w: Addr, _: Ordering) -> impl Future<Output = u64> {
        self.cpu.test_and_set(w)
    }

    fn poll_until(
        &self,
        w: Addr,
        pred: impl Fn(u64) -> bool + Unpin + 'static,
        deadline: u64,
        _: Ordering,
    ) -> impl Future<Output = Option<u64>> {
        self.cpu.poll_until_deadline(w, pred, deadline)
    }

    fn pause(&self, delay: u64) -> impl Future<Output = ()> {
        self.cpu.work(self.cpu.rand_below(delay) + 1)
    }

    fn take_node(&self) -> Addr {
        let node = self.cpu.node();
        let free = self.pool.and_then(|p| p.borrow_mut()[node].pop());
        free.unwrap_or_else(|| self.cpu.alloc_on(node, 2))
    }

    fn put_node(&self, q: Addr) {
        let pool = self.pool.expect("a TTS lock takes no queue nodes");
        pool.borrow_mut()[self.cpu.node()].push(q);
    }

    fn next(q: Addr) -> Addr {
        q.plus(QN_NEXT)
    }

    fn status(q: Addr) -> Addr {
        q.plus(QN_STATUS)
    }

    fn enc(q: Addr) -> u64 {
        enc(q)
    }

    fn dec(v: u64) -> Addr {
        dec(v)
    }

    fn now(&self) -> u64 {
        self.cpu.now()
    }

    fn note(&self, event: &'static str) {
        self.cpu.bump(event, 1);
    }
}

/// Test-and-test-and-set spin lock with randomized exponential backoff.
/// A release triggers an invalidate-and-refetch storm that serializes at
/// the home directory (why it does not scale, §3.1.3).
#[derive(Clone, Debug)]
pub struct TtsLock {
    flag: Addr,
    max_delay: u64,
}

impl TtsLock {
    /// Create a lock homed on `home`, with backoff sized for `max_procs`.
    pub fn new(m: &Machine, home: usize, max_procs: usize) -> TtsLock {
        TtsLock::over(m.alloc_on(home, 1), max_procs)
    }

    /// Build a TTS lock over an existing lock word (the reactive
    /// objects keep `[tts_flag, queue_tail]` on one line).
    pub fn over(flag: Addr, max_procs: usize) -> TtsLock {
        TtsLock {
            flag,
            max_delay: backoff_cap(max_procs),
        }
    }

    /// The lock word (the consensus object; invalid = left `BUSY`).
    pub fn flag(&self) -> Addr {
        self.flag
    }

    /// A fresh backoff for one acquisition.
    pub(crate) fn backoff(&self) -> Backoff {
        Backoff::new(INITIAL_DELAY, self.max_delay)
    }

    /// [`spin::tts_acquire_while`] the hint at `mode` reads `valid`.
    pub async fn acquire_while(&self, cpu: &Cpu, mode: Addr, valid: u64) -> Option<u64> {
        let (m, window) = (SimMem { cpu, pool: None }, Tuning::SIMULATOR.poll_window);
        spin::tts_acquire_while(&m, self.flag, mode, valid, self.backoff(), window).await
    }
}

impl Lock for TtsLock {
    type Token = ();

    async fn acquire(&self, cpu: &Cpu) {
        spin::tts_acquire(&SimMem { cpu, pool: None }, self.flag, self.backoff()).await
    }

    async fn release(&self, cpu: &Cpu, _t: ()) {
        spin::tts_release(&SimMem { cpu, pool: None }, self.flag).await
    }
}

/// The MCS queue lock (Figure 3.1), `fetch&store`-only variant: each
/// waiter spins on a flag in its own node, so a release invalidates
/// exactly one cache.
#[derive(Clone, Debug)]
pub struct McsLock {
    tail: Addr,
    pool: Rc<NodePool>,
}

impl McsLock {
    /// Create a queue lock whose tail pointer is homed on `home`.
    pub fn new(m: &Machine, home: usize) -> McsLock {
        McsLock::over(m, m.alloc_on(home, 1))
    }

    /// Build a queue lock over an existing tail word (the reactive
    /// objects keep `[tts_flag, queue_tail]` on one line).
    pub fn over(m: &Machine, tail: Addr) -> McsLock {
        McsLock {
            tail,
            pool: Rc::new(RefCell::new(vec![Vec::new(); m.nodes()])),
        }
    }

    /// The tail word (the consensus object; invalid = `INVALID_PTR`).
    pub fn tail(&self) -> Addr {
        self.tail
    }

    /// Memory as `cpu` sees it, with this lock's node pool.
    pub(crate) fn mem<'a>(&'a self, cpu: &'a Cpu) -> SimMem<'a> {
        SimMem {
            cpu,
            pool: Some(&self.pool),
        }
    }

    /// [`spin::mcs_release`], then return `q` to the pool.
    pub async fn release_qnode(&self, cpu: &Cpu, q: Addr) {
        let m = self.mem(cpu);
        spin::mcs_release(&m, self.tail, q).await;
        m.put_node(q);
    }
}

impl Lock for McsLock {
    type Token = Addr;

    async fn acquire(&self, cpu: &Cpu) -> Addr {
        let m = self.mem(cpu);
        let q = m.take_node();
        spin::mcs_acquire(&m, self.tail, q).await;
        q
    }

    async fn release(&self, cpu: &Cpu, q: Addr) {
        self.release_qnode(cpu, q).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::Config;
    use reactive_api::oracle::{check_bounded_bypass, lock_event, LockOpKind};
    use reactive_api::spin::{INVALID_PTR, INVALID_STATUS, NIL};
    use std::cell::Cell;
    use sync_protocols::spin::TestAndSetLock;

    /// Run `procs` processors doing `iters` lock/unlock pairs around a
    /// non-atomic read-modify-write; returns (final counter, elapsed).
    fn hammer<L: Lock>(mk: impl Fn(&Machine) -> L, procs: usize, iters: u64) -> (u64, u64) {
        let m = Machine::new(Config::default().nodes(procs.max(2)));
        let lock = mk(&m);
        let shared = m.alloc_on(0, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let t = lock.acquire(&cpu).await;
                    // Non-atomic increment: only safe under mutual
                    // exclusion, so lost updates expose broken locks.
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        let t = m.run();
        assert_eq!(m.live_tasks(), 0, "deadlock: tasks still blocked");
        (m.read_word(shared), t)
    }

    #[test]
    fn tts_mutual_exclusion() {
        let (v, _) = hammer(|m| TtsLock::new(m, 0, 8), 8, 25);
        assert_eq!(v, 200);
    }

    #[test]
    fn mcs_mutual_exclusion() {
        let (v, _) = hammer(|m| McsLock::new(m, 0), 8, 25);
        assert_eq!(v, 200);
    }

    #[test]
    fn mcs_single_proc_repeated() {
        let (v, _) = hammer(|m| McsLock::new(m, 0), 1, 100);
        assert_eq!(v, 100);
    }

    #[test]
    fn mcs_two_procs_exercises_usurper_race() {
        // Two contenders maximize the empty-queue race window (§3.5.3).
        let (v, _) = hammer(|m| McsLock::new(m, 0), 2, 200);
        assert_eq!(v, 400);
    }

    #[test]
    fn mcs_is_fifo_under_load() {
        // With heavy contention, grants should follow enqueue order:
        // no waiter is ever overtaken (bounded waiting with bound 0).
        let m = Machine::new(Config::default().nodes(8));
        let lock = McsLock::new(&m, 0);
        let order = m.alloc_on(1, 8);
        let next_slot = m.alloc_on(2, 1);
        let events = Rc::new(RefCell::new(Vec::new()));
        for p in 0..8 {
            let (cpu, lock, events) = (m.cpu(p), lock.clone(), events.clone());
            m.spawn(p, async move {
                // Stagger arrivals deterministically by node id.
                cpu.work(500 * p as u64).await;
                let request = lock_event(cpu.now(), p, LockOpKind::Request);
                events.borrow_mut().push(request);
                let t = lock.acquire(&cpu).await;
                let grant = lock_event(cpu.now(), p, LockOpKind::Grant);
                events.borrow_mut().push(grant);
                cpu.work(2_000).await; // long critical section
                let slot = cpu.fetch_and_add(next_slot, 1).await;
                cpu.write(order.plus(slot), p as u64).await;
                lock.release(&cpu, t).await;
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0);
        let grants: Vec<u64> = (0..8).map(|i| m.read_word(order.plus(i))).collect();
        // Arrivals are 500 cycles apart; critical sections are 2000, so
        // all later arrivals queue while 0 holds the lock. FIFO order.
        assert_eq!(grants, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(check_bounded_bypass(&events.borrow(), 0), Ok(0));
    }

    #[test]
    fn acquire_while_gives_up_when_the_hint_flips() {
        let m = Machine::new(Config::default().nodes(2));
        let (tts, mode) = (TtsLock::new(&m, 0, 2), m.alloc_on(0, 1));
        m.write_word(tts.flag(), spin::BUSY); // an invalid sub-lock: pinned busy
        let won = Rc::new(Cell::new(Some(0)));
        let (cpu, out) = (m.cpu(0), won.clone());
        m.spawn(
            0,
            async move { out.set(tts.acquire_while(&cpu, mode, 0).await) },
        );
        let cpu = m.cpu(1);
        m.spawn(1, async move {
            cpu.work(2_000).await;
            cpu.write(mode, 1).await;
        });
        m.run();
        assert_eq!(m.live_tasks(), 0, "spun forever on an invalid flag");
        assert_eq!(won.get(), None);
    }

    #[test]
    fn invalidate_from_bounces_a_three_deep_chain() {
        let m = Machine::new(Config::default().nodes(4));
        let lock = McsLock::new(&m, 0);
        let bounced = Rc::new(Cell::new(0));
        for p in 0..4 {
            let (cpu, lock, bounced) = (m.cpu(p), lock.clone(), bounced.clone());
            m.spawn(p, async move {
                cpu.work(500 * p as u64).await;
                let m = lock.mem(&cpu);
                let q = m.take_node();
                spin::mcs_prepare(&m, q).await;
                let pred = spin::mcs_swap(&m, lock.tail(), q).await;
                if pred == NIL {
                    cpu.work(3_000).await; // let the other three chain up
                    spin::invalidate_from(&m, lock.tail(), q).await;
                } else {
                    spin::mcs_chain(&m, q, pred).await;
                    assert!(!spin::mcs_wait(&m, q).await, "waiter {p} got GO");
                    assert_eq!(cpu.read(q.plus(QN_STATUS)).await, INVALID_STATUS);
                    bounced.set(bounced.get() + 1);
                }
            });
        }
        m.run();
        assert_eq!(bounced.get(), 3, "a waiter was never signalled");
        assert_eq!(m.read_word(lock.tail()), INVALID_PTR);
    }

    #[test]
    fn acquire_invalid_racers_leave_one_head() {
        // Node 1 dispatched on a stale hint and swaps onto the invalid
        // queue; the switcher (node 2) lands behind it, is bounced by its
        // invalidation walk, and retries until it is the head.
        let m = Machine::new(Config::default().nodes(3));
        let lock = McsLock::new(&m, 0);
        m.write_word(lock.tail(), INVALID_PTR);
        let (cpu, stale) = (m.cpu(1), lock.clone());
        m.spawn(1, async move {
            let mem = stale.mem(&cpu);
            let q = mem.take_node();
            spin::mcs_prepare(&mem, q).await;
            assert_eq!(spin::mcs_swap(&mem, stale.tail(), q).await, INVALID_PTR);
            spin::invalidate_from(&mem, stale.tail(), q).await;
        });
        let head = Rc::new(Cell::new(Addr(0)));
        let (cpu, switcher, out) = (m.cpu(2), lock.clone(), head.clone());
        m.spawn(2, async move {
            let mem = switcher.mem(&cpu);
            let q = mem.take_node();
            spin::acquire_invalid(&mem, switcher.tail(), q).await;
            out.set(q);
        });
        m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(lock.tail()), enc(head.get()));
        let bounced_once = m.read_word(head.get().plus(QN_STATUS)) == INVALID_STATUS;
        assert!(bounced_once, "the switcher never raced the stale acquirer");
    }

    #[test]
    fn tts_cheaper_than_mcs_uncontended() {
        let (_, t_tts) = hammer(|m| TtsLock::new(m, 0, 1), 1, 200);
        let (_, t_mcs) = hammer(|m| McsLock::new(m, 0), 1, 200);
        assert!(
            t_tts < t_mcs,
            "TTS ({t_tts}) should beat MCS ({t_mcs}) without contention"
        );
    }

    #[test]
    fn mcs_beats_test_and_set_under_contention() {
        let (_, t_ts) = hammer(|m| TestAndSetLock::new(m, 0, 16), 16, 20);
        let (_, t_mcs) = hammer(|m| McsLock::new(m, 0), 16, 20);
        assert!(
            t_mcs < t_ts,
            "MCS ({t_mcs}) should beat test&set ({t_ts}) at 16 procs"
        );
    }
}
