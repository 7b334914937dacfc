//! Passive spin-lock protocols (§3.1.1).
//!
//! Three protocols with the contention-dependent tradeoff of Figure 1.1:
//!
//! * [`TestAndSetLock`] — polls with `test&set` (every poll is a
//!   write-intent coherence transaction) plus randomized exponential
//!   backoff.
//! * [`TtsLock`] — test-and-test-and-set: waits by *read*-polling a
//!   cached copy, so no traffic while the lock is held, but a release
//!   triggers an invalidate-and-refetch storm that serializes at the home
//!   directory (the reason it does not scale, §3.1.3).
//! * [`McsLock`] — the Mellor-Crummey & Scott queue lock in the
//!   `fetch&store`-only variant (Alewife had no `compare&swap`), with the
//!   usurper race handling of Figure 3.28. Each waiter spins on a flag in
//!   its own queue node, so a release invalidates exactly one cache.
//!
//! [`TtsLock`] and [`McsLock`] double as the reactive algorithms'
//! consensus objects (§3.2.5): an *invalid* sub-lock is one left busy —
//! the TTS flag held `BUSY`, the queue tail holding [`INVALID_PTR`] — so
//! `reactive-core` holds these two types and adds no protocol code.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Addr, Cpu, Machine};

/// Lock word value: free.
pub const FREE: u64 = 0;
/// Lock word value: held.
pub const BUSY: u64 = 1;

/// Queue-node status: waiting for a predecessor's signal.
const WAITING: u64 = 0;
/// Queue-node status: lock granted.
pub const GO: u64 = 1;
/// Queue-node status: the queue protocol was invalidated — retry with
/// the other protocol (used by the reactive lock, §3.7.3).
pub const INVALID_STATUS: u64 = 2;

/// Tail-pointer encoding: empty queue.
pub const NIL: u64 = 0;
/// Tail-pointer encoding: the queue lock is invalid (reactive lock).
pub const INVALID_PTR: u64 = 1;

/// Encode a queue-node address into a tail/next pointer word.
pub fn enc(a: Addr) -> u64 {
    a.0 + 2
}

/// Decode a tail/next pointer word into a queue-node address.
///
/// # Panics
/// Panics if the word is `NIL` or `INVALID_PTR`.
pub fn dec(v: u64) -> Addr {
    assert!(v >= 2, "dec: not a queue-node pointer: {v}");
    Addr(v - 2)
}

/// A mutual-exclusion lock protocol on the simulated machine.
///
/// `Token` carries per-acquisition state (e.g. the MCS queue node) from
/// [`Lock::acquire`] to [`Lock::release`].
pub trait Lock: Clone + 'static {
    /// Per-acquisition state passed from acquire to release.
    type Token;

    /// Acquire the lock, waiting as the protocol prescribes.
    fn acquire(&self, cpu: &Cpu) -> impl std::future::Future<Output = Self::Token>;

    /// Release the lock.
    fn release(&self, cpu: &Cpu, t: Self::Token) -> impl std::future::Future<Output = ()>;
}

/// Randomized exponential backoff state (Anderson, §3.1.1).
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    delay: u64,
    max: u64,
}

impl Backoff {
    /// Start with `initial` mean delay, capped at `max`.
    pub fn new(initial: u64, max: u64) -> Backoff {
        Backoff {
            delay: initial.max(1),
            max: max.max(1),
        }
    }

    /// Wait a random interval and double the mean (up to the cap).
    pub async fn pause(&mut self, cpu: &Cpu) {
        let d = cpu.rand_below(self.delay) + 1;
        cpu.work(d).await;
        self.delay = (self.delay * 2).min(self.max);
    }
}

/// Default initial mean backoff delay in cycles.
pub const INITIAL_DELAY: u64 = 16;

/// Default backoff cap for `max_procs` potential contenders; the paper
/// sizes the cap "to accommodate the maximum possible number of
/// contending processors".
pub fn backoff_cap(max_procs: usize) -> u64 {
    64 * (max_procs as u64).max(1)
}

// ---------------------------------------------------------------------
// test&set lock
// ---------------------------------------------------------------------

/// Test-and-set spin lock with randomized exponential backoff.
#[derive(Clone, Debug)]
pub struct TestAndSetLock {
    flag: Addr,
    max_delay: u64,
}

impl TestAndSetLock {
    /// Create a lock homed on `home`, with backoff sized for `max_procs`.
    pub fn new(m: &Machine, home: usize, max_procs: usize) -> TestAndSetLock {
        TestAndSetLock {
            flag: m.alloc_on(home, 1),
            max_delay: backoff_cap(max_procs),
        }
    }

    /// The lock word (the protocol's consensus object).
    pub fn flag(&self) -> Addr {
        self.flag
    }
}

impl Lock for TestAndSetLock {
    type Token = ();

    async fn acquire(&self, cpu: &Cpu) {
        let mut b = Backoff::new(INITIAL_DELAY, self.max_delay);
        loop {
            if cpu.test_and_set(self.flag).await == FREE {
                return;
            }
            b.pause(cpu).await;
        }
    }

    async fn release(&self, cpu: &Cpu, _t: ()) {
        cpu.write(self.flag, FREE).await;
    }
}

// ---------------------------------------------------------------------
// test-and-test-and-set lock
// ---------------------------------------------------------------------

/// Test-and-test-and-set spin lock with randomized exponential backoff:
/// waits by read-polling the (cached) lock word, attempting `test&set`
/// only when it observes the lock free.
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

    /// The lock word (the protocol's consensus object). An *invalid*
    /// TTS sub-lock is simply one left `BUSY` (§3.2.5).
    pub fn flag(&self) -> Addr {
        self.flag
    }

    /// Figure 3.28's `acquire_tts`: acquire while the mode hint at
    /// `mode` still reads `valid`. `Some(failed test&sets)` on a win
    /// (the contention estimate of §3.3.1), `None` once the hint
    /// changes.
    pub async fn acquire_while(&self, cpu: &Cpu, mode: Addr, valid: u64) -> Option<u64> {
        let mut b = Backoff::new(INITIAL_DELAY, self.max_delay);
        let mut failures = 0;
        loop {
            if cpu.read(self.flag).await == FREE {
                if cpu.test_and_set(self.flag).await == FREE {
                    return Some(failures);
                }
                failures += 1;
                b.pause(cpu).await;
            } else {
                // Read-poll the (cached) flag, but wake periodically to
                // re-check the hint: an invalid flag stays BUSY forever
                // and would otherwise spin us indefinitely.
                let deadline = cpu.now() + 400;
                cpu.poll_until_deadline(self.flag, |v| v == FREE, deadline)
                    .await;
            }
            if cpu.read(mode).await != valid {
                return None;
            }
        }
    }
}

impl Lock for TtsLock {
    type Token = ();

    async fn acquire(&self, cpu: &Cpu) {
        let mut b = Backoff::new(INITIAL_DELAY, self.max_delay);
        loop {
            // Read-poll the cached copy until the lock looks free.
            cpu.poll_until(self.flag, |v| v == FREE).await;
            if cpu.test_and_set(self.flag).await == FREE {
                return;
            }
            b.pause(cpu).await;
        }
    }

    async fn release(&self, cpu: &Cpu, _t: ()) {
        cpu.write(self.flag, FREE).await;
    }
}

// ---------------------------------------------------------------------
// MCS queue lock
// ---------------------------------------------------------------------

/// The MCS list-based queue lock (Figure 3.1), `fetch&store`-only
/// variant. Queue nodes are pooled per requesting node so waiters spin
/// on flags homed at their own processor.
#[derive(Clone)]
pub struct McsLock {
    tail: Addr,
    pool: Rc<RefCell<Vec<Vec<Addr>>>>,
}

impl std::fmt::Debug for McsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsLock").field("tail", &self.tail).finish()
    }
}

/// Queue-node field offsets: `next` pointer then `status` flag.
const QN_NEXT: u64 = 0;
const QN_STATUS: u64 = 1;

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

    /// The tail pointer word (the protocol's consensus object). An
    /// *invalid* queue sub-lock is one whose tail holds `INVALID_PTR`
    /// (§3.2.5).
    pub fn tail(&self) -> Addr {
        self.tail
    }

    /// Take a queue node homed at `cpu`'s node from the pool (allocating
    /// one if none is free).
    pub fn take_qnode(&self, cpu: &Cpu) -> Addr {
        let mut pool = self.pool.borrow_mut();
        match pool[cpu.node()].pop() {
            Some(a) => a,
            None => cpu.alloc_on(cpu.node(), 2),
        }
    }

    fn put_qnode(&self, cpu: &Cpu, q: Addr) {
        self.pool.borrow_mut()[cpu.node()].push(q);
    }

    /// Take a queue node and clear its `next` pointer, ready for
    /// [`McsLock::swap_tail`].
    pub async fn prepare_qnode(&self, cpu: &Cpu) -> Addr {
        let q = self.take_qnode(cpu);
        cpu.write(q.plus(QN_NEXT), NIL).await;
        q
    }

    /// Swap `q` into the tail; returns the predecessor word: `NIL` (lock
    /// acquired), `INVALID_PTR` (the queue is invalid — the caller owes
    /// an [`McsLock::invalidate_from`]), or a node to
    /// [`McsLock::chain`] behind.
    pub async fn swap_tail(&self, cpu: &Cpu, q: Addr) -> u64 {
        cpu.fetch_and_store(self.tail, enc(q)).await
    }

    /// Link `q` behind the predecessor `pred` returned by
    /// [`McsLock::swap_tail`].
    pub async fn chain(&self, cpu: &Cpu, q: Addr, pred: u64) {
        cpu.write(q.plus(QN_STATUS), WAITING).await;
        cpu.write(dec(pred).plus(QN_NEXT), enc(q)).await;
    }

    /// Spin on `q`'s own status flag until signalled. `true`: `GO`, the
    /// lock is held via `q`. `false`: `INVALID_STATUS`, the queue was
    /// switched away while we waited; `q` is back in the pool.
    pub async fn wait_granted(&self, cpu: &Cpu, q: Addr) -> bool {
        let status = cpu.poll_until(q.plus(QN_STATUS), |v| v != WAITING).await;
        if status == GO {
            return true;
        }
        debug_assert_eq!(status, INVALID_STATUS);
        self.put_qnode(cpu, q);
        false
    }

    /// Release given the holder's queue node, handling the usurper race
    /// of the `fetch&store`-only variant (Figure 3.28). Returns the
    /// queue node to the pool.
    pub async fn release_qnode(&self, cpu: &Cpu, q: Addr) {
        let next = cpu.read(q.plus(QN_NEXT)).await;
        if next == NIL {
            // No known successor: try to empty the queue.
            let old_tail = cpu.fetch_and_store(self.tail, NIL).await;
            if old_tail == enc(q) {
                self.put_qnode(cpu, q);
                return; // really had no successor
            }
            // Someone was enqueueing: restore the tail and find them.
            let usurper = cpu.fetch_and_store(self.tail, old_tail).await;
            let next = cpu.poll_until(q.plus(QN_NEXT), |v| v != NIL).await;
            if usurper != NIL {
                // A process enqueued while the queue looked empty; splice
                // our successor chain behind it.
                cpu.write(dec(usurper).plus(QN_NEXT), next).await;
            } else {
                cpu.write(dec(next).plus(QN_STATUS), GO).await;
            }
        } else {
            cpu.write(dec(next).plus(QN_STATUS), GO).await;
        }
        self.put_qnode(cpu, q);
    }

    /// Figure 3.29's `acquire_invalid_queue`: install `q` as the head of
    /// the (currently invalid) queue, making it valid-and-held. Retries
    /// if stale-mode racers piled onto the queue first.
    pub async fn acquire_invalid(&self, cpu: &Cpu, q: Addr) {
        loop {
            cpu.write(q.plus(QN_NEXT), NIL).await;
            let pred = self.swap_tail(cpu, q).await;
            if pred == INVALID_PTR {
                return;
            }
            // Landed behind a racer on an invalid queue: wait for its
            // INVALID signal to ripple to us, then retry.
            self.chain(cpu, q, pred).await;
            cpu.poll_until(q.plus(QN_STATUS), |v| v != WAITING).await;
        }
    }

    /// Figure 3.29's `invalidate_queue`: swap the tail to `INVALID_PTR`
    /// and walk from `head` (the caller's node) to the old tail,
    /// signalling every waiter to retry. Returns `head` to the pool.
    pub async fn invalidate_from(&self, cpu: &Cpu, head: Addr) {
        let tail = cpu.fetch_and_store(self.tail, INVALID_PTR).await;
        let mut q = head;
        while enc(q) != tail {
            let next = cpu.poll_until(q.plus(QN_NEXT), |v| v != NIL).await;
            cpu.write(q.plus(QN_STATUS), INVALID_STATUS).await;
            q = dec(next);
        }
        cpu.write(q.plus(QN_STATUS), INVALID_STATUS).await;
        self.put_qnode(cpu, head);
    }
}

impl Lock for McsLock {
    type Token = Addr;

    async fn acquire(&self, cpu: &Cpu) -> Addr {
        let q = self.prepare_qnode(cpu).await;
        let pred = self.swap_tail(cpu, q).await;
        if pred != NIL {
            self.chain(cpu, q, pred).await;
            let granted = self.wait_granted(cpu, q).await;
            debug_assert!(granted, "a plain MCS queue is never invalidated");
        }
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
    use std::cell::Cell;

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
    fn test_and_set_mutual_exclusion() {
        let (v, _) = hammer(|m| TestAndSetLock::new(m, 0, 8), 8, 25);
        assert_eq!(v, 200);
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
        // With heavy contention, grants should follow enqueue order.
        let m = Machine::new(Config::default().nodes(8));
        let lock = McsLock::new(&m, 0);
        let order = m.alloc_on(1, 8);
        let next_slot = m.alloc_on(2, 1);
        let started = Rc::new(Cell::new(0u32));
        for p in 0..8 {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            let started = started.clone();
            m.spawn(p, async move {
                // Stagger arrivals deterministically by node id.
                cpu.work(500 * p as u64).await;
                started.set(started.get() + 1);
                let t = lock.acquire(&cpu).await;
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
    }

    #[test]
    fn acquire_while_gives_up_when_the_hint_flips() {
        let m = Machine::new(Config::default().nodes(2));
        let (tts, mode) = (TtsLock::new(&m, 0, 2), m.alloc_on(0, 1));
        m.write_word(tts.flag(), BUSY); // an invalid sub-lock: pinned busy
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
                let q = lock.prepare_qnode(&cpu).await;
                let pred = lock.swap_tail(&cpu, q).await;
                if pred == NIL {
                    cpu.work(3_000).await; // let the other three chain up
                    lock.invalidate_from(&cpu, q).await;
                } else {
                    lock.chain(&cpu, q, pred).await;
                    assert!(!lock.wait_granted(&cpu, q).await, "waiter {p} got GO");
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
            let q = stale.prepare_qnode(&cpu).await;
            assert_eq!(stale.swap_tail(&cpu, q).await, INVALID_PTR);
            stale.invalidate_from(&cpu, q).await;
        });
        let head = Rc::new(Cell::new(Addr(0)));
        let (cpu, switcher, out) = (m.cpu(2), lock.clone(), head.clone());
        m.spawn(2, async move {
            let q = switcher.take_qnode(&cpu);
            switcher.acquire_invalid(&cpu, q).await;
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

    #[test]
    fn pointer_encoding_round_trips() {
        for a in [0u64, 1, 5, 1000] {
            assert_eq!(dec(enc(Addr(a))), Addr(a));
        }
        assert_ne!(enc(Addr(0)), NIL);
        assert_ne!(enc(Addr(0)), INVALID_PTR);
    }
}
