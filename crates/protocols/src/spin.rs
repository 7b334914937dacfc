//! Passive spin-lock protocols (§3.1.1): the [`Lock`] trait every
//! simulated lock implements, randomized exponential [`Backoff`], and
//! the [`TestAndSetLock`] — it polls with `test&set`, so every poll is a
//! write-intent coherence transaction.
//!
//! The test-and-test-and-set and MCS queue locks, which complete the
//! contention tradeoff of Figure 1.1 and double as the reactive
//! algorithms' sub-locks, are written once for the simulator and host
//! hardware in `reactive_api::spin`; `reactive_core::spin` runs them
//! here. [`enc`]/[`dec`] are the simulator's queue-pointer encoding,
//! shared with the abortable queue lock.
//!
//! [`Backoff`], [`FREE`] and [`NIL`] repeat `reactive_api::spin`'s for
//! this crate's own locks, as it does not depend on `reactive-api`.

use alewife_sim::{Addr, Cpu, Machine};

/// Lock word value: free.
pub const FREE: u64 = 0;

/// Tail-pointer encoding: empty queue.
pub const NIL: u64 = 0;

/// Encode a queue-node address into a tail/next pointer word. Word 1
/// is left free for the reactive lock's `INVALID` sentinel
/// (`reactive_api::spin::INVALID_PTR`).
pub fn enc(a: Addr) -> u64 {
    a.0 + 2
}

/// Decode a tail/next pointer word into a queue-node address.
///
/// # Panics
/// Panics if the word is `NIL` or the `INVALID` sentinel.
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

#[cfg(test)]
mod tests {
    use super::*;
    use alewife_sim::Config;

    #[test]
    fn test_and_set_mutual_exclusion() {
        let m = Machine::new(Config::default().nodes(8));
        let lock = TestAndSetLock::new(&m, 0, 8);
        let shared = m.alloc_on(0, 1);
        for p in 0..8 {
            let (cpu, lock) = (m.cpu(p), lock.clone());
            m.spawn(p, async move {
                for _ in 0..25 {
                    lock.acquire(&cpu).await;
                    // Non-atomic increment: only safe under mutual
                    // exclusion, so lost updates expose a broken lock.
                    let v = cpu.read(shared).await;
                    cpu.work(10).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, ()).await;
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "deadlock: tasks still blocked");
        assert_eq!(m.read_word(shared), 200);
    }

    #[test]
    fn pointer_encoding_round_trips() {
        for a in [0u64, 1, 5, 1000] {
            assert_eq!(dec(enc(Addr(a))), Addr(a));
        }
        assert_ne!(enc(Addr(0)), NIL);
        assert_ne!(enc(Addr(0)), 1, "word 1 is the INVALID sentinel");
    }
}
