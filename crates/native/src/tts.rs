//! Test-and-test-and-set spin lock with randomized exponential backoff
//! (Anderson, §3.1.1) on host atomics.

use std::cell::Cell;

use crate::sync::{spin_loop, thread, AtomicBool, Ordering, YIELD_MASK};

/// Per-thread xorshift for backoff jitter. Returns 0 under the model
/// checker: jittered spinning adds no interleavings (every shim access
/// is already a scheduling point) and would break deterministic replay.
fn jitter(bound: u32) -> u32 {
    if cfg!(feature = "model") {
        return 0;
    }
    thread_local! {
        // Seeded once, at a thread's first backoff step.
        static S: Cell<u64> = Cell::new(thread_seed());
    }
    S.with(|s| {
        let mut x = s.get();
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        s.set(x);
        if bound == 0 {
            0
        } else {
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as u32 % bound
        }
    })
}

/// A nonzero per-thread xorshift seed. `ThreadId` has no stable
/// integer accessor; hashing it is enough entropy for jitter.
fn thread_seed() -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    (h.finish() ^ 0x9E37_79B9_7F4A_7C15) | 1
}

/// Test-and-test-and-set spin lock with randomized exponential backoff.
///
/// Minimal uncontended latency (one compare-exchange); melts down under
/// heavy contention — pair with [`crate::McsLock`] via
/// [`crate::ReactiveLock`].
#[derive(Debug, Default)]
pub struct TtsLock {
    flag: AtomicBool,
}

/// Initial backoff spin iterations.
const INITIAL: u32 = crate::sync::BACKOFF_INITIAL;
/// Backoff cap.
const MAX: u32 = crate::sync::BACKOFF_MAX;

impl TtsLock {
    /// Create an unlocked lock.
    pub const fn new() -> TtsLock {
        TtsLock {
            flag: AtomicBool::new(false),
        }
    }

    /// Try once; `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // order: Relaxed — cheap "looks free?" probe; the CAS below is
        // the access that must synchronize.
        !self.flag.load(Ordering::Relaxed)
            && self
                .flag
                // order: Acquire on success pairs with the Release store
                // in `unlock`, making the previous holder's critical
                // section visible; a failed CAS publishes nothing, so
                // Relaxed.
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Acquire, spinning with randomized exponential backoff. Returns
    /// the number of failed attempts (the reactive lock's contention
    /// monitor).
    pub fn lock_counting(&self) -> u64 {
        let mut failures = 0u64;
        let mut delay = INITIAL;
        loop {
            if self.try_lock() {
                return failures;
            }
            failures += 1;
            for _ in 0..jitter(delay) {
                spin_loop();
            }
            // Under the model feature INITIAL/MAX are both 0, which makes
            // this `min` trivially true — harmless, keep the real shape.
            #[allow(clippy::unnecessary_min_or_max)]
            {
                delay = (delay * 2).min(MAX);
            }
            // Read-poll the cached flag; yield to the OS periodically so
            // oversubscribed hosts still make progress.
            let mut polls = 0u32;
            // order: Relaxed — wait until the flag *looks* free; the
            // acquiring CAS in `try_lock` provides the real edge.
            while self.flag.load(Ordering::Relaxed) {
                spin_loop();
                polls += 1;
                if polls.is_multiple_of(YIELD_MASK) {
                    thread::yield_now();
                }
            }
        }
    }

    /// Acquire.
    pub fn lock(&self) {
        self.lock_counting();
    }

    /// Release.
    ///
    /// # Panics
    /// Debug-asserts the lock was held (a hard assert under the model
    /// checker, so release-mode `conc-check` runs still catch a
    /// double-release — the signature of the double-commit race).
    pub fn unlock(&self) {
        if cfg!(debug_assertions) || cfg!(feature = "model") {
            assert!(
                // order: Relaxed — diagnostic read; we already hold the
                // lock, so no concurrent writer exists.
                self.flag.load(Ordering::Relaxed),
                "unlock of unheld TtsLock"
            );
        }
        // order: Release pairs with the Acquire CAS in `try_lock`,
        // publishing the critical section to the next holder.
        self.flag.store(false, Ordering::Release);
    }

    /// Whether the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        // order: Relaxed — momentary snapshot, explicitly racy.
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn uncontended_lock_unlock() {
        let l = TtsLock::new();
        assert!(!l.is_locked());
        l.lock();
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn mutual_exclusion_stress() {
        use std::sync::atomic::AtomicU64;
        let l = Arc::new(TtsLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let threads = 8;
        let iters = 3_000;
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                let l = l.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        l.lock();
                        // Split read/write: loses updates unless the
                        // lock really excludes.
                        // order: Relaxed — the lock orders these.
                        let v = c.load(Ordering::Relaxed);
                        // order: Relaxed — the lock orders these.
                        c.store(v + 1, Ordering::Relaxed);
                        l.unlock();
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
}
