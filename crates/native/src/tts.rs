//! Test-and-test-and-set spin lock with randomized exponential backoff
//! (Anderson, §3.1.1) on host atomics: the shared
//! [`reactive_api::spin`] text over host atomics.

use reactive_api::drive;
use reactive_api::spin::{self, Backoff, Ordering, FREE};

use crate::host::Host;
use crate::sync::{AtomicU64, BACKOFF_INITIAL, BACKOFF_MAX};

/// Test-and-test-and-set spin lock with randomized exponential backoff.
///
/// Minimal uncontended latency (one load and one swap); melts down
/// under heavy contention — pair with [`crate::McsLock`] via
/// [`crate::ReactiveLock`].
#[derive(Debug, Default)]
pub struct TtsLock {
    flag: AtomicU64,
}

/// A fresh backoff for one acquisition.
pub(crate) fn backoff() -> Backoff {
    Backoff::new(BACKOFF_INITIAL, BACKOFF_MAX)
}

impl TtsLock {
    /// Create an unlocked lock.
    pub const fn new() -> TtsLock {
        TtsLock {
            flag: AtomicU64::new(FREE),
        }
    }

    /// Try once; `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        drive(spin::tts_try_acquire(&Host::default(), &self.flag))
    }

    /// Acquire, spinning with randomized exponential backoff.
    #[inline]
    pub fn lock(&self) {
        // The first attempt is inlined into callers; the wait is not.
        if !self.try_lock() {
            self.lock_contended();
        }
    }

    #[inline(never)]
    fn lock_contended(&self) {
        drive(spin::tts_acquire(&Host::default(), &self.flag, backoff()))
    }

    /// Release.
    ///
    /// # Panics
    /// Debug-asserts the lock was held (a hard assert under the model
    /// checker, so release-mode `conc-check` runs still catch a
    /// double-release — the signature of the double-commit race).
    #[inline]
    pub fn unlock(&self) {
        if cfg!(debug_assertions) || cfg!(feature = "model") {
            assert!(self.is_locked(), "unlock of unheld TtsLock");
        }
        drive(spin::tts_release(&Host::default(), &self.flag))
    }

    /// Whether the lock is currently held (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        // order: Relaxed — momentary snapshot, explicitly racy.
        self.flag.load(Ordering::Relaxed) != FREE
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
