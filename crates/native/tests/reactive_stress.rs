//! Native stress test: hammer [`ReactiveMutex`] from 8 threads while a
//! hostile policy forces protocol flips far more often than any sane
//! monitor would, and assert mutual exclusion and no lost wakeups
//! (every thread finishes every iteration). The [`SwitchLog`] sink
//! confirms the flips actually happened and were coherent.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use reactive_api::oracle::check_switch_history;
use reactive_native::api::{Decision, Observation, Policy, SwitchLog};
use reactive_native::reactive::{PROTO_QUEUE, PROTO_TTS};
use reactive_native::{ReactiveLock, ReactiveMutex};

/// "Always, with alternating signals": an [`reactive_native::api::Always`]-style
/// policy whose input is overridden to alternate — every `period`-th
/// observation is treated as a sub-optimality signal for the *other*
/// protocol, so the lock is forced to flip TTS ⇄ queue continuously
/// under load.
struct ForcedFlip {
    period: u64,
    seen: u64,
}

impl Policy for ForcedFlip {
    fn decide(&mut self, obs: &Observation) -> Decision {
        self.seen += 1;
        if self.seen.is_multiple_of(self.period) {
            let other = if obs.current == PROTO_TTS {
                PROTO_QUEUE
            } else {
                PROTO_TTS
            };
            Decision::SwitchTo(other)
        } else {
            Decision::Stay
        }
    }
}

#[test]
fn forced_flips_keep_mutual_exclusion_and_lose_no_wakeups() {
    let threads = 8u64;
    let iters = 10_000u64;
    let log = Arc::new(SwitchLog::new());
    let m = Arc::new(ReactiveMutex::with_lock(
        ReactiveLock::builder()
            .policy(ForcedFlip {
                period: 50,
                seen: 0,
            })
            .instrument(log.clone())
            .build(),
        0u64,
    ));

    let hs: Vec<_> = (0..threads)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..iters {
                    // Non-atomic read-modify-write: any mutual-exclusion
                    // violation shows up as a lost increment.
                    let mut g = m.lock();
                    let v = *g;
                    std::hint::spin_loop();
                    *g = v + 1;
                }
            })
        })
        .collect();
    // Joining every thread is the no-lost-wakeups check: a waiter
    // stranded on an invalidated sub-lock would hang the join.
    for h in hs {
        h.join().unwrap();
    }

    assert_eq!(
        *m.lock(),
        threads * iters,
        "lost updates under forced flips"
    );

    // The forced policy must have actually flipped protocols, and the
    // instrumentation stream must agree with the lock's own counter and
    // chain correctly (each change starts where the previous ended).
    let evs = log.events();
    assert_eq!(evs.len() as u64, m.switches());
    assert!(
        evs.len() as u64 >= threads * iters / 50 / 4,
        "policy was consulted per acquisition; expected many forced flips, got {}",
        evs.len()
    );
    check_switch_history(&evs, 2, PROTO_TTS).expect("switch chain broken");
}

#[test]
fn forced_flips_then_quiescence_leaves_a_usable_lock() {
    let log = Arc::new(SwitchLog::new());
    let m = Arc::new(ReactiveMutex::with_lock(
        ReactiveLock::builder()
            .policy(ForcedFlip { period: 3, seen: 0 })
            .instrument(log.clone())
            .build(),
        0u64,
    ));
    let hs: Vec<_> = (0..4)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    // After the storm, the lock must still work single-threaded (the
    // consensus invariant survived every forced change).
    for _ in 0..1_000 {
        *m.lock() += 1;
    }
    assert_eq!(*m.lock(), 4 * 2_000 + 1_000);
    assert!(
        log.count() > 0,
        "period-3 forcing must switch at least once"
    );
}

/// Pins a lock to the protocol it was built in, so every acquisition
/// below takes the queue path and carries a queue node in its `Held`.
struct Never;

impl Policy for Never {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}

fn queue_lock() -> ReactiveLock {
    ReactiveLock::builder()
        .initial_protocol(PROTO_QUEUE)
        .policy(Never)
        .build()
}

/// A split read-modify-write: loses an update unless the caller's lock
/// really excludes.
fn bump(counter: &AtomicU64) {
    // order: Relaxed — the lock under test orders the two halves.
    let v = counter.load(Ordering::Relaxed);
    std::hint::spin_loop();
    // order: Relaxed — see above.
    counter.store(v + 1, Ordering::Relaxed);
}

/// A `Held` acquired on one thread and released on another: the queue
/// node travels inside it and lands in the *releasing* thread's cache,
/// so the acquiring thread misses (and allocates) every time while a
/// third thread contends through the ordinary path.
#[test]
fn held_released_on_another_thread_keeps_the_queue_sound() {
    const ITERS: u64 = 5_000;
    let lock = Arc::new(queue_lock());
    let counter = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();

    let releaser = {
        let lock = lock.clone();
        std::thread::spawn(move || {
            for held in rx {
                lock.release(held);
            }
        })
    };
    let rival = {
        let (lock, counter) = (lock.clone(), counter.clone());
        std::thread::spawn(move || {
            for _ in 0..ITERS {
                let held = lock.acquire();
                bump(&counter);
                lock.release(held);
            }
        })
    };
    for _ in 0..ITERS {
        let held = lock.acquire();
        bump(&counter);
        tx.send(held).expect("releaser hung up");
    }
    drop(tx);
    rival.join().unwrap();
    releaser.join().unwrap();
    // order: Relaxed — all threads joined.
    assert_eq!(counter.load(Ordering::Relaxed), 2 * ITERS);
    assert_eq!(lock.current_protocol(), PROTO_QUEUE);
    assert_eq!(lock.switches(), 0);
}

/// Two queue-mode locks held at once: the inner acquisition finds the
/// one-slot node cache empty (the outer hold has the node) and falls
/// back to allocating; on the way out one of the two nodes is dropped.
#[test]
fn nested_queue_mode_holds_fall_back_to_allocation() {
    const THREADS: u64 = 4;
    const ITERS: u64 = 3_000;
    let locks = Arc::new((queue_lock(), queue_lock()));
    let counters = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let hs: Vec<_> = (0..THREADS)
        .map(|_| {
            let (locks, counters) = (locks.clone(), counters.clone());
            std::thread::spawn(move || {
                for _ in 0..ITERS {
                    // Same order everywhere, so nesting cannot deadlock.
                    let outer = locks.0.acquire();
                    bump(&counters.0);
                    let inner = locks.1.acquire();
                    bump(&counters.1);
                    locks.1.release(inner);
                    locks.0.release(outer);
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    // order: Relaxed — all threads joined.
    assert_eq!(counters.0.load(Ordering::Relaxed), THREADS * ITERS);
    // order: Relaxed — all threads joined.
    assert_eq!(counters.1.load(Ordering::Relaxed), THREADS * ITERS);
}
