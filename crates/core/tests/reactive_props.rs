//! Property-based tests of the reactive algorithms' core guarantees
//! under adversarial workload shapes: mutual exclusion and
//! linearizability must survive protocol changes at any point, and the
//! never-both-free invariant must hold at quiescence.

use proptest::prelude::*;
use reactive_core::lock::{ReactiveLock, ReleaseMode};
use reactive_core::policy::{Always, Competitive3, Hysteresis, Policy};
use reactive_core::ReactiveFetchOp;

use alewife_sim::{Config, Machine};
use reactive_api::spin::{FREE, INVALID_PTR, NIL};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Mutual exclusion with randomly chosen policies and *bursty*
    /// arrival patterns (idle gaps force protocol changes both ways).
    #[test]
    fn lock_excludes_under_bursts(
        procs in 2usize..14,
        burst in 2u64..10,
        gap in 0u64..4_000,
        policy_sel in 0usize..3,
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(procs).seed(seed));
        let policy: Box<dyn Policy> = match policy_sel {
            0 => Box::new(Always),
            1 => Box::new(Competitive3::new(8_800.0)),
            _ => Box::new(Hysteresis::new(4, 8)),
        };
        let lock = ReactiveLock::builder(&m, 0)
            .max_procs(procs)
            .policy(policy)
            .build();
        let shared = m.alloc_on(1, 1);
        let rounds = 3u64;
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..rounds {
                    for _ in 0..burst {
                        let t = lock.acquire(&cpu).await;
                        let v = cpu.read(shared).await;
                        cpu.work(10 + cpu.rand_below(60)).await;
                        cpu.write(shared, v + 1).await;
                        lock.release(&cpu, t).await;
                    }
                    // Idle gap: contention collapses, tempting a switch
                    // back to TTS (only proc 0 stays a little active).
                    if cpu.node() != 0 {
                        cpu.work(gap).await;
                    }
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0, "reactive lock deadlocked");
        prop_assert_eq!(m.read_word(shared), procs as u64 * rounds * burst);
    }

    /// At quiescence, exactly one sub-lock is available: either the TTS
    /// flag is FREE and the queue tail is INVALID, or the TTS flag is
    /// BUSY and the queue tail is a valid empty queue (the §3.3.1
    /// never-both-free invariant).
    #[test]
    fn never_both_free_at_quiescence(
        procs in 2usize..10,
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(procs).seed(seed));
        let lock = ReactiveLock::new(&m, 0, procs);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..12 {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(cpu.rand_below(80)).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(150)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0);
        // Inspect the raw lock words.
        let (tts_a, tail_a, _mode) = lock.inspect_words();
        let tts = m.read_word(tts_a);
        let tail = m.read_word(tail_a);
        let tts_mode_ok = tts == FREE && tail == INVALID_PTR;
        let queue_mode_ok = tts != FREE && tail == NIL;
        prop_assert!(
            tts_mode_ok || queue_mode_ok,
            "invariant broken: tts={} tail={}", tts, tail
        );
    }

    /// The reactive fetch-and-op stays a correct fetch-and-add through
    /// arbitrary contention ramps (rising then falling).
    #[test]
    fn fetch_op_correct_through_ramp(
        procs in 2usize..14,
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(procs).seed(seed));
        let f = ReactiveFetchOp::new(&m, 0, procs);
        let total: u64 = 10;
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                // Ramp up: everyone starts dense, then spreads out.
                for i in 0..total {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(30 + 60 * i)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0, "reactive fetch-op deadlocked");
        prop_assert_eq!(m.read_word(f.var()), procs as u64 * total);
    }
}

/// Deterministic regression: a release-mode token can be observed and
/// matched (API contract of the two-level acquire/release interface).
#[test]
fn release_mode_tokens_are_plain_data() {
    let m = Machine::new(Config::default().nodes(2));
    let lock = ReactiveLock::new(&m, 0, 2);
    let cpu = m.cpu(0);
    let seen = std::rc::Rc::new(std::cell::Cell::new(false));
    let seen2 = seen.clone();
    m.spawn(0, async move {
        let t = lock.acquire(&cpu).await;
        match t {
            ReleaseMode::Tts
            | ReleaseMode::TtsToQueue
            | ReleaseMode::Queue(_)
            | ReleaseMode::QueueToTts(_) => seen2.set(true),
        }
        lock.release(&cpu, t).await;
    });
    m.run();
    assert!(seen.get());
}
