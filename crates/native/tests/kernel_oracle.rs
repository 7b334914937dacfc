//! The §3.2 commit-log oracle against the *native* reactive lock: the
//! kernel's commit log from a real multi-threaded run must replay as a
//! chain in which each change leaves the protocol the previous one
//! entered, in commit order — the same oracle the simulator-side
//! objects are checked with (`reactive-core/tests/kernel_oracle.rs`),
//! closing the cross-world loop.

use std::sync::Arc;

use reactive_api::oracle::check_switch_history;
use reactive_api::SwitchLog;
use reactive_native::reactive::PROTO_TTS;
use reactive_native::{ReactiveLock, ReactiveMutex};

#[test]
fn native_lock_history_is_single_valid() {
    let log = Arc::new(SwitchLog::new());
    let m = Arc::new(ReactiveMutex::with_lock(
        ReactiveLock::builder().instrument(log.clone()).build(),
        0u64,
    ));
    let threads = 8;
    let iters = 4_000;
    let hs: Vec<_> = (0..threads)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..iters {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    // Solo phase pulls it back toward TTS, committing both directions
    // when the contended phase switched at all.
    for _ in 0..2_000 {
        *m.lock() += 1;
    }
    assert_eq!(*m.lock(), threads * iters + 2_000);
    let evs = log.events();
    assert_eq!(evs.len() as u64, m.switches());
    check_switch_history(&evs, 2, PROTO_TTS).expect("native lock history");
}

#[test]
fn forced_flip_history_stays_single_valid() {
    use reactive_api::{Decision, Observation, Policy};

    /// Propose the other protocol on every acquisition — maximal
    /// switch pressure on the kernel's event ordering.
    struct FlipFlop;
    impl Policy for FlipFlop {
        fn decide(&mut self, obs: &Observation) -> Decision {
            Decision::SwitchTo(reactive_api::ProtocolId(1 - obs.current.0))
        }
    }

    let log = Arc::new(SwitchLog::new());
    let m = Arc::new(ReactiveMutex::with_lock(
        ReactiveLock::builder()
            .policy(FlipFlop)
            .instrument(log.clone())
            .build(),
        0u64,
    ));
    let threads = 4;
    let iters = 2_000;
    let hs: Vec<_> = (0..threads)
        .map(|_| {
            let m = m.clone();
            std::thread::spawn(move || {
                for _ in 0..iters {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for h in hs {
        h.join().unwrap();
    }
    assert_eq!(*m.lock(), threads * iters);
    let evs = log.events();
    assert!(evs.len() >= 2, "FlipFlop must switch constantly");
    check_switch_history(&evs, 2, PROTO_TTS).expect("forced-flip history");
}
