//! Facade wiring smoke test: every re-export of the `reactive-sync`
//! facade (`sim`, `api`, `protocols`, `reactive`, `waiting`, `native`,
//! `apps`) must be nameable and usable through its facade path, so a
//! broken re-export or a cross-crate API drift can never land silently.

use reactive_sync::api::spin::{FREE, INVALID_PTR, NIL};
use reactive_sync::api::{Decision, Observation, Policy as PolicyTrait, ProtocolId};
use reactive_sync::apps::alg::{AnyFetchOp, AnyLock, FetchOpAlg, LockAlg};
use reactive_sync::native::{McsLock, ReactiveMutex, TtsLock};
use reactive_sync::reactive::{Hysteresis, ReactiveLock};
use reactive_sync::sim::{Config, CostModel, Machine};
use reactive_sync::waiting::dist::WaitDist;
use reactive_sync::waiting::expected::Family;
use reactive_sync::waiting::{expected_two_phase, optimal_alpha, EXP_ALPHA_STAR};

/// `sim`: build a machine, allocate, and run a trivial program.
#[test]
fn sim_reexport_is_usable() {
    let m = Machine::new(Config::default().nodes(2).cost(CostModel::nwo()));
    let a = m.alloc_on(0, 1);
    let cpu = m.cpu(1);
    m.spawn(1, async move {
        cpu.fetch_and_add(a, 41).await;
        cpu.fetch_and_add(a, 1).await;
    });
    m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.read_word(a), 42);
}

/// `api`: the shared policy trait accepts a user-defined impl through
/// the facade path (the whole point of the open API).
#[test]
fn api_reexport_is_usable() {
    struct Never;
    impl PolicyTrait for Never {
        fn decide(&mut self, _obs: &Observation) -> Decision {
            Decision::Stay
        }
    }
    let mut p: Box<dyn PolicyTrait> = Box::new(Never);
    let obs = Observation::suboptimal(ProtocolId(0), ProtocolId(1), 99.0);
    assert_eq!(p.decide(&obs), Decision::Stay);
}

/// `protocols`: the spin-lock word constants are distinct sentinels
/// (the reactive lock's consensus discipline depends on this).
#[test]
fn protocols_reexport_is_usable() {
    assert_ne!(FREE, INVALID_PTR);
    assert_ne!(NIL, INVALID_PTR);
}

/// `reactive`: a reactive lock built with an explicit policy protects a
/// counter on the simulated machine.
#[test]
fn reactive_reexport_is_usable() {
    let procs = 4;
    let m = Machine::new(Config::default().nodes(procs));
    let lock = ReactiveLock::builder(&m, 0)
        .max_procs(procs)
        .policy(Hysteresis::new(4, 8))
        .build();
    let shared = m.alloc_on(1, 1);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..5 {
                let t = lock.acquire(&cpu).await;
                let v = cpu.read(shared).await;
                cpu.write(shared, v + 1).await;
                lock.release(&cpu, t).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.read_word(shared), procs as u64 * 5);
}

/// `waiting`: the closed forms agree with their published constants.
#[test]
fn waiting_reexport_is_usable() {
    let d = WaitDist::exponential_with_mean(500.0);
    let b = 465.0;
    assert!(expected_two_phase(&d, EXP_ALPHA_STAR, b, 1.0) > 0.0);
    let (alpha, rho) = optimal_alpha(Family::Exponential, b);
    assert!((alpha - EXP_ALPHA_STAR).abs() < 0.02);
    assert!(
        rho < 1.6,
        "exponential two-phase should be ~1.58-competitive"
    );
}

/// `native`: the host-hardware locks acquire and release.
#[test]
fn native_reexport_is_usable() {
    let tts = TtsLock::new();
    tts.lock();
    tts.unlock();
    let mcs = McsLock::new();
    assert!(mcs.is_unlocked());
    let m = ReactiveMutex::new(0u64);
    *m.lock() += 42;
    assert_eq!(*m.lock(), 42);
}

/// `apps`: the algorithm-selection wrappers construct and run through
/// the facade exactly as the benchmark harness uses them.
#[test]
fn apps_reexport_is_usable() {
    let procs = 4;
    let m = Machine::new(Config::default().nodes(procs).seed(3));
    let lock = AnyLock::make(&m, 0, LockAlg::Tts, procs);
    let counter = AnyFetchOp::make(&m, 0, FetchOpAlg::TtsLock, procs);
    let shared = m.alloc_on(1, 1);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let counter = counter.clone();
        m.spawn(p, async move {
            for _ in 0..3 {
                counter.fetch_add(&cpu, 1).await;
                let t = lock.acquire(&cpu).await;
                let v = cpu.read(shared).await;
                cpu.write(shared, v + 1).await;
                lock.release(&cpu, t).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.read_word(shared), procs as u64 * 3);
}
