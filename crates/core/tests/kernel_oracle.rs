//! The §3.2 framework's correctness condition as a cross-object oracle:
//! every kernel-built reactive object's commit log must replay as a
//! chain — each change leaves the protocol the previous one entered, so
//! at most one protocol is ever valid (see `reactive_api::oracle`).
//!
//! The naive reference design (`framework::NaiveManager`) is checked
//! from its own recorded histories in the `framework` module tests;
//! here the *practical* algorithms — which collapse the framework's
//! layering for performance but route every mode change through the
//! shared `SwitchKernel` — are checked from their instrumentation
//! streams, closing the loop between §3.2's correctness conditions and
//! the production switch paths.

use std::rc::Rc;

use alewife_sim::{Config, Machine};
use reactive_api::oracle::check_switch_history;
use reactive_core::policy::{Instrument, SwitchLog};
use reactive_core::{barrier, fetch_op, lock, mp, ReactiveBarrier, ReactiveFetchOp, ReactiveLock};
use sync_protocols::barrier::BarrierCtx;
use sync_protocols::waiting::AlwaysSpin;

/// Contend hard, then fade to a single processor, so the object
/// commits changes in both directions.
fn phases(procs: usize) -> (usize, u64, u64) {
    (procs, 20, 40)
}

#[test]
fn reactive_lock_history_is_single_valid() {
    let (procs, hot, solo) = phases(16);
    let m = Machine::new(Config::default().nodes(procs));
    let log = Rc::new(SwitchLog::new());
    let l = ReactiveLock::builder(&m, 0)
        .max_procs(procs)
        .instrument(log.clone() as Rc<dyn Instrument>)
        .build();
    for p in 0..procs {
        let cpu = m.cpu(p);
        let l = l.clone();
        m.spawn(p, async move {
            for _ in 0..hot {
                let t = l.acquire(&cpu).await;
                cpu.work(50).await;
                l.release(&cpu, t).await;
                cpu.work(cpu.rand_below(100)).await;
            }
            if cpu.node() == 0 {
                for _ in 0..solo {
                    let t = l.acquire(&cpu).await;
                    cpu.work(10).await;
                    l.release(&cpu, t).await;
                    cpu.work(20).await;
                }
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    let evs = log.events();
    assert!(!evs.is_empty(), "workload must commit at least one change");
    check_switch_history(&evs, 2, lock::PROTO_TTS).expect("reactive lock history");
}

#[test]
fn reactive_fetch_op_history_is_single_valid() {
    let (procs, hot, solo) = phases(32);
    let m = Machine::new(Config::default().nodes(procs));
    let log = Rc::new(SwitchLog::new());
    let f = ReactiveFetchOp::builder(&m, 0)
        .max_procs(procs)
        .instrument(log.clone() as Rc<dyn Instrument>)
        .build();
    for p in 0..procs {
        let cpu = m.cpu(p);
        let f = f.clone();
        m.spawn(p, async move {
            for _ in 0..hot {
                f.fetch_add(&cpu, 1).await;
                cpu.work(cpu.rand_below(100)).await;
            }
            if cpu.node() == 0 {
                for _ in 0..solo {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(30).await;
                }
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    let evs = log.events();
    assert!(!evs.is_empty());
    check_switch_history(&evs, 3, fetch_op::PROTO_TTS).expect("reactive fetch-op history");
}

#[test]
fn reactive_mp_lock_history_is_single_valid() {
    let (procs, hot, solo) = phases(8);
    let m = Machine::new(Config::default().nodes(procs));
    let log = Rc::new(SwitchLog::new());
    let l = mp::ReactiveMpLock::builder(&m, 0, 0)
        .max_procs(procs)
        .instrument(log.clone() as Rc<dyn Instrument>)
        .build();
    for p in 0..procs {
        let cpu = m.cpu(p);
        let l = l.clone();
        m.spawn(p, async move {
            for _ in 0..hot {
                let t = l.acquire(&cpu).await;
                cpu.work(10).await;
                l.release(&cpu, t).await;
                cpu.work(cpu.rand_below(80)).await;
            }
            if cpu.node() == 1 {
                for _ in 0..solo {
                    let t = l.acquire(&cpu).await;
                    cpu.work(10).await;
                    l.release(&cpu, t).await;
                    cpu.work(30).await;
                }
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    check_switch_history(&log.events(), 2, mp::PROTO_TTS).expect("reactive MP lock history");
}

#[test]
fn reactive_mp_fetch_op_history_is_single_valid() {
    // 32-way contention regression for the concurrent-changer race:
    // any completed central-MP requester may decide a change, so two
    // changers can race; the manager-arbitrated conditional invalidate
    // must let exactly one win. Before that fix this workload tripped
    // the kernel's validity assertion (double MP -> TTS switches, TTS
    // flag double-free), and the lowered history below would violate
    // at-most-one-valid.
    let (procs, hot, solo) = phases(32);
    let m = Machine::new(Config::default().nodes(procs));
    let log = Rc::new(SwitchLog::new());
    let f = mp::ReactiveMpFetchOp::builder(&m, 0, 0)
        .max_procs(procs)
        .instrument(log.clone() as Rc<dyn Instrument>)
        .build();
    for p in 0..procs {
        let cpu = m.cpu(p);
        let f = f.clone();
        m.spawn(p, async move {
            for _ in 0..hot {
                f.fetch_add(&cpu, 1).await;
                cpu.work(cpu.rand_below(80)).await;
            }
            if cpu.node() == 1 {
                for _ in 0..solo {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(25).await;
                }
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    check_switch_history(&log.events(), 3, mp::PROTO_TTS).expect("reactive MP fetch-op history");
}

#[test]
fn reactive_barrier_history_is_single_valid() {
    let procs = 32;
    let m = Machine::new(Config::default().nodes(procs));
    let log = Rc::new(SwitchLog::new());
    let bar = ReactiveBarrier::builder(&m, 0, procs)
        .instrument(log.clone() as Rc<dyn Instrument>)
        .build();
    for p in 0..procs {
        let cpu = m.cpu(p);
        let bar = bar.clone();
        m.spawn(p, async move {
            let mut ctx = BarrierCtx::default();
            for _ in 0..8 {
                cpu.work(cpu.rand_below(100)).await;
                bar.wait(&cpu, &mut ctx, &AlwaysSpin).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0);
    let evs = log.events();
    assert!(!evs.is_empty(), "32-way arrivals should switch");
    check_switch_history(&evs, 2, barrier::PROTO_CENTRAL).expect("reactive barrier history");
}
