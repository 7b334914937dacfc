//! J-structure golden test: the producer-consumer event streams pinned
//! bit-exact, because neither `determinism_golden.rs` nor
//! `wait_golden.rs` builds a [`JStructure`].
//!
//! * [`jacobi::run_jstructures`] (the paper's *Jacobi*) under spinning,
//!   blocking and two-phase waiting, and [`jacobi::run_barrier`]
//!   (*Jacobi-Bar*) under the same three;
//! * a node kill while threads from that node and from a surviving node
//!   are blocked on one J-structure slot's wait queue: the survivors
//!   must wake in the order they blocked, and a thread that blocks after
//!   the kill must queue behind them.
//!
//! Each digest folds the elapsed time and every `Stats` field, wait
//! histograms down to their raw samples (recorded in completion order,
//! so for Jacobi they are the completion trace), plus any per-thread
//! trace the run keeps.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Config, FaultEvent, FaultPlan, Machine, Stats};
use sim_apps::alg::WaitAlg;
use sim_apps::jacobi::{self, JacobiConfig};
use sync_protocols::pc::JStructure;
use sync_protocols::waiting::AlwaysBlock;

/// FNV-1a over a stream of u64s.
fn fnv(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_all(acc: u64, xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(acc, fnv)
}

fn fnv_name(acc: u64, name: &str) -> u64 {
    fnv_all(fnv(acc, name.len() as u64), name.bytes().map(u64::from))
}

/// Elapsed time, every `Stats` field, then the per-thread trace.
fn digest(elapsed: u64, st: &Stats, trace: &[u64]) -> u64 {
    let mut h = fnv_all(
        0xcbf2_9ce4_8422_2325,
        [
            elapsed,
            st.net_msgs,
            st.remote_misses,
            st.invalidations,
            st.limitless_traps,
            st.dir_requests,
            st.active_msgs,
            st.sim_events,
        ],
    );
    h = fnv_all(h, st.rmr_cc.iter().copied());
    h = fnv_all(h, st.rmr_dsm.iter().copied());
    for (name, v) in &st.counters {
        h = fnv(fnv_name(h, name), *v);
    }
    for (name, w) in &st.waits {
        h = fnv_all(fnv_name(h, name), [w.count, w.sum, w.max]);
        h = fnv_all(h, w.buckets.iter().copied());
        h = fnv_all(h, w.raw.iter().copied());
    }
    fnv_all(h, trace.iter().copied())
}

/// The three waiting algorithms the Jacobi benchmarks are run under.
const ALGS: [WaitAlg; 3] = [WaitAlg::Spin, WaitAlg::Block, WaitAlg::TwoPhase(465)];

fn jacobi_config(alg: WaitAlg) -> JacobiConfig {
    JacobiConfig {
        procs: 8,
        iterations: 40,
        ..JacobiConfig::small(8, alg)
    }
}

fn run_jstructures(alg: WaitAlg) -> u64 {
    let r = jacobi::run_jstructures(&jacobi_config(alg));
    digest(r.elapsed, &r.stats, &[])
}

fn run_barrier(alg: WaitAlg) -> u64 {
    let r = jacobi::run_barrier(&jacobi_config(alg));
    digest(r.elapsed, &r.stats, &[])
}

/// Threads A0..A3 on node 1 and B0..B2 on node 2 block on slot 0 of one
/// J-structure, each once the machine reaches its target time, so the
/// queue reads B0 A0 B1 A1 A2 B2: dead threads at the head, between
/// survivors and at the tail. Node 2 is killed at 8 000; A3 blocks at
/// 9 000, behind the survivors; node 0 fills the slot at 10 000 and its
/// `signal_all` wakes A0 A1 A2 A3 in that order. The trace is the wake
/// order, then each survivor's wake time.
fn run_kill_while_blocked() -> u64 {
    const KILL_AT: u64 = 8_000;
    let plan = FaultPlan::new().kill_at(KILL_AT, 2);
    let m = Machine::new(Config::default().nodes(3).seed(0x5EED_601D).faults(plan));
    let js = JStructure::new(&m, 1);
    // (node, target time, survivor index) in spawn order per node.
    let readers: [(usize, u64, u64); 7] = [
        (1, 2_000, 0),
        (1, 4_000, 1),
        (1, 5_000, 2),
        (1, 9_000, 3),
        (2, 1_000, u64::MAX),
        (2, 3_000, u64::MAX),
        (2, 6_000, u64::MAX),
    ];
    let woke = Rc::new(RefCell::new(Vec::new()));
    for (node, target, id) in readers {
        let (cpu, woke) = (m.cpu(node), woke.clone());
        m.spawn(node, async move {
            cpu.work(target.saturating_sub(cpu.now())).await;
            let v = js.read(&cpu, &AlwaysBlock, 0).await;
            assert_eq!(v, 77);
            woke.borrow_mut().push((id, cpu.now()));
        });
    }
    let cpu = m.cpu(0);
    m.spawn(0, async move {
        cpu.work(10_000).await;
        js.write(&cpu, 0, 77).await;
    });
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "a survivor was lost from the queue");
    let woke = woke.borrow();
    let order: Vec<u64> = woke.iter().map(|&(id, _)| id).collect();
    assert_eq!(order, [0, 1, 2, 3], "survivors left FIFO order");
    assert_eq!(
        m.fault_log(),
        [FaultEvent::Kill {
            at: KILL_AT,
            node: 2,
            tasks_killed: 3
        }]
    );
    let mut trace = order;
    trace.extend(woke.iter().map(|&(_, t)| t));
    digest(elapsed, &m.stats(), &trace)
}

fn assert_stable_golden(name: &str, run: impl Fn() -> u64, golden: u64) {
    let (a, b) = (run(), run());
    assert_eq!(a, b, "{name} digests differ run-to-run");
    assert_eq!(a, golden, "{name} digest drifted: got {a:#018x}");
}

/// Captured from the per-slot `Vec` J-structure (one `alloc_on` and one
/// `new_wait_queue` per slot) and `VecDeque` wait queues.
const GOLDEN_JSTRUCTURES: [u64; 3] = [
    0x1DE7_DB9E_9174_C7F7,
    0x1D54_C730_0528_E9CC,
    0x7D4C_9617_BFB3_3502,
];
const GOLDEN_BARRIER: [u64; 3] = [
    0xA423_B021_6F23_DE21,
    0x4CA4_B2DB_DFDB_1638,
    0x59F7_D02B_88BE_B095,
];
const GOLDEN_KILL_WHILE_BLOCKED: u64 = 0xD75E_BA37_454E_31F5;

#[test]
fn jacobi_jstructures_match_golden() {
    for (alg, golden) in ALGS.into_iter().zip(GOLDEN_JSTRUCTURES) {
        assert_stable_golden(&format!("jacobi {alg:?}"), || run_jstructures(alg), golden);
    }
}

#[test]
fn jacobi_barrier_matches_golden() {
    for (alg, golden) in ALGS.into_iter().zip(GOLDEN_BARRIER) {
        assert_stable_golden(&format!("jacobi-bar {alg:?}"), || run_barrier(alg), golden);
    }
}

#[test]
fn kill_keeps_survivors_in_fifo_order() {
    assert_stable_golden(
        "kill while blocked",
        run_kill_while_blocked,
        GOLDEN_KILL_WHILE_BLOCKED,
    );
}
