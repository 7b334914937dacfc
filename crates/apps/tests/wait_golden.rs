//! Wait golden test: every way a simulated thread waits is pinned
//! bit-exact here, because `determinism_golden.rs` reaches only
//! `Cpu::poll_until`.
//!
//! * each [`WaitAlg`] on both conditions — a contended [`WaitLock`]
//!   (`wait_word`) and a future producer/consumer mesh (`wait_full`) —
//!   with two threads per node, so switch-spinning has a peer to yield
//!   to and blocking frees the processor for one;
//! * `poll_until_deadline` / `poll_until_full_deadline` runs that time
//!   out, are satisfied in time, or expire within cycles of a write;
//! * `poll_until_abortable` under a seeded `FaultPlan::abort_storm`.
//!
//! Each digest folds the elapsed time, every `Stats` counter and
//! histogram, and every thread's completion time (plus what each wait
//! returned). A drift means a read issue, watcher registration, deadline
//! timer or scheduler interaction was added, dropped or reordered.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Config, FaultPlan, Machine, Stats};
use sim_apps::alg::{WaitAlg, WaitLock};
use sync_protocols::pc::FutureCell;

const SEED: u64 = 0x5EED_601D;

/// FNV-1a over a stream of u64s.
fn fnv(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Elapsed time, every machine counter and wait histogram, then the
/// per-thread trace (completion times and wait results).
fn digest(elapsed: u64, st: &Stats, trace: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [
        elapsed,
        st.net_msgs,
        st.remote_misses,
        st.invalidations,
        st.limitless_traps,
        st.dir_requests,
        st.active_msgs,
        st.sim_events,
    ] {
        h = fnv(h, x);
    }
    for (name, v) in &st.counters {
        h = fnv(h, name.len() as u64);
        h = fnv(h, *v);
    }
    for (name, w) in &st.waits {
        h = fnv(h, name.len() as u64);
        h = fnv(h, w.count);
        h = fnv(h, w.sum);
        h = fnv(h, w.max);
    }
    for &x in trace {
        h = fnv(h, x);
    }
    h
}

/// A per-thread trace slot table shared with the spawned tasks.
fn trace_table(n: usize) -> Rc<RefCell<Vec<u64>>> {
    Rc::new(RefCell::new(vec![0; n]))
}

/// `wait_word`: 4 nodes, two threads per node contending
/// for one [`WaitLock`].
fn run_wait_lock(alg: WaitAlg) -> u64 {
    const NODES: usize = 4;
    const THREADS: usize = 2 * NODES;
    const OPS: u64 = 12;
    let m = Machine::new(Config::default().nodes(NODES).seed(SEED));
    let lock = WaitLock::new(&m, 0);
    let counter = m.alloc_on(1, 1);
    let done = trace_table(THREADS);
    for t in 0..THREADS {
        let cpu = m.cpu(t % NODES);
        let done = done.clone();
        m.spawn(t % NODES, async move {
            for _ in 0..OPS {
                lock.acquire(&cpu, &alg).await;
                let v = cpu.read(counter).await;
                cpu.work(120).await;
                cpu.write(counter, v + 1).await;
                lock.release(&cpu).await;
                cpu.work(cpu.rand_below(600)).await;
            }
            done.borrow_mut()[t] = cpu.now();
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "{alg:?}: wait-lock workload deadlocked");
    assert_eq!(m.read_word(counter), THREADS as u64 * OPS, "{alg:?}");
    let done = done.borrow();
    digest(elapsed, &m.stats(), &done)
}

/// `wait_full`: 4 nodes. Nodes 0 and 1 each run a producer
/// that determines its futures after random work; nodes 2 and 3 each
/// run a consumer that touches every future of both producers in order
/// (two touchers per future, so `signal_all` wakes more than one) beside
/// a compute thread that yields between slices — the peer switch-spinning
/// switches to and blocking frees the processor for. Waits range from
/// already-full to several blocking costs long.
fn run_futures(alg: WaitAlg) -> u64 {
    const CELLS: usize = 10;
    let m = Machine::new(Config::default().nodes(4).seed(SEED));
    let cells: Vec<Vec<FutureCell>> = (0..2)
        .map(|n| (0..CELLS).map(|_| FutureCell::new(&m, n)).collect())
        .collect();
    // [producer 0, producer 1, then per consumer node: done, sum, peer done]
    let trace = trace_table(8);
    for (n, mine) in cells.iter().enumerate() {
        let (cpu, mine, trace) = (m.cpu(n), mine.clone(), trace.clone());
        m.spawn(n, async move {
            for (i, cell) in mine.iter().enumerate() {
                cpu.work(cpu.rand_below(900) + 60 * i as u64).await;
                cell.determine(&cpu, (n * 100 + i) as u64).await;
            }
            trace.borrow_mut()[n] = cpu.now();
        });
    }
    for n in 2..4 {
        let (cpu, cells, trace_c) = (m.cpu(n), cells.clone(), trace.clone());
        m.spawn(n, async move {
            let mut sum = 0;
            for i in 0..CELLS {
                for producer in &cells {
                    sum += producer[i].touch(&cpu, &alg).await;
                    cpu.work(cpu.rand_below(200)).await;
                }
            }
            let mut tr = trace_c.borrow_mut();
            tr[3 * n - 4] = cpu.now();
            tr[3 * n - 3] = sum;
        });
        let (cpu, trace_p) = (m.cpu(n), trace.clone());
        m.spawn(n, async move {
            for _ in 0..40 {
                cpu.work(100).await;
                cpu.yield_now().await;
            }
            trace_p.borrow_mut()[3 * n - 2] = cpu.now();
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "{alg:?}: future workload deadlocked");
    let trace = trace.borrow();
    let want: usize = (0..CELLS).map(|i| 100 + 2 * i).sum();
    for n in 2..4 {
        assert_eq!(trace[3 * n - 3], want as u64, "{alg:?}: consumer {n}");
    }
    digest(elapsed, &m.stats(), &trace)
}

/// Bounded polls: one writer, seven pollers at different distances from
/// it, with deadlines before, at and after the writes they wait for —
/// word and full-bit conditions — so every exit is taken: satisfied,
/// timed out in the read, timed out while watching (the final read), and
/// a deadline timer landing within a few cycles of the write's wake.
fn run_deadlines() -> u64 {
    const NODES: usize = 8;
    const RACES: u64 = 12;
    const RACE_T0: u64 = 12_000;
    let m = Machine::new(Config::default().nodes(NODES).seed(SEED));
    let word = m.alloc_on(0, 1);
    let slot = m.alloc_on(1, 1);
    let raced = m.alloc_on(0, 1);
    let trace = trace_table(2 * NODES);
    let c0 = m.cpu(0);
    m.spawn(0, async move {
        for i in 1..=6u64 {
            c0.work(700).await;
            c0.write(word, i).await;
        }
        c0.work(500).await;
        c0.write_fill(slot, 99).await;
        // One write per race round at a fixed instant; the pollers'
        // deadlines fall a few cycles either side of it.
        for r in 1..=RACES {
            c0.work(RACE_T0 + 1_000 * r - c0.now()).await;
            c0.write(raced, r).await;
        }
    });
    for p in 1..NODES {
        let (cpu, trace) = (m.cpu(p), trace.clone());
        m.spawn(p, async move {
            let mut acc = 0u64;
            let mut tally = |r: Option<u64>| acc = fnv(acc, r.map_or(u64::MAX, |v| v + 1));
            let want = p as u64;
            // Deadlines step across the write times (700 apart).
            for round in 0..4u64 {
                let deadline = cpu.now() + 350 * (round + 1) + 37 * want;
                tally(
                    cpu.poll_until_deadline(word, move |v| v >= want, deadline)
                        .await,
                );
                cpu.work(cpu.rand_below(90)).await;
            }
            for round in 0..3u64 {
                let deadline = cpu.now() + 900 * (round + 1) + 53 * want;
                tally(cpu.poll_until_full_deadline(slot, deadline).await);
            }
            // A deadline already in the past still reads once.
            tally(cpu.poll_until_deadline(word, |v| v == 6, cpu.now()).await);
            for r in 1..=RACES {
                let deadline = RACE_T0 + 1_000 * r + 4 * r - 6 * want;
                tally(
                    cpu.poll_until_deadline(raced, move |v| v >= r, deadline)
                        .await,
                );
            }
            let mut tr = trace.borrow_mut();
            tr[2 * p] = cpu.now();
            tr[2 * p + 1] = acc;
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    let trace = trace.borrow();
    digest(elapsed, &m.stats(), &trace)
}

/// Abortable polls under a seeded abort storm: a writer advances a word
/// every couple of hundred cycles; six waiters loop over
/// `poll_until_abortable` for a value a few steps ahead (so each wait
/// re-reads several times) with no deadline, a far deadline, a near one
/// and one shorter than a remote read. A plain `poll_until` waiter on a
/// stormed node takes the aborts' wakes as stale ones.
fn run_abort_storm() -> u64 {
    const NODES: usize = 8;
    const LAST: u64 = 150;
    let plan = FaultPlan::abort_storm(0xAB0E7, NODES, 160, 32_000);
    let m = Machine::new(Config::default().nodes(NODES).seed(SEED).faults(plan));
    let word = m.alloc_on(0, 1);
    let trace = trace_table(3 * NODES);
    let c0 = m.cpu(0);
    m.spawn(0, async move {
        for i in 1..=LAST {
            c0.work(150 + c0.rand_below(100)).await;
            c0.write(word, i).await;
        }
    });
    let (c7, trace7) = (m.cpu(NODES - 1), trace.clone());
    m.spawn(NODES - 1, async move {
        let v = c7.poll_until(word, |v| v >= LAST).await;
        let mut tr = trace7.borrow_mut();
        tr[3 * (NODES - 1)] = c7.now();
        tr[3 * (NODES - 1) + 1] = v;
    });
    for p in 1..NODES - 1 {
        let (cpu, trace) = (m.cpu(p), trace.clone());
        m.spawn(p, async move {
            let (mut acc, mut gave_up) = (0u64, 0u64);
            let mut next = p as u64;
            let mut round = 0u64;
            while next <= LAST {
                round += 1;
                let deadline = match (round + p as u64) % 4 {
                    0 => u64::MAX,
                    1 => cpu.now() + 20_000,
                    2 => cpu.now() + 500,
                    _ => cpu.now() + 9,
                };
                match cpu
                    .poll_until_abortable(word, move |v| v >= next, deadline)
                    .await
                {
                    Some(v) => {
                        acc = fnv(acc, v);
                        next = v + 1 + p as u64;
                    }
                    None => {
                        acc = fnv(acc, cpu.now());
                        gave_up += 1;
                        cpu.work(cpu.rand_below(120)).await;
                    }
                }
            }
            let mut tr = trace.borrow_mut();
            tr[3 * p] = cpu.now();
            tr[3 * p + 1] = acc;
            tr[3 * p + 2] = gave_up;
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    let trace = trace.borrow();
    let gave_up: u64 = (1..NODES - 1).map(|p| trace[3 * p + 2]).sum();
    assert!(gave_up > 0, "no wait ended by abort or deadline");
    digest(elapsed, &m.stats(), &trace)
}

fn assert_stable_golden(name: &str, run: impl Fn() -> u64, golden: u64) {
    let (a, b) = (run(), run());
    assert_eq!(a, b, "{name} digests differ run-to-run");
    assert_eq!(a, golden, "{name} digest drifted: got {a:#018x}");
}

/// The five waiting algorithms of Chapter 4, with `Lpoll` set off the
/// blocking cost so the two-phase deadline lands mid-wait. The goldens
/// were captured when switch-spinning's limit was scaled by a 2-context
/// count; 502 is that same 251 x 2-cycle deadline.
const ALGS: [WaitAlg; 5] = [
    WaitAlg::Spin,
    WaitAlg::Block,
    WaitAlg::TwoPhase(251),
    WaitAlg::SwitchSpin,
    WaitAlg::TwoPhaseSwitchSpin(502),
];

/// Captured from the three hand-rolled spin futures and the paired
/// `wait_word` / `wait_full` strategy methods, before they were merged.
const GOLDEN_WAIT_LOCK: [u64; 5] = [
    0x26D3_6EE3_6624_D127,
    0xDBA5_CE88_CD9D_B7FB,
    0x2E70_C781_52CA_D4D0,
    0x01B7_179C_5212_13F0,
    0x5C2A_D3EE_3C62_1F08,
];
const GOLDEN_FUTURES: [u64; 5] = [
    0x3D4B_36E0_A39E_4463,
    0x8E2C_060C_0D33_4AB0,
    0x04F6_86D4_B3F5_7336,
    0x9C8D_D803_6EF0_2B59,
    0xE20C_B982_0B47_8597,
];
const GOLDEN_DEADLINES: u64 = 0x292F_98E4_5FF4_00FB;
const GOLDEN_ABORT_STORM: u64 = 0xC65E_30BA_B833_DDAB;

#[test]
fn every_wait_alg_matches_golden_on_a_word_condition() {
    for (alg, golden) in ALGS.into_iter().zip(GOLDEN_WAIT_LOCK) {
        assert_stable_golden(&format!("wait-lock {alg:?}"), || run_wait_lock(alg), golden);
    }
}

#[test]
fn every_wait_alg_matches_golden_on_a_full_condition() {
    for (alg, golden) in ALGS.into_iter().zip(GOLDEN_FUTURES) {
        assert_stable_golden(&format!("futures {alg:?}"), || run_futures(alg), golden);
    }
}

#[test]
fn deadline_poll_digest_matches_golden() {
    assert_stable_golden("deadline polls", run_deadlines, GOLDEN_DEADLINES);
}

#[test]
fn abortable_poll_digest_matches_golden() {
    assert_stable_golden("abort storm", run_abort_storm, GOLDEN_ABORT_STORM);
}
