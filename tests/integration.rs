//! Cross-crate integration tests: the reactive algorithms from
//! `reactive-core` driving `sync-protocols` objects on the `alewife-sim`
//! substrate, exercised through the facade crate exactly as a downstream
//! user would.

use reactive_sync::apps::alg::{AnyFetchOp, AnyLock, FetchOpAlg, LockAlg, WaitAlg};
use reactive_sync::protocols::barrier::{BarrierCtx, SenseBarrier};
use reactive_sync::protocols::pc::JStructure;
use reactive_sync::reactive::waiting::TwoPhase;
use reactive_sync::sim::{Config, CostModel, Machine};

/// A pipeline mixing every synchronization type at once: a reactive
/// lock guards a shared journal, a reactive fetch-and-op hands out
/// tickets, J-structures carry stage results, and a barrier closes each
/// round — all on one simulated machine.
#[test]
fn mixed_synchronization_pipeline() {
    let procs = 8;
    let rounds = 3usize;
    let m = Machine::new(Config::default().nodes(procs));
    let tickets = AnyFetchOp::make(&m, 0, FetchOpAlg::Reactive, procs);
    let journal_lock = AnyLock::make(&m, 1, LockAlg::Reactive, procs);
    let journal = m.alloc_on(1, 1);
    let stage = JStructure::new(&m, procs * rounds);
    let bar = SenseBarrier::new(&m, 2, procs as u64);
    let waiter = TwoPhase::new(CostModel::nwo().block_cost());

    for p in 0..procs {
        let cpu = m.cpu(p);
        let tickets = tickets.clone();
        let journal_lock = journal_lock.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            for r in 0..rounds {
                // Claim a ticket (reactive fetch-and-op).
                let ticket = tickets.fetch_add(&cpu, 1).await;
                cpu.work(100 + cpu.rand_below(400)).await;
                // Publish this round's result (J-structure).
                stage
                    .write(&cpu, r * cpu.nodes() + cpu.node(), ticket + 1)
                    .await;
                // Read the left neighbour's result (two-phase waiting).
                let left = (cpu.node() + cpu.nodes() - 1) % cpu.nodes();
                let v = stage.read(&cpu, &waiter, r * cpu.nodes() + left).await;
                assert!(v > 0);
                // Log to the shared journal (reactive lock).
                let t = journal_lock.acquire(&cpu).await;
                let j = cpu.read(journal).await;
                cpu.work(20).await;
                cpu.write(journal, j + 1).await;
                journal_lock.release(&cpu, t).await;
                // Close the round.
                bar.wait(&cpu, &mut bctx, &waiter).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0, "pipeline deadlocked");
    assert_eq!(m.read_word(journal), (procs * rounds) as u64);
    // Every ticket was unique: final counter equals total claims.
    let st = m.stats();
    assert!(st.waits.contains_key("jstruct"));
    assert!(st.waits.contains_key("barrier"));
}

/// All lock algorithms agree on the final count for an identical
/// deterministic workload (same seed), and the reactive lock's elapsed
/// time is never worse than the worst static protocol by more than a
/// small factor.
#[test]
fn reactive_lock_bounded_by_static_choices() {
    fn run(alg: LockAlg, procs: usize) -> u64 {
        let m = Machine::new(Config::default().nodes(procs).seed(7));
        let lock = AnyLock::make(&m, 0, alg, procs);
        let shared = m.alloc_on(1, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..20 {
                    let t = lock.acquire(&cpu).await;
                    let v = cpu.read(shared).await;
                    cpu.work(50).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(300)).await;
                }
            });
        }
        let elapsed = m.run();
        assert_eq!(m.live_tasks(), 0);
        assert_eq!(m.read_word(shared), procs as u64 * 20);
        elapsed
    }
    for procs in [2usize, 8, 16] {
        let tts = run(LockAlg::Tts, procs);
        let mcs = run(LockAlg::Mcs, procs);
        let reactive = run(LockAlg::Reactive, procs);
        let best = tts.min(mcs);
        assert!(
            (reactive as f64) < 1.8 * best as f64,
            "P={procs}: reactive {reactive} vs best static {best}"
        );
    }
}

/// Fetch-and-op linearizability across every algorithm: the multiset of
/// returned values must be exactly {0, ..., N-1}.
#[test]
fn fetch_op_linearizable_all_algorithms() {
    for alg in [
        FetchOpAlg::TtsLock,
        FetchOpAlg::QueueLock,
        FetchOpAlg::Combining,
        FetchOpAlg::Reactive,
        FetchOpAlg::MpCentral,
        FetchOpAlg::MpCombining,
    ] {
        let procs = 8;
        let m = Machine::new(Config::default().nodes(procs));
        let f = AnyFetchOp::make(&m, 0, alg, procs);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..15 {
                    let v = f.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(120)).await;
                }
            });
        }
        m.run();
        assert_eq!(m.live_tasks(), 0, "{alg:?} deadlocked");
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        assert_eq!(
            got,
            (0..(procs as u64 * 15)).collect::<Vec<_>>(),
            "{alg:?} returns not a permutation"
        );
    }
}

/// Waiting algorithms: on the same workload, two-phase waiting lands
/// near the better of always-spin / always-block for both a short-wait
/// and a long-wait regime (the robustness claim of §4.7).
#[test]
fn two_phase_robust_across_wait_regimes() {
    use reactive_sync::apps::mutex_app::{run, MutexConfig};
    let mk = |procs, cs, think, wait| MutexConfig {
        procs,
        ops: 20,
        cs,
        think,
        wait,
        seed: 3,
    };
    let b = CostModel::nwo().block_cost();
    // Short waits.
    let spin = run(&mk(4, 40, 1_000, WaitAlg::Spin)).elapsed;
    let block = run(&mk(4, 40, 1_000, WaitAlg::Block)).elapsed;
    let twop = run(&mk(4, 40, 1_000, WaitAlg::TwoPhase(b))).elapsed;
    assert!((twop as f64) < 1.4 * spin.min(block) as f64, "short regime");
    // Long waits (big critical sections, deep queues).
    let spin = run(&mk(8, 2_000, 100, WaitAlg::Spin)).elapsed;
    let block = run(&mk(8, 2_000, 100, WaitAlg::Block)).elapsed;
    let twop = run(&mk(8, 2_000, 100, WaitAlg::TwoPhase(b))).elapsed;
    assert!(
        (twop as f64) < 1.4 * spin.min(block) as f64,
        "long regime: 2p {twop} spin {spin} block {block}"
    );
}

/// The theory and the simulator agree on the sign of the spin/block
/// tradeoff around the breakeven point B.
#[test]
fn theory_matches_simulation_direction() {
    use reactive_sync::waiting::dist::WaitDist;
    use reactive_sync::waiting::expected::{expected_poll, expected_signal};
    let b = CostModel::nwo().block_cost() as f64;
    // Short waits: polling cheaper in expectation.
    let short = WaitDist::exponential_with_mean(0.2 * b);
    assert!(expected_poll(&short, 1.0) < expected_signal(b));
    // Long waits: signaling cheaper.
    let long = WaitDist::exponential_with_mean(5.0 * b);
    assert!(expected_poll(&long, 1.0) > expected_signal(b));
}
