//! Shared experiment runners for the paper's tables and figures.

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use alewife_sim::parallel::ShardCtx;
use alewife_sim::{Config, CostModel, Machine, Port};
use reactive_core::lock::{ReleaseMode, PROTO_QUEUE};
use reactive_core::policy::{Decision, Observation, Policy, ProtocolId, SwitchLog};
use reactive_core::{barrier, ReactiveBarrier, ReactiveLock};
use sim_apps::alg::{AnyLock, LockAlg};
use sync_protocols::barrier::{BarrierCtx, SenseBarrier, TreeBarrier};
use sync_protocols::fetch_op::FetchOp;
use sync_protocols::spin::Lock;
use sync_protocols::waiting::AlwaysSpin;

/// Processor counts swept by the baseline experiments.
pub const BASELINE_PROCS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Total acquisitions per baseline data point (split across procs).
pub const BASELINE_OPS: u64 = 1024;

/// Critical-section length in the lock baseline (paper: 100).
const CS: u64 = 100;
/// Mean think time in the baselines (paper: U(0,500), mean 250).
const THINK_BOUND: u64 = 500;

/// Average overhead (cycles) added per critical section by the lock
/// `make` builds, with `procs` contenders — the baseline test of §3.5.1 /
/// Figure 3.15 left (and, for the reactive SM/MP lock, Figure 3.26) —
/// over `total_ops` acquisitions, so the scenario layer can run
/// scaled-down deterministic variants.
pub fn lock_overhead_n<L: Lock + Debug>(
    procs: usize,
    cost: CostModel,
    full_map: bool,
    total_ops: u64,
    make: impl FnOnce(&Machine) -> L,
) -> f64 {
    let m = Machine::new(
        Config::default()
            .nodes(procs.max(2))
            .cost(cost)
            .full_map(full_map),
    );
    let lock = make(&m);
    let iters = (total_ops / procs as u64).max(8);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(CS).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(THINK_BOUND)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "{lock:?} deadlocked at {procs} procs");
    let total_cs = iters * procs as u64;
    let per_cs = elapsed as f64 / total_cs as f64;
    // Test-loop latency per critical section (§3.5.1): the think time
    // overlaps across processors; the CS itself serializes.
    let ideal = ((CS + THINK_BOUND / 2) as f64 / procs as f64).max(CS as f64);
    (per_cs - ideal).max(0.0)
}

/// Average overhead per fetch-and-increment of the object `make` builds
/// (Figure 3.15 right; Figure 3.26 for the reactive SM/MP fetch-op) over
/// `total_ops` operations.
pub fn fetchop_overhead_n<F: FetchOp + Debug>(
    procs: usize,
    cost: CostModel,
    total_ops: u64,
    make: impl FnOnce(&Machine) -> F,
) -> f64 {
    let m = Machine::new(Config::default().nodes(procs.max(2)).cost(cost));
    let f = make(&m);
    let iters = (total_ops / procs as u64).max(8);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let f = f.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                f.fetch_add(&cpu, 1).await;
                cpu.work(cpu.rand_below(THINK_BOUND)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "{f:?} deadlocked at {procs} procs");
    let ops = iters * procs as u64;
    let per_op = elapsed as f64 / ops as f64;
    let ideal = (THINK_BOUND / 2) as f64 / procs as f64;
    (per_op - ideal).max(0.0)
}

/// One multiple-lock contention pattern (Figures 3.17-3.19): a list of
/// lock groups, each `(locks_in_group, procs_per_lock)`.
#[derive(Clone, Debug)]
pub struct Pattern {
    /// Pattern number as in the paper.
    pub id: usize,
    /// `(number_of_locks, contending_procs_each)` groups.
    pub groups: Vec<(usize, usize)>,
}

/// The twelve contention patterns of §3.5.3. Patterns 1-8 follow the
/// paper's text exactly (one or more high-contention locks plus 32
/// single- or double-proc locks); 9-12 are uniform mixes covering the
/// same axis (the thesis figures do not tabulate them numerically).
pub fn patterns() -> Vec<Pattern> {
    let mut v = Vec::new();
    // Patterns 1-4: k locks with 32/k procs, plus 32 locks with 1 proc.
    for (i, &(n, c)) in [(1, 32), (2, 16), (4, 8), (8, 4)].iter().enumerate() {
        v.push(Pattern {
            id: i + 1,
            groups: vec![(n, c), (32, 1)],
        });
    }
    // Patterns 5-8: low-contention locks have 2 procs each.
    for (i, &(n, c)) in [(1, 32), (2, 16), (4, 8), (8, 4)].iter().enumerate() {
        v.push(Pattern {
            id: i + 5,
            groups: vec![(n, c), (16, 2)],
        });
    }
    // Patterns 9-12: uniform contention levels.
    for (i, &(n, c)) in [(32, 2), (16, 4), (64, 1), (1, 64)].iter().enumerate() {
        v.push(Pattern {
            id: i + 9,
            groups: vec![(n, c)],
        });
    }
    v
}

/// Elapsed time for the multiple-lock test under one pattern.
/// `alg = None` runs the *simulated optimal*: per-lock static choice
/// (TTS below 4 contenders, MCS at 4 or more), as in §3.5.3.
pub fn multi_object(pattern: &Pattern, alg: Option<LockAlg>, acq_per_proc: u64) -> u64 {
    let procs: usize = pattern.groups.iter().map(|(n, c)| n * c).sum();
    let m = Machine::new(Config::default().nodes(procs));
    let mut assignments: Vec<(AnyLock, alewife_sim::Addr)> = Vec::new();
    let mut lock_of_proc: Vec<usize> = Vec::new();
    for &(n, c) in &pattern.groups {
        for _ in 0..n {
            let home = assignments.len() % procs;
            let chosen = match alg {
                Some(a) => a,
                None => {
                    if c < 4 {
                        LockAlg::Tts
                    } else {
                        LockAlg::Mcs
                    }
                }
            };
            let lock = AnyLock::make(&m, home, chosen, c);
            let val = m.alloc_on(home, 1);
            assignments.push((lock, val));
            for _ in 0..c {
                lock_of_proc.push(assignments.len() - 1);
            }
        }
    }
    for p in 0..procs {
        let cpu = m.cpu(p);
        let (lock, val) = assignments[lock_of_proc[p]].clone();
        m.spawn(p, async move {
            for _ in 0..acq_per_proc {
                let t = lock.acquire(&cpu).await;
                // "Increment a double-precision value": read + fp work +
                // write.
                let v = cpu.read(val).await;
                cpu.work(20).await;
                cpu.write(val, v + 1).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(THINK_BOUND)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "multi-object deadlock");
    elapsed
}

/// The time-varying contention test of §3.5.4 (Figures 3.20-3.23):
/// alternating low-contention (1 proc, 10-cycle CS, 20-cycle think) and
/// high-contention (16 procs, 100-cycle CS, 250-cycle think) phases.
/// `period_len` = locks acquired per period, `contention_pct` = fraction
/// acquired in the high phase, `periods` repetitions. Runs on the
/// 16-node prototype cost model. Returns `(elapsed_cycles,
/// protocol_switches)`, the switches read from a [`SwitchLog`] attached
/// to the lock (always 0 for the static algorithms), so scenarios can
/// claim both the cost and the adaptation behaviour of a reactive
/// variant.
pub fn time_varying(
    alg: LockAlg,
    period_len: u64,
    contention_pct: u64,
    periods: u64,
) -> (u64, u64) {
    let procs = 16usize;
    let m = Machine::new(Config::default().nodes(procs).cost(CostModel::prototype()));
    let log = Rc::new(SwitchLog::new());
    let lock = AnyLock::make_instrumented(&m, 0, alg, procs, Some(log.clone()));
    let bar = SenseBarrier::new(&m, 0, procs as u64);
    let high_total = period_len * contention_pct / 100;
    let high_each = (high_total / procs as u64).max(1);
    let low_total = period_len - high_total;
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            for _ in 0..periods {
                // Low phase: only proc 0 uses the lock.
                if p == 0 {
                    for _ in 0..low_total {
                        let t = lock.acquire(&cpu).await;
                        cpu.work(10).await;
                        lock.release(&cpu, t).await;
                        cpu.work(20).await;
                    }
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
                // High phase: everyone contends.
                for _ in 0..high_each {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(100).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(500)).await;
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "time-varying deadlock");
    (elapsed, log.count() as u64)
}

/// Always propose the other protocol of a 2-way object: every release
/// under it is a protocol change.
#[derive(Clone, Copy, Debug)]
pub struct FlipFlop;

impl Policy for FlipFlop {
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision::SwitchTo(ProtocolId(1 - obs.current.0))
    }
}

/// Never switch: the plain-release baseline [`FlipFlop`] is measured
/// against.
#[derive(Clone, Copy, Debug)]
pub struct Stay;

impl Policy for Stay {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}

/// Mean release cycles of a 16-way contended [`ReactiveLock`] per
/// release kind, `[tts, queue, tts_to_queue, queue_to_tts]` (NaN for a
/// kind that never occurred), with `iters` acquisitions per processor.
fn release_cycles(iters: u64, policy: impl Policy + 'static, start_in_queue: bool) -> [f64; 4] {
    const PROCS: usize = 16;
    let m = Machine::new(Config::default().nodes(PROCS));
    let mut b = ReactiveLock::builder(&m, 0).max_procs(PROCS).policy(policy);
    if start_in_queue {
        b = b.initial_protocol(PROTO_QUEUE);
    }
    let lock = b.build();
    let sums = Rc::new(Cell::new([(0u64, 0u64); 4]));
    for p in 0..PROCS {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let sums = sums.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(10).await;
                let kind = match t {
                    ReleaseMode::Tts => 0,
                    ReleaseMode::Queue(_) => 1,
                    ReleaseMode::TtsToQueue => 2,
                    ReleaseMode::QueueToTts(_) => 3,
                };
                let t0 = cpu.now();
                lock.release(&cpu, t).await;
                let mut s = sums.get();
                s[kind] = (s[kind].0 + (cpu.now() - t0), s[kind].1 + 1);
                sums.set(s);
                cpu.work(cpu.rand_below(100)).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0, "switch-cost run deadlocked");
    sums.get().map(|(sum, n)| sum as f64 / n as f64)
}

/// The §3.5.5 protocol-change cost of the reactive lock, in cycles:
/// `[tts_to_queue, queue_to_tts]`, each the mean switching release
/// under [`FlipFlop`] minus the mean plain release in the same mode
/// under [`Stay`], all three runs 16-way contended (populated queues to
/// invalidate, contended lines to hand around, as on Alewife).
pub fn switch_cost_cycles(iters: u64) -> [f64; 2] {
    let flip = release_cycles(iters, FlipFlop, false);
    let tts = release_cycles(iters, Stay, false)[0];
    let queue = release_cycles(iters, Stay, true)[1];
    [flip[2] - tts, flip[3] - queue]
}

/// One shard of the contended-lock cluster: the shard's nodes hammer a
/// shard-local `alg` lock (`cs` cycles held, think time below `think`),
/// and shard node 0 posts a heartbeat to the next shard every
/// `heartbeat_every` acquisitions, which that shard's node 0 counts as
/// `ring_hops`.
pub fn cluster_lock_tile(
    ctx: &ShardCtx<'_>,
    alg: LockAlg,
    cs: u64,
    think: u64,
    iters: u64,
    heartbeat_every: u64,
) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let lock = AnyLock::make(m, 0, alg, n);
    m.register_handler(0, Port(61), |hctx, _| hctx.bump("ring_hops", 1));
    for p in 0..n {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let mail = ctx.mail();
        let (base, total) = (ctx.node_base, ctx.total_nodes);
        m.spawn(p, async move {
            for i in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(cs).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(think)).await;
                if p == 0 && i % heartbeat_every == 0 {
                    mail.post(cpu.now(), base, (base + n) % total, Port(61), [i, 0, 0, 0]);
                }
            }
        });
    }
}

/// Barrier arrival protocols compared by the `barrier_reactive`
/// scenario (beyond the paper: the kernel-built fifth reactive object).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierAlg {
    /// Centralized sense-reversing barrier (one counter line).
    Central,
    /// Software combining arrival tree (fanout-bounded sharing).
    Tree,
    /// The kernel-built [`ReactiveBarrier`] selecting between them.
    Reactive,
}

/// Cycles per barrier round for `procs` participants, and the reactive
/// barrier's protocol-switch count (0 for the static protocols).
pub fn barrier_overhead_counted(alg: BarrierAlg, procs: usize, rounds: u64) -> (f64, u64) {
    #[derive(Clone)]
    enum AnyBar {
        Central(SenseBarrier),
        Tree(TreeBarrier),
        Reactive(ReactiveBarrier),
    }
    let m = Machine::new(Config::default().nodes(procs));
    let bar = match alg {
        BarrierAlg::Central => AnyBar::Central(SenseBarrier::new(&m, 0, procs as u64)),
        BarrierAlg::Tree => AnyBar::Tree(TreeBarrier::new(&m, 0, procs, barrier::FANOUT)),
        BarrierAlg::Reactive => AnyBar::Reactive(ReactiveBarrier::new(&m, 0, procs)),
    };
    for p in 0..procs {
        let cpu = m.cpu(p);
        let bar = bar.clone();
        m.spawn(p, async move {
            let mut ctx = BarrierCtx::default();
            for _ in 0..rounds {
                cpu.work(cpu.rand_below(200)).await;
                match &bar {
                    AnyBar::Central(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                    AnyBar::Tree(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                    AnyBar::Reactive(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                }
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "barrier experiment deadlock");
    let switches = match &bar {
        AnyBar::Reactive(b) => b.switches(),
        _ => 0,
    };
    (elapsed as f64 / rounds as f64, switches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_apps::alg::{AnyFetchOp, FetchOpAlg};

    #[test]
    fn baseline_shapes_hold() {
        // The headline tradeoff (Figure 1.1): TTS beats MCS alone, MCS
        // beats test&set at 16 procs, and the reactive lock is near the
        // better protocol at both ends.
        let nwo = CostModel::nwo;
        let overhead = |alg, procs| {
            lock_overhead_n(procs, nwo(), false, BASELINE_OPS, |m| {
                AnyLock::make(m, 0, alg, procs)
            })
        };
        let tts1 = overhead(LockAlg::Tts, 1);
        let mcs1 = overhead(LockAlg::Mcs, 1);
        let re1 = overhead(LockAlg::Reactive, 1);
        assert!(tts1 < mcs1, "uncontended: TTS {tts1} !< MCS {mcs1}");
        assert!(re1 < 1.6 * tts1.max(8.0), "reactive {re1} vs TTS {tts1}");

        let ts16 = overhead(LockAlg::TestAndSet, 16);
        let mcs16 = overhead(LockAlg::Mcs, 16);
        let re16 = overhead(LockAlg::Reactive, 16);
        assert!(mcs16 < ts16, "contended: MCS {mcs16} !< TS {ts16}");
        assert!(re16 < 1.6 * mcs16, "reactive {re16} vs MCS {mcs16}");
    }

    #[test]
    fn fetchop_crossover_holds() {
        let overhead = |alg, procs| {
            fetchop_overhead_n(procs, CostModel::nwo(), BASELINE_OPS, |m| {
                AnyFetchOp::make(m, 0, alg, procs)
            })
        };
        let tree1 = overhead(FetchOpAlg::Combining, 1);
        let lock1 = overhead(FetchOpAlg::TtsLock, 1);
        assert!(lock1 < tree1, "uncontended: lock {lock1} !< tree {tree1}");
        let tree32 = overhead(FetchOpAlg::Combining, 32);
        let tts32 = overhead(FetchOpAlg::TtsLock, 32);
        assert!(
            tree32 < tts32,
            "contended: tree {tree32} !< TTS-lock {tts32}"
        );
    }

    #[test]
    fn multi_object_runs_all_patterns_small() {
        for p in patterns().iter().take(2) {
            let t = multi_object(p, Some(LockAlg::Reactive), 4);
            assert!(t > 0);
        }
    }

    #[test]
    fn time_varying_runs() {
        let (t, _) = time_varying(LockAlg::Reactive, 64, 50, 2);
        assert!(t > 0);
    }
}
