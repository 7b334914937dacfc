//! Beyond the paper — the conservative parallel simulator: cross-mode
//! conformance, causality, exposed parallelism and tracks-best at 16x
//! machine scale.

use alewife_sim::parallel::{Cluster, ClusterReport, ParallelConfig, ShardCtx};
use alewife_sim::{Config, CostModel, Port};
use sim_apps::alg::{AnyLock, LockAlg};

use super::{Outcome, Scale, Scenario};
use crate::claim::Claim;

pub(super) const SIM_PARALLEL_SCALE: Scenario = Scenario {
    name: "sim_parallel_scale",
    figure: "— (beyond the paper; conservative parallel simulation)",
    paper_says: "sharding the machine into per-tile simulators under a conservative \
                 epoch scheme loses nothing: the threaded execution is bit-identical \
                 to the serial reference, no event ever runs ahead of an undelivered \
                 cross-tile message, the epoch schedule exposes real parallelism \
                 (critical path well under total work), and the paper's \
                 reactive-tracks-best result survives at 16x machine scale",
    claims: &[
        Claim::BoundedRatio {
            num: "parallel/conformance_equal",
            den: None,
            min: 1.0,
            max: 1.0,
        },
        Claim::BoundedRatio {
            num: "parallel/causality_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
        // The epoch schedule must expose real parallelism, not
        // degenerate to lockstep serialization.
        Claim::BoundedRatio {
            num: "parallel/critical_path_speedup",
            den: None,
            min: 2.0,
            max: f64::INFINITY,
        },
        // Same slack as fig_3_15_baseline: reactive pays its probe
        // overhead but stays within 1.8x of the best static choice.
        Claim::TracksBest {
            series: "par/reactive",
            over: &["par/tts", "par/queue"],
            slack: 1.8,
        },
    ],
    run: sim_parallel_scale,
};

fn cluster(nodes: usize, workers: usize, epoch_window: u64) -> Cluster {
    Cluster::new(
        nodes,
        Config::default().cost(CostModel::nwo()).seed(0x5CA1E),
        ParallelConfig {
            workers,
            epoch_window,
        },
    )
}

/// One shard of the contended-lock cluster: the shard's nodes hammer a
/// shard-local `alg` lock (`cs` cycles held, think time below `think`),
/// and shard node 0 posts a heartbeat to the next shard every 4
/// acquisitions, which that shard's node 0 counts as `ring_hops`.
fn lock_tile(ctx: &ShardCtx<'_>, alg: LockAlg, cs: u64, think: u64, iters: u64) {
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
                if p == 0 && i % 4 == 0 {
                    mail.post(cpu.now(), base, (base + n) % total, Port(61), [i, 0, 0, 0]);
                }
            }
        });
    }
}

/// The mode-observable digest: if any of these differ between the
/// serial and threaded executions, conformance is broken.
fn digest(r: &ClusterReport) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.stats.sim_events,
        r.stats.net_msgs,
        r.stats.active_msgs,
        r.stats.counter("ring_hops"),
        r.elapsed,
        r.stats.rmr_cc.iter().sum(),
    )
}

fn sim_parallel_scale(scale: Scale) -> Outcome {
    // 16x the single-machine headline shape at full scale: 1024 nodes
    // as sixteen 64-node tiles. Quick keeps the same tiling rule at
    // debug-affordable size, with the epoch window scaled down alongside
    // the run length so the schedule still spans enough epochs for the
    // balance (speedup) measurement to be meaningful.
    let (nodes, workers, iters, window) = scale.pick((1024, 16, 60, 20_000), (64, 4, 12, 1_500));

    // Cross-mode conformance + causality on the contended reactive
    // cluster (the workload the benchmark's `cluster_ring` times): the
    // paper's contended-lock workload, tiled once per shard.
    let serial = cluster(nodes, workers, window)
        .run_serial(|c| lock_tile(c, LockAlg::Reactive, 5, 1, iters));
    let threaded = cluster(nodes, workers, window)
        .run_parallel(|c| lock_tile(c, LockAlg::Reactive, 5, 1, iters));
    let conforms =
        digest(&serial) == digest(&threaded) && serial.live_tasks == 0 && threaded.live_tasks == 0;
    let violations = serial.causality_violations + threaded.causality_violations;
    // Epoch-schedule speedup in *events*: total events over the
    // per-epoch-max critical path. Deterministic and build-independent,
    // so it gates identically at both scales; W perfectly balanced
    // shards would score W.
    let speedup = serial.stats.sim_events as f64 / serial.critical_path_events as f64;

    // The paper's reactive-tracks-best claim, re-run at tile scale in
    // the fig 3.15 regime (CS = 100 cycles, bounded random think, 16
    // lock acquisitions per processor) and scored the same way: per-CS
    // overhead above the ideal test-loop latency, at two think-time
    // bounds. The cluster's elapsed time is the max over its
    // (identically loaded, differently seeded) tiles, so per-CS cost
    // divides by one tile's acquisition count.
    let (tb_cs, tb_iters) = (100u64, 16u64);
    let tile_procs = nodes / workers;
    let thinks: [u64; 2] = [500, 1_000];
    let algs = [
        ("par/reactive", LockAlg::Reactive),
        ("par/tts", LockAlg::Tts),
        ("par/queue", LockAlg::Mcs),
    ];
    let mut curves: Vec<(&'static str, Vec<(f64, f64)>)> =
        algs.iter().map(|&(l, _)| (l, Vec::new())).collect();
    for &think in &thinks {
        for (ci, &(_, alg)) in algs.iter().enumerate() {
            let r = cluster(nodes, workers, window)
                .run_serial(|c| lock_tile(c, alg, tb_cs, think, tb_iters));
            assert_eq!(r.live_tasks, 0, "tile workload deadlocked");
            let per_cs = r.elapsed as f64 / (tile_procs as u64 * tb_iters) as f64;
            let ideal = ((tb_cs as f64 + think as f64 / 2.0) / tile_procs as f64).max(tb_cs as f64);
            curves[ci].1.push((think as f64, (per_cs - ideal).max(0.0)));
        }
    }

    let mut o = Outcome {
        sweep: "overhead cyc/CS \\ think bound",
        headline: format!(
            "{nodes}-node cluster as {workers} tiles: cross-mode conformance {}, \
             {} causality violations, epoch critical-path speedup {speedup:.1}x over \
             {} epochs (lookahead {} cycles); per-tile reactive tracks best static",
            if conforms { "exact" } else { "BROKEN" },
            violations,
            serial.epochs,
            serial.lookahead,
        ),
        ..Outcome::default()
    };
    for (label, pts) in curves {
        o.push(label, pts);
    }
    o.scalar("parallel/conformance_equal", f64::from(u8::from(conforms)));
    o.scalar("parallel/causality_violations", violations as f64);
    o.scalar("parallel/critical_path_speedup", speedup);
    o.scalar("parallel/epochs", serial.epochs as f64);
    o
}
