//! Simulator hot-path throughput: events/sec and simulated cycles/sec
//! on fixed reactive-lock workloads. Two sections:
//!
//! * **serial** — the single-machine event loop across machine shapes
//!   (1/16/64 nodes) and two contention regimes, as tracked since PR 2.
//!   The headline is the 64-node contended row.
//! * **parallel** — the sharded [`Cluster`] at 256-4096 nodes under the
//!   contended regime, one reactive lock per 64-node shard plus a
//!   cross-shard message ring. Each shape reports two rates:
//!   `events_per_sec` is the real threaded wall rate on this host, and
//!   `aggregate_events_per_sec` is `events / critical_path_secs` where
//!   the critical path sums each epoch's *maximum* per-shard busy time,
//!   measured in the serial reference execution (uncontaminated by core
//!   oversubscription) — the rate a host with `workers` idle cores
//!   sustains. `host_cores` is recorded beside both so neither number
//!   can masquerade as the other.
//!
//! Writes `BENCH_sim.json` at the repository root.
//!
//! ```sh
//! cargo bench --bench sim_throughput                  # full run (3 reps/row)
//! cargo bench --bench sim_throughput -- --quick       # bounded run for CI
//! cargo bench --bench sim_throughput -- --workers 8   # override shard count
//! ```

use std::time::Instant;

use alewife_sim::parallel::{Cluster, ParallelConfig};
use alewife_sim::{Config, CostModel, Machine};
use repro_bench::experiments::cluster_lock_tile;
use repro_bench::table;
use sim_apps::alg::{AnyLock, LockAlg};

/// Machine shapes swept by the serial section.
const SHAPES: [usize; 3] = [1, 16, 64];

/// Contention regimes: (label, critical-section cycles, think bound).
/// "contended" is the headline regime tracked in EXPERIMENTS.md.
const REGIMES: [(&str, u64, u64); 2] = [("moderate", 50, 50), ("contended", 5, 1)];

/// Parallel-section shapes: (total nodes, shards). 64 nodes per shard
/// everywhere, the headline serial shape, so per-shard behaviour is the
/// known quantity and the sweep varies only the shard count.
const CLUSTER_SHAPES: [(usize, usize); 3] = [(256, 4), (1024, 16), (4096, 64)];

/// Epoch window for the cluster rows (cycles). Coarsens the lookahead so
/// an epoch covers tens of thousands of simulated cycles instead of one
/// mesh hop's worth — the barrier/bookkeeping cost per epoch stays
/// invisible next to event execution (and on an oversubscribed host,
/// each barrier costs scheduler handoffs, so fewer is strictly better).
/// The ring traffic tolerates the latency.
const EPOCH_WINDOW: u64 = 60_000;

struct Sample {
    nodes: usize,
    regime: &'static str,
    events: u64,
    cycles: u64,
    wall_secs: f64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_secs
    }
}

/// One measured serial run: every node hammers a single reactive lock.
fn run_shape(nodes: usize, regime: &'static str, cs: u64, think: u64, iters: u64) -> Sample {
    let m = Machine::new(
        Config::default()
            .nodes(nodes.max(2))
            .cost(CostModel::nwo())
            .seed(0xBEEF + nodes as u64),
    );
    let lock = AnyLock::make(&m, 0, LockAlg::Reactive, nodes);
    for p in 0..nodes {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(cs).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(think)).await;
            }
        });
    }
    let t0 = Instant::now();
    let cycles = m.run();
    let wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(m.live_tasks(), 0, "throughput workload deadlocked");
    Sample {
        nodes,
        regime,
        events: m.stats().sim_events,
        cycles,
        wall_secs,
    }
}

struct ClusterSample {
    nodes: usize,
    workers: usize,
    events: u64,
    cycles: u64,
    epochs: u64,
    /// Threaded-run wall time (real host rate).
    wall_secs: f64,
    /// Per-epoch max shard busy summed, from the serial reference run.
    critical_path_secs: f64,
    /// Total shard busy time in the reference run; `busy / (W * cp)` is
    /// the load-balance factor (1.0 = perfectly even epochs).
    busy_secs_sum: f64,
}

impl ClusterSample {
    fn wall_rate(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn aggregate_rate(&self) -> f64 {
        self.events as f64 / self.critical_path_secs
    }
}

/// One cluster shape, measured twice: the serial reference supplies the
/// event totals and the epoch critical path; the threaded run supplies
/// the real wall rate on this host.
fn run_cluster(nodes: usize, workers: usize, iters: u64) -> ClusterSample {
    let mk = || {
        Cluster::new(
            nodes,
            Config::default()
                .cost(CostModel::nwo())
                .seed(0xBEEF + nodes as u64),
            ParallelConfig {
                workers,
                epoch_window: EPOCH_WINDOW,
            },
        )
    };
    // The contended regime, with a heartbeat every 16 acquisitions.
    let reference =
        mk().run_serial(|ctx| cluster_lock_tile(ctx, LockAlg::Reactive, 5, 1, iters, 16));
    assert_eq!(reference.live_tasks, 0, "cluster workload deadlocked");
    assert_eq!(reference.causality_violations, 0, "lookahead bound broken");
    let threaded =
        mk().run_parallel(|ctx| cluster_lock_tile(ctx, LockAlg::Reactive, 5, 1, iters, 16));
    assert_eq!(
        threaded.stats.sim_events, reference.stats.sim_events,
        "cross-mode event-count mismatch"
    );
    ClusterSample {
        nodes,
        workers,
        events: reference.stats.sim_events,
        cycles: reference.elapsed,
        epochs: reference.epochs,
        wall_secs: threaded.wall_secs,
        critical_path_secs: reference.critical_path_secs,
        busy_secs_sum: reference.busy_secs.iter().sum(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let workers_override: Option<usize> = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok());
    // Keep total simulated work roughly constant across shapes so each
    // row runs long enough to time reliably.
    let (per_proc, reps) = if quick { (1_500u64, 1) } else { (6_000u64, 3) };

    table::title("sim_throughput: event-loop throughput (reactive lock)");
    table::header(
        "nodes/regime",
        &[
            "events".into(),
            "cycles".into(),
            "Mev/s".into(),
            "Mcyc/s".into(),
        ],
    );

    let mut best: Vec<Sample> = Vec::new();
    for &(regime, cs, think) in &REGIMES {
        for &nodes in &SHAPES {
            let iters = (per_proc * 16 / nodes as u64).max(64);
            // Warm-up run (not timed) so allocator state is steady.
            if !quick {
                run_shape(nodes, regime, cs, think, iters / 4);
            }
            let mut row_best: Option<Sample> = None;
            for _ in 0..reps {
                let s = run_shape(nodes, regime, cs, think, iters);
                if row_best.as_ref().is_none_or(|b| s.wall_secs < b.wall_secs) {
                    row_best = Some(s);
                }
            }
            let s = row_best.expect("at least one rep ran");
            print!("{:<28}", format!("{} {}", s.nodes, s.regime));
            print!("{:>12}", s.events);
            print!("{:>12}", s.cycles);
            print!("{:>12.3}", s.events_per_sec() / 1e6);
            print!("{:>12.3}", s.cycles_per_sec() / 1e6);
            println!();
            best.push(s);
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    table::title("sim_throughput: sharded cluster (contended, 64 nodes/shard)");
    table::header(
        "nodes/shards",
        &[
            "events".into(),
            "epochs".into(),
            "wall Mev/s".into(),
            "agg Mev/s".into(),
            "balance".into(),
        ],
    );
    let cluster_shapes: Vec<(usize, usize)> = if quick {
        vec![(256, workers_override.unwrap_or(4))]
    } else {
        CLUSTER_SHAPES
            .iter()
            .map(|&(n, w)| (n, workers_override.unwrap_or(w)))
            .collect()
    };
    let mut clusters: Vec<ClusterSample> = Vec::new();
    for &(nodes, workers) in &cluster_shapes {
        // Per-proc iterations scaled down with node count so every
        // shape simulates a comparable event total (the contended
        // 64-node shard emits ~180 events per lock iteration, so these
        // totals land in the millions — long enough to time, short
        // enough that the threaded run stays affordable on a small
        // host). The floor keeps the run well past the reactive locks'
        // adaptation transient: the early epochs where shards diverge
        // (some still spinning, some already queueing) are the
        // imbalanced ones, so a too-short run understates the epoch
        // balance and with it the aggregate rate.
        let iters = if quick {
            (12_000 / nodes as u64).max(12)
        } else {
            (96_000 / nodes as u64).max(24)
        };
        let c = run_cluster(nodes, workers, iters);
        print!("{:<28}", format!("{} / {}", c.nodes, c.workers));
        print!("{:>12}", c.events);
        print!("{:>12}", c.epochs);
        print!("{:>12.3}", c.wall_rate() / 1e6);
        print!("{:>12.3}", c.aggregate_rate() / 1e6);
        print!(
            "{:>12.3}",
            c.busy_secs_sum / (c.workers as f64 * c.critical_path_secs)
        );
        println!();
        clusters.push(c);
    }
    println!("(host cores: {host_cores}; agg = events / epoch critical path)");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let mut json = String::from("{\n  \"bench\": \"sim_throughput\",\n");
    json.push_str(&format!(
        "  \"quick\": {quick},\n  \"host_cores\": {host_cores},\n  \"rows\": [\n"
    ));
    for (i, s) in best.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"serial\", \"nodes\": {}, \"regime\": \"{}\", \"events\": {}, \
             \"cycles\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \
             \"cycles_per_sec\": {:.1}}}{}\n",
            s.nodes,
            s.regime,
            s.events,
            s.cycles,
            s.wall_secs,
            s.events_per_sec(),
            s.cycles_per_sec(),
            if i + 1 < best.len() || !clusters.is_empty() {
                ","
            } else {
                ""
            },
        ));
    }
    for (i, c) in clusters.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"parallel\", \"nodes\": {}, \"workers\": {}, \"regime\": \
             \"contended\", \"events\": {}, \"cycles\": {}, \"epochs\": {}, \
             \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \"critical_path_secs\": {:.6}, \
             \"aggregate_events_per_sec\": {:.1}}}{}\n",
            c.nodes,
            c.workers,
            c.events,
            c.cycles,
            c.epochs,
            c.wall_secs,
            c.wall_rate(),
            c.critical_path_secs,
            c.aggregate_rate(),
            if i + 1 < clusters.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");
}
