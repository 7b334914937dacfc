//! Simulator hot-path throughput: events/sec and simulated cycles/sec
//! of the single-machine event loop on fixed reactive-lock workloads,
//! across machine shapes (1/16/64 nodes) and two contention regimes, as
//! tracked since PR 2. The headline is the 64-node contended row. The
//! sharded cluster's speedup is `sim_parallel_scale`'s claim (critical
//! path) and the repository benchmark's `cluster_ring` (threaded wall
//! ratio).
//!
//! Writes `BENCH_sim.json` at the repository root.
//!
//! ```sh
//! cargo bench --bench sim_throughput                  # full run (3 reps/row)
//! cargo bench --bench sim_throughput -- --quick       # bounded run for CI
//! ```

use std::time::Instant;

use alewife_sim::{Config, CostModel, Machine};
use repro_bench::table;
use sim_apps::alg::{AnyLock, LockAlg};

/// Machine shapes swept by the serial section.
const SHAPES: [usize; 3] = [1, 16, 64];

/// Contention regimes: (label, critical-section cycles, think bound).
/// "contended" is the headline regime tracked in EXPERIMENTS.md.
const REGIMES: [(&str, u64, u64); 2] = [("moderate", 50, 50), ("contended", 5, 1)];

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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
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
            if i + 1 < best.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");
}
