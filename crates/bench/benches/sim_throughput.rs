//! Simulator hot-path throughput: events/sec and simulated cycles/sec
//! of the single-machine event loop on fixed reactive-lock workloads,
//! across machine shapes (1/16/64 nodes) and two contention regimes, as
//! tracked since PR 2. The headline is the 64-node contended row. The
//! sharded cluster's speedup is `sim_parallel_scale`'s claim (critical
//! path) and the repository benchmark's `cluster_ring` (threaded wall
//! ratio).
//!
//! Writes `BENCH_sim.json` at the repository root through the rows
//! writer: one row per shape and regime, keyed
//! `serial_<nodes>_<regime>`, whose headline carries the events,
//! simulated cycles, wall seconds, Mev/s and Mcyc/s of the fastest rep;
//! `host_cores` follows the rows.
//!
//! ```sh
//! cargo bench --bench sim_throughput                  # full run (3 reps/row)
//! cargo bench --bench sim_throughput -- --quick       # bounded run for CI
//! ```

use std::time::Instant;

use alewife_sim::{Config, CostModel, Machine};
use repro_bench::record::{rows_json, Row};
use repro_bench::table;
use sim_apps::alg::{AnyLock, LockAlg};

/// Machine shapes swept by the serial section.
const SHAPES: [usize; 3] = [1, 16, 64];

/// Contention regimes: (label, critical-section cycles, think bound).
/// "contended" is the headline regime tracked in EXPERIMENTS.md.
const REGIMES: [(&str, u64, u64); 2] = [("moderate", 50, 50), ("contended", 5, 1)];

/// One measured serial run: every node hammers a single reactive lock.
/// Returns `(events, simulated cycles, wall seconds)`.
fn run_shape(nodes: usize, cs: u64, think: u64, iters: u64) -> (u64, u64, f64) {
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
    (m.stats().sim_events, cycles, wall_secs)
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

    let mut rows = Vec::new();
    for &(regime, cs, think) in &REGIMES {
        for &nodes in &SHAPES {
            let iters = (per_proc * 16 / nodes as u64).max(64);
            // Warm-up run (not timed) so allocator state is steady.
            if !quick {
                run_shape(nodes, cs, think, iters / 4);
            }
            let (events, cycles, secs) = (0..reps)
                .map(|_| run_shape(nodes, cs, think, iters))
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .expect("at least one rep ran");
            let mev = events as f64 / secs / 1e6;
            let mcyc = cycles as f64 / secs / 1e6;
            let label = format!("{nodes} {regime}");
            println!("{label:<28}{events:>12}{cycles:>12}{mev:>12.3}{mcyc:>12.3}");
            rows.push(Row {
                name: format!("serial_{nodes}_{regime}"),
                figure: "— (simulator throughput)",
                headline: format!(
                    "{events} events, {cycles} cycles in {secs:.6} s: {mev:.3} Mev/s, \
                     {mcyc:.3} Mcyc/s"
                ),
                results: Vec::new(),
            });
        }
    }

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rows: Vec<&Row> = rows.iter().collect();
    let json = rows_json(
        "sim_throughput",
        quick,
        &rows,
        Some(&format!("  \"host_cores\": {host_cores}\n")),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, json).expect("write BENCH_sim.json");
    println!("\nwrote BENCH_sim.json");
}
