//! A miniature Figure 1.1: sweep contention from 1 to 32 processors and
//! print the per-acquisition overhead of each spin-lock protocol — the
//! tradeoff the reactive lock resolves.
//!
//! Run with: `cargo run --release --example contention_sweep`

use reactive_sync::apps::alg::{AnyLock, LockAlg};
use reactive_sync::sim::{Config, CostModel, Machine};

/// Average overhead per critical section (same method as §3.5.1).
fn lock_overhead(alg: LockAlg, procs: usize, cost: CostModel) -> f64 {
    let m = Machine::new(Config::default().nodes(procs.max(2)).cost(cost));
    let lock = AnyLock::make(&m, 0, alg, procs);
    let iters = (512 / procs as u64).max(8);
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(100).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(500)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    let per_cs = elapsed as f64 / (iters * procs as u64) as f64;
    let ideal = ((100.0 + 250.0) / procs as f64).max(100.0);
    (per_cs - ideal).max(0.0)
}

fn main() {
    println!("spin-lock overhead (cycles per critical section)");
    println!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}",
        "procs", "test&set", "tts", "mcs", "reactive"
    );
    for procs in [1usize, 2, 4, 8, 16, 32] {
        let ts = lock_overhead(LockAlg::TestAndSet, procs, CostModel::nwo());
        let tts = lock_overhead(LockAlg::Tts, procs, CostModel::nwo());
        let mcs = lock_overhead(LockAlg::Mcs, procs, CostModel::nwo());
        let re = lock_overhead(LockAlg::Reactive, procs, CostModel::nwo());
        println!("{procs:<8}{ts:>12.1}{tts:>12.1}{mcs:>12.1}{re:>12.1}");
    }
    println!("\nexpected shape: tts wins at 1-2 procs, mcs wins at >=4,");
    println!("reactive tracks the winner at both ends (Figure 1.1).");
}
