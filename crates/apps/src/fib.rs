//! Fib — Fibonacci with futures (§4.6.2).
//!
//! The classic future-parallel Fibonacci: each call spawns children as
//! futures and touches them. Touch waiting times are short and roughly
//! exponential (Figure 4.7), making this a producer-consumer benchmark
//! for the waiting algorithms.

use alewife_sim::{Config, Cpu, Machine};
use sync_protocols::pc::FutureCell;

use crate::alg::WaitAlg;
use crate::AppResult;

/// Fib configuration.
#[derive(Clone, Debug)]
pub struct FibConfig {
    /// Number of processors.
    pub procs: usize,
    /// Fibonacci argument (call tree has ~fib(n) leaves).
    pub n: u32,
    /// Sequential cutoff (below this, compute inline).
    pub cutoff: u32,
    /// Waiting algorithm for touches.
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl FibConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> FibConfig {
        FibConfig {
            procs,
            n: 10,
            cutoff: 4,
            wait,
            seed: 0xF1B0,
        }
    }
}

fn fib_exact(n: u32) -> u64 {
    let (mut a, mut b) = (0u64, 1u64);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

fn fib_task(
    cpu: Cpu,
    w: WaitAlg,
    n: u32,
    cutoff: u32,
    procs: usize,
    out: FutureCell,
) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> {
    Box::pin(async move {
        if n < cutoff {
            // Sequential leaf: cycles proportional to the subtree.
            cpu.work(60 * (fib_exact(n).max(1))).await;
            out.determine(&cpu, fib_exact(n)).await;
            return;
        }
        cpu.work(120).await; // spawn overhead / stack frame
        let child_node = (cpu.node() + 1 + (n as usize % 3)) % procs;
        let f1 = FutureCell::new_on_cpu(&cpu, child_node);
        cpu.spawn(
            child_node,
            fib_task(cpu.on(child_node), w, n - 1, cutoff, procs, f1),
        );
        let f2 = FutureCell::new_on_cpu(&cpu, cpu.node());
        cpu.spawn(
            cpu.node(),
            fib_task(cpu.clone(), w, n - 2, cutoff, procs, f2),
        );
        let a = f1.touch(&cpu, &w).await;
        let b = f2.touch(&cpu, &w).await;
        out.determine(&cpu, a + b).await;
    })
}

/// Run Fib; returns elapsed cycles and stats (asserts fib(n) is right).
///
/// Pure spinning is mapped to switch-spinning: a parent that spin-waits
/// for a child scheduled on its own (non-preemptive) processor would
/// deadlock (§2.2.4); Alewife's futures poll by switch-spinning.
pub fn run(cfg: &FibConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let w = match cfg.wait {
        WaitAlg::Spin => WaitAlg::SwitchSpin,
        other => other,
    };
    let result = m.alloc_on(0, 1);
    let root = FutureCell::new(&m, 0);
    let (n, cutoff, procs) = (cfg.n, cfg.cutoff, cfg.procs);
    {
        let cpu = m.cpu(0);
        m.spawn(0, async move {
            cpu.spawn(0, fib_task(cpu.clone(), w, n, cutoff, procs, root));
            let v = root.touch(&cpu, &w).await;
            cpu.write(result, v).await;
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "fib deadlock");
    assert_eq!(m.read_word(result), fib_exact(cfg.n), "wrong fibonacci");
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fib_exact_sanity() {
        assert_eq!(fib_exact(10), 55);
        assert_eq!(fib_exact(0), 0);
        assert_eq!(fib_exact(1), 1);
    }

    #[test]
    fn all_wait_algs_compute_fib() {
        for w in [WaitAlg::Spin, WaitAlg::Block, WaitAlg::TwoPhase(465)] {
            let r = run(&FibConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
            assert!(r.stats.waits.contains_key("future"), "{w:?}");
        }
    }

    #[test]
    fn single_proc_works() {
        let r = run(&FibConfig::small(1, WaitAlg::TwoPhase(465)));
        assert!(r.elapsed > 0);
    }
}
