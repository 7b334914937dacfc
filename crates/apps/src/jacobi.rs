//! Jacobi — iterative grid relaxation (§4.6.2).
//!
//! Two variants matching the paper's benchmarks:
//!
//! * [`run_jstructures`] (the paper's *Jacobi*): rows are partitioned;
//!   after computing its block each processor publishes its boundary
//!   rows through per-iteration J-structure slots that neighbours read —
//!   producer-consumer waiting (Figure 4.6's waiting-time profile).
//! * [`run_barrier`] (the paper's *Jacobi-Bar*): the same computation
//!   separated by barriers instead (Figure 4.8's barrier waits).

use alewife_sim::{Config, Machine};
use sync_protocols::barrier::{BarrierCtx, SenseBarrier};
use sync_protocols::pc::JStructure;

use crate::alg::WaitAlg;
use crate::AppResult;

/// Jacobi configuration.
#[derive(Clone, Debug)]
pub struct JacobiConfig {
    /// Number of processors.
    pub procs: usize,
    /// Relaxation iterations.
    pub iterations: usize,
    /// Compute cycles per processor per iteration (base).
    pub grain: u64,
    /// Load imbalance: extra random cycles up to this bound.
    pub skew: u64,
    /// Waiting algorithm.
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl JacobiConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> JacobiConfig {
        JacobiConfig {
            procs,
            iterations: 6,
            grain: 2_000,
            skew: 1_500,
            wait,
            seed: 0x1ACB,
        }
    }
}

/// J-structure variant: neighbours exchange boundary rows.
pub fn run_jstructures(cfg: &JacobiConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    // One slot per (iteration, proc, side): publish down-edge and
    // up-edge values each iteration.
    let slots = JStructure::new(&m, cfg.iterations * cfg.procs * 2);
    let w = cfg.wait;
    let procs = cfg.procs;

    for p in 0..procs {
        let cpu = m.cpu(p);
        let cfg = cfg.clone();
        m.spawn(p, async move {
            for it in 0..cfg.iterations {
                // Relax the interior of our block.
                cpu.work(cfg.grain + cpu.rand_below(cfg.skew.max(1))).await;
                // Publish our boundary rows for this iteration.
                let base = (it * procs + p) * 2;
                slots.write(&cpu, base, (p + it) as u64 + 1).await;
                slots.write(&cpu, base + 1, (p + it) as u64 + 1).await;
                // Read the neighbours' boundaries (wrap-around).
                let up = (p + procs - 1) % procs;
                let down = (p + 1) % procs;
                let v1 = slots.read(&cpu, &w, (it * procs + up) * 2 + 1).await;
                let v2 = slots.read(&cpu, &w, (it * procs + down) * 2).await;
                assert!(v1 > 0 && v2 > 0);
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "jacobi deadlock");
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

/// Barrier variant (Jacobi-Bar).
pub fn run_barrier(cfg: &JacobiConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let bar = SenseBarrier::new(&m, 0, cfg.procs as u64);
    let w = cfg.wait;

    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let cfg = cfg.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            for _ in 0..cfg.iterations {
                cpu.work(cfg.grain + cpu.rand_below(cfg.skew.max(1))).await;
                bar.wait(&cpu, &mut bctx, &w).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "jacobi-bar deadlock");
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jstructures_all_wait_algs() {
        for w in [WaitAlg::Spin, WaitAlg::Block, WaitAlg::TwoPhase(465)] {
            let r = run_jstructures(&JacobiConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
            assert!(r.stats.waits.contains_key("jstruct"), "{w:?}");
        }
    }

    #[test]
    fn barrier_all_wait_algs() {
        for w in [WaitAlg::Spin, WaitAlg::Block, WaitAlg::TwoPhase(465)] {
            let r = run_barrier(&JacobiConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
            assert!(r.stats.waits.contains_key("barrier"), "{w:?}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run_jstructures(&JacobiConfig::small(4, WaitAlg::TwoPhase(465))).elapsed;
        let b = run_jstructures(&JacobiConfig::small(4, WaitAlg::TwoPhase(465))).elapsed;
        assert_eq!(a, b);
    }
}
