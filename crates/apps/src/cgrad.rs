//! CGrad — conjugate-gradient-style barrier benchmark (§4.6.2).
//!
//! Alternating compute phases and reductions, each separated by a
//! barrier. Per-phase work is skewed across processors, producing the
//! spread-out barrier waiting times of Figure 4.8.

use alewife_sim::{Config, Machine};
use sync_protocols::barrier::{BarrierCtx, SenseBarrier};

use crate::alg::WaitAlg;
use crate::AppResult;

/// CGrad configuration.
#[derive(Clone, Debug)]
pub struct CgradConfig {
    /// Number of processors.
    pub procs: usize,
    /// Solver iterations (each has 3 barrier-separated phases).
    pub iterations: usize,
    /// Base compute cycles per phase.
    pub grain: u64,
    /// Waiting algorithm for barrier waits.
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl CgradConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> CgradConfig {
        CgradConfig {
            procs,
            iterations: 4,
            grain: 1_500,
            wait,
            seed: 0xC64D,
        }
    }
}

/// Run CGrad; returns elapsed cycles and stats.
pub fn run(cfg: &CgradConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let bar = SenseBarrier::new(&m, 0, cfg.procs as u64);
    let dot = m.alloc_on(0, 1);
    let w = cfg.wait;

    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let cfg = cfg.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            for _ in 0..cfg.iterations {
                // Phase 1: matrix-vector product (skewed rows).
                cpu.work(cfg.grain + cpu.rand_below(cfg.grain)).await;
                bar.wait(&cpu, &mut bctx, &w).await;
                // Phase 2: dot-product reduction.
                cpu.work(cfg.grain / 4).await;
                cpu.fetch_and_add(dot, 1).await;
                bar.wait(&cpu, &mut bctx, &w).await;
                // Phase 3: vector update.
                cpu.work(cfg.grain / 2 + cpu.rand_below(cfg.grain / 2))
                    .await;
                bar.wait(&cpu, &mut bctx, &w).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "cgrad deadlock");
    assert_eq!(
        m.read_word(dot),
        (cfg.procs * cfg.iterations) as u64,
        "reduction lost updates"
    );
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_wait_algs_complete() {
        for w in [WaitAlg::Spin, WaitAlg::Block, WaitAlg::TwoPhase(465)] {
            let r = run(&CgradConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
        }
    }

    #[test]
    fn barrier_waits_recorded() {
        let r = run(&CgradConfig::small(8, WaitAlg::TwoPhase(465)));
        let h = r.stats.waits.get("barrier").expect("barrier histogram");
        assert!(h.count >= 8 * 4 * 3 - 12); // all waits minus last-arrivers
    }
}
