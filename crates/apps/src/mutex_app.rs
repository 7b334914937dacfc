//! Mutex — the synthetic mutual-exclusion benchmark (§4.6.2):
//! lock / critical section / unlock / think, with tunable lengths, used
//! to generate controlled mutex waiting-time distributions.

use alewife_sim::{Config, Machine};

use crate::alg::{WaitAlg, WaitLock};
use crate::AppResult;

/// Mutex benchmark configuration.
#[derive(Clone, Debug)]
pub struct MutexConfig {
    /// Number of processors.
    pub procs: usize,
    /// Acquisitions per processor.
    pub ops: u64,
    /// Critical-section cycles.
    pub cs: u64,
    /// Mean think time between acquisitions.
    pub think: u64,
    /// Waiting algorithm.
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl MutexConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> MutexConfig {
        MutexConfig {
            procs,
            ops: 25,
            cs: 150,
            think: 500,
            wait,
            seed: 0x0007,
        }
    }
}

/// Run the mutex benchmark; returns elapsed cycles and stats.
pub fn run(cfg: &MutexConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let lock = WaitLock::new(&m, 0);
    let counter = m.alloc_on(1 % cfg.procs, 1);
    let w = cfg.wait;

    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let cfg = cfg.clone();
        m.spawn(p, async move {
            for _ in 0..cfg.ops {
                lock.acquire(&cpu, &w).await;
                let v = cpu.read(counter).await;
                cpu.work(cfg.cs).await;
                cpu.write(counter, v + 1).await;
                lock.release(&cpu).await;
                cpu.work(cpu.rand_below(2 * cfg.think.max(1))).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "mutex benchmark deadlock");
    assert_eq!(
        m.read_word(counter),
        cfg.procs as u64 * cfg.ops,
        "mutual exclusion violated"
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
    fn all_wait_algs_exclude() {
        for w in [
            WaitAlg::Spin,
            WaitAlg::Block,
            WaitAlg::TwoPhase(465),
            WaitAlg::TwoPhase(232),
        ] {
            let r = run(&MutexConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
        }
    }

    /// Low-contention setting: waits are much shorter than B.
    fn short_wait_cfg(wait: WaitAlg) -> MutexConfig {
        MutexConfig {
            procs: 4,
            ops: 30,
            cs: 40,
            think: 1_200,
            wait,
            seed: 0x0007,
        }
    }

    #[test]
    fn spin_beats_block_for_short_waits() {
        let spin = run(&short_wait_cfg(WaitAlg::Spin)).elapsed;
        let block = run(&short_wait_cfg(WaitAlg::Block)).elapsed;
        assert!(
            spin < block,
            "short waits should favour spinning: spin {spin} vs block {block}"
        );
    }

    #[test]
    fn two_phase_tracks_the_better_mechanism() {
        // Short-wait regime: two-phase should be near spinning.
        let spin = run(&short_wait_cfg(WaitAlg::Spin)).elapsed;
        let block = run(&short_wait_cfg(WaitAlg::Block)).elapsed;
        let twop = run(&short_wait_cfg(WaitAlg::TwoPhase(465))).elapsed;
        let best = spin.min(block);
        assert!(
            (twop as f64) < 1.4 * best as f64,
            "two-phase {twop} not within 40% of best static {best}"
        );
    }
}
