//! FibHeap — a heap behind one hot mutex (§4.6.2).
//!
//! Threads repeatedly insert into / extract from a shared priority
//! queue protected by a single mutex. Mutex waiting times are roughly
//! exponential with a heavy tail (Figure 4.10). The heap itself lives
//! host-side; the mutex, critical-section occupancy, and waiting are
//! fully simulated (the paper's result depends only on those).

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;

use alewife_sim::{Config, Machine};

use crate::alg::{WaitAlg, WaitLock};
use crate::AppResult;

/// FibHeap configuration.
#[derive(Clone, Debug)]
pub struct FibHeapConfig {
    /// Number of processors (one worker thread each).
    pub procs: usize,
    /// Operations per processor.
    pub ops: u64,
    /// Waiting algorithm at the mutex.
    pub wait: WaitAlg,
    /// Mean think time between operations.
    pub think: u64,
    /// Random seed.
    pub seed: u64,
}

impl FibHeapConfig {
    /// A small default instance.
    pub fn small(procs: usize, wait: WaitAlg) -> FibHeapConfig {
        FibHeapConfig {
            procs,
            ops: 20,
            wait,
            think: 400,
            seed: 0xF1BB,
        }
    }
}

/// Run FibHeap; returns elapsed cycles and stats.
pub fn run(cfg: &FibHeapConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let lock = WaitLock::new(&m, 0);
    let heap: Rc<RefCell<BinaryHeap<u64>>> = Rc::new(RefCell::new(BinaryHeap::new()));
    let w = cfg.wait;

    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let heap = heap.clone();
        let cfg = cfg.clone();
        m.spawn(p, async move {
            for i in 0..cfg.ops {
                lock.acquire(&cpu, &w).await;
                // Heap operation cost ~ log(size) memory touches.
                let size = heap.borrow().len() as u64;
                cpu.work(60 + 12 * (64 - size.leading_zeros() as u64)).await;
                if i % 2 == 0 {
                    heap.borrow_mut().push(cpu.rand_below(1_000));
                } else {
                    heap.borrow_mut().pop();
                }
                lock.release(&cpu).await;
                cpu.work(cpu.rand_below(2 * cfg.think.max(1))).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "fibheap deadlock");
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
            let r = run(&FibHeapConfig::small(4, w));
            assert!(r.elapsed > 0, "{w:?}");
            assert!(r.stats.waits.contains_key("mutex"), "{w:?}");
        }
    }

    #[test]
    fn mutex_waits_have_spread() {
        let r = run(&FibHeapConfig::small(8, WaitAlg::Spin));
        let h = r.stats.waits.get("mutex").expect("mutex histogram");
        assert!(h.count >= 8 * 20);
        assert!(h.max > h.percentile(50.0), "no tail in waiting times");
    }
}
