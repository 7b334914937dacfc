//! AQ — adaptive quadrature (§3.5.6, §4.6.2).
//!
//! Numerical integration by recursive interval subdivision. Two variants
//! matching the paper's uses:
//!
//! * [`run_queue`] — Chapter 3's version: a global work queue of ranges
//!   synchronized with fetch-and-increment (same queue as TSP, but with
//!   larger grain sizes, hence lower index contention).
//! * [`run_futures`] — Chapter 4's version: recursive futures; touching
//!   an undetermined future exercises the waiting algorithm
//!   (exponentially-flavoured waiting times, Figure 4.7).

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Config, Machine};
use sync_protocols::pc::FutureCell;

use crate::alg::{AnyFetchOp, FetchOpAlg, WaitAlg};
use crate::AppResult;

/// AQ configuration.
#[derive(Clone, Debug)]
pub struct AqConfig {
    /// Number of processors.
    pub procs: usize,
    /// Maximum subdivision depth (work ≈ 2^depth leaf evaluations).
    pub depth: u32,
    /// Fetch-and-op algorithm (queue variant).
    pub alg: FetchOpAlg,
    /// Waiting algorithm (futures variant).
    pub wait: WaitAlg,
    /// Random seed.
    pub seed: u64,
}

impl AqConfig {
    /// A small default instance.
    pub fn small(procs: usize, alg: FetchOpAlg, wait: WaitAlg) -> AqConfig {
        AqConfig {
            procs,
            depth: 6,
            alg,
            wait,
            seed: 0xACE5,
        }
    }
}

/// Decide (deterministically) whether an interval needs subdividing:
/// models the error estimate of the oscillatory integrand.
fn needs_split(id: u64, depth: u32, max_depth: u32) -> bool {
    if depth >= max_depth {
        return false;
    }
    // Most intervals split near the root; fewer as depth grows.
    let h = id
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(depth * 7);
    (h % 100) < (95u64.saturating_sub(8 * depth as u64))
}

/// Queue-based AQ; ranges are heavier grains than TSP tours.
pub fn run_queue(cfg: &AqConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let cap = 1usize << 16;
    let slots = m.alloc_on(0, cap as u64);
    let head = AnyFetchOp::make(&m, 0, cfg.alg, cfg.procs);
    let tail = AnyFetchOp::make(&m, 0, cfg.alg, cfg.procs);
    let outstanding = m.alloc_on(1 % cfg.procs, 1);
    let done = m.alloc_on(2 % cfg.procs, 1);
    let leaves = m.alloc_on(3 % cfg.procs, 1);

    // Item encoding: (id << 8) | depth, id 1-based at push time.
    m.write_word(outstanding, 1);
    m.write_word(slots, 1 << 8);
    m.set_full(slots, true);
    {
        let cpu = m.cpu(0);
        let tail = tail.clone();
        m.spawn(0, async move {
            tail.fetch_add(&cpu, 1).await;
        });
        m.run();
    }

    let max_depth = cfg.depth;
    let next_id = Rc::new(RefCell::new(2u64));
    for p in 0..cfg.procs {
        let cpu = m.cpu(p);
        let (head, tail) = (head.clone(), tail.clone());
        let next_id = next_id.clone();
        m.spawn(p, async move {
            'outer: loop {
                loop {
                    if cpu.read(done).await == 1 {
                        break 'outer;
                    }
                    let h = head.fetch_add(&cpu, 0).await;
                    let t = tail.fetch_add(&cpu, 0).await;
                    if h < t {
                        break;
                    }
                    cpu.work(150).await;
                }
                let i = head.fetch_add(&cpu, 1).await as usize;
                let item = loop {
                    let deadline = cpu.now() + 2_500;
                    if let Some(v) = cpu
                        .poll_until_full_deadline(slots.plus(i as u64), deadline)
                        .await
                    {
                        break v;
                    }
                    if cpu.read(done).await == 1 {
                        break 'outer;
                    }
                };
                let (id, depth) = (item >> 8, (item & 0xFF) as u32);
                // Evaluate the integrand on this range: heavy grain.
                cpu.work(800 + cpu.rand_below(600)).await;
                if needs_split(id, depth, max_depth) {
                    for _ in 0..2 {
                        let child = {
                            let mut n = next_id.borrow_mut();
                            let c = *n;
                            *n += 1;
                            c
                        };
                        cpu.fetch_and_add(outstanding, 1).await;
                        let j = tail.fetch_add(&cpu, 1).await;
                        assert!((j as usize) < cap, "aq queue overflow");
                        cpu.write_fill(slots.plus(j), (child << 8) | (depth as u64 + 1))
                            .await;
                    }
                } else {
                    cpu.fetch_and_add(leaves, 1).await;
                }
                let prev = cpu.fetch_and_add(outstanding, u64::MAX).await;
                if prev == 1 {
                    cpu.write(done, 1).await;
                }
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "aq deadlock");
    assert!(m.read_word(leaves) > 0, "no leaves evaluated");
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

/// Future-based AQ: a recursive divide-and-conquer where each split
/// spawns a child thread whose result is a future the parent touches.
///
/// Pure spinning is mapped to switch-spinning here: on a non-preemptive
/// node a parent that spin-waits for a child *scheduled on the same
/// processor* deadlocks (§2.2.4) — the polling mechanism for futures on
/// Alewife is switch-spinning for exactly this reason.
pub fn run_futures(cfg: &AqConfig) -> AppResult {
    let m = Machine::new(Config::default().nodes(cfg.procs).seed(cfg.seed));
    let result = m.alloc_on(0, 1);
    let w = match cfg.wait {
        WaitAlg::Spin => WaitAlg::SwitchSpin,
        other => other,
    };
    let procs = cfg.procs;
    let max_depth = cfg.depth.min(7);

    // Recursive async via explicit boxing.
    fn eval(
        m_nodes: usize,
        cpu: alewife_sim::Cpu,
        w: WaitAlg,
        id: u64,
        depth: u32,
        max_depth: u32,
        out: FutureCell,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>> {
        Box::pin(async move {
            cpu.work(400 + cpu.rand_below(300)).await;
            if !needs_split(id, depth, max_depth) {
                out.determine(&cpu, 1).await;
                return;
            }
            // Spawn the left half on another node; do the right here.
            let left_node = (cpu.node() + (1 << depth)) % m_nodes;
            let left = FutureCell::new_on_cpu(&cpu, left_node);
            let lcpu = cpu.on(left_node);
            cpu.spawn(
                left_node,
                eval(m_nodes, lcpu, w, id * 2, depth + 1, max_depth, left),
            );
            let right = FutureCell::new_on_cpu(&cpu, cpu.node());
            let rcpu = cpu.clone();
            cpu.spawn(
                cpu.node(),
                eval(m_nodes, rcpu, w, id * 2 + 1, depth + 1, max_depth, right),
            );
            let a = left.touch(&cpu, &w).await;
            let b = right.touch(&cpu, &w).await;
            out.determine(&cpu, a + b).await;
        })
    }

    let root = FutureCell::new(&m, 0);
    {
        let cpu = m.cpu(0);
        let w2 = w;
        m.spawn(0, async move {
            let root2 = root;
            cpu.spawn(0, eval(procs, cpu.clone(), w2, 1, 0, max_depth, root2));
            let v = root2.touch(&cpu, &w2).await;
            cpu.write(result, v).await;
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "aq-futures deadlock");
    assert!(m.read_word(result) > 0, "no result determined");
    AppResult {
        elapsed,
        stats: m.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_variant_runs() {
        let r = run_queue(&AqConfig::small(4, FetchOpAlg::QueueLock, WaitAlg::Spin));
        assert!(r.elapsed > 0);
    }

    #[test]
    fn queue_variant_reactive() {
        let r = run_queue(&AqConfig::small(4, FetchOpAlg::Reactive, WaitAlg::Spin));
        assert!(r.elapsed > 0);
    }

    #[test]
    fn futures_variant_spin() {
        let r = run_futures(&AqConfig::small(4, FetchOpAlg::TtsLock, WaitAlg::Spin));
        assert!(r.elapsed > 0);
        assert!(r.stats.waits.contains_key("future"));
    }

    #[test]
    fn futures_variant_two_phase() {
        let r = run_futures(&AqConfig::small(
            4,
            FetchOpAlg::TtsLock,
            WaitAlg::TwoPhase(465),
        ));
        assert!(r.elapsed > 0);
    }
}
