//! Property-based tests of the coherence substrate: for any random mix
//! of processors, operations, timings, and machine shapes, the memory
//! system must stay linearizable, deterministic, and deadlock-free.

use std::cell::RefCell;
use std::rc::Rc;

use alewife_sim::{Config, CostModel, Machine};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// fetch&add from random nodes with random pacing returns a
    /// permutation of {0..N} regardless of machine shape.
    #[test]
    fn fetch_add_linearizes_any_shape(
        nodes in 1usize..20,
        full_map in any::<bool>(),
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(nodes).full_map(full_map).seed(seed));
        let a = m.alloc_on(0, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let iters = 12u64;
        for p in 0..nodes {
            let cpu = m.cpu(p);
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let v = cpu.fetch_and_add(a, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(100)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0);
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..nodes as u64 * iters).collect();
        prop_assert_eq!(got, want);
    }

    /// compare&swap: concurrent CAS(i, i+1) chains from all nodes apply
    /// exactly once each; the word ends at the chain length.
    #[test]
    fn cas_chains_apply_exactly_once(
        nodes in 2usize..12,
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(nodes).seed(seed));
        let a = m.alloc_on(0, 1);
        let successes = m.alloc_on(1, 1);
        let target = 30u64;
        for p in 0..nodes {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                loop {
                    let cur = cpu.read(a).await;
                    if cur >= target {
                        break;
                    }
                    if cpu.compare_and_swap(a, cur, cur + 1).await {
                        cpu.fetch_and_add(successes, 1).await;
                    }
                    cpu.work(cpu.rand_below(50)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0);
        prop_assert_eq!(m.read_word(a), target);
        prop_assert_eq!(m.read_word(successes), target);
    }

    /// Full/empty bits: N producers fill N distinct slots; N consumers
    /// each take a distinct slot exactly once (take_if_full atomicity).
    #[test]
    fn take_if_full_consumes_exactly_once(
        pairs in 1usize..8,
        seed in 1u64..u64::MAX,
    ) {
        let nodes = (2 * pairs).max(2);
        let m = Machine::new(Config::default().nodes(nodes).seed(seed));
        let slot = m.alloc_on(0, 1);
        let takes = m.alloc_on(1, 1);
        // One producer fills once; all consumers race to take; exactly
        // one take may succeed per fill.
        for p in 0..pairs {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                loop {
                    match cpu.take_if_full(slot).await {
                        alewife_sim::FullEmpty::Full(_) => {
                            cpu.fetch_and_add(takes, 1).await;
                            break;
                        }
                        alewife_sim::FullEmpty::Empty => {
                            if cpu.read(takes).await >= 1 {
                                break; // someone else got it
                            }
                            cpu.work(50).await;
                        }
                    }
                }
            });
        }
        {
            let cpu = m.cpu(nodes - 1);
            m.spawn(nodes - 1, async move {
                cpu.work(200).await;
                cpu.write_fill(slot, 42).await;
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0);
        prop_assert_eq!(m.read_word(takes), 1, "take_if_full not exactly-once");
    }

    /// Determinism across machine shapes: identical runs produce
    /// identical elapsed time and statistics.
    #[test]
    fn determinism_across_shapes(
        nodes in 1usize..16,
        seed in 1u64..u64::MAX,
    ) {
        let run = || {
            let m = Machine::new(Config::default().nodes(nodes).seed(seed));
            let a = m.alloc_on(0, 1);
            for p in 0..nodes {
                let cpu = m.cpu(p);
                m.spawn(p, async move {
                    for _ in 0..10 {
                        cpu.fetch_and_add(a, 1).await;
                        cpu.work(cpu.rand_below(200)).await;
                    }
                });
            }
            let t = m.run();
            let s = m.stats();
            (t, s.net_msgs, s.remote_misses, s.invalidations, s.dir_requests)
        };
        prop_assert_eq!(run(), run());
    }

    /// Reads always observe the latest committed write (regression for
    /// stale-cache bugs): a single writer bumps a word through a chain
    /// of values; a reader polling the word sees a nondecreasing
    /// sequence ending at the final value.
    #[test]
    fn reader_sees_monotonic_values(
        writes in 2u64..20,
        gap in 10u64..300,
        seed in 1u64..u64::MAX,
    ) {
        let m = Machine::new(Config::default().nodes(2).seed(seed));
        let a = m.alloc_on(0, 1);
        let ok = m.alloc_on(1, 1);
        let c0 = m.cpu(0);
        m.spawn(0, async move {
            for i in 1..=writes {
                c0.work(gap).await;
                c0.write(a, i).await;
            }
        });
        let c1 = m.cpu(1);
        m.spawn(1, async move {
            let mut last = 0;
            let mut monotonic = true;
            loop {
                let v = c1.read(a).await;
                if v < last {
                    monotonic = false;
                    break;
                }
                last = v;
                if v == writes {
                    break;
                }
                c1.work(25).await;
            }
            c1.write(ok, monotonic as u64).await;
        });
        m.run();
        prop_assert_eq!(m.live_tasks(), 0);
        prop_assert_eq!(m.read_word(ok), 1, "reader saw stale values");
    }
}

/// Non-property regression: the prototype cost model really makes
/// remote operations cheaper than the NWO model.
#[test]
fn prototype_model_cheaper_network() {
    let time_one_miss = |cost: CostModel| {
        let m = Machine::new(Config::default().nodes(16).cost(cost));
        let a = m.alloc_on(0, 1);
        let out = m.alloc_on(1, 1);
        let cpu = m.cpu(15);
        m.spawn(15, async move {
            let t0 = cpu.now();
            cpu.read(a).await;
            cpu.write(out, cpu.now() - t0).await;
        });
        m.run();
        m.read_word(out)
    };
    assert!(time_one_miss(CostModel::prototype()) < time_one_miss(CostModel::nwo()));
}
