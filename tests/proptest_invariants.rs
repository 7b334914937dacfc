//! Property-based tests (proptest) over the core invariants:
//! linearizability of fetch-and-op under random workload shapes, mutual
//! exclusion of the reactive lock under random contention mixes, the
//! 3-competitive bound on random request sequences, and the expected-
//! cost model's analytic identities.

use proptest::prelude::*;
use reactive_sync::api::{online_rule, Competitive3};
use reactive_sync::apps::alg::{AnyFetchOp, AnyLock, FetchOpAlg, LockAlg};
use reactive_sync::sim::{Config, Machine};
use reactive_sync::waiting::dist::WaitDist;
use reactive_sync::waiting::expected::{expected_opt, expected_two_phase};
use reactive_sync::waiting::task_system::TaskSystem;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs a full simulation
        .. ProptestConfig::default()
    })]

    /// The reactive fetch-and-op returns a permutation of {0..N} for any
    /// processor count, think-time bound, and seed.
    #[test]
    fn reactive_fetch_op_linearizes(
        procs in 1usize..12,
        think in 1u64..400,
        seed in 1u64..u64::MAX,
        iters in 3u64..12,
    ) {
        let m = Machine::new(Config::default().nodes(procs.max(2)).seed(seed));
        let f = AnyFetchOp::make(&m, 0, FetchOpAlg::Reactive, procs);
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            let seen = seen.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let v = f.fetch_add(&cpu, 1).await;
                    seen.borrow_mut().push(v);
                    cpu.work(cpu.rand_below(think)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0, "deadlock");
        let mut got = seen.borrow().clone();
        got.sort_unstable();
        let want: Vec<u64> = (0..procs as u64 * iters).collect();
        prop_assert_eq!(got, want);
    }

    /// The reactive lock preserves mutual exclusion (no lost updates on
    /// a non-atomic read-modify-write) for any seed and load shape.
    #[test]
    fn reactive_lock_excludes(
        procs in 1usize..12,
        cs in 1u64..150,
        think in 1u64..400,
        seed in 1u64..u64::MAX,
    ) {
        let iters = 10u64;
        let m = Machine::new(Config::default().nodes(procs.max(2)).seed(seed));
        let lock = AnyLock::make(&m, 0, LockAlg::Reactive, procs);
        let shared = m.alloc_on(1, 1);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let t = lock.acquire(&cpu).await;
                    let v = cpu.read(shared).await;
                    cpu.work(cs).await;
                    cpu.write(shared, v + 1).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(think)).await;
                }
            });
        }
        m.run();
        prop_assert_eq!(m.live_tasks(), 0, "deadlock");
        prop_assert_eq!(m.read_word(shared), procs as u64 * iters);
    }

    /// Simulations replay identically from the same seed.
    #[test]
    fn determinism(seed in 1u64..u64::MAX) {
        let run = |seed| {
            let m = Machine::new(Config::default().nodes(4).seed(seed));
            let f = AnyFetchOp::make(&m, 0, FetchOpAlg::Reactive, 4);
            for p in 0..4 {
                let cpu = m.cpu(p);
                let f = f.clone();
                m.spawn(p, async move {
                    for _ in 0..8 {
                        f.fetch_add(&cpu, 1).await;
                        cpu.work(cpu.rand_below(200)).await;
                    }
                });
            }
            let t = m.run();
            (t, m.stats().net_msgs, m.stats().remote_misses)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The shipped 3-competitive policy never exceeds 3x the off-line
    /// optimum (plus one transition of slack for the unfinished last
    /// phase) on ANY request sequence.
    #[test]
    fn competitive3_bound_on_random_sequences(
        reqs in prop::collection::vec(0usize..2, 1..400),
        d_ab in 100.0f64..10_000.0,
        d_ba in 100.0f64..10_000.0,
        c_high in 10.0f64..500.0,
        c_low in 1.0f64..100.0,
    ) {
        let ts = TaskSystem::two_protocol(d_ab, d_ba, c_high, c_low);
        let online = ts.run_online(online_rule(&mut Competitive3::new(d_ab + d_ba)), &reqs);
        let opt = ts.offline_opt(&reqs);
        // The classic bound with an additive constant (the algorithm may
        // be mid-phase when the sequence ends).
        prop_assert!(
            online <= 3.0 * opt + (d_ab + d_ba) + 1e-6,
            "online {} vs opt {}", online, opt
        );
    }

    /// Expected-cost identities: E[C_2phase] is between the best and
    /// worst pure strategies... not in general — but it always lies
    /// above E[C_opt], and at α=0 it equals the signaling cost.
    #[test]
    fn expected_cost_identities(
        mean in 1.0f64..10_000.0,
        alpha in 0.0f64..4.0,
        b in 10.0f64..2_000.0,
    ) {
        let d = WaitDist::exponential_with_mean(mean);
        let e2p = expected_two_phase(&d, alpha, b, 1.0);
        let eopt = expected_opt(&d, b, 1.0);
        prop_assert!(e2p >= eopt - 1e-9, "2phase {} below opt {}", e2p, eopt);
        let at_zero = expected_two_phase(&d, 0.0, b, 1.0);
        prop_assert!((at_zero - b).abs() < 1e-9);
        // Monotone in the distribution sense: opt <= min(poll, signal).
        prop_assert!(eopt <= b + 1e-9);
        prop_assert!(eopt <= d.mean() + 1e-9);
    }

    /// CDF/partial-mean consistency for both families.
    #[test]
    fn distribution_identities(scale in 1.0f64..10_000.0, x in 0.0f64..20_000.0) {
        for d in [WaitDist::exponential_with_mean(scale), WaitDist::uniform(scale)] {
            prop_assert!((0.0..=1.0).contains(&d.cdf(x)));
            prop_assert!(d.partial_mean(x) <= d.mean() + 1e-9);
            prop_assert!(d.partial_mean(x) >= 0.0);
            // partial_mean is nondecreasing.
            prop_assert!(d.partial_mean(x) <= d.partial_mean(x + 1.0) + 1e-9);
        }
    }
}
