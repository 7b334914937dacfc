//! Workload-generator contracts: determinism under a fixed seed,
//! empirical Zipf skew within tolerance, and open-loop arrival-rate
//! accuracy — the statistical ground the bench scenarios stand on.

use lock_service::workload::think_time;
use lock_service::{ArrivalCurve, Arrivals, Zipf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Same (n, theta, seed) → bit-identical rank sequence; different
    /// seed → a different one (no accidental seed swallowing).
    #[test]
    fn zipf_is_deterministic_per_seed(
        n in 2u64..100_000,
        theta in 0.0f64..0.99,
        seed in 1u64..u64::MAX - 1,
    ) {
        let mut a = Zipf::new(n, theta, seed);
        let mut b = Zipf::new(n, theta, seed);
        let mut c = Zipf::new(n, theta, seed + 1);
        let xs: Vec<u64> = (0..256).map(|_| a.sample()).collect();
        let ys: Vec<u64> = (0..256).map(|_| b.sample()).collect();
        let zs: Vec<u64> = (0..256).map(|_| c.sample()).collect();
        prop_assert_eq!(&xs, &ys);
        prop_assert!(xs.iter().all(|&r| r < n));
        prop_assert_ne!(xs, zs);
    }

    /// Open-loop arrivals are deterministic, strictly ordered in time,
    /// and within the horizon used by the executor.
    #[test]
    fn arrivals_are_deterministic_per_seed(
        rate in 1e5f64..1e8,
        seed in 1u64..u64::MAX,
    ) {
        let curve = ArrivalCurve::Constant { rate_per_sec: rate };
        let mut a = Arrivals::new(curve, seed);
        let mut b = Arrivals::new(curve, seed);
        let mut last = 0u64;
        for _ in 0..512 {
            let ta = a.next_arrival().unwrap();
            prop_assert_eq!(ta, b.next_arrival().unwrap());
            prop_assert!(ta >= last);
            last = ta;
        }
    }
}

/// Empirical skew: at θ=0.99 over 10⁴ ranks the hottest rank must
/// carry far more mass than the uniform share, and the top decile of
/// ranks must dominate the stream; at θ=0 the distribution must be
/// flat within sampling noise.
#[test]
fn zipf_empirical_skew_matches_theta() {
    const N: u64 = 10_000;
    const DRAWS: usize = 200_000;

    let mut hot = Zipf::new(N, 0.99, 7);
    let mut counts = vec![0u64; N as usize];
    for _ in 0..DRAWS {
        counts[hot.sample() as usize] += 1;
    }
    // H_{10^4, 0.99} ≈ 9.8 → rank 0 carries ~10% of all draws; demand
    // at least 5% (vs a uniform share of 0.01%).
    assert!(
        counts[0] as f64 > 0.05 * DRAWS as f64,
        "rank 0 drew only {} of {DRAWS}",
        counts[0]
    );
    // The hottest 10% of ranks must carry the large majority of mass.
    let top_decile: u64 = counts[..(N / 10) as usize].iter().sum();
    assert!(
        top_decile as f64 > 0.75 * DRAWS as f64,
        "top decile drew only {top_decile} of {DRAWS}"
    );

    let mut flat = Zipf::new(N, 0.0, 7);
    let mut counts = vec![0u64; N as usize];
    for _ in 0..DRAWS {
        counts[flat.sample() as usize] += 1;
    }
    let expect = DRAWS as f64 / N as f64; // 20 per rank
    let worst = counts
        .iter()
        .map(|&c| (c as f64 - expect).abs())
        .fold(0.0, f64::max);
    // Poisson(20) essentially never strays 25 away from its mean.
    assert!(worst < 25.0, "uniform draw strayed {worst} from {expect}");
}

/// Open-loop rate accuracy: over a long horizon the realised arrival
/// count tracks the curve's integrated rate within a few percent, for
/// all three curve shapes.
#[test]
fn open_loop_rate_is_accurate() {
    const HORIZON_NS: u64 = 100_000_000; // 0.1 s of virtual time

    // (curve, expected arrivals over the horizon)
    let cases: Vec<(ArrivalCurve, f64)> = vec![
        (ArrivalCurve::Constant { rate_per_sec: 1e6 }, 1e6 * 0.1),
        (
            // Triangle between 0.5e6 and 1.5e6 averages 1e6.
            ArrivalCurve::Diurnal {
                low_per_sec: 5e5,
                high_per_sec: 1.5e6,
                period_ns: 10_000_000,
            },
            1e6 * 0.1,
        ),
        (
            // 10% duty at 5e6 + 90% at 5e5 averages 9.5e5.
            ArrivalCurve::Burst {
                base_per_sec: 5e5,
                spike_per_sec: 5e6,
                duty_ns: 1_000_000,
                period_ns: 10_000_000,
            },
            (0.1 * 5e6 + 0.9 * 5e5) * 0.1,
        ),
    ];
    for (i, (curve, expected)) in cases.into_iter().enumerate() {
        let mut gen = Arrivals::new(curve, 11 + i as u64);
        let mut n = 0u64;
        while let Some(t) = gen.next_arrival() {
            if t >= HORIZON_NS {
                break;
            }
            n += 1;
        }
        let err = (n as f64 - expected).abs() / expected;
        assert!(
            err < 0.03,
            "curve {i}: {n} arrivals vs expected {expected} (err {err:.3})"
        );
    }
}

/// The burst curve's arrivals actually cluster in the duty window.
#[test]
fn burst_arrivals_cluster_in_spikes() {
    let curve = ArrivalCurve::Burst {
        base_per_sec: 1e5,
        spike_per_sec: 1e7,
        duty_ns: 1_000_000,
        period_ns: 10_000_000,
    };
    let mut gen = Arrivals::new(curve, 3);
    let (mut in_spike, mut total) = (0u64, 0u64);
    while let Some(t) = gen.next_arrival() {
        if t >= 100_000_000 {
            break;
        }
        total += 1;
        if t % 10_000_000 < 1_000_000 {
            in_spike += 1;
        }
    }
    // Spikes carry 10/10.9 ≈ 92% of the mass.
    assert!(
        in_spike as f64 > 0.85 * total as f64,
        "{in_spike}/{total} arrivals in spikes"
    );
}

/// An on/off stream (no base rate) keeps arriving spike after spike:
/// the thinning skips each silent stretch instead of running out of
/// candidates in the first one.
#[test]
fn on_off_burst_arrives_in_every_spike() {
    const PERIOD_NS: u64 = 1_000_000_000;
    let curve = ArrivalCurve::Burst {
        base_per_sec: 0.0,
        spike_per_sec: 1e6,
        duty_ns: 100_000,
        period_ns: PERIOD_NS,
    };
    let mut gen = Arrivals::new(curve, 5);
    let mut per_spike = [0u32; 5];
    while let Some(t) = gen.next_arrival() {
        if t >= 5 * PERIOD_NS {
            break;
        }
        assert!(t % PERIOD_NS < 100_000, "arrival at {t} ns, between spikes");
        per_spike[(t / PERIOD_NS) as usize] += 1;
    }
    // 100 µs at 10⁶/s: Poisson(100) per spike.
    assert!(
        per_spike.iter().all(|n| (60..=140).contains(n)),
        "arrivals per spike: {per_spike:?}"
    );
}

/// A base rate positive but 10⁶× below the spike: the thinning at the
/// peak rate gives up in the first gap between spikes, and the stream
/// must go on at the base rate instead of ending there.
#[test]
fn a_trickle_far_below_the_spike_keeps_the_stream_alive() {
    const PERIOD_NS: u64 = 200_000;
    const DUTY_NS: u64 = 50_000;
    let curve = ArrivalCurve::Burst {
        base_per_sec: 1e3,
        spike_per_sec: 1e9,
        duty_ns: DUTY_NS,
        period_ns: PERIOD_NS,
    };
    let mut gen = Arrivals::new(curve, 9);
    let (mut per_spike, mut between) = ([0u32; 10], 0u32);
    let mut last = 0;
    while let Some(t) = gen.next_arrival() {
        assert!(t >= last, "arrival at {t} ns after one at {last} ns");
        last = t;
        if t >= 10 * PERIOD_NS {
            break;
        }
        if t % PERIOD_NS < DUTY_NS {
            per_spike[(t / PERIOD_NS) as usize] += 1;
        } else {
            between += 1;
        }
    }
    assert!(last >= 10 * PERIOD_NS, "the stream ended at {last} ns");
    // 50 µs at 10⁹/s: Poisson(50 000) per spike.
    assert!(
        per_spike.iter().all(|n| (49_000..=51_000).contains(n)),
        "arrivals per spike: {per_spike:?}"
    );
    // 1.5 ms of gaps at 10³/s: Poisson(1.5), not the spike's rate.
    assert!(between <= 12, "{between} arrivals between spikes");
}

/// A diurnal ramp from zero over a long period: the rate starts far
/// below its peak, so the peak-rate thinning gives up before the first
/// arrival; the stream must still arrive where the integrated rate
/// says, the k-th arrival near `sqrt(k · period)` ns.
#[test]
fn a_slow_ramp_from_zero_still_arrives() {
    const PERIOD_NS: u64 = 1_000_000_000_000;
    let curve = ArrivalCurve::Diurnal {
        low_per_sec: 0.0,
        high_per_sec: 1e9,
        period_ns: PERIOD_NS,
    };
    let mut gen = Arrivals::new(curve, 9);
    let arrivals: Vec<u64> = (0..10).map_while(|_| gen.next_arrival()).collect();
    assert_eq!(arrivals.len(), 10, "the stream ended: {arrivals:?}");
    assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "{arrivals:?}");
    // Ten arrivals by sqrt(10 · period) ≈ 3.2 ms in expectation.
    assert!((100_000..50_000_000).contains(&arrivals[9]), "{arrivals:?}");
}

/// FNV-1a over 64-bit words: a cheap, order-sensitive fold of a stream.
fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Draws per pinned stream.
const PINNED_DRAWS: usize = 1_000_000;

/// Each sampler's first 10⁶ ranks, folded. The digests were taken from
/// the plain `powf` inversion; any faster form of `Zipf::sample` must
/// reproduce them bit for bit, rank 0 and rank 1 branches, the
/// degenerate `n = 1` and `n = 2` samplers and the fallback included.
#[test]
fn zipf_streams_match_their_pinned_digests() {
    let cases: [(u64, f64, u64, u64); 5] = [
        (500_000, 0.95, 21, 0xcae3_0cee_ca67_8a71),
        (500_000, 0.2, 22, 0x8bc5_b0d8_cee1_a948),
        (1_000, 0.99, 23, 0x297b_cbfc_deea_df38),
        (2, 0.5, 24, 0x0a2e_af16_a843_984b),
        (1, 0.5, 25, 0x8f6d_d72f_ba19_3025),
    ];
    let mut wrong = Vec::new();
    for (n, theta, seed, want) in cases {
        let mut z = Zipf::new(n, theta, seed);
        let got = digest((0..PINNED_DRAWS).map(|_| z.sample()));
        if got != want {
            wrong.push(format!(
                "(n {n}, theta {theta}): {got:#x}, pinned {want:#x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "Zipf streams moved:\n{}",
        wrong.join("\n")
    );
}

/// The closed loop's think times at the `service_virtual` mean.
#[test]
fn think_time_stream_matches_its_pinned_digest() {
    let mut state = 31;
    let got = digest((0..PINNED_DRAWS).map(|_| think_time(200, &mut state)));
    assert_eq!(
        got, 0xf1bc_57a0_f443_87e1,
        "think_time(200, ·) moved: {got:#x}"
    );
}

/// Open-loop arrival times on the three committed curve shapes (the
/// service rows' constant, diurnal and burst tenants).
#[test]
fn arrival_streams_match_their_pinned_digests() {
    let cases: [(ArrivalCurve, u64, u64); 3] = [
        (
            ArrivalCurve::Constant { rate_per_sec: 2e6 },
            41,
            0x9ac9_368e_899d_38e8,
        ),
        (
            ArrivalCurve::Diurnal {
                low_per_sec: 1e5,
                high_per_sec: 1e6,
                period_ns: 1_000_000,
            },
            42,
            0xc98a_4044_7f19_e16b,
        ),
        (
            ArrivalCurve::Burst {
                base_per_sec: 2e5,
                spike_per_sec: 1e9,
                duty_ns: 50_000,
                period_ns: 200_000,
            },
            43,
            0x12ea_df59_f987_c2b6,
        ),
    ];
    let mut wrong = Vec::new();
    for (i, (curve, seed, want)) in cases.into_iter().enumerate() {
        let mut gen = Arrivals::new(curve, seed);
        let got = digest((0..PINNED_DRAWS).map(|_| gen.next_arrival().expect("positive rate")));
        if got != want {
            wrong.push(format!("curve {i}: {got:#x}, pinned {want:#x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "arrival streams moved:\n{}",
        wrong.join("\n")
    );
}
