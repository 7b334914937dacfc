//! Property tests for [`WaitHistogram`]'s percentile reporting against
//! a sorted-vector model — the satellite contract behind the
//! lock-service percentiles: below the reservoir cap the histogram is
//! *exact*; past the cap it is a seeded uniform sample whose
//! percentiles are reproducible run-to-run and track the model within
//! a sampling tolerance, while the moments (`count`/`sum`/`max`) stay
//! exact at any stream length.

use alewife_sim::{Stats, WaitHistogram};
use proptest::prelude::*;

/// The model: the exact percentile over *all* samples, using the same
/// nearest-rank convention as `WaitHistogram::percentile`.
fn model_percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Below the cap every percentile equals the sorted-vector model
    /// exactly — sampling must be invisible until it has to kick in.
    #[test]
    fn below_cap_is_exact(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
        seed in 1u64..u64::MAX,
    ) {
        let mut h = WaitHistogram::with_sampling(512, seed);
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(h.percentile(p), model_percentile(&sorted, p));
        }
        prop_assert_eq!(h.p50(), model_percentile(&sorted, 50.0));
        prop_assert_eq!(h.p999(), model_percentile(&sorted, 99.9));
    }

    /// Determinism: two histograms with the same cap and seed fed the
    /// same over-cap stream retain bit-identical reservoirs, so every
    /// reported percentile is reproducible run-to-run.
    #[test]
    fn same_seed_same_percentiles(
        samples in prop::collection::vec(0u64..1_000_000, 600..900),
        seed in 1u64..u64::MAX,
    ) {
        let cap = 128;
        let mut a = WaitHistogram::with_sampling(cap, seed);
        let mut b = WaitHistogram::with_sampling(cap, seed);
        for &s in &samples {
            a.record(s);
            b.record(s);
        }
        prop_assert_eq!(a.raw.len(), cap);
        prop_assert_eq!(&a.raw, &b.raw);
        for p in [50.0, 99.0, 99.9] {
            prop_assert_eq!(a.percentile(p), b.percentile(p));
        }
    }

    /// Moments are exact at any stream length: the reservoir only
    /// affects percentile estimates, never `count`/`sum`/`max`/`mean`.
    #[test]
    fn moments_exact_past_cap(
        samples in prop::collection::vec(0u64..1_000_000, 300..700),
        seed in 1u64..u64::MAX,
    ) {
        let mut h = WaitHistogram::with_sampling(64, seed);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count, samples.len() as u64);
        prop_assert_eq!(h.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(h.max, *samples.iter().max().unwrap());
    }

    /// Past the cap the reservoir percentile tracks the full-stream
    /// model within a (generous) uniform-sampling tolerance: the
    /// estimated p50/p90 lie between nearby model percentiles. The
    /// stream is a worst-friendly shape — strictly increasing values —
    /// so a biased prefix (the pre-reservoir behaviour) would sit at
    /// the distribution's bottom and fail immediately.
    #[test]
    fn reservoir_tracks_model(seed in 1u64..u64::MAX, n in 4_000u64..12_000) {
        let cap = 1_024;
        let mut h = WaitHistogram::with_sampling(cap, seed);
        // Strictly increasing stream: sample i has value i, so the
        // model's p-th percentile is ~p% of n and rank error converts
        // directly to value error.
        for i in 0..n {
            h.record(i);
        }
        let sorted: Vec<u64> = (0..n).collect();
        for p in [50.0, 90.0] {
            let est = h.percentile(p) as f64;
            // +/- 12 percentile points: ~8 standard errors at cap 1024.
            let lo = model_percentile(&sorted, (p - 12.0).max(0.0)) as f64;
            let hi = model_percentile(&sorted, (p + 12.0).min(100.0)) as f64;
            prop_assert!(
                (lo..=hi).contains(&est),
                "p{p} estimate {est} outside model band [{lo}, {hi}] (n = {n})"
            );
        }
    }

    /// Merging per-worker histograms keeps moments exact and percentiles
    /// within sampling tolerance of a single histogram fed the whole
    /// stream — the contract behind parallel-mode stat collection.
    #[test]
    fn merge_matches_single_reservoir(
        seed in 1u64..u64::MAX,
        n1 in 2_000u64..6_000,
        n2 in 2_000u64..6_000,
    ) {
        let cap = 1_024;
        // Worker streams drawn from the same increasing shape so rank
        // error converts directly to value error (see above).
        let mut a = WaitHistogram::with_sampling(cap, seed);
        let mut b = WaitHistogram::with_sampling(cap, seed.rotate_left(17) | 1);
        let total = n1 + n2;
        for i in 0..n1 {
            a.record(i);
        }
        for i in n1..total {
            b.record(i);
        }
        a.merge(&b);
        // Moments combine exactly regardless of reservoir state.
        prop_assert_eq!(a.count, total);
        prop_assert_eq!(a.sum, (0..total).sum::<u64>());
        prop_assert_eq!(a.max, total - 1);
        prop_assert_eq!(a.raw.len(), cap);
        // Percentiles track the union model within the sampling band.
        let sorted: Vec<u64> = (0..total).collect();
        for p in [50.0, 90.0] {
            let est = a.percentile(p) as f64;
            let lo = model_percentile(&sorted, (p - 12.0).max(0.0)) as f64;
            let hi = model_percentile(&sorted, (p + 12.0).min(100.0)) as f64;
            prop_assert!(
                (lo..=hi).contains(&est),
                "merged p{p} estimate {est} outside [{lo}, {hi}] (n1 = {n1}, n2 = {n2})"
            );
        }
    }

    /// Below the cap a merge is exact: the union reservoir is the
    /// concatenation, so every percentile equals the full-union model.
    #[test]
    fn merge_below_cap_is_exact(
        s1 in prop::collection::vec(0u64..1_000_000, 1..200),
        s2 in prop::collection::vec(0u64..1_000_000, 1..200),
        seed in 1u64..u64::MAX,
    ) {
        let mut a = WaitHistogram::with_sampling(512, seed);
        let mut b = WaitHistogram::with_sampling(512, seed ^ 0x9E37);
        for &s in &s1 {
            a.record(s);
        }
        for &s in &s2 {
            b.record(s);
        }
        a.merge(&b);
        let mut union: Vec<u64> = s1.iter().chain(&s2).copied().collect();
        union.sort_unstable();
        for p in [0.0, 50.0, 99.0, 100.0] {
            prop_assert_eq!(a.percentile(p), model_percentile(&union, p));
        }
    }
}

/// `Stats::absorb` folds per-worker partials into exactly the arithmetic
/// sums: every scalar, per-node vector slot, named counter, and
/// histogram moment of the absorbed total equals the sum over partials.
#[test]
fn absorb_sums_partials() {
    let mk = |k: u64, nodes: usize| {
        let mut s = Stats {
            net_msgs: 10 * k,
            remote_misses: 3 * k,
            invalidations: 2 * k,
            limitless_traps: k,
            dir_requests: 7 * k,
            active_msgs: 5 * k,
            sim_events: 100 * k,
            rmr_cc: (0..nodes as u64).map(|i| i + k).collect(),
            rmr_dsm: (0..nodes as u64).map(|i| 2 * i + k).collect(),
            ..Stats::default()
        };
        s.bump("shared", k);
        s.bump(&format!("only_{k}"), k);
        for i in 0..20 * k {
            s.record_wait("acq", i);
        }
        s
    };
    // Unequal shard widths: absorb must extend to the longer shape.
    let parts = [mk(1, 3), mk(2, 5), mk(3, 2)];
    let mut total = Stats::default();
    for p in &parts {
        total.absorb(p);
    }
    assert_eq!(total.net_msgs, 60);
    assert_eq!(total.sim_events, 600);
    assert_eq!(total.dir_requests, 42);
    assert_eq!(total.counter("shared"), 6);
    assert_eq!(total.counter("only_2"), 2);
    // Vector slots: node 0 gets 1+2+3, node 3 exists only in part 2.
    assert_eq!(total.rmr_cc[0], 6);
    assert_eq!(total.rmr_cc[3], 3 + 2);
    assert_eq!(total.rmr_cc.len(), 5);
    assert_eq!(
        total.rmr_cc_total(),
        parts.iter().map(|p| p.rmr_cc_total()).sum::<u64>()
    );
    let w = &total.waits["acq"];
    assert_eq!(w.count, 20 + 40 + 60);
    assert_eq!(w.sum, parts.iter().map(|p| p.waits["acq"].sum).sum::<u64>());
    assert_eq!(w.max, 59);
}

/// Past the cap, a merge draws a *random* remaining sample of the side
/// it picks. A reservoir that never overflowed holds its samples in
/// arrival order, so taking them in order would keep each side's
/// oldest samples: here, only the zeros of two runs that were fast
/// early and slow late.
#[test]
fn merge_past_cap_keeps_late_samples() {
    for seed in 1..=8u64 {
        let run = |seed| {
            let mut h = WaitHistogram::with_sampling(100, seed);
            for t in [0, 1_000] {
                for _ in 0..50 {
                    h.record(t);
                }
            }
            h
        };
        let mut a = run(seed);
        a.merge(&run(seed ^ 0x9E37));
        assert_eq!(a.raw.len(), 100);
        let zeros = a.frac_below(1);
        assert!(
            (0.3..=0.7).contains(&zeros),
            "seed {seed}: {zeros} of the merged reservoir is 0, half the union is 1000"
        );
        assert_eq!(a.p99(), 1_000, "seed {seed}");
    }
}
