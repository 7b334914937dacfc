//! Tier-1 claim gate: every `EXPERIMENTS.md` row's scenario runs at
//! [`Scale::Quick`] and every one of its machine-checkable claims must
//! hold. A regression in any paper result — the TTS meltdown shape, the
//! 3-competitive bound, two-phase waiting's competitiveness, the
//! `Lpoll = B/2` rule — fails the corresponding test here.
//!
//! The quick variants are deterministic (fixed simulator seeds, fixed
//! closed-form sweeps), so these tests are bit-stable run to run — with
//! one deliberate exception: the `service_native_*` rows run real host
//! threads on a wall clock, so their claims gate the *shape* of the
//! result with wide margins rather than exact numbers.

use repro_bench::scenario::{by_name, Scale};

fn assert_claims(name: &str) {
    let sc = by_name(name).expect("row in scenario::all()");
    let outcome = sc.run(Scale::Quick);
    let results = sc.check(&outcome);
    assert!(!results.is_empty(), "{name} checked no claims");
    let failures: Vec<String> = results
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("  {} — {}", r.claim, r.detail))
        .collect();
    assert!(
        failures.is_empty(),
        "{name} ({}) violated {} claim(s):\n{}\nheadline: {}",
        sc.figure,
        failures.len(),
        failures.join("\n"),
        outcome.headline,
    );
}

/// One claim-gate test per listed row, plus the check that the list is
/// the registry: every scenario in `scenario::all()` is covered, in
/// table order (guards against adding a row without a claim gate).
macro_rules! claim_test {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                assert_claims(stringify!($name));
            }
        )*

        #[test]
        fn registry_matches_test_list() {
            let expected = [$(stringify!($name)),*];
            let names: Vec<&str> = repro_bench::scenario::all()
                .iter()
                .map(|s| s.name)
                .collect();
            assert_eq!(
                names, expected,
                "scenario registry drifted from the test list"
            );
        }
    };
}

claim_test!(
    fig_3_14_policy_bound,
    fig_3_15_baseline,
    fig_3_16_hardware,
    fig_3_17_multi_object,
    fig_3_21_time_varying,
    fig_3_22_competitive,
    fig_3_23_hysteresis,
    fig_3_24_apps_fetchop,
    fig_3_25_apps_locks,
    fig_3_26_message_passing,
    table_4_1_blocking_cost,
    fig_4_4_exponential,
    fig_4_5_uniform,
    fig_4_6_wait_profiles,
    fig_4_12_producer_consumer,
    fig_4_13_barriers,
    fig_4_14_mutex,
    table_4_6_lpoll_half,
    barrier_reactive,
    switch_cost,
    rmr_recoverable,
    rmr_abortable,
    storm_robustness,
    service_tail_latency,
    service_bytes_per_object,
    service_stampede,
    service_tracks_best,
    service_native_tail,
    service_native_deflation,
    sim_parallel_scale,
);
