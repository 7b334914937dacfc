//! Property tests of the shipped switching policies, written against
//! the `Policy` *trait*: [`online_rule`] makes any `&mut dyn Policy` the
//! on-line player of a task-system environment
//! ([`waiting_theory::task_system`]), which charges residual and
//! transition costs, so future policy impls reuse the harness unchanged.
//!
//! * [`Competitive3`] stays within 3× the exact offline optimum (plus
//!   the standard additive constant) on random residual streams and on
//!   the Figure 3.14 worst-case adversary.
//! * [`Hysteresis`] never switches on a broken streak: any stream whose
//!   consecutive sub-optimal runs are all shorter than `min(x, y)`
//!   produces zero switch decisions.
//! * Every shipped policy that declares [`Policy::optimal_is_noop`]
//!   keeps the promise the switching kernel's lock-free path rests on:
//!   an optimal observation is answered `Stay` and changes no future
//!   decision.

use proptest::prelude::*;
use reactive_api::{
    online_rule, Always, Competitive3, Decision, Hysteresis, Observation, Policy, ProtocolId,
};
use waiting_theory::task_system::{worst_case_sequence, TaskSystem};

/// Drive `policy` over the request sequence the way a reactive object
/// does — hand the monitor's observation to the policy, commit any
/// approved switch (paying the transition cost and resetting the
/// policy), serve — and return `(total cost, switch count)`. Starts in
/// state 0, like [`TaskSystem::offline_opt`].
fn run_policy(ts: &TaskSystem, policy: &mut dyn Policy, reqs: &[usize]) -> (f64, u64) {
    let mut rule = online_rule(policy);
    let mut switches = 0u64;
    let total = ts.run_online(
        |state, best, residual| {
            let target = rule(state, best, residual);
            switches += u64::from(target != state);
            target
        },
        reqs,
    );
    (total, switches)
}

/// The §3.5.5 empirical two-protocol system, with proptest-scaled
/// residuals.
fn system(d_ab: f64, d_ba: f64, c_a_high: f64, c_b_low: f64) -> TaskSystem {
    TaskSystem::two_protocol(d_ab, d_ba, c_a_high, c_b_low)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// On random residual streams (bursty blocks of low/high contention),
    /// `Competitive3` with the round-trip threshold stays within 3× the
    /// exact offline optimum plus an additive constant.
    ///
    /// The additive slack is not fudge — it is exactly what the phase
    /// argument leaves unamortized with *discrete* requests. Between two
    /// of its switches the policy accumulates at most `W + r_max`
    /// residual (`W = d_ab + d_ba`; the threshold can be overshot by at
    /// most one request), so a full thrash cycle costs online at most
    /// `3W + 2·r_max`, while the offline optimum pays at least `W` per
    /// cycle (stay on either side through a cycle and you eat one
    /// phase's `> W` residual; dodge both phases and you paid both
    /// transitions). That telescopes to
    /// `online ≤ 3·opt + 4W + (switches + 3)·r_max`.
    #[test]
    fn competitive3_within_3x_of_offline_opt(
        d_ab in 200.0f64..8_000.0,
        d_ba in 100.0f64..2_000.0,
        c_a_high in 10.0f64..400.0,
        c_b_low in 1.0f64..100.0,
        blocks in proptest::collection::vec((0usize..2, 1usize..120), 1..40),
    ) {
        let ts = system(d_ab, d_ba, c_a_high, c_b_low);
        let reqs: Vec<usize> = blocks
            .iter()
            .flat_map(|&(task, len)| std::iter::repeat_n(task, len))
            .collect();
        let round_trip = d_ab + d_ba;
        let (online, switches) = run_policy(&ts, &mut Competitive3::new(round_trip), &reqs);
        let opt = ts.offline_opt(&reqs);
        let r_max = c_a_high.max(c_b_low);
        let slack = 4.0 * round_trip + (switches as f64 + 3.0) * r_max;
        prop_assert!(
            online <= 3.0 * opt + slack + 1e-6,
            "online {online} vs 3*opt ({opt}) + {slack} after {switches} switches"
        );
    }

    /// The Figure 3.14 adversary (contention flips exactly at the
    /// policy's switch points) is the worst case; even there the ratio
    /// stays ≤ 3 modulo the additive constant.
    #[test]
    fn competitive3_survives_worst_case_adversary(
        cycles in 2usize..12,
        c_a_high in 50.0f64..300.0,
        c_b_low in 5.0f64..50.0,
    ) {
        let ts = system(8_000.0, 800.0, c_a_high, c_b_low);
        let reqs = worst_case_sequence(&ts, cycles);
        let round_trip = 8_000.0 + 800.0;
        let (online, switches) = run_policy(&ts, &mut Competitive3::new(round_trip), &reqs);
        let opt = ts.offline_opt(&reqs);
        prop_assert!(opt > 0.0);
        prop_assert!(switches > 0, "adversary must actually force switches");
        let slack = 4.0 * round_trip + (switches as f64 + 3.0) * c_a_high.max(c_b_low);
        prop_assert!(
            online <= 3.0 * opt + slack,
            "online {online} vs opt {opt} over {cycles} adversary cycles"
        );
    }

    /// `Hysteresis(x, y)` never switches on a broken streak: feed blocks
    /// of consecutive sub-optimal observations, every block shorter than
    /// `min(x, y)` and separated by an optimal observation, in random
    /// directions over a 3-protocol id space. No block may produce a
    /// switch decision.
    #[test]
    fn hysteresis_never_switches_on_broken_streaks(
        x in 2u64..8,
        y in 2u64..8,
        blocks in proptest::collection::vec(
            (0u8..3, 0u8..3, 1u64..8, 1.0f64..500.0),
            1..60
        ),
    ) {
        let mut pol = Hysteresis::new(x, y);
        let cap = x.min(y);
        for &(current, better_raw, len_raw, residual) in &blocks {
            let better = if better_raw == current { (better_raw + 1) % 3 } else { better_raw };
            let len = len_raw % cap; // every streak strictly shorter than min(x, y)
            for _ in 0..len {
                let obs = Observation::suboptimal(
                    ProtocolId(current),
                    ProtocolId(better),
                    residual,
                );
                prop_assert_eq!(
                    pol.decide(&obs),
                    Decision::Stay,
                    "switched inside a streak of {} < min({}, {})",
                    len, x, y
                );
            }
            // The break: one optimal observation resets the evidence.
            prop_assert_eq!(
                pol.decide(&Observation::optimal(ProtocolId(current))),
                Decision::Stay
            );
        }
    }

    /// The harness is policy-agnostic: `Hysteresis` run through the same
    /// task-system environment adapts to sustained contention changes
    /// (ends up far below never-switching) — demonstrating any
    /// `dyn Policy` impl plugs into the cost harness.
    #[test]
    fn harness_accepts_any_policy_impl(
        x in 2u64..10,
        y in 2u64..10,
    ) {
        let ts = system(8_000.0, 800.0, 150.0, 15.0);
        let reqs = vec![1usize; 2_000];
        let mut pol: Box<dyn Policy> = Box::new(Hysteresis::new(x, y));
        let (cost, switches) = run_policy(&ts, pol.as_mut(), &reqs);
        let (stay_cost, _) = run_policy(&ts, &mut NeverPolicy, &reqs);
        prop_assert_eq!(switches, 1);
        prop_assert!(cost < stay_cost / 10.0, "hysteresis failed to adapt: {cost}");
    }
}

/// An observation from its compact proptest encoding: `better == 3`
/// stands for "optimal".
fn obs((current, better, residual): (u8, u8, f64)) -> Observation {
    if better == 3 {
        Observation::optimal(ProtocolId(current))
    } else {
        Observation::suboptimal(ProtocolId(current), ProtocolId(better), residual)
    }
}

/// If `policy` declares `optimal_is_noop`: after any `prefix`, an
/// optimal observation is answered `Stay`, and a copy that never saw it
/// decides identically on every `suffix`. Returns whether it declared.
fn optimal_is_noop_holds<P: Policy + Copy>(
    mut policy: P,
    prefix: &[(u8, u8, f64)],
    current: u8,
    suffix: &[(u8, u8, f64)],
) -> bool {
    if !policy.optimal_is_noop() {
        return false;
    }
    for &o in prefix {
        policy.decide(&obs(o));
    }
    let mut skipped = policy;
    assert_eq!(
        policy.decide(&Observation::optimal(ProtocolId(current))),
        Decision::Stay
    );
    for &o in suffix {
        assert_eq!(policy.decide(&obs(o)), skipped.decide(&obs(o)));
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn declared_capability_means_optimal_observations_change_nothing(
        round_trip in 1.0f64..5_000.0,
        x in 1u64..6,
        y in 1u64..6,
        prefix in proptest::collection::vec((0u8..3, 0u8..4, 0.0f64..2_000.0), 0..40),
        current in 0u8..3,
        suffix in proptest::collection::vec((0u8..3, 0u8..4, 0.0f64..2_000.0), 1..40),
    ) {
        prop_assert!(optimal_is_noop_holds(Always, &prefix, current, &suffix));
        prop_assert!(optimal_is_noop_holds(
            Competitive3::new(round_trip), &prefix, current, &suffix
        ));
        // Hysteresis must not declare it: an optimal observation breaks
        // its streak.
        prop_assert!(!optimal_is_noop_holds(Hysteresis::new(x, y), &prefix, current, &suffix));
    }
}

/// Why [`Hysteresis`] cannot declare the capability: skipping the
/// optimal observation between two sub-optimal ones lets the streak
/// survive a break.
#[test]
fn hysteresis_state_depends_on_optimal_observations() {
    let (a, b) = (ProtocolId(0), ProtocolId(1));
    let mut seen = Hysteresis::new(2, 2);
    let mut skipped = seen;
    for p in [&mut seen, &mut skipped] {
        assert_eq!(
            p.decide(&Observation::suboptimal(a, b, 1.0)),
            Decision::Stay
        );
    }
    assert_eq!(seen.decide(&Observation::optimal(a)), Decision::Stay);
    let next = Observation::suboptimal(a, b, 1.0);
    assert_eq!(seen.decide(&next), Decision::Stay);
    assert_eq!(skipped.decide(&next), Decision::SwitchTo(b));
}

// ---------------------------------------------------------------------
// The §3.4 behaviour checks on the §3.5.5 empirical system (TTS→MCS
// ≈ 8000 cycles, MCS→TTS ≈ 800; TTS under high contention wastes
// ≈ 150/request, MCS under low contention ≈ 15/request).
// ---------------------------------------------------------------------

const ROUND_TRIP: f64 = 8_800.0;

fn paper_system() -> TaskSystem {
    system(8_000.0, 800.0, 150.0, 15.0)
}

fn cost(ts: &TaskSystem, policy: &mut dyn Policy, reqs: &[usize]) -> f64 {
    run_policy(ts, policy, reqs).0
}

#[test]
fn online_policies_serve_all_requests() {
    let ts = paper_system();
    let reqs: Vec<usize> = (0..500).map(|i| (i / 50) % 2).collect();
    let policies: [&mut dyn Policy; 4] = [
        &mut NeverPolicy,
        &mut Always,
        &mut Competitive3::new(ROUND_TRIP),
        &mut Hysteresis::new(20, 55),
    ];
    for policy in policies {
        let c = cost(&ts, policy, &reqs);
        assert!(c.is_finite() && c >= 0.0);
    }
}

#[test]
fn competitive3_is_3_competitive_on_worst_case() {
    let ts = paper_system();
    let reqs = worst_case_sequence(&ts, 10);
    let online = cost(&ts, &mut Competitive3::new(ROUND_TRIP), &reqs);
    let opt = ts.offline_opt(&reqs);
    assert!(opt > 0.0);
    let ratio = online / opt;
    assert!(
        ratio <= 3.0 + 1e-9,
        "competitive ratio {ratio} exceeds 3 on the worst case"
    );
    // And the worst case should actually be bad (close to 3, > 2).
    assert!(ratio > 2.0, "adversary too weak: ratio {ratio}");
}

#[test]
fn always_switch_thrashes_on_alternating_load() {
    // The adversary alternates every request: `Always` pays a
    // transition per request while `Competitive3` stays put mostly.
    let ts = paper_system();
    let reqs: Vec<usize> = (0..1000).map(|i| i % 2).collect();
    let always = cost(&ts, &mut Always, &reqs);
    let comp = cost(&ts, &mut Competitive3::new(ROUND_TRIP), &reqs);
    assert!(
        always > comp,
        "always-switch ({always}) should lose to 3-competitive ({comp})"
    );
}

#[test]
fn competitive3_adapts_to_sustained_change() {
    // A long block of high contention: the policy should switch and
    // end up near opt (within the 3x bound, and way below staying).
    let ts = paper_system();
    let reqs = vec![1usize; 2_000];
    let comp = cost(&ts, &mut Competitive3::new(ROUND_TRIP), &reqs);
    let never = cost(&ts, &mut NeverPolicy, &reqs);
    let opt = ts.offline_opt(&reqs);
    assert!(
        comp < never / 10.0,
        "policy failed to adapt: {comp} vs {never}"
    );
    assert!(comp <= 3.0 * opt + ts.d[0][1] + 1.0);
}

#[test]
fn hysteresis_resists_brief_fluctuations() {
    // A single high-contention blip must not flip Hysteresis(20, _).
    let ts = paper_system();
    let mut reqs = vec![0usize; 100];
    reqs[50] = 1;
    // Only the blip's residual cost, no transitions.
    assert_eq!(cost(&ts, &mut Hysteresis::new(20, 55), &reqs), 150.0);
}

/// A trivial user-style policy used to exercise the harness with a
/// non-shipped impl.
struct NeverPolicy;

impl Policy for NeverPolicy {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}
