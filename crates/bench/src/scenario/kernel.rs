//! Beyond the paper — kernel-built objects: the reactive barrier, and
//! the §3.5.5 cost of one protocol change.

use std::cell::Cell;
use std::rc::Rc;

use alewife_sim::{Config, Machine};
use reactive_core::lock::{ReleaseMode, PROTO_QUEUE};
use reactive_core::policy::{Decision, Observation, Policy, ProtocolId};
use reactive_core::{barrier, ReactiveBarrier, ReactiveLock};
use sync_protocols::barrier::{BarrierCtx, SenseBarrier, TreeBarrier};
use sync_protocols::waiting::AlwaysSpin;

use super::{Outcome, Scale, Scenario};
use crate::claim::Claim;

pub(super) const BARRIER_REACTIVE: Scenario = Scenario {
    name: "barrier_reactive",
    figure: "— (beyond the paper)",
    paper_says: "the kernel-built reactive barrier tracks the best static arrival \
                 protocol: central sense-reversing at low P, combining tree at high P",
    claims: &[
        Claim::Crossover {
            cheap: "bar/central",
            scalable: "bar/tree",
        },
        Claim::TracksBest {
            series: "bar/reactive",
            over: &["bar/central", "bar/tree"],
            slack: 1.25,
        },
        // The tree's scalability edge at the high end is real, and the
        // reactive barrier reached it by switching (count read from the
        // kernel).
        Claim::BoundedRatio {
            num: "reactive_switches_hi",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
    ],
    run: barrier_reactive,
};

fn barrier_reactive(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&[2, 4, 8, 16, 32], &[2, 32]);
    let rounds = scale.pick(24, 12);
    let mut central = Vec::new();
    let mut tree = Vec::new();
    let mut reactive = Vec::new();
    let mut switches_hi = 0u64;
    for &p in procs {
        let x = p as f64;
        central.push((x, barrier_rounds(BarrierAlg::Central, p, rounds).0));
        tree.push((x, barrier_rounds(BarrierAlg::Tree, p, rounds).0));
        let (r, s) = barrier_rounds(BarrierAlg::Reactive, p, rounds);
        reactive.push((x, r));
        switches_hi = s;
    }
    let hi = procs.len() - 1;
    let worst = reactive
        .iter()
        .zip(central.iter().zip(&tree))
        .fold(0f64, |m, (&(_, r), (&(_, c), &(_, t)))| m.max(r / c.min(t)));
    let mut o = Outcome {
        sweep: "cycles/round \\ procs",
        headline: format!(
            "reactive barrier within {worst:.2}x of the best static arrival protocol \
             across P = {}..{}; tree beats central {:.0} vs {:.0} cycles/round at P = {} \
             ({} switch(es), via the switching kernel)",
            procs[0], procs[hi], tree[hi].1, central[hi].1, procs[hi], switches_hi,
        ),
        ..Outcome::default()
    };
    o.push("bar/central", central);
    o.push("bar/tree", tree);
    o.push("bar/reactive", reactive);
    o.scalar("reactive_switches_hi", switches_hi as f64);
    o.scalar("reactive_worst_ratio", worst);
    o
}

/// Barrier arrival protocols compared by `barrier_reactive`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BarrierAlg {
    /// Centralized sense-reversing barrier (one counter line).
    Central,
    /// Software combining arrival tree (fanout-bounded sharing).
    Tree,
    /// The kernel-built [`ReactiveBarrier`] selecting between them.
    Reactive,
}

/// Cycles per barrier round for `procs` participants, and the reactive
/// barrier's protocol-switch count (0 for the static protocols).
fn barrier_rounds(alg: BarrierAlg, procs: usize, rounds: u64) -> (f64, u64) {
    #[derive(Clone)]
    enum AnyBar {
        Central(SenseBarrier),
        Tree(TreeBarrier),
        Reactive(ReactiveBarrier),
    }
    let m = Machine::new(Config::default().nodes(procs));
    let bar = match alg {
        BarrierAlg::Central => AnyBar::Central(SenseBarrier::new(&m, 0, procs as u64)),
        BarrierAlg::Tree => AnyBar::Tree(TreeBarrier::new(&m, 0, procs, barrier::FANOUT)),
        BarrierAlg::Reactive => AnyBar::Reactive(ReactiveBarrier::new(&m, 0, procs)),
    };
    for p in 0..procs {
        let cpu = m.cpu(p);
        let bar = bar.clone();
        m.spawn(p, async move {
            let mut ctx = BarrierCtx::default();
            for _ in 0..rounds {
                cpu.work(cpu.rand_below(200)).await;
                match &bar {
                    AnyBar::Central(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                    AnyBar::Tree(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                    AnyBar::Reactive(b) => b.wait(&cpu, &mut ctx, &AlwaysSpin).await,
                }
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "barrier experiment deadlock");
    let switches = match &bar {
        AnyBar::Reactive(b) => b.switches(),
        _ => 0,
    };
    (elapsed as f64 / rounds as f64, switches)
}

/// §3.5.5's protocol-change round trip on Alewife, `d_AB + d_BA`
/// (≈ 8000 + ≈ 800 cycles). This is the paper's figure, kept apart
/// from the shipped `reactive_core::lock::SWITCH_ROUND_TRIP` that
/// `Competitive3` takes (equal today).
const PAPER_ROUND_TRIP: f64 = 8_800.0;

pub(super) const SWITCH_COST: Scenario = Scenario {
    name: "switch_cost",
    figure: "§3.5.5 (the ≈8000-cycle figure)",
    paper_says: "a protocol change costs a measurable constant d_AB + d_BA (≈ 8000 + ≈ 800 \
                 cycles on Alewife), the round trip the 3-competitive policy is \
                 parameterized by",
    claims: &[
        // Each direction's switching release costs more than a plain
        // release in the same mode.
        Claim::BoundedRatio {
            num: "to_queue_cycles",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        Claim::BoundedRatio {
            num: "to_tts_cycles",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        // The round trip is no dearer than Alewife's and not trivially
        // small.
        Claim::BoundedRatio {
            num: "round_trip_cycles",
            den: Some("paper_round_trip_cycles"),
            min: 0.1,
            max: 1.0,
        },
    ],
    run: switch_cost,
};

/// The §3.5.5 protocol-change cost of the reactive lock, in cycles:
/// each direction is the mean switching release under [`FlipFlop`]
/// minus the mean plain release in the same mode under [`Stay`], all
/// three runs 16-way contended (populated queues to invalidate,
/// contended lines to hand around, as on Alewife).
fn switch_cost(scale: Scale) -> Outcome {
    let iters = scale.pick(300, 30);
    let flip = release_cycles(iters, FlipFlop, false);
    let tts = release_cycles(iters, Stay, false)[0];
    let queue = release_cycles(iters, Stay, true)[1];
    let (to_queue, to_tts) = (flip[2] - tts, flip[3] - queue);
    let round_trip = to_queue + to_tts;
    let mut o = Outcome {
        headline: format!(
            "16-way contended sim: TTS→queue {to_queue:.1} cycles, queue→TTS \
             {to_tts:.1}, round trip {round_trip:.1} ({:.2}x the paper's ≈ 8000 + ≈ 800 \
             on Alewife); native round trip in BENCH_service_native.json `path_cost`",
            round_trip / PAPER_ROUND_TRIP
        ),
        ..Outcome::default()
    };
    o.scalar("to_queue_cycles", to_queue);
    o.scalar("to_tts_cycles", to_tts);
    o.scalar("round_trip_cycles", round_trip);
    o.scalar("paper_round_trip_cycles", PAPER_ROUND_TRIP);
    o
}

/// Always propose the other protocol of a 2-way object: every release
/// under it is a protocol change.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlipFlop;

impl Policy for FlipFlop {
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision::SwitchTo(ProtocolId(1 - obs.current.0))
    }
}

/// Never switch: the plain-release baseline [`FlipFlop`] is measured
/// against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stay;

impl Policy for Stay {
    fn decide(&mut self, _obs: &Observation) -> Decision {
        Decision::Stay
    }
}

/// Mean release cycles of a 16-way contended [`ReactiveLock`] per
/// release kind, `[tts, queue, tts_to_queue, queue_to_tts]` (NaN for a
/// kind that never occurred), with `iters` acquisitions per processor.
fn release_cycles(iters: u64, policy: impl Policy + 'static, start_in_queue: bool) -> [f64; 4] {
    const PROCS: usize = 16;
    let m = Machine::new(Config::default().nodes(PROCS));
    let mut b = ReactiveLock::builder(&m, 0).max_procs(PROCS).policy(policy);
    if start_in_queue {
        b = b.initial_protocol(PROTO_QUEUE);
    }
    let lock = b.build();
    let sums = Rc::new(Cell::new([(0u64, 0u64); 4]));
    for p in 0..PROCS {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let sums = sums.clone();
        m.spawn(p, async move {
            for _ in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(10).await;
                let kind = match t {
                    ReleaseMode::Tts => 0,
                    ReleaseMode::Queue(_) => 1,
                    ReleaseMode::TtsToQueue => 2,
                    ReleaseMode::QueueToTts(_) => 3,
                };
                let t0 = cpu.now();
                lock.release(&cpu, t).await;
                let mut s = sums.get();
                s[kind] = (s[kind].0 + (cpu.now() - t0), s[kind].1 + 1);
                sums.set(s);
                cpu.work(cpu.rand_below(100)).await;
            }
        });
    }
    m.run();
    assert_eq!(m.live_tasks(), 0, "switch-cost run deadlocked");
    sums.get().map(|(sum, n)| sum as f64 / n as f64)
}
