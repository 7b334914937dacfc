//! Chapter 3 — protocol selection: the lock and fetch-and-op baselines,
//! multiple objects, time-varying contention, the applications and the
//! message-passing crossover.

use std::fmt::Debug;
use std::rc::Rc;

use alewife_sim::{Config, CostModel, Machine};
use reactive_api::lock::{QUEUE_RESIDUAL, TTS_RESIDUAL};
use reactive_core::lock::SWITCH_ROUND_TRIP;
use reactive_core::mp::{ReactiveMpFetchOp, ReactiveMpLock};
use reactive_core::policy::SwitchLog;
use sim_apps::alg::{AnyFetchOp, AnyLock, FetchOpAlg, LockAlg, WaitAlg};
use sim_apps::{aq, cholesky, gamteb, mp3d, tsp};
use sync_protocols::barrier::{BarrierCtx, SenseBarrier};
use sync_protocols::fetch_op::FetchOp;
use sync_protocols::spin::Lock;
use sync_protocols::waiting::AlwaysSpin;
use waiting_theory::task_system::{worst_case_sequence, TaskSystem};

use super::{adaptive_matrix, worst, Outcome, Scale, Scenario};
use crate::claim::Claim;

pub(super) const FIG_3_14: Scenario = Scenario {
    name: "fig_3_14_policy_bound",
    figure: "Fig. 3.14",
    paper_says: "3-competitive policy's worst case: online cost approaches 3x optimum \
                 on the adversarial sequence",
    claims: &[
        Claim::BoundedRatio {
            num: "ratio/competitive3",
            den: None,
            min: 1.0,
            max: 3.0,
        },
        Claim::BoundedRatio {
            num: "comp3_worst",
            den: None,
            min: 2.5,
            max: 3.0,
        },
        Claim::BoundedRatio {
            num: "always_thrash_vs_comp3",
            den: None,
            min: 1.5,
            max: f64::INFINITY,
        },
    ],
    run: fig_3_14,
};

fn fig_3_14(scale: Scale) -> Outcome {
    // The on-line players are the policies the reactive objects ship
    // with. The task system's switch costs are the paper's §3.5.5
    // Alewife figures (8000 + 800 cycles), kept apart from the shipped
    // `SWITCH_ROUND_TRIP` (their sum today); the residuals are the
    // shipped monitors' own.
    use reactive_api::{online_rule, Always, Competitive3, Hysteresis, Policy};
    let ts = TaskSystem::two_protocol(8_000.0, 800.0, TTS_RESIDUAL, QUEUE_RESIDUAL);
    let run = |policy: &mut dyn Policy, reqs: &[usize]| ts.run_online(online_rule(policy), reqs);
    let comp3 = || Competitive3::new(SWITCH_ROUND_TRIP);
    let cycles: &[usize] = scale.pick(&[1, 5, 20, 50], &[1, 5, 20]);
    let mut comp = Vec::new();
    let mut always = Vec::new();
    let mut never = Vec::new();
    let mut hyst = Vec::new();
    for &c in cycles {
        let reqs = worst_case_sequence(&ts, c);
        let opt = ts.offline_opt(&reqs);
        let x = c as f64;
        comp.push((x, run(&mut comp3(), &reqs) / opt));
        always.push((x, run(&mut Always, &reqs) / opt));
        never.push((x, ts.run_online(|s, _, _| s, &reqs) / opt));
        hyst.push((x, run(&mut Hysteresis::new(20, 55), &reqs) / opt));
    }
    let worst = worst(&comp);
    // The thrash side of the figure: an adversary alternating every
    // request makes switch-immediately pay a transition per request
    // while the 3-competitive policy stays put.
    let alt: Vec<usize> = (0..500).map(|i| i % 2).collect();
    let thrash = run(&mut Always, &alt) / run(&mut comp3(), &alt);
    let mut o = Outcome {
        sweep: "policy \\ adversary cycles",
        headline: format!(
            "competitive3 worst case {worst:.2}x vs offline opt (bound 3.00); \
             always-switch pays {thrash:.1}x competitive3 on the alternating adversary"
        ),
        ..Outcome::default()
    };
    o.push("ratio/competitive3", comp);
    o.push("ratio/always", always);
    o.push("ratio/never", never);
    o.push("ratio/hysteresis", hyst);
    o.scalar("comp3_worst", worst);
    o.scalar("always_thrash_vs_comp3", thrash);
    o
}

/// Processor counts swept by the baseline experiments.
const BASELINE_PROCS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Total acquisitions per baseline data point (split across procs).
const BASELINE_OPS: u64 = 1024;
/// Critical-section length in the lock baseline (paper: 100).
const CS: u64 = 100;
/// Mean think time in the baselines (paper: U(0,500), mean 250).
const THINK_BOUND: u64 = 500;

/// The lock series of Figs. 3.15 and 3.16: `(label, lock, full-map
/// directory)`.
const LOCKS: [(&str, LockAlg, bool); 5] = [
    ("lock/test&set", LockAlg::TestAndSet, false),
    ("lock/tts", LockAlg::Tts, false),
    ("lock/tts-dirnb", LockAlg::Tts, true),
    ("lock/mcs", LockAlg::Mcs, false),
    ("lock/reactive", LockAlg::Reactive, false),
];

/// Average overhead (cycles) added per critical section by the lock
/// `make` builds for `p` contenders, at each `p` of `procs` — the
/// baseline test of §3.5.1 / Figure 3.15 left (and, for the reactive
/// SM/MP lock, Figure 3.26) — over `total_ops` acquisitions.
fn lock_overhead<L: Lock + Debug>(
    procs: &[usize],
    cost: fn() -> CostModel,
    full_map: bool,
    total_ops: u64,
    make: impl Fn(&Machine, usize) -> L,
) -> Vec<(f64, f64)> {
    let point = |procs: usize| {
        let m = Machine::new(
            Config::default()
                .nodes(procs.max(2))
                .cost(cost())
                .full_map(full_map),
        );
        let lock = make(&m, procs);
        let iters = (total_ops / procs as u64).max(8);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let lock = lock.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(CS).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(THINK_BOUND)).await;
                }
            });
        }
        let elapsed = m.run();
        assert_eq!(m.live_tasks(), 0, "{lock:?} deadlocked at {procs} procs");
        let total_cs = iters * procs as u64;
        let per_cs = elapsed as f64 / total_cs as f64;
        // Test-loop latency per critical section (§3.5.1): the think
        // time overlaps across processors; the CS itself serializes.
        let ideal = ((CS + THINK_BOUND / 2) as f64 / procs as f64).max(CS as f64);
        (procs as f64, (per_cs - ideal).max(0.0))
    };
    procs.iter().map(|&p| point(p)).collect()
}

/// Average overhead per fetch-and-increment of the object `make` builds
/// for `p` contenders, at each `p` of `procs` (Figure 3.15 right;
/// Figure 3.26 for the reactive SM/MP fetch-op) over `total_ops`
/// operations.
fn fetchop_overhead<F: FetchOp + Debug>(
    procs: &[usize],
    total_ops: u64,
    make: impl Fn(&Machine, usize) -> F,
) -> Vec<(f64, f64)> {
    let point = |procs: usize| {
        let m = Machine::new(Config::default().nodes(procs.max(2)).cost(CostModel::nwo()));
        let f = make(&m, procs);
        let iters = (total_ops / procs as u64).max(8);
        for p in 0..procs {
            let cpu = m.cpu(p);
            let f = f.clone();
            m.spawn(p, async move {
                for _ in 0..iters {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(cpu.rand_below(THINK_BOUND)).await;
                }
            });
        }
        let elapsed = m.run();
        assert_eq!(m.live_tasks(), 0, "{f:?} deadlocked at {procs} procs");
        let ops = iters * procs as u64;
        let per_op = elapsed as f64 / ops as f64;
        let ideal = (THINK_BOUND / 2) as f64 / procs as f64;
        (procs as f64, (per_op - ideal).max(0.0))
    };
    procs.iter().map(|&p| point(p)).collect()
}

pub(super) const FIG_3_15: Scenario = Scenario {
    name: "fig_3_15_baseline",
    figure: "Figs. 1.1/3.2/3.15",
    paper_says: "TTS best <= 4 procs then melts down; MCS flat; combining tree wins at \
                 high contention; reactive tracks the best everywhere",
    claims: &[
        Claim::Crossover {
            cheap: "lock/tts",
            scalable: "lock/mcs",
        },
        Claim::FlatScaling {
            series: "lock/mcs",
            from_x: 2.0,
            factor: 2.5,
        },
        Claim::TracksBest {
            series: "lock/reactive",
            over: &["lock/tts", "lock/mcs"],
            slack: 1.8,
        },
        Claim::Crossover {
            cheap: "fo/tts-lock",
            scalable: "fo/combining",
        },
        Claim::TracksBest {
            series: "fo/reactive",
            over: &["fo/tts-lock", "fo/queue-lock", "fo/combining"],
            slack: 2.5,
        },
    ],
    run: fig_3_15,
};

fn fig_3_15(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&BASELINE_PROCS, &[1, 2, 16]);
    let ops = scale.pick(BASELINE_OPS, 256);
    let mut o = Outcome {
        sweep: "series \\ procs",
        ..Outcome::default()
    };
    for (label, alg, fm) in LOCKS {
        let pts = lock_overhead(procs, CostModel::nwo, fm, ops, |m, p| {
            AnyLock::make(m, 0, alg, p)
        });
        o.push(label, pts);
    }
    for (label, alg) in [
        ("fo/tts-lock", FetchOpAlg::TtsLock),
        ("fo/queue-lock", FetchOpAlg::QueueLock),
        ("fo/combining", FetchOpAlg::Combining),
        ("fo/reactive", FetchOpAlg::Reactive),
    ] {
        o.push(
            label,
            fetchop_overhead(procs, ops, |m, p| AnyFetchOp::make(m, 0, alg, p)),
        );
    }
    let hi = procs.len() - 1;
    let at = |l: &str| o.series_named(l).unwrap().points[hi].1;
    let lo = |l: &str| o.series_named(l).unwrap().points[0].1;
    o.headline = format!(
        "TTS {:.0} -> {:.0} cyc/CS (meltdown), MCS {:.0} -> {:.0} (flat), reactive \
         {:.2}x best at {} procs; combining beats lock-based fetch-op {:.0} vs {:.0}",
        lo("lock/tts"),
        at("lock/tts"),
        lo("lock/mcs"),
        at("lock/mcs"),
        at("lock/reactive") / at("lock/tts").min(at("lock/mcs")),
        procs[hi],
        at("fo/combining"),
        at("fo/tts-lock"),
    );
    o
}

pub(super) const FIG_3_16: Scenario = Scenario {
    name: "fig_3_16_hardware",
    figure: "Fig. 3.16",
    paper_says: "Dir_NB full-map directory softens but does not cure TTS meltdown; \
                 limited pointers + software traps worsen it",
    claims: &[
        Claim::Crossover {
            cheap: "lock/tts",
            scalable: "lock/mcs",
        },
        // Softens: the full-map directory serves the invalidate storm
        // without LimitLESS traps...
        Claim::BoundedRatio {
            num: "dirnb_hi",
            den: Some("tts_hi"),
            min: 0.0,
            max: 0.9,
        },
        // ...but does not cure: still far off the queue lock.
        Claim::BoundedRatio {
            num: "dirnb_hi",
            den: Some("mcs_hi"),
            min: 1.5,
            max: f64::INFINITY,
        },
        Claim::TracksBest {
            series: "lock/reactive",
            over: &["lock/tts", "lock/mcs"],
            slack: 1.8,
        },
    ],
    run: fig_3_16,
};

fn fig_3_16(scale: Scale) -> Outcome {
    // The prototype machine is 16 nodes; stop the sweep there.
    let procs: &[usize] = scale.pick(&[1, 2, 4, 8, 16], &[1, 2, 16]);
    let ops = scale.pick(BASELINE_OPS, 256);
    let mut o = Outcome {
        sweep: "series \\ procs",
        ..Outcome::default()
    };
    for (label, alg, fm) in LOCKS {
        let pts = lock_overhead(procs, CostModel::prototype, fm, ops, |m, p| {
            AnyLock::make(m, 0, alg, p)
        });
        o.push(label, pts);
    }
    let hi = procs.len() - 1;
    let at = |o: &Outcome, l: &str| o.series_named(l).unwrap().points[hi].1;
    let (tts, dirnb, mcs) = (
        at(&o, "lock/tts"),
        at(&o, "lock/tts-dirnb"),
        at(&o, "lock/mcs"),
    );
    o.scalar("tts_hi", tts);
    o.scalar("dirnb_hi", dirnb);
    o.scalar("mcs_hi", mcs);
    o.headline = format!(
        "prototype model at {} procs: TTS {tts:.0} cyc/CS, Dir_NB full-map {dirnb:.0} \
         (softens, {:.2}x TTS) but still {:.1}x MCS ({mcs:.0})",
        procs[hi],
        dirnb / tts,
        dirnb / mcs,
    );
    o
}

pub(super) const FIG_3_17: Scenario = Scenario {
    name: "fig_3_17_multi_object",
    figure: "Figs. 3.17-3.19",
    paper_says: "with many objects and skewed access, reactive ~= best static \
                 per-object choice",
    claims: &[
        Claim::BoundedRatio {
            num: "norm/reactive",
            den: None,
            min: 0.5,
            max: 1.6,
        },
        // The skewed patterns punish the wrong static choice hard;
        // reactive avoids that cliff.
        Claim::BoundedRatio {
            num: "testandset_worst",
            den: Some("reactive_worst"),
            min: 2.0,
            max: f64::INFINITY,
        },
    ],
    run: fig_3_17,
};

fn fig_3_17(scale: Scale) -> Outcome {
    let all = patterns();
    let (ids, acq): (&[usize], u64) = scale.pick((&[1, 5, 9, 12][..], 12), (&[1, 12][..], 8));
    let mut ts = Vec::new();
    let mut mcs = Vec::new();
    let mut re = Vec::new();
    for &id in ids {
        let p = &all[id - 1];
        let opt = multi_object(p, None, acq) as f64;
        let x = id as f64;
        let norm = |alg| multi_object(p, Some(alg), acq) as f64 / opt;
        ts.push((x, norm(LockAlg::TestAndSet)));
        mcs.push((x, norm(LockAlg::Mcs)));
        re.push((x, norm(LockAlg::Reactive)));
    }
    let re_worst = worst(&re);
    let ts_worst = worst(&ts);
    let mut o = Outcome {
        sweep: "norm. time \\ pattern",
        headline: format!(
            "reactive <= {re_worst:.2}x the per-lock-optimal static choice across \
             patterns {ids:?}; test&set up to {ts_worst:.1}x"
        ),
        ..Outcome::default()
    };
    o.push("norm/test&set", ts);
    o.push("norm/mcs", mcs);
    o.push("norm/reactive", re);
    o.scalar("reactive_worst", re_worst);
    o.scalar("testandset_worst", ts_worst);
    o
}

/// One multiple-lock contention pattern of §3.5.3 (Figures 3.17-3.19):
/// lock groups, each `(number_of_locks, contending_procs_each)`.
type Pattern = Vec<(usize, usize)>;

/// The twelve contention patterns of §3.5.3, numbered from 1. Patterns
/// 1-8 follow the paper's text exactly (one or more high-contention
/// locks plus 32 single- or double-proc locks); 9-12 are uniform mixes
/// covering the same axis (the thesis figures do not tabulate them
/// numerically).
fn patterns() -> Vec<Pattern> {
    let hot = [(1, 32), (2, 16), (4, 8), (8, 4)];
    // Patterns 1-4: k locks with 32/k procs, plus 32 locks with 1 proc.
    let mut v: Vec<Pattern> = hot.iter().map(|&g| vec![g, (32, 1)]).collect();
    // Patterns 5-8: low-contention locks have 2 procs each.
    v.extend(hot.iter().map(|&g| vec![g, (16, 2)]));
    // Patterns 9-12: uniform contention levels.
    v.extend([(32, 2), (16, 4), (64, 1), (1, 64)].map(|g| vec![g]));
    v
}

/// Elapsed time for the multiple-lock test under one pattern.
/// `alg = None` runs the *simulated optimal*: per-lock static choice
/// (TTS below 4 contenders, MCS at 4 or more), as in §3.5.3.
fn multi_object(pattern: &Pattern, alg: Option<LockAlg>, acq_per_proc: u64) -> u64 {
    let procs: usize = pattern.iter().map(|(n, c)| n * c).sum();
    let m = Machine::new(Config::default().nodes(procs));
    let mut assignments: Vec<(AnyLock, alewife_sim::Addr)> = Vec::new();
    let mut lock_of_proc: Vec<usize> = Vec::new();
    for &(n, c) in pattern {
        for _ in 0..n {
            let home = assignments.len() % procs;
            let chosen = match alg {
                Some(a) => a,
                None if c < 4 => LockAlg::Tts,
                None => LockAlg::Mcs,
            };
            let lock = AnyLock::make(&m, home, chosen, c);
            let val = m.alloc_on(home, 1);
            assignments.push((lock, val));
            for _ in 0..c {
                lock_of_proc.push(assignments.len() - 1);
            }
        }
    }
    for p in 0..procs {
        let cpu = m.cpu(p);
        let (lock, val) = assignments[lock_of_proc[p]].clone();
        m.spawn(p, async move {
            for _ in 0..acq_per_proc {
                let t = lock.acquire(&cpu).await;
                // "Increment a double-precision value": read + fp work +
                // write.
                let v = cpu.read(val).await;
                cpu.work(20).await;
                cpu.write(val, v + 1).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(THINK_BOUND)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "multi-object deadlock");
    elapsed
}

/// The time-varying contention test of §3.5.4 (Figures 3.20-3.23):
/// alternating low-contention (1 proc, 10-cycle CS, 20-cycle think) and
/// high-contention (16 procs, 100-cycle CS, 250-cycle think) phases.
/// `period_len` = locks acquired per period, `contention_pct` = fraction
/// acquired in the high phase, `periods` repetitions. Runs on the
/// 16-node prototype cost model. Returns `(elapsed_cycles,
/// protocol_switches)`, the switches read from a [`SwitchLog`] attached
/// to the lock (always 0 for the static algorithms), so scenarios can
/// claim both the cost and the adaptation behaviour of a reactive
/// variant.
fn time_varying(alg: LockAlg, period_len: u64, contention_pct: u64, periods: u64) -> (u64, u64) {
    let procs = 16usize;
    let m = Machine::new(Config::default().nodes(procs).cost(CostModel::prototype()));
    let log = Rc::new(SwitchLog::new());
    let lock = AnyLock::make_instrumented(&m, 0, alg, procs, Some(log.clone()));
    let bar = SenseBarrier::new(&m, 0, procs as u64);
    let high_total = period_len * contention_pct / 100;
    let high_each = (high_total / procs as u64).max(1);
    let low_total = period_len - high_total;
    for p in 0..procs {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            for _ in 0..periods {
                // Low phase: only proc 0 uses the lock.
                if p == 0 {
                    for _ in 0..low_total {
                        let t = lock.acquire(&cpu).await;
                        cpu.work(10).await;
                        lock.release(&cpu, t).await;
                        cpu.work(20).await;
                    }
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
                // High phase: everyone contends.
                for _ in 0..high_each {
                    let t = lock.acquire(&cpu).await;
                    cpu.work(100).await;
                    lock.release(&cpu, t).await;
                    cpu.work(cpu.rand_below(500)).await;
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "time-varying deadlock");
    (elapsed, log.count() as u64)
}

/// Shared sweep for the time-varying scenarios (Figures 3.21-3.23):
/// returns `(lengths, periods)` for the scale.
fn tv_scale(scale: Scale) -> (&'static [u64], u64) {
    scale.pick((&[256, 512, 1024, 2048][..], 4), (&[128, 512][..], 2))
}

pub(super) const FIG_3_21: Scenario = Scenario {
    name: "fig_3_21_time_varying",
    figure: "Fig. 3.21",
    paper_says: "under phase-changing contention the reactive lock re-converges within \
                 a bounded lag",
    claims: &[
        // Bounded lag: at long periods the switching transient
        // amortizes to within 15% of the best static protocol.
        Claim::BoundedRatio {
            num: "re_mcs_90_last",
            den: None,
            min: 0.85,
            max: 1.15,
        },
        // Re-convergence: the penalty shrinks as periods grow.
        Claim::BoundedRatio {
            num: "re_mcs_90_last",
            den: Some("re_mcs_90_first"),
            min: 0.0,
            max: 0.92,
        },
        // Adaptation is exact: one switch per phase boundary at every
        // sweep point, read from the shared API's SwitchLog.
        Claim::BoundedRatio {
            num: "switches@90%",
            den: Some("switches_expected"),
            min: 1.0,
            max: 1.0,
        },
        Claim::BoundedRatio {
            num: "switches@10%",
            den: Some("switches_expected"),
            min: 1.0,
            max: 1.0,
        },
    ],
    run: fig_3_21,
};

fn fig_3_21(scale: Scale) -> Outcome {
    let (lengths, periods) = tv_scale(scale);
    let mut o = Outcome {
        sweep: "series \\ period length",
        ..Outcome::default()
    };
    let mut last_first = (1.0, 1.0);
    for (pct, ratio_label, switches_label) in [
        (10u64, "re/mcs@10%", "switches@10%"),
        (90, "re/mcs@90%", "switches@90%"),
    ] {
        let mut ratio = Vec::new();
        let mut switches = Vec::new();
        for &l in lengths {
            let mcs = time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
            let (t, s) = time_varying(LockAlg::Reactive, l, pct, periods);
            ratio.push((l as f64, t as f64 / mcs));
            switches.push((l as f64, s as f64));
        }
        if pct == 90 {
            last_first = (ratio[ratio.len() - 1].1, ratio[0].1);
        }
        o.push(ratio_label, ratio);
        o.push(switches_label, switches);
    }
    // One committed protocol change per contention-phase boundary:
    // `periods` repetitions of (low, high) give 2*periods phases and
    // 2*periods - 1 boundaries.
    o.scalar("switches_expected", (2 * periods - 1) as f64);
    o.scalar("re_mcs_90_last", last_first.0);
    o.scalar("re_mcs_90_first", last_first.1);
    o.headline = format!(
        "reactive/MCS {:.2} -> {:.2} (90% contention) as the period grows {} -> {}; \
         exactly {} switches per run (one per phase boundary, from SwitchLog)",
        last_first.1,
        last_first.0,
        lengths[0],
        lengths[lengths.len() - 1],
        2 * periods - 1,
    );
    o
}

pub(super) const FIG_3_22: Scenario = Scenario {
    name: "fig_3_22_competitive",
    figure: "Fig. 3.22",
    paper_says: "3-competitive policy bounds worst-case cost vs switch-immediately \
                 under oscillating load",
    claims: &[
        // Bounded worst case: close to switch-immediately even on the
        // shortest (most adversarial) period. At quick scale the
        // 8800-cycle switch threshold is large relative to a phase, so
        // the lag is visible but bounded; a policy regression to
        // never-adapting would sit at hysteresis' ~3.4-4x and blow both
        // bounds.
        Claim::BoundedRatio {
            num: "comp3_shortest",
            den: Some("always_shortest"),
            min: 0.5,
            max: 1.3,
        },
        Claim::BoundedRatio {
            num: "comp3/mcs",
            den: None,
            min: 0.8,
            max: 2.2,
        },
        // ...while committing far fewer protocol changes.
        Claim::BoundedRatio {
            num: "comp3_switch_total",
            den: Some("always_switch_total"),
            min: 0.0,
            max: 0.6,
        },
    ],
    run: fig_3_22,
};

fn fig_3_22(scale: Scale) -> Outcome {
    let (lengths, periods) = tv_scale(scale);
    let pct = 50;
    let mut o = Outcome {
        sweep: "series \\ period length",
        ..Outcome::default()
    };
    let mut comp = Vec::new();
    let mut always = Vec::new();
    let mut comp_sw = Vec::new();
    let mut always_sw = Vec::new();
    for &l in lengths {
        let mcs = time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
        let (ta, sa) = time_varying(LockAlg::Reactive, l, pct, periods);
        let (tc, sc) = time_varying(LockAlg::ReactiveCompetitive, l, pct, periods);
        always.push((l as f64, ta as f64 / mcs));
        comp.push((l as f64, tc as f64 / mcs));
        always_sw.push((l as f64, sa as f64));
        comp_sw.push((l as f64, sc as f64));
    }
    let (c0, a0) = (comp[0].1, always[0].1);
    let (csw, asw) = (total(&comp_sw), total(&always_sw));
    o.push("comp3/mcs", comp);
    o.push("always/mcs", always);
    o.push("switches/comp3", comp_sw);
    o.push("switches/always", always_sw);
    o.scalar("comp3_shortest", c0);
    o.scalar("always_shortest", a0);
    o.scalar("comp3_switch_total", csw);
    o.scalar("always_switch_total", asw);
    o.headline = format!(
        "oscillating load, shortest period: comp3 {c0:.2}x MCS vs always-switch {a0:.2}x; \
         {csw:.0} vs {asw:.0} total switches — the 3-competitive policy bounds the \
         worst case with a fraction of the changes"
    );
    o
}

/// The sum of a series' y-values.
fn total(points: &[(f64, f64)]) -> f64 {
    points.iter().map(|&(_, y)| y).sum::<f64>()
}

pub(super) const FIG_3_23: Scenario = Scenario {
    name: "fig_3_23_hysteresis",
    figure: "Fig. 3.23",
    paper_says: "hysteresis damps protocol thrashing at switch-boundary contention",
    claims: &[
        // Strong damping: the deep-hysteresis pair never switches on
        // this schedule.
        Claim::BoundedRatio {
            num: "hyst2055_switch_total",
            den: Some("always_switch_total"),
            min: 0.0,
            max: 0.34,
        },
        // The asymmetric pair still adapts upward promptly but switches
        // less than switch-immediately...
        Claim::BoundedRatio {
            num: "hyst4500_switch_total",
            den: Some("always_switch_total"),
            min: 0.0,
            max: 1.0,
        },
        // ...at competitive cost (the never-adapting hyst(20,55) pair
        // sits at ~3.4-4x MCS on this schedule; 2.0 separates "adapts
        // with a lag" from "stuck in TTS").
        Claim::BoundedRatio {
            num: "hyst4500_worst",
            den: None,
            min: 0.8,
            max: 2.0,
        },
    ],
    run: fig_3_23,
};

fn fig_3_23(scale: Scale) -> Outcome {
    let (lengths, periods) = tv_scale(scale);
    let pct = 50;
    let mut o = Outcome {
        sweep: "series \\ period length",
        ..Outcome::default()
    };
    // `(label, lock, ratio to MCS, switches)` per policy.
    type Row = (&'static str, LockAlg, Vec<(f64, f64)>, Vec<(f64, f64)>);
    let mut rows: [Row; 3] = [
        (
            "hyst(4,500)/mcs",
            LockAlg::ReactiveHysteresis(4, 500),
            Vec::new(),
            Vec::new(),
        ),
        (
            "hyst(20,55)/mcs",
            LockAlg::ReactiveHysteresis(20, 55),
            Vec::new(),
            Vec::new(),
        ),
        ("always/mcs", LockAlg::Reactive, Vec::new(), Vec::new()),
    ];
    for &l in lengths {
        let mcs = time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
        for (_, alg, ratio, switches) in rows.iter_mut() {
            let (t, s) = time_varying(*alg, l, pct, periods);
            ratio.push((l as f64, t as f64 / mcs));
            switches.push((l as f64, s as f64));
        }
    }
    let h45_sw = total(&rows[0].3);
    let h2055_sw = total(&rows[1].3);
    let always_sw = total(&rows[2].3);
    let h45_worst = worst(&rows[0].2);
    for (label, _, ratio, _) in rows {
        o.push(label, ratio);
    }
    o.scalar("hyst4500_switch_total", h45_sw);
    o.scalar("hyst2055_switch_total", h2055_sw);
    o.scalar("always_switch_total", always_sw);
    o.scalar("hyst4500_worst", h45_worst);
    o.headline = format!(
        "hysteresis damps switching: hyst(20,55) commits {h2055_sw:.0} and hyst(4,500) \
         {h45_sw:.0} changes vs always-switch's {always_sw:.0}; hyst(4,500) stays \
         <= {h45_worst:.2}x MCS"
    );
    o
}

pub(super) const FIG_3_24: Scenario = Scenario {
    name: "fig_3_24_apps_fetchop",
    figure: "Fig. 3.24",
    paper_says: "app throughput with reactive fetch-and-op within a few % of best \
                 static protocol",
    claims: &[Claim::TracksBest {
        series: "app/reactive",
        over: &["app/queue-lock", "app/combining"],
        slack: 1.45,
    }],
    run: fig_3_24,
};

fn fig_3_24(scale: Scale) -> Outcome {
    let names: &[&str] = scale.pick(&["gamteb", "aq", "tsp"], &["gamteb", "aq"]);
    let algs = [
        ("app/queue-lock", FetchOpAlg::QueueLock),
        ("app/combining", FetchOpAlg::Combining),
        ("app/reactive", FetchOpAlg::Reactive),
    ];
    let mut o = Outcome {
        sweep: "cycles \\ app index",
        ..Outcome::default()
    };
    let ratios = adaptive_matrix(&mut o, &algs, names, |app, a| {
        let r = match app {
            "gamteb" => gamteb::run(&gamteb::GamtebConfig::small(8, a)),
            "aq" => aq::run_queue(&aq::AqConfig::small(4, a, WaitAlg::Spin)),
            _ => tsp::run(&tsp::TspConfig::small(4, a)),
        };
        r.elapsed as f64
    });
    let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
    o.scalar("reactive_worst_ratio", worst);
    o.headline = format!(
        "reactive fetch-and-op within {worst:.2}x of the best static protocol \
         across {names:?} (small problem sizes amplify switch transients)"
    );
    o
}

pub(super) const FIG_3_25: Scenario = Scenario {
    name: "fig_3_25_apps_locks",
    figure: "Fig. 3.25",
    paper_says: "app throughput with reactive locks within a few % of best static \
                 protocol",
    claims: &[Claim::TracksBest {
        series: "app/reactive",
        over: &["app/test&set", "app/mcs"],
        slack: 1.35,
    }],
    run: fig_3_25,
};

fn fig_3_25(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&[4, 8, 16], &[4, 8]);
    let cholesky_procs: &[usize] = scale.pick(&[4, 8, 16], &[4]);
    let cases: Vec<(&str, usize)> = procs
        .iter()
        .map(|&p| ("mp3d", p))
        .chain(cholesky_procs.iter().map(|&p| ("cholesky", p)))
        .collect();
    let algs = [
        ("app/test&set", LockAlg::TestAndSet),
        ("app/mcs", LockAlg::Mcs),
        ("app/reactive", LockAlg::Reactive),
    ];
    let mut o = Outcome {
        sweep: "cycles \\ app index",
        ..Outcome::default()
    };
    let ratios = adaptive_matrix(&mut o, &algs, &cases, |(app, p), a| {
        let r = match app {
            "mp3d" => {
                let mut cfg = mp3d::Mp3dConfig::small(p, a);
                cfg.particles_per_proc = 8;
                mp3d::run(&cfg)
            }
            _ => cholesky::run(&cholesky::CholeskyConfig::small(p, a)),
        };
        r.elapsed as f64
    });
    let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
    o.scalar("reactive_worst_ratio", worst);
    o.headline = format!(
        "reactive locks within {worst:.2}x of the best static protocol across \
         MP3D/Cholesky at P = {procs:?}"
    );
    o
}

pub(super) const FIG_3_26: Scenario = Scenario {
    name: "fig_3_26_message_passing",
    figure: "Fig. 3.26",
    paper_says: "reactive shared-memory <-> message-passing selection tracks the \
                 crossover",
    claims: &[
        Claim::Crossover {
            cheap: "lock/tts",
            scalable: "lock/mp-queue",
        },
        Claim::Crossover {
            cheap: "fo/tts-lock",
            scalable: "fo/mp-combining",
        },
        Claim::TracksBest {
            series: "lock/reactive-smmp",
            over: &["lock/tts", "lock/mp-queue"],
            slack: 3.5,
        },
        // The reactive fetch-op leaves the melting SM protocol (switches
        // to MP) even though it lags the MP optimum — pinned so a
        // regression back to pure-SM behaviour fails.
        Claim::BoundedRatio {
            num: "fo_reactive_hi",
            den: Some("fo_tts_hi"),
            min: 0.0,
            max: 0.85,
        },
    ],
    run: fig_3_26,
};

fn fig_3_26(scale: Scale) -> Outcome {
    let procs: &[usize] = scale.pick(&BASELINE_PROCS, &[1, 16]);
    let ops = scale.pick(BASELINE_OPS, 256);
    let nwo = CostModel::nwo;
    let mut o = Outcome {
        sweep: "series \\ procs",
        ..Outcome::default()
    };
    for (label, alg) in [
        ("lock/tts", LockAlg::Tts),
        ("lock/mcs", LockAlg::Mcs),
        ("lock/mp-queue", LockAlg::MpQueue),
    ] {
        let pts = lock_overhead(procs, nwo, false, ops, |m, p| AnyLock::make(m, 0, alg, p));
        o.push(label, pts);
    }
    let pts = lock_overhead(procs, nwo, false, ops, |m, p| {
        ReactiveMpLock::new(m, 0, 0, p)
    });
    o.push("lock/reactive-smmp", pts);
    for (label, alg) in [
        ("fo/tts-lock", FetchOpAlg::TtsLock),
        ("fo/mp-central", FetchOpAlg::MpCentral),
        ("fo/mp-combining", FetchOpAlg::MpCombining),
    ] {
        o.push(
            label,
            fetchop_overhead(procs, ops, |m, p| AnyFetchOp::make(m, 0, alg, p)),
        );
    }
    let pts = fetchop_overhead(procs, ops, |m, p| ReactiveMpFetchOp::new(m, 0, 0, p));
    o.push("fo/reactive-smmp", pts);
    let hi = procs.len() - 1;
    let at = |o: &Outcome, l: &str| o.series_named(l).unwrap().points[hi].1;
    let fo_re = at(&o, "fo/reactive-smmp");
    let fo_tts = at(&o, "fo/tts-lock");
    o.scalar("fo_reactive_hi", fo_re);
    o.scalar("fo_tts_hi", fo_tts);
    o.headline = format!(
        "SM->MP lock crossover tracked: reactive {:.0} cyc/CS at {} procs vs TTS {:.0} / \
         MP queue {:.0}; reactive fetch-op leaves SM ({fo_re:.0} vs TTS-lock {fo_tts:.0}) \
         but lags the MP-combining optimum ({:.0})",
        at(&o, "lock/reactive-smmp"),
        procs[hi],
        at(&o, "lock/tts"),
        at(&o, "lock/mp-queue"),
        at(&o, "fo/mp-combining"),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_shapes_hold() {
        // The headline tradeoff (Figure 1.1): TTS beats MCS alone, MCS
        // beats test&set at 16 procs, and the reactive lock is near the
        // better protocol at both ends.
        let overhead = |alg, procs| {
            lock_overhead(&[procs], CostModel::nwo, false, BASELINE_OPS, |m, p| {
                AnyLock::make(m, 0, alg, p)
            })[0]
                .1
        };
        let tts1 = overhead(LockAlg::Tts, 1);
        let mcs1 = overhead(LockAlg::Mcs, 1);
        let re1 = overhead(LockAlg::Reactive, 1);
        assert!(tts1 < mcs1, "uncontended: TTS {tts1} !< MCS {mcs1}");
        assert!(re1 < 1.6 * tts1.max(8.0), "reactive {re1} vs TTS {tts1}");

        let ts16 = overhead(LockAlg::TestAndSet, 16);
        let mcs16 = overhead(LockAlg::Mcs, 16);
        let re16 = overhead(LockAlg::Reactive, 16);
        assert!(mcs16 < ts16, "contended: MCS {mcs16} !< TS {ts16}");
        assert!(re16 < 1.6 * mcs16, "reactive {re16} vs MCS {mcs16}");
    }

    #[test]
    fn fetchop_crossover_holds() {
        let overhead = |alg, procs| {
            fetchop_overhead(&[procs], BASELINE_OPS, |m, p| {
                AnyFetchOp::make(m, 0, alg, p)
            })[0]
                .1
        };
        let tree1 = overhead(FetchOpAlg::Combining, 1);
        let lock1 = overhead(FetchOpAlg::TtsLock, 1);
        assert!(lock1 < tree1, "uncontended: lock {lock1} !< tree {tree1}");
        let tree32 = overhead(FetchOpAlg::Combining, 32);
        let tts32 = overhead(FetchOpAlg::TtsLock, 32);
        assert!(
            tree32 < tts32,
            "contended: tree {tree32} !< TTS-lock {tts32}"
        );
    }

    #[test]
    fn multi_object_runs_all_patterns_small() {
        for p in patterns().iter().take(2) {
            let t = multi_object(p, Some(LockAlg::Reactive), 4);
            assert!(t > 0);
        }
    }

    #[test]
    fn time_varying_runs() {
        let (t, _) = time_varying(LockAlg::Reactive, 64, 50, 2);
        assert!(t > 0);
    }
}
