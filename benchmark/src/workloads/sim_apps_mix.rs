//! `sim_apps_mix`: the miniature applications plus two benchmark-owned
//! kernels, run serially on the simulator.
//!
//! The same `sim` layer as `sim_lock_storm`, used differently: `work`,
//! cache hits, futures, active-message handlers and barriers dominate,
//! and invalidation storms are rare. A coherence-path optimisation
//! should not move this workload; a policy change shows here (in
//! simulated cycles) and not in host speed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use reactive_sync::api::{Instrument, SwitchTally};
use reactive_sync::apps::alg::{AnyLock, FetchOpAlg, LockAlg, WaitAlg};
use reactive_sync::apps::{cgrad, gamteb, jacobi, mp3d, AppResult};
use reactive_sync::protocols::abortable::{AbortableMcsLock, Acquired};
use reactive_sync::protocols::barrier::{BarrierCtx, SenseBarrier};
use reactive_sync::protocols::recover::RecoverableMutex;
use reactive_sync::protocols::waiting::AlwaysSpin;
use reactive_sync::sim::{Config, Machine, Stats};

use super::{over, repeat, trace_overhead, traced, untraced, Outcome, RunOpts, CYCLE_NS, MIN_REPS};
use crate::stats::{geomean, median, Summary};
use crate::trace::Tracer;

/// Processors for the applications and `phase_lock`.
const PROCS: usize = 32;
/// Processes for `recover_lock` (a four-level tournament tree).
const RECOVER_PROCS: usize = 16;
/// Two-phase waiting with `Lpoll` = the blocking cost (Table 4.1), the
/// reactive choice for the producer-consumer and barrier waits.
const WAIT: WaitAlg = WaitAlg::TwoPhase(465);

// Sizes: each component takes about 0.3 s of host time here, so one
// repetition of the seven takes about 2 s.
const GAMTEB_PARTICLES: u64 = 24_000;
const GAMTEB_MP_PARTICLES: u64 = 48_000;
const MP3D_ITERATIONS: u64 = 180;
const MP3D_PARTICLES_PER_PROC: u64 = 48;
const JACOBI_ITERATIONS: u64 = 3_000;
const CGRAD_ITERATIONS: u64 = 3_000;
const PHASE_PERIODS: u64 = 100;
const PHASE_LOW_ACQUIRES: u64 = 1_200;
const PHASE_HIGH_ACQUIRES_EACH: u64 = 40;
const RECOVER_PASSAGES_EACH: u64 = 1_500;

/// One component of a repetition, with the names it is reported under.
struct Component {
    name: &'static str,
    /// Span around the component's run.
    span: &'static str,
    /// Its three per-layer metrics.
    run_s: &'static str,
    events: &'static str,
    cycles: &'static str,
}

macro_rules! component {
    ($name:literal) => {
        Component {
            name: $name,
            span: concat!("apps.", $name),
            run_s: concat!("apps.", $name, ".run_s"),
            events: concat!("apps.", $name, ".events"),
            cycles: concat!("apps.", $name, ".cycles"),
        }
    };
}

/// The components of one repetition, in run order.
const COMPONENTS: [Component; 7] = [
    component!("gamteb"),
    component!("gamteb_mp"),
    component!("mp3d"),
    component!("jacobi"),
    component!("cgrad"),
    component!("phase_lock"),
    component!("recover_lock"),
];

/// Where `name` sits in [`COMPONENTS`] (and so in a repetition's parts).
fn index_of(name: &str) -> usize {
    COMPONENTS
        .iter()
        .position(|c| c.name == name)
        .expect("a component")
}

/// What one component run produced.
#[derive(Clone, Debug, Default)]
struct Part {
    cycles: u64,
    run_s: f64,
    stats: Stats,
    /// Lock operations the component is known to have completed (0 where
    /// the application does not say).
    ops: u64,
    failed: u64,
    /// `recover_lock` only: RMR totals and passages per lock.
    rmr: Option<RmrCounts>,
    switches: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct RmrCounts {
    recover_cc: f64,
    recover_dsm: f64,
    abortable_cc: f64,
}

/// Run an application, turning a failed internal assertion into a
/// failed operation instead of taking the benchmark down.
fn app(run: impl FnOnce() -> AppResult) -> Part {
    let t0 = Instant::now();
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(r) => Part {
            cycles: r.elapsed,
            run_s: t0.elapsed().as_secs_f64(),
            stats: r.stats,
            ..Part::default()
        },
        Err(_) => Part {
            run_s: t0.elapsed().as_secs_f64(),
            failed: 1,
            ..Part::default()
        },
    }
}

fn gamteb_part(alg: FetchOpAlg, particles: u64, seed: u64) -> Part {
    app(|| {
        gamteb::run(&gamteb::GamtebConfig {
            procs: PROCS,
            particles,
            alg,
            seed,
        })
    })
}

fn mp3d_part(alg: LockAlg, opts: &RunOpts) -> Part {
    let iterations = opts.scaled(MP3D_ITERATIONS, 2);
    let mut part = app(|| {
        mp3d::run(&mp3d::Mp3dConfig {
            procs: PROCS,
            particles_per_proc: MP3D_PARTICLES_PER_PROC,
            iterations,
            alg,
            seed: opts.seed,
        })
    });
    part.ops = PROCS as u64 * iterations * (MP3D_PARTICLES_PER_PROC + 1);
    part
}

/// `phase_lock` (the shape of Figure 3.21): one lock, alternating phases
/// in which one processor uses it alone and in which all contend. A
/// static protocol is wrong in one of the two; the reactive lock is
/// meant to track both.
fn phase_lock(alg: LockAlg, opts: &RunOpts, tr: &mut Tracer) -> Part {
    let t0 = Instant::now();
    let built = tr.span("sim.new", |_| build_phase_lock(alg, opts));
    let cycles = tr.span("sim.run", |_| built.machine.run());
    let stats = tr.span("sim.stats", |_| built.machine.stats());
    let done = built.machine.read_word(built.counter);
    Part {
        cycles,
        run_s: t0.elapsed().as_secs_f64(),
        stats,
        ops: built.ops,
        failed: built.ops.abs_diff(done) + built.machine.live_tasks() as u64,
        rmr: None,
        switches: built.tally.count(),
    }
}

/// A machine with `phase_lock` spawned on it, ready to run.
struct PhaseLock {
    machine: Machine,
    counter: reactive_sync::sim::Addr,
    tally: Rc<SwitchTally>,
    /// Acquisitions the tasks will make.
    ops: u64,
}

fn build_phase_lock(alg: LockAlg, opts: &RunOpts) -> PhaseLock {
    let periods = opts.scaled(PHASE_PERIODS, 2);
    let tally = Rc::new(SwitchTally::new());
    let m = Machine::new(Config::default().nodes(PROCS).seed(opts.seed));
    let sink = Some(tally.clone() as Rc<dyn Instrument>);
    let lock = AnyLock::make_instrumented(&m, 0, alg, PROCS, sink);
    let bar = SenseBarrier::new(&m, 0, PROCS as u64);
    let counter = m.alloc_on(1, 1);
    for p in 0..PROCS {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        m.spawn(p, async move {
            let mut bctx = BarrierCtx::default();
            let guarded = |cs: u64| {
                let (cpu, lock) = (&cpu, &lock);
                async move {
                    let t = lock.acquire(cpu).await;
                    let v = cpu.read(counter).await;
                    cpu.work(cs).await;
                    cpu.write(counter, v + 1).await;
                    lock.release(cpu, t).await;
                }
            };
            for _ in 0..periods {
                if p == 0 {
                    for _ in 0..PHASE_LOW_ACQUIRES {
                        guarded(10).await;
                        cpu.work(20).await;
                    }
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
                for _ in 0..PHASE_HIGH_ACQUIRES_EACH {
                    guarded(100).await;
                    cpu.work(cpu.rand_below(500)).await;
                }
                bar.wait(&cpu, &mut bctx, &AlwaysSpin).await;
            }
        });
    }
    PhaseLock {
        machine: m,
        counter,
        tally,
        ops: periods * (PHASE_LOW_ACQUIRES + PROCS as u64 * PHASE_HIGH_ACQUIRES_EACH),
    }
}

/// `recover_lock`: the O(log n) `RecoverableMutex` and the
/// `AbortableMcsLock`, failure-free (empty `FaultPlan`, no deadlines).
/// Its RMR counts per passage are the numbers a later sub-logarithmic
/// replacement would be held to.
fn recover_lock(opts: &RunOpts, tr: &mut Tracer) -> Part {
    let each = opts.scaled(RECOVER_PASSAGES_EACH, 4);
    let passages = RECOVER_PROCS as u64 * each;
    let t0 = Instant::now();
    let mut part = Part::default();
    let mut totals = Vec::new();
    for abortable in [false, true] {
        let (m, counter) = tr.span("sim.new", |_| {
            let m = Machine::new(Config::default().nodes(RECOVER_PROCS).seed(opts.seed));
            let counter = m.alloc_on(1, 1);
            let recoverable = RecoverableMutex::new(&m, RECOVER_PROCS);
            let mcs = AbortableMcsLock::new(&m, 0, RECOVER_PROCS);
            for p in 0..RECOVER_PROCS {
                let cpu = m.cpu(p);
                let (recoverable, mcs) = (recoverable.clone(), mcs.clone());
                m.spawn(p, async move {
                    for _ in 0..each {
                        let token = if abortable {
                            match mcs.acquire(&cpu, p, u64::MAX).await {
                                Acquired::Granted(q) => Some(q),
                                // Counted as a lost passage by the check.
                                Acquired::Aborted => continue,
                            }
                        } else {
                            recoverable.acquire(&cpu, p).await;
                            None
                        };
                        let v = cpu.read(counter).await;
                        cpu.work(5).await;
                        cpu.write(counter, v + 1).await;
                        match token {
                            Some(q) => mcs.release(&cpu, q).await,
                            None => recoverable.release(&cpu, p).await,
                        }
                        cpu.work(cpu.rand_below(60)).await;
                    }
                });
            }
            (m, counter)
        });
        part.cycles += tr.span("sim.run", |_| m.run());
        let st = tr.span("sim.stats", |_| m.stats());
        part.failed += passages.abs_diff(m.read_word(counter)) + m.live_tasks() as u64;
        totals.push((st.rmr_cc_total(), st.rmr_dsm_total()));
        part.stats.absorb(&st);
    }
    part.ops = 2 * passages;
    part.rmr = Some(RmrCounts {
        recover_cc: totals[0].0 as f64 / passages as f64,
        recover_dsm: totals[0].1 as f64 / passages as f64,
        abortable_cc: totals[1].0 as f64 / passages as f64,
    });
    part.run_s = t0.elapsed().as_secs_f64();
    part
}

/// One repetition: the seven components with their reactive algorithms.
fn reactive_arm(opts: &RunOpts, tr: &mut Tracer) -> Vec<Part> {
    COMPONENTS
        .iter()
        .map(|c| {
            tr.span(c.span, |tr| match c.name {
                "gamteb" => gamteb_part(
                    FetchOpAlg::Reactive,
                    opts.scaled(GAMTEB_PARTICLES, 64),
                    opts.seed,
                ),
                "gamteb_mp" => gamteb_part(
                    FetchOpAlg::MpCombining,
                    opts.scaled(GAMTEB_MP_PARTICLES, 64),
                    opts.seed,
                ),
                "mp3d" => mp3d_part(LockAlg::Reactive, opts),
                "jacobi" => app(|| {
                    jacobi::run_jstructures(&jacobi::JacobiConfig {
                        procs: PROCS,
                        iterations: opts.scaled(JACOBI_ITERATIONS, 4) as usize,
                        grain: 2_000,
                        skew: 1_500,
                        wait: WAIT,
                        seed: opts.seed,
                    })
                }),
                "cgrad" => app(|| {
                    cgrad::run(&cgrad::CgradConfig {
                        procs: PROCS,
                        iterations: opts.scaled(CGRAD_ITERATIONS, 4) as usize,
                        grain: 1_500,
                        wait: WAIT,
                        seed: opts.seed,
                    })
                }),
                "phase_lock" => phase_lock(LockAlg::Reactive, opts, tr),
                "recover_lock" => recover_lock(opts, tr),
                other => unreachable!("component {other}"),
            })
        })
        .collect()
}

/// The counted facts of a repetition, which must repeat exactly.
fn exact_of(parts: &[Part]) -> Vec<(u64, u64, u64)> {
    parts
        .iter()
        .map(|p| (p.cycles, p.stats.sim_events, p.switches))
        .collect()
}

/// Run the workload.
pub fn run(opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Static arms, once, for the ratio; untimed, and the warm-up.
    let quiet = &mut Tracer::new();
    let particles = opts.scaled(GAMTEB_PARTICLES, 64);
    let static_gamteb = [
        FetchOpAlg::TtsLock,
        FetchOpAlg::QueueLock,
        FetchOpAlg::Combining,
    ]
    .map(|alg| gamteb_part(alg, particles, opts.seed));
    let static_mp3d = [LockAlg::Tts, LockAlg::Mcs].map(|alg| mp3d_part(alg, opts));
    let static_phase = [LockAlg::Tts, LockAlg::Mcs].map(|alg| phase_lock(alg, opts, quiet));
    let mut best = |arms: &[Part]| -> f64 {
        for a in arms {
            out.failed += a.failed;
            out.check(a.failed == 0, || {
                format!("static arm failed {} operations", a.failed)
            });
        }
        arms.iter().map(|a| a.cycles).min().expect("an arm").max(1) as f64
    };
    let best_static = [
        best(&static_gamteb),
        best(&static_mp3d),
        best(&static_phase),
    ];

    // The applications build their machines inside `run`; what can be
    // set up ahead of the timed region is the benchmark's own kernel.
    let (reps, setup_s) = repeat(
        opts,
        tr,
        MIN_REPS,
        || build_phase_lock(LockAlg::Reactive, opts),
        |tr, _| reactive_arm(opts, tr),
    );
    let first = &reps[0].value;
    for r in &reps {
        for (c, p) in COMPONENTS.iter().zip(&r.value) {
            out.attempted += p.ops.max(1);
            out.failed += p.failed;
            out.check(p.failed == 0, || {
                format!("{}: {} operations failed", c.name, p.failed)
            });
        }
        out.check(exact_of(&r.value) == exact_of(first), || {
            "counted metrics differ between repetitions".into()
        });
    }

    let events: u64 = first.iter().map(|p| p.stats.sim_events).sum();
    let cycles: u64 = first.iter().map(|p| p.cycles).sum();
    let wall = |parts: &Vec<Part>| parts.iter().map(|p| p.run_s).sum::<f64>();
    let timed = untraced(&reps);
    let rate = over(&timed, |p| events as f64 / wall(p));
    // Counted, so the cells that mirror it add no host noise of their own.
    let sim_ns_per_event = Summary::exact(cycles as f64 * CYCLE_NS / events as f64);
    let cycles_of = |name: &str| first[index_of(name)].cycles.max(1) as f64;
    let ratios = [
        cycles_of("gamteb") / best_static[0],
        cycles_of("mp3d") / best_static[1],
        cycles_of("phase_lock") / best_static[2],
    ];

    out.primary("events_per_s", rate);
    out.mirror("requests_per_s", rate);
    out.mirror("acquires_per_s", rate);
    out.mirror("threaded_vs_serial", Summary::exact(1.0));
    out.primary("sim_cycles", Summary::exact(cycles as f64));
    out.primary("reactive_vs_best_static", Summary::exact(geomean(&ratios)));
    for name in [
        "virtual_p50_ns",
        "virtual_p999_ns",
        "acquire_p50_ns",
        "acquire_p99_ns",
    ] {
        out.mirror(name, sim_ns_per_event);
    }
    out.mirror(
        "bytes_per_object",
        Summary::exact(crate::host::peak_rss_mib() * 1_048_576.0 / PROCS as f64),
    );
    out.finish(setup_s);

    if opts.trace {
        let med = |name| median(&tr.self_seconds_by_rep(name));
        out.layer("sim.new_s", med("sim.new"));
        out.layer("sim.run_s", med("sim.run"));
        out.layer("sim.stats_s", med("sim.stats"));
        let traced = traced(&reps);
        out.layer(
            "sim.host_ns_per_event",
            over(&traced, |p| wall(p) * 1e9 / events as f64).median,
        );
        let mut all = Stats::default();
        for p in first {
            all.absorb(&p.stats);
        }
        super::sim_counts(&mut out, &all);
        for (i, c) in COMPONENTS.iter().enumerate() {
            out.layer(c.run_s, over(&traced, |p| p[i].run_s).median);
            out.layer(c.events, first[i].stats.sim_events as f64);
            out.layer(c.cycles, first[i].cycles as f64);
        }
        let phase = &first[index_of("phase_lock")];
        out.layer("core.switches", phase.switches as f64);
        out.layer("core.acquires", phase.ops as f64);
        let per_op = |p: &Part| p.cycles as f64 / phase.ops as f64;
        out.layer("core.reactive_cycles_per_op", per_op(phase));
        out.layer("protocols.tts_cycles_per_op", per_op(&static_phase[0]));
        out.layer("protocols.mcs_cycles_per_op", per_op(&static_phase[1]));
        let rmr = first
            .iter()
            .find_map(|p| p.rmr)
            .expect("recover_lock reports RMRs");
        out.layer("protocols.recover.rmr_cc_per_passage", rmr.recover_cc);
        out.layer("protocols.recover.rmr_dsm_per_passage", rmr.recover_dsm);
        out.layer("protocols.abortable.rmr_cc_per_passage", rmr.abortable_cc);
        out.layer("trace_overhead", trace_overhead(&reps, |p| 1.0 / wall(p)));
    }
    out
}
