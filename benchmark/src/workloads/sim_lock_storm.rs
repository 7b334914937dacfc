//! `sim_lock_storm`: 64 simulated nodes hammer one reactive lock.
//!
//! Directory occupancy, sequential invalidations and the calendar queue
//! do nearly all the host work; `apps`, `msg` and cache hits do almost
//! none. The shape is `sim_throughput`'s headline row (64 nodes, NWO
//! costs, critical section 5 cycles, think below 1), with a non-atomic
//! read–work–write of a shared counter inside the critical section so
//! that mutual exclusion is checked by the result.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use reactive_sync::api::{Instrument, SwitchTally};
use reactive_sync::apps::alg::{AnyLock, LockAlg};
use reactive_sync::sim::{Config, CostModel, Machine, Stats};

use super::{
    first_of_sub_seed, over, pooled, repeat, sub_seed, trace_overhead, traced, untraced, Outcome,
    RunOpts, CYCLE_NS, SUB_SEEDS,
};
use crate::stats::{percentile_grouped, Summary};
use crate::trace::Tracer;

/// Simulated nodes, all contending.
pub const NODES: usize = 64;
/// Acquisitions per node in a timed repetition: about 2 s of host time
/// here, so five repetitions fit the driver's 10 s run.
const ITERS: u64 = 3_000;
/// Acquisitions per node in the ratio arm, which runs once per
/// algorithm to compare simulated cost.
const RATIO_ITERS: u64 = 750;
/// Cycles of work inside the critical section.
const CS_CYCLES: u64 = 5;

/// A machine with the storm spawned on it, ready to run.
struct Storm {
    machine: Machine,
    counter: reactive_sync::sim::Addr,
    tally: Rc<SwitchTally>,
    waits: Rc<RefCell<Vec<u64>>>,
}

fn build(alg: LockAlg, iters: u64, seed: u64) -> Storm {
    let machine = Machine::new(
        Config::default()
            .nodes(NODES)
            .cost(CostModel::nwo())
            .seed(seed),
    );
    let tally = Rc::new(SwitchTally::new());
    let lock = AnyLock::make_instrumented(
        &machine,
        0,
        alg,
        NODES,
        Some(tally.clone() as Rc<dyn Instrument>),
    );
    let counter = machine.alloc_on(1, 1);
    let waits = Rc::new(RefCell::new(Vec::with_capacity(NODES * iters as usize)));
    for p in 0..NODES {
        let cpu = machine.cpu(p);
        let lock = lock.clone();
        let waits = waits.clone();
        machine.spawn(p, async move {
            for _ in 0..iters {
                let asked = cpu.now();
                let t = lock.acquire(&cpu).await;
                waits.borrow_mut().push(cpu.now() - asked);
                let v = cpu.read(counter).await;
                cpu.work(CS_CYCLES).await;
                cpu.write(counter, v + 1).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(1)).await;
            }
        });
    }
    Storm {
        machine,
        counter,
        tally,
        waits,
    }
}

/// What one run of the storm produced.
struct Ran {
    cycles: u64,
    run_s: f64,
    stats: Stats,
    switches: u64,
    /// Simulated cycles from asking for the lock to holding it, sorted
    /// (emptied for repetitions past the pooled ones).
    waits: Vec<u64>,
    wait_sum: u64,
    /// Acquisitions lost to a mutual-exclusion failure, plus tasks that
    /// never finished.
    failed: u64,
}

fn run_storm(alg: LockAlg, iters: u64, seed: u64, tr: &mut Tracer) -> Ran {
    let storm = tr.span("sim.new", |_| build(alg, iters, seed));
    let t0 = Instant::now();
    let cycles = tr.span("sim.run", |_| storm.machine.run());
    let run_s = t0.elapsed().as_secs_f64();
    let stats = tr.span("sim.stats", |_| storm.machine.stats());
    let expected = NODES as u64 * iters;
    let counted = storm.machine.read_word(storm.counter);
    let mut waits = storm.waits.take();
    waits.sort_unstable();
    Ran {
        cycles,
        run_s,
        stats,
        switches: storm.tally.count(),
        wait_sum: waits.iter().sum(),
        waits,
        failed: expected.abs_diff(counted) + storm.machine.live_tasks() as u64,
    }
}

/// The counted facts of a repetition, which must repeat exactly.
fn exact_of(r: &Ran) -> [u64; 5] {
    [
        r.cycles,
        r.stats.sim_events,
        r.stats.dir_requests,
        r.switches,
        r.wait_sum,
    ]
}

/// Run the workload.
pub fn run(opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let iters = opts.scaled(ITERS, 8);
    let ratio_iters = opts.scaled(RATIO_ITERS, 8);
    let acquisitions = NODES as u64 * iters;

    // Ratio arm: the reactive lock beside its two static protocols. It
    // runs first and untimed, so it also warms the allocator.
    let arm = |alg| run_storm(alg, ratio_iters, opts.seed, &mut Tracer::new());
    let (reactive, mcs, tts) = (arm(LockAlg::Reactive), arm(LockAlg::Mcs), arm(LockAlg::Tts));
    let ratio_ops = (NODES as u64 * ratio_iters) as f64;
    for (name, r) in [("reactive", &reactive), ("mcs", &mcs), ("tts", &tts)] {
        out.failed += r.failed;
        out.check(r.failed == 0, || {
            format!("ratio arm {name}: {} acquisitions lost or stuck", r.failed)
        });
    }

    // Simulated waits vary by a tenth from seed to seed, so the
    // repetitions run SUB_SEEDS sub-seeds in turn and the counted metrics
    // pool the first round of each.
    let (reps, setup_s) = repeat(
        opts,
        tr,
        SUB_SEEDS,
        || build(LockAlg::Reactive, iters, opts.seed),
        |tr, round| {
            let mut ran = run_storm(LockAlg::Reactive, iters, sub_seed(opts.seed, round), tr);
            if round >= SUB_SEEDS {
                // Not pooled: keep the sum for the repeat check, not the
                // samples, so that memory does not grow with the rounds.
                ran.waits = Vec::new();
            }
            ran
        },
    );
    for r in &reps {
        let (ran, same_work) = (&r.value, first_of_sub_seed(&reps, r.round));
        out.attempted += acquisitions;
        out.failed += ran.failed;
        out.check(ran.failed == 0, || {
            format!("{} acquisitions lost or stuck", ran.failed)
        });
        out.check(exact_of(ran) == exact_of(same_work), || {
            format!(
                "counted metrics differ between repetitions of one sub-seed: {:?} vs {:?}",
                exact_of(ran),
                exact_of(same_work)
            )
        });
    }

    let timed = untraced(&reps);
    let pooled = pooled(&reps);
    let mut waits: Vec<u64> = pooled
        .iter()
        .flat_map(|r| r.waits.iter().copied())
        .collect();
    waits.sort_unstable();
    let acquire_rate = over(&timed, |r| acquisitions as f64 / r.run_s);
    out.primary(
        "events_per_s",
        over(&timed, |r| r.stats.sim_events as f64 / r.run_s),
    );
    out.primary("requests_per_s", acquire_rate);
    out.mirror("acquires_per_s", acquire_rate);
    out.mirror("threaded_vs_serial", Summary::exact(1.0));
    out.primary(
        "sim_cycles",
        Summary::exact(pooled.iter().map(|r| r.cycles).sum::<u64>() as f64),
    );
    out.primary(
        "reactive_vs_best_static",
        Summary::exact(reactive.cycles as f64 / mcs.cycles.min(tts.cycles) as f64),
    );
    let wait_ns = |p| Summary::exact(percentile_grouped(&waits, p) * CYCLE_NS);
    out.primary("virtual_p50_ns", wait_ns(50.0));
    out.primary("virtual_p999_ns", wait_ns(99.9));
    // No host clock inside the machine: the acquire latency cells read
    // the simulated wait.
    out.mirror("acquire_p50_ns", wait_ns(50.0));
    out.mirror("acquire_p99_ns", wait_ns(99.0));
    // Host bytes per simulated node: the peak is the machine plus its
    // tasks, and the machine is all this process holds.
    out.mirror(
        "bytes_per_object",
        Summary::exact(crate::host::peak_rss_mib() * 1_048_576.0 / NODES as f64),
    );
    out.finish(setup_s);

    if opts.trace {
        let first = &reps[0].value;
        let med = |name| crate::stats::median(&tr.self_seconds_by_rep(name));
        out.layer("sim.new_s", med("sim.new"));
        out.layer("sim.run_s", med("sim.run"));
        out.layer("sim.stats_s", med("sim.stats"));
        out.layer(
            "sim.host_ns_per_event",
            over(&traced(&reps), |r| {
                r.run_s * 1e9 / r.stats.sim_events as f64
            })
            .median,
        );
        super::sim_counts(&mut out, &first.stats);
        out.layer("core.switches", first.switches as f64);
        out.layer("core.acquires", acquisitions as f64);
        out.layer(
            "core.reactive_cycles_per_op",
            reactive.cycles as f64 / ratio_ops,
        );
        out.layer("protocols.tts_cycles_per_op", tts.cycles as f64 / ratio_ops);
        out.layer("protocols.mcs_cycles_per_op", mcs.cycles as f64 / ratio_ops);
        out.layer("trace_overhead", trace_overhead(&reps, |r| 1.0 / r.run_s));
    }
    out
}
