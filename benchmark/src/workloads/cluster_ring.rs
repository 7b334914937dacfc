//! `cluster_ring`: the sharded simulator on exactly two worker threads.
//!
//! The only workload with `sim.parallel` (epochs, barriers, lanes) on
//! the path: 128 nodes in two shards, a shard-local reactive lock under
//! the contended regime, and a cross-shard heartbeat ring — the cluster
//! set-up of the `sim_throughput` bench. Each repetition runs the serial
//! reference, then the threaded execution, and requires equal results.

use reactive_sync::apps::alg::{AnyLock, LockAlg};
use reactive_sync::sim::parallel::{Cluster, ClusterReport, ParallelConfig, RemoteMail, ShardCtx};
use reactive_sync::sim::{Config, CostModel, Machine, Port, Stats};

use super::{
    over, repeat, trace_overhead, traced, untraced, Outcome, RunOpts, CYCLE_NS, LOAD_THREADS,
    MIN_REPS,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;

/// Simulated nodes over all shards (64 per shard, the serial headline
/// shape).
const NODES: usize = 128;
/// Declared minimum cross-shard latency, in cycles: coarse enough that an
/// epoch covers tens of thousands of cycles.
const EPOCH_WINDOW: u64 = 60_000;
/// Acquisitions per node: serial plus threaded take about 2 s here.
const ITERS: u64 = 800;
/// Node 0 of each shard posts a heartbeat every this many acquisitions.
const HEARTBEAT_EVERY: u64 = 16;
const RING_PORT: Port = Port(60);

fn cluster(seed: u64) -> Cluster {
    Cluster::new(
        NODES,
        Config::default().cost(CostModel::nwo()).seed(seed),
        ParallelConfig {
            workers: LOAD_THREADS,
            epoch_window: EPOCH_WINDOW,
        },
    )
}

/// Set up one shard. `run_parallel` calls this on the shard's worker
/// thread, which is where `pin` takes effect; the serial reference runs
/// every shard on the caller's thread and must not pin it.
fn shard_setup(ctx: &ShardCtx<'_>, iters: u64, pin: bool) {
    if pin {
        crate::affinity::pin_current_thread(ctx.shard);
    }
    let ring = (ctx.mail(), ctx.node_base, ctx.total_nodes);
    spawn_shard(ctx.machine, ctx.shard_nodes, iters, Some(ring));
}

/// The shard's workload on `m`: `n` nodes on one reactive lock; node 0
/// posts a heartbeat to the next shard if there is a `ring` to post on.
fn spawn_shard(m: &Machine, n: usize, iters: u64, ring: Option<(RemoteMail, usize, usize)>) {
    let lock = AnyLock::make(m, 0, LockAlg::Reactive, n);
    m.register_handler(0, RING_PORT, |hctx, _| hctx.bump("ring_hops", 1));
    for p in 0..n {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let ring = ring.clone().filter(|_| p == 0);
        m.spawn(p, async move {
            for i in 0..iters {
                let t = lock.acquire(&cpu).await;
                cpu.work(5).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(1)).await;
                if let Some((mail, base, total)) = &ring {
                    if i % HEARTBEAT_EVERY == 0 {
                        mail.post(
                            cpu.now(),
                            *base,
                            (base + n) % total,
                            RING_PORT,
                            [i, 0, 0, 0],
                        );
                    }
                }
            }
        });
    }
}

/// What a run sets up before its first event: the cluster, and one
/// machine per shard with its tasks spawned. `Cluster::run_*` build the
/// machines themselves, inside their wall time; `Cluster::new` alone is
/// 5 µs, too little to time to a quarter, so `setup_s` times this
/// replica of the whole set-up.
fn build_like_a_run(seed: u64, iters: u64) -> (Cluster, Vec<Machine>) {
    let c = cluster(seed);
    let machines = (0..c.shards())
        .map(|s| {
            let (_, n) = c.shard_range(s);
            let cfg = Config::default().cost(CostModel::nwo()).nodes(n);
            let m = Machine::new(cfg.seed(seed.wrapping_add(s as u64)));
            spawn_shard(&m, n, iters, None);
            m
        })
        .collect();
    (c, machines)
}

/// `Stats` has no `PartialEq`; compare it field for field.
fn stats_differ(a: &Stats, b: &Stats) -> Option<&'static str> {
    let scalars = |s: &Stats| {
        [
            s.net_msgs,
            s.remote_misses,
            s.invalidations,
            s.limitless_traps,
            s.dir_requests,
            s.active_msgs,
            s.sim_events,
        ]
    };
    let waits = |s: &Stats| -> Vec<(String, u64, u64, u64)> {
        s.waits
            .iter()
            .map(|(k, h)| (k.clone(), h.count, h.sum, h.max))
            .collect()
    };
    if scalars(a) != scalars(b) {
        Some("scalar counters")
    } else if a.rmr_cc != b.rmr_cc || a.rmr_dsm != b.rmr_dsm {
        Some("RMR vectors")
    } else if a.counters != b.counters {
        Some("named counters")
    } else if waits(a) != waits(b) {
        Some("wait histograms")
    } else {
        None
    }
}

struct Rep {
    serial: ClusterReport,
    threaded: ClusterReport,
}

/// Run the workload.
pub fn run(opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let iters = opts.scaled(ITERS, 2 * HEARTBEAT_EVERY);
    let acquisitions = NODES as u64 * iters;
    let heartbeats = LOAD_THREADS as u64 * iters.div_ceil(HEARTBEAT_EVERY);

    // Warm-up at a quarter of the size, untimed.
    let warm = iters / 4;
    cluster(opts.seed).run_parallel(|ctx| shard_setup(ctx, warm, true));

    let setup = || build_like_a_run(opts.seed, iters);
    let (reps, setup_s) = repeat(opts, tr, MIN_REPS, setup, |tr, _| {
        let c = tr.span("sim.parallel.new", |_| cluster(opts.seed));
        let serial = tr.span("sim.parallel.run_serial", |_| {
            c.run_serial(|ctx| shard_setup(ctx, iters, false))
        });
        let threaded = tr.span("sim.parallel.run_parallel", |_| {
            c.run_parallel(|ctx| shard_setup(ctx, iters, true))
        });
        Rep { serial, threaded }
    });

    let first = &reps[0].value.serial;
    for r in reps.iter().map(|r| &r.value) {
        out.attempted += 2 * acquisitions;
        let stuck = (r.serial.live_tasks + r.threaded.live_tasks) as u64;
        let lost = heartbeats.abs_diff(r.serial.stats.counter("ring_hops"));
        out.failed += stuck + lost;
        out.check(stuck == 0, || format!("{stuck} tasks never finished"));
        out.check(lost == 0, || {
            format!("{lost} heartbeats lost or duplicated")
        });
        out.check(
            r.serial.causality_violations + r.threaded.causality_violations == 0,
            || "a delivery arrived behind its shard's horizon".into(),
        );
        let diff = stats_differ(&r.serial.stats, &r.threaded.stats);
        out.check(diff.is_none(), || {
            format!("threaded and serial runs differ in {}", diff.unwrap_or(""))
        });
        out.check(
            (r.serial.elapsed, r.serial.epochs, r.serial.remote_msgs)
                == (
                    r.threaded.elapsed,
                    r.threaded.epochs,
                    r.threaded.remote_msgs,
                ),
            || "threaded and serial runs differ in elapsed / epochs / remote_msgs".into(),
        );
        out.check(
            (r.serial.elapsed, r.serial.stats.sim_events, r.serial.epochs)
                == (first.elapsed, first.stats.sim_events, first.epochs),
            || "counted metrics differ between repetitions".into(),
        );
    }

    let events = first.stats.sim_events as f64;
    let timed = untraced(&reps);
    let acquire_rate = over(&timed, |r| acquisitions as f64 / r.threaded.wall_secs);
    // Simulated time a node spends per acquisition. Counted: the inverse
    // of the threaded rate would repeat that rate's host noise, enlarged.
    let sim_ns_per_acquire = Summary::exact(first.elapsed as f64 * CYCLE_NS / iters as f64);
    out.primary(
        "events_per_s",
        over(&timed, |r| events / r.threaded.wall_secs),
    );
    out.primary(
        "threaded_vs_serial",
        over(&timed, |r| r.serial.wall_secs / r.threaded.wall_secs),
    );
    out.primary("requests_per_s", acquire_rate);
    out.mirror("acquires_per_s", acquire_rate);
    out.primary("sim_cycles", Summary::exact(first.elapsed as f64));
    out.mirror("reactive_vs_best_static", Summary::exact(1.0));
    for name in [
        "virtual_p50_ns",
        "virtual_p999_ns",
        "acquire_p50_ns",
        "acquire_p99_ns",
    ] {
        out.mirror(name, sim_ns_per_acquire);
    }
    out.mirror(
        "bytes_per_object",
        Summary::exact(crate::host::peak_rss_mib() * 1_048_576.0 / NODES as f64),
    );
    out.finish(setup_s);

    if opts.trace {
        let traced = traced(&reps);
        let med = |f: &dyn Fn(&Rep) -> f64| over(&traced, f).median;
        let span = |name| median(&tr.self_seconds_by_rep(name));
        super::sim_counts(&mut out, &first.stats);
        out.layer("sim.new_s", span("sim.parallel.new"));
        let threaded_s = span("sim.parallel.run_parallel");
        out.layer("sim.run_s", threaded_s);
        out.layer("sim.host_ns_per_event", threaded_s * 1e9 / events);
        out.layer("sim.parallel.epochs", first.epochs as f64);
        out.layer("sim.parallel.lookahead", first.lookahead as f64);
        out.layer("sim.parallel.remote_msgs", first.remote_msgs as f64);
        out.layer(
            "sim.parallel.critical_path_events",
            first.critical_path_events as f64,
        );
        out.layer(
            "sim.parallel.exposed_parallelism",
            events / first.critical_path_events.max(1) as f64,
        );
        out.layer("sim.parallel.serial_run_s", span("sim.parallel.run_serial"));
        out.layer("sim.parallel.threaded_run_s", threaded_s);
        // Busy time and the critical path come from the serial reference,
        // where one shard's timing is not disturbed by the other's thread.
        let busy = |r: &ClusterReport| r.busy_secs.iter().sum::<f64>();
        out.layer("sim.parallel.busy_s_sum", med(&|r| busy(&r.serial)));
        out.layer(
            "sim.parallel.critical_path_s",
            med(&|r| r.serial.critical_path_secs),
        );
        out.layer(
            "sim.parallel.balance",
            med(&|r| busy(&r.serial) / (LOAD_THREADS as f64 * r.serial.critical_path_secs)),
        );
        out.layer(
            "sim.parallel.sync_overhead_s",
            med(&|r| {
                r.threaded.wall_secs - r.threaded.busy_secs.iter().copied().fold(0.0, f64::max)
            }),
        );
        // A model, not a measurement: the rate a host with one idle core
        // per shard would sustain if every epoch cost its slowest shard.
        let modelled = med(&|r| events / r.serial.critical_path_secs);
        out.layer("sim.parallel.modelled_events_per_s", modelled);
        out.layer(
            "sim.parallel.model_error",
            modelled / med(&|r| events / r.threaded.wall_secs),
        );
        out.layer(
            "trace_overhead",
            trace_overhead(&reps, |r| 1.0 / r.threaded.wall_secs),
        );
    }
    out
}
