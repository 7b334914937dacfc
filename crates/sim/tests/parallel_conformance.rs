//! Cross-mode conformance: for the same sharded workload,
//! [`Cluster::run_serial`] and [`Cluster::run_parallel`] must produce
//! **identical** statistics — same event counts, same message counts,
//! same per-node RMR vectors, same named counters, same wait-histogram
//! contents down to the raw reservoirs. Per-shard execution is
//! deterministic and the epoch protocol fixes the cross-shard injection
//! order, so nothing may depend on thread interleaving.
//!
//! Four seeded workloads cover the surface: shard-local reactive locks
//! with a cross-shard message ring, an all-to-all message storm with
//! handler-originated replies, an unevenly-sharded mixed run with a
//! widened epoch window, and a flood that puts more messages into one
//! lane in one epoch than the lanes were once allowed to hold. A last
//! test checks the failure path: a panicking worker ends the run.

use std::sync::mpsc;
use std::time::Duration;

use alewife_sim::parallel::{Cluster, ClusterReport, ParallelConfig, ShardCtx};
use alewife_sim::{Config, Port, Stats};
use sim_apps::alg::{AnyLock, LockAlg};

/// Field-by-field equality over [`Stats`], including histogram raw
/// reservoirs (both modes merge shards in the same order with the same
/// seeds, so even the sampled state must match bit-for-bit).
fn assert_stats_identical(a: &Stats, b: &Stats, workload: &str) {
    assert_eq!(a.net_msgs, b.net_msgs, "{workload}: net_msgs");
    assert_eq!(
        a.remote_misses, b.remote_misses,
        "{workload}: remote_misses"
    );
    assert_eq!(
        a.invalidations, b.invalidations,
        "{workload}: invalidations"
    );
    assert_eq!(
        a.limitless_traps, b.limitless_traps,
        "{workload}: limitless_traps"
    );
    assert_eq!(a.dir_requests, b.dir_requests, "{workload}: dir_requests");
    assert_eq!(a.active_msgs, b.active_msgs, "{workload}: active_msgs");
    assert_eq!(a.sim_events, b.sim_events, "{workload}: sim_events");
    assert_eq!(a.rmr_cc, b.rmr_cc, "{workload}: rmr_cc");
    assert_eq!(a.rmr_dsm, b.rmr_dsm, "{workload}: rmr_dsm");
    assert_eq!(a.counters, b.counters, "{workload}: counters");
    assert_eq!(
        a.waits.keys().collect::<Vec<_>>(),
        b.waits.keys().collect::<Vec<_>>(),
        "{workload}: wait histogram names"
    );
    for (name, wa) in &a.waits {
        let wb = &b.waits[name];
        assert_eq!(wa.count, wb.count, "{workload}: waits[{name}].count");
        assert_eq!(wa.sum, wb.sum, "{workload}: waits[{name}].sum");
        assert_eq!(wa.max, wb.max, "{workload}: waits[{name}].max");
        assert_eq!(wa.buckets, wb.buckets, "{workload}: waits[{name}].buckets");
        assert_eq!(wa.raw, wb.raw, "{workload}: waits[{name}].raw");
    }
}

fn check_both_modes(
    name: &str,
    nodes: usize,
    pcfg: ParallelConfig,
    seed: u64,
    setup: impl Fn(&ShardCtx<'_>) + Send + Sync + Copy,
) -> ClusterReport {
    let mk = || Cluster::new(nodes, Config::default().seed(seed), pcfg.clone());
    let serial = mk().run_serial(setup);
    let parallel = mk().run_parallel(setup);
    assert_eq!(serial.live_tasks, 0, "{name}: serial deadlocked");
    assert_eq!(parallel.live_tasks, 0, "{name}: parallel deadlocked");
    assert_eq!(serial.causality_violations, 0, "{name}: serial causality");
    assert_eq!(
        parallel.causality_violations, 0,
        "{name}: parallel causality"
    );
    assert_eq!(serial.elapsed, parallel.elapsed, "{name}: elapsed");
    assert_eq!(serial.epochs, parallel.epochs, "{name}: epoch count");
    assert_eq!(
        serial.remote_msgs, parallel.remote_msgs,
        "{name}: remote deliveries"
    );
    assert_stats_identical(&serial.stats, &parallel.stats, name);
    assert!(serial.stats.sim_events > 0, "{name}: trivially empty run");
    serial
}

/// Workload 1: every shard hammers a shard-local reactive lock while
/// shard node 0 sends a message ring around the shards; the receiving
/// handler bumps a counter and records the hop arrival time.
fn lock_ring(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let lock = AnyLock::make(m, 0, LockAlg::Reactive, n);
    let counter = m.alloc_on(0, 1);
    for local in 0..n {
        m.register_handler(local, Port(40), |hctx, args| {
            hctx.bump("ring_hops", 1);
            let hop = hctx.now().saturating_sub(args[0]);
            hctx.record_wait("ring_hop_latency", hop);
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let lock = lock.clone();
        let mail = ctx.mail();
        let (base, total) = (ctx.node_base, ctx.total_nodes);
        m.spawn(p, async move {
            for _ in 0..8u64 {
                let t = lock.acquire(&cpu).await;
                cpu.fetch_and_add(counter, 1).await;
                cpu.work(cpu.rand_below(60)).await;
                lock.release(&cpu, t).await;
                if p == 0 {
                    let dest = (base + cpu.rand_below(3) as usize + n) % total;
                    let dest = if dest >= base && dest < base + n {
                        (base + n) % total
                    } else {
                        dest
                    };
                    mail.post(cpu.now(), base, dest, Port(40), [cpu.now(), 0, 0, 0]);
                }
            }
        });
    }
}

/// Workload 2: all-to-all storm — every node posts to a strided remote
/// destination, and the destination's handler posts a cross-shard reply
/// back (handler-originated mail).
fn storm(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let (base, total) = (ctx.node_base, ctx.total_nodes);
    for local in 0..n {
        let mail = ctx.mail();
        let me = base + local;
        m.register_handler(local, Port(41), move |hctx, args| {
            hctx.bump("storm_recv", 1);
            if args[1] == 0 {
                // Reply once; args[1] = 1 marks a reply so it stops.
                let sender = hctx.sender();
                hctx.bump("storm_reply", 1);
                let now = hctx.now();
                mail.post(now, me, sender, Port(41), [now, 1, 0, 0]);
            }
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let mail = ctx.mail();
        m.spawn(p, async move {
            let me = base + p;
            for i in 1..5u64 {
                cpu.work(20 + cpu.rand_below(50)).await;
                let dest = (me + i as usize * 7) % total;
                if dest < base || dest >= base + n {
                    mail.post(cpu.now(), me, dest, Port(41), [cpu.now(), 0, 0, 0]);
                }
            }
        });
    }
}

/// Workload 3: shard-local counter mix, uneven shard split, widened
/// epoch window (coarser lookahead must not change the results of
/// either mode relative to the other).
fn mixed_uneven(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let counter = m.alloc_on(n / 2, 1);
    m.register_handler(0, Port(42), |hctx, _| {
        hctx.bump("mixed_msgs", 1);
    });
    for p in 0..n {
        let cpu = m.cpu(p);
        let mail = ctx.mail();
        let (base, total) = (ctx.node_base, ctx.total_nodes);
        m.spawn(p, async move {
            for _ in 0..10u64 {
                cpu.fetch_and_add(counter, 1).await;
                cpu.work(cpu.rand_below(30)).await;
            }
            if p + 1 == n {
                // Last node of the shard pokes the next shard once.
                let dest = (base + n) % total;
                mail.post(cpu.now(), base + p, dest, Port(42), [0; 4]);
            }
        });
    }
}

/// Workload 4: node 0 floods one node of the other shard. The epoch
/// window is wider than the whole burst, so every post of the run
/// travels down one lane in one epoch.
fn flood(ctx: &ShardCtx<'_>) {
    let m = ctx.machine;
    m.register_handler(0, Port(43), |hctx, _| hctx.bump("flood_recv", 1));
    if ctx.shard == 0 {
        let cpu = m.cpu(0);
        let mail = ctx.mail();
        let dest = ctx.total_nodes - ctx.shard_nodes;
        m.spawn(0, async move {
            for i in 0..FLOOD {
                cpu.work(1).await;
                mail.post(cpu.now(), 0, dest, Port(43), [i, 0, 0, 0]);
            }
        });
    }
}

/// Posts in the flood: five times what a lane could hold while lanes
/// were 4096-slot rings and a fuller one panicked the run.
const FLOOD: u64 = 5 * 4096;

#[test]
fn conformance_lock_ring() {
    check_both_modes(
        "lock_ring",
        32,
        ParallelConfig {
            workers: 4,
            epoch_window: 0,
        },
        0xC0FF_EE01,
        lock_ring,
    );
}

#[test]
fn conformance_storm() {
    check_both_modes(
        "storm",
        24,
        ParallelConfig {
            workers: 6,
            epoch_window: 0,
        },
        0xC0FF_EE02,
        storm,
    );
}

#[test]
fn conformance_mixed_uneven() {
    check_both_modes(
        "mixed_uneven",
        22,
        ParallelConfig {
            workers: 5,
            epoch_window: 400,
        },
        0xC0FF_EE03,
        mixed_uneven,
    );
}

#[test]
fn conformance_flood_has_no_lane_bound() {
    let report = check_both_modes(
        "flood",
        4,
        ParallelConfig {
            workers: 2,
            epoch_window: 100_000,
        },
        0xC0FF_EE04,
        flood,
    );
    assert_eq!(report.remote_msgs, FLOOD);
    assert_eq!(report.stats.counter("flood_recv"), FLOOD);
    // Only one lane is ever used, so some epoch moved more than 4096
    // posts down it (in fact the first moves them all; the later ones
    // only work off the handler backlog).
    assert!(FLOOD > 4096 * report.epochs, "{} epochs", report.epochs);
}

/// A worker that panics must end the run — its peers must not wait at
/// the epoch gate for an arrival that never comes — and the panic that
/// comes out of `run_parallel` is the worker's own.
#[test]
fn worker_panic_ends_the_run() {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::new(
            12,
            Config::default().seed(0xC0FF_EE05),
            ParallelConfig {
                workers: 3,
                epoch_window: 0,
            },
        );
        let run = std::panic::catch_unwind(|| {
            cluster.run_parallel(|ctx| {
                assert_ne!(ctx.shard, 1, "shard 1 refuses to start");
                lock_ring(ctx);
            })
        });
        done.send(run.map(|report| report.epochs)).ok();
    });
    let run = result
        .recv_timeout(Duration::from_secs(1))
        .expect("run_parallel hung on a panicked worker");
    let panic = run.expect_err("run_parallel swallowed the worker's panic");
    let text = panic.downcast_ref::<String>().map_or("", String::as_str);
    assert!(text.contains("shard 1 refuses to start"), "got: {text:?}");
}
