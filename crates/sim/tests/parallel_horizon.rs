//! Safe-horizon property test: over random mesh topologies, shard
//! counts, epoch windows, and cross-shard traffic patterns, the
//! conservative scheduler must never execute an event earlier than an
//! undelivered cross-shard message — i.e. every delivery lands strictly
//! after the receiving shard's executed-to watermark. The causality
//! detector in `ShardRt::inject` counts violations in release builds
//! (and panics in debug); both execution modes must report zero, agree
//! with each other — down to the number of epochs, i.e. every horizon
//! the threaded mode derived from its published minima is the serial
//! one — and conserve messages (every post is delivered exactly once).

use alewife_sim::parallel::{Cluster, ParallelConfig, ShardCtx};
use alewife_sim::{Config, Port};
use proptest::prelude::*;

/// Deterministic per-case traffic plan derived from proptest inputs.
#[derive(Clone, Copy, Debug)]
struct Plan {
    nodes: usize,
    workers: usize,
    epoch_window: u64,
    seed: u64,
    /// Destination stride for cross-shard posts.
    stride: usize,
    /// Posts attempted per node.
    posts: u64,
}

/// The workload: every node works a random amount, then posts to a
/// strided destination whenever that destination is cross-shard. The
/// handler bumps a delivery counter on arrival.
fn traffic(ctx: &ShardCtx<'_>, plan: Plan) {
    let m = ctx.machine;
    let n = ctx.shard_nodes;
    let (base, total) = (ctx.node_base, ctx.total_nodes);
    for local in 0..n {
        m.register_handler(local, Port(50), |hctx, _| {
            hctx.bump("delivered", 1);
        });
    }
    for p in 0..n {
        let cpu = m.cpu(p);
        let mail = ctx.mail();
        m.spawn(p, async move {
            let me = base + p;
            for i in 1..=plan.posts {
                cpu.work(10 + cpu.rand_below(80)).await;
                let dest = (me + i as usize * plan.stride) % total;
                if dest < base || dest >= base + n {
                    mail.post(cpu.now(), me, dest, Port(50), [i, 0, 0, 0]);
                    cpu.bump("posted", 1);
                }
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random topology/sharding/window: no causality violations in
    /// either mode, identical results across modes, and exact message
    /// conservation (posted == delivered == remote_msgs).
    #[test]
    fn safe_horizon_holds(
        nodes in 4usize..40,
        workers_raw in 2usize..8,
        window_idx in 0usize..5,
        seed in 1u64..u64::MAX,
        stride in 1usize..13,
        posts in 1u64..6,
    ) {
        let workers = workers_raw.min(nodes);
        let epoch_window = [0u64, 1, 50, 400, 1999][window_idx];
        let plan = Plan { nodes, workers, epoch_window, seed, stride, posts };
        let mk = || {
            Cluster::new(
                plan.nodes,
                Config::default().seed(plan.seed),
                ParallelConfig { workers: plan.workers, epoch_window: plan.epoch_window },
            )
        };
        let a = mk().run_serial(|ctx| traffic(ctx, plan));
        let b = mk().run_parallel(|ctx| traffic(ctx, plan));
        // The invariant under test: nothing was delivered into a shard's
        // executed past, in either mode.
        prop_assert_eq!(a.causality_violations, 0);
        prop_assert_eq!(b.causality_violations, 0);
        // Both modes finished everything they started.
        prop_assert_eq!(a.live_tasks, 0);
        prop_assert_eq!(b.live_tasks, 0);
        // Message conservation: every cross-shard post was delivered
        // exactly once, and the handler saw each delivery.
        prop_assert_eq!(a.stats.counter("posted"), a.remote_msgs);
        prop_assert_eq!(a.stats.counter("delivered"), a.remote_msgs);
        // Cross-mode agreement on everything observable.
        prop_assert_eq!(a.remote_msgs, b.remote_msgs);
        prop_assert_eq!(a.stats.sim_events, b.stats.sim_events);
        prop_assert_eq!(a.stats.net_msgs, b.stats.net_msgs);
        prop_assert_eq!(a.stats.active_msgs, b.stats.active_msgs);
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.epochs, b.epochs);
        prop_assert_eq!(&a.stats.counters, &b.stats.counters);
    }
}

/// A baton passed around otherwise idle shards: between hops every
/// queue in the cluster is empty and the only pending work is a post
/// its sender has flushed and its receiver has not yet drained. The
/// serial reference injects before it takes the minimum; the threaded
/// mode must get the same horizon from what the *sender* publishes, or
/// it sees "nothing queued anywhere" and stops after the first hop.
fn relay(ctx: &ShardCtx<'_>, laps: u64) {
    let m = ctx.machine;
    let mail = ctx.mail();
    let (me, next) = (
        ctx.node_base,
        (ctx.node_base + ctx.shard_nodes) % ctx.total_nodes,
    );
    let hops = laps * (ctx.total_nodes / ctx.shard_nodes) as u64;
    m.register_handler(0, Port(51), move |hctx, args| {
        hctx.bump("hops", 1);
        if args[0] + 1 < hops {
            mail.post(hctx.now(), me, next, Port(51), [args[0] + 1, 0, 0, 0]);
        }
    });
    if ctx.shard == 0 {
        let cpu = m.cpu(0);
        let mail = ctx.mail();
        m.spawn(0, async move {
            cpu.work(7).await;
            mail.post(cpu.now(), me, next, Port(51), [0; 4]);
        });
    }
}

#[test]
fn relay_across_idle_shards_keeps_the_serial_horizons() {
    for (workers, epoch_window) in [(2, 0), (3, 1), (5, 400)] {
        let mk = || {
            Cluster::new(
                4 * workers,
                Config::default().seed(0x0E1A),
                ParallelConfig {
                    workers,
                    epoch_window,
                },
            )
        };
        let a = mk().run_serial(|ctx| relay(ctx, 3));
        let b = mk().run_parallel(|ctx| relay(ctx, 3));
        let hops = 3 * workers as u64;
        assert_eq!(a.stats.counter("hops"), hops, "{workers} shards: serial");
        assert_eq!(b.stats.counter("hops"), hops, "{workers} shards: threaded");
        assert!(a.epochs > hops, "a hop per epoch: {} epochs", a.epochs);
        assert_eq!(a.epochs, b.epochs, "{workers} shards: epochs");
        assert_eq!(a.elapsed, b.elapsed, "{workers} shards: elapsed");
        assert_eq!(a.remote_msgs, b.remote_msgs, "{workers} shards: deliveries");
        assert_eq!(a.causality_violations + b.causality_violations, 0);
    }
}
