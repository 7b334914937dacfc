//! Determinism golden test: a fixed contended-lock workload must produce
//! bit-identical results run-to-run *and* match digests captured before
//! the arena/calendar-queue refactor of the simulator hot paths. Any
//! silent change to event ordering, cost accounting, or the RNG stream
//! shows up here as a digest mismatch.
//!
//! The workload deliberately exercises every subsystem the refactor
//! touches: directory coherence (test&set + fetch&add + sequential
//! invalidations of poll_until watchers), the line-version watcher
//! machinery, active-message RPC, and the thread runtime
//! (block/signal/yield among threads sharing a node).

use alewife_sim::{Config, FullEmpty, Machine, Port, Stats};

/// FNV-1a over a stream of u64s.
fn fnv(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a run's observable outcome — elapsed time plus every machine
/// counter and wait histogram — into one digest.
fn digest_stats(elapsed: u64, st: &Stats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [
        elapsed,
        st.net_msgs,
        st.remote_misses,
        st.invalidations,
        st.limitless_traps,
        st.dir_requests,
        st.active_msgs,
        st.sim_events,
    ] {
        h = fnv(h, x);
    }
    for (name, v) in &st.counters {
        h = fnv(h, name.len() as u64);
        h = fnv(h, *v);
    }
    for (name, w) in &st.waits {
        h = fnv(h, name.len() as u64);
        h = fnv(h, w.count);
        h = fnv(h, w.sum);
        h = fnv(h, w.max);
    }
    h
}

/// Run the fixed workload on one machine shape; digest the observable
/// outcome (final time, memory results, and every machine counter).
fn run_digest(nodes: usize) -> u64 {
    let m = Machine::new(Config::default().nodes(nodes).seed(0x5EED_601D));
    let lock = m.alloc_on(0, 1);
    let counter = m.alloc_on(1 % nodes, 1);
    let slot = m.alloc_on(nodes / 2, 1);
    let q = m.new_wait_queue();

    // RPC echo handler on the last node.
    m.register_handler(nodes - 1, Port(9), |ctx, args| {
        ctx.consume(5);
        let tok = ctx.token();
        ctx.reply_to(tok, args[0].wrapping_mul(3) + 1);
    });

    // Contended TTS-style lock plus RPC traffic on every node.
    for p in 0..nodes {
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            for i in 0..10u64 {
                loop {
                    if cpu.test_and_set(lock).await == 0 {
                        break;
                    }
                    cpu.poll_until(lock, |v| v == 0).await;
                }
                cpu.fetch_and_add(counter, 1).await;
                cpu.work(cpu.rand_below(60)).await;
                cpu.write(lock, 0).await;
                if i % 3 == 0 {
                    let r = cpu.rpc(cpu.nodes() - 1, Port(9), [i, 0, 0, 0]).await;
                    cpu.bump("rpc_sum", r);
                }
                cpu.work(cpu.rand_below(40)).await;
                cpu.record_wait("iter", i * 7 + p as u64);
            }
        });
    }

    // A producer/consumer pair exercising full/empty bits and the
    // blocking thread runtime (second thread on node 0).
    let c0 = m.cpu(0);
    m.spawn(0, async move {
        c0.block_on(q).await;
        loop {
            if let FullEmpty::Full(v) = c0.take_if_full(slot).await {
                c0.bump("took", v);
                break;
            }
            c0.yield_now().await;
            c0.work(25).await;
        }
    });
    let c1 = m.cpu(nodes - 1);
    m.spawn(nodes - 1, async move {
        c1.work(500).await;
        c1.write_fill(slot, 77).await;
        c1.signal_one(q).await;
    });

    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0, "golden workload deadlocked");
    assert_eq!(m.read_word(counter), nodes as u64 * 10);

    let st = m.stats();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in [
        elapsed,
        m.read_word(counter),
        m.read_word(lock),
        st.net_msgs,
        st.remote_misses,
        st.invalidations,
        st.limitless_traps,
        st.dir_requests,
        st.active_msgs,
        st.sim_events,
    ] {
        h = fnv(h, x);
    }
    for (name, v) in &st.counters {
        h = fnv(h, name.len() as u64);
        h = fnv(h, *v);
    }
    for (name, w) in &st.waits {
        h = fnv(h, name.len() as u64);
        h = fnv(h, w.count);
        h = fnv(h, w.sum);
        h = fnv(h, w.max);
    }
    h
}

/// Golden digests captured from the pre-refactor simulator (HashMap
/// line tables + BinaryHeap event queue). The hot-path refactor must
/// reproduce them bit-exactly. `4X2` names the 4-node machine's capture
/// configuration of 2 hardware contexts per node, a count the scheduler
/// never read.
const GOLDEN_4X2: u64 = 0x2EBB_46DA_D3C4_624F;
const GOLDEN_16X1: u64 = 0xEA08_32AE_447B_E995;

#[test]
fn digest_is_stable_across_runs_and_matches_golden_4x2() {
    let a = run_digest(4);
    let b = run_digest(4);
    assert_eq!(a, b, "same configuration, different digests");
    assert_eq!(a, GOLDEN_4X2, "4-node digest drifted: got {a:#018x}");
}

#[test]
fn digest_is_stable_across_runs_and_matches_golden_16x1() {
    let a = run_digest(16);
    let b = run_digest(16);
    assert_eq!(a, b, "same configuration, different digests");
    assert_eq!(a, GOLDEN_16X1, "16-node digest drifted: got {a:#018x}");
}

// ---------------------------------------------------------------------
// App-workload golden digests: the scenario layer's figure
// reproductions run these same sim-apps workloads, so their event
// streams are pinned bit-exact here like the synthetic suites above.
// ---------------------------------------------------------------------

/// Gamteb (9 reactive fetch-and-op interaction counters) at 8 procs —
/// the fetch-op app workload of Figures 3.24 and 4.6.
fn run_digest_gamteb() -> u64 {
    use sim_apps::alg::FetchOpAlg;
    use sim_apps::gamteb;
    let r = gamteb::run(&gamteb::GamtebConfig::small(8, FetchOpAlg::Reactive));
    digest_stats(r.elapsed, &r.stats)
}

/// MP3D (cell locks + collision-count lock, reactive) at 8 procs — the
/// lock app workload of Figure 3.25.
fn run_digest_mp3d() -> u64 {
    use sim_apps::alg::LockAlg;
    use sim_apps::mp3d;
    let mut cfg = mp3d::Mp3dConfig::small(8, LockAlg::Reactive);
    cfg.particles_per_proc = 8;
    let r = mp3d::run(&cfg);
    digest_stats(r.elapsed, &r.stats)
}

/// Golden digests for the app workloads, captured when the scenario
/// layer was introduced (PR 4). A drift means app event streams — and
/// therefore every figure reproduction built on them — changed.
const GOLDEN_GAMTEB_8: u64 = 0xD6A8_2948_28D6_805D;
const GOLDEN_MP3D_8: u64 = 0xB198_F6C3_0360_E094;

#[test]
fn app_digest_gamteb_is_stable_and_matches_golden() {
    let a = run_digest_gamteb();
    let b = run_digest_gamteb();
    assert_eq!(a, b, "gamteb digests differ run-to-run");
    assert_eq!(a, GOLDEN_GAMTEB_8, "gamteb digest drifted: got {a:#018x}");
}

#[test]
fn app_digest_mp3d_is_stable_and_matches_golden() {
    let a = run_digest_mp3d();
    let b = run_digest_mp3d();
    assert_eq!(a, b, "mp3d digests differ run-to-run");
    assert_eq!(a, GOLDEN_MP3D_8, "mp3d digest drifted: got {a:#018x}");
}

// ---------------------------------------------------------------------
// Reactive-object golden digests for the protocol paths the suites
// above never reach: the shared-memory fetch-op's combining tree and
// the two SM<->MP objects. Captured before the sub-locks moved into
// `sync_protocols::spin`; a drift means a simulated memory operation
// was added, dropped or reordered. The barrier and robust-lock digests
// also fold the `SwitchLog` each object reports to, and pin both switch
// directions of the two kernel-built objects nothing else here covers.
// ---------------------------------------------------------------------

fn reactive_machine(nodes: usize) -> Machine {
    Machine::new(Config::default().nodes(nodes).seed(0x5EED_601D))
}

/// 32 processors hammer a `ReactiveFetchOp` into the combining tree,
/// then node 0 runs solo until it comes back out.
fn run_digest_fetch_op_tree() -> u64 {
    let m = reactive_machine(32);
    let f = reactive_core::ReactiveFetchOp::new(&m, 0, 32);
    for p in 0..32 {
        let (cpu, f) = (m.cpu(p), f.clone());
        m.spawn(p, async move {
            for _ in 0..15 {
                f.fetch_add(&cpu, 1).await;
                cpu.work(cpu.rand_below(100)).await;
            }
            if cpu.node() == 0 {
                for _ in 0..40 {
                    f.fetch_add(&cpu, 1).await;
                    cpu.work(30).await;
                }
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.read_word(f.var()), 32 * 15 + 40);
    let st = m.stats();
    assert!(
        st.counter("reactive_fop.to_tree") >= 1,
        "never reached the tree"
    );
    assert!(
        st.counter("reactive_fop.tree_to_queue") + st.counter("reactive_fop.tree_to_tts") >= 1,
        "never left the tree"
    );
    fnv(digest_stats(elapsed, &st), f.switches())
}

/// 8 processors on a `ReactiveMpLock` (TTS <-> message-passing queue).
fn run_digest_mp_lock() -> u64 {
    let m = reactive_machine(8);
    let lock = reactive_core::mp::ReactiveMpLock::new(&m, 0, 0, 8);
    let shared = m.alloc_on(1, 1);
    for p in 0..8 {
        let (cpu, lock) = (m.cpu(p), lock.clone());
        m.spawn(p, async move {
            for _ in 0..25 {
                let t = lock.acquire(&cpu).await;
                let v = cpu.read(shared).await;
                cpu.work(10).await;
                cpu.write(shared, v + 1).await;
                lock.release(&cpu, t).await;
                cpu.work(cpu.rand_below(80)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(m.read_word(shared), 200);
    assert!(lock.switches() >= 1, "MP lock never switched");
    fnv(digest_stats(elapsed, &m.stats()), lock.switches())
}

/// 16 processors on a `ReactiveMpFetchOp` (TTS counter <-> central MP
/// counter <-> MP combining tree).
fn run_digest_mp_fetch_op() -> u64 {
    let m = reactive_machine(16);
    let f = reactive_core::mp::ReactiveMpFetchOp::new(&m, 0, 0, 16);
    for p in 0..16 {
        let (cpu, f) = (m.cpu(p), f.clone());
        m.spawn(p, async move {
            for _ in 0..15 {
                f.fetch_add(&cpu, 1).await;
                cpu.work(cpu.rand_below(80)).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    assert_eq!(f.value(&m), 240);
    assert!(f.switches() >= 1, "MP fetch-op never switched");
    fnv(digest_stats(elapsed, &m.stats()), f.switches())
}

/// Fold a `SwitchLog`'s events (time, endpoints, approving residual)
/// into `h`.
fn digest_events(mut h: u64, log: &reactive_core::SwitchLog) -> u64 {
    for e in log.events() {
        for x in [e.time, e.from.0 as u64, e.to.0 as u64, e.residual.to_bits()] {
            h = fnv(h, x);
        }
    }
    h
}

/// 6 participants on a `ReactiveBarrier`: ten bunched rounds melt the
/// central counter (central -> tree), then eight rounds with arrivals
/// 400 cycles apart calm the tree (tree -> central). The prototype cost
/// model's shorter network latency is what lets an uncontended leaf
/// counter come in under `TREE_LAT_LOW`.
fn run_digest_barrier() -> u64 {
    let m = Machine::new(
        Config::default()
            .nodes(6)
            .seed(0x5EED_601D)
            .cost(alewife_sim::CostModel::prototype()),
    );
    let log = std::rc::Rc::new(reactive_core::SwitchLog::new());
    let bar = reactive_core::ReactiveBarrier::builder(&m, 0, 6)
        .instrument(log.clone())
        .build();
    let spin = sim_apps::alg::WaitAlg::Spin;
    for p in 0..6 {
        let (cpu, bar) = (m.cpu(p), bar.clone());
        m.spawn(p, async move {
            let mut ctx = Default::default();
            for _ in 0..10 {
                cpu.work(cpu.rand_below(50)).await;
                bar.wait(&cpu, &mut ctx, &spin).await;
            }
            for _ in 0..8 {
                cpu.work(p as u64 * 400).await;
                bar.wait(&cpu, &mut ctx, &spin).await;
            }
        });
    }
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    let st = m.stats();
    assert!(
        st.counter("reactive_barrier.to_tree") >= 1,
        "never left central"
    );
    assert!(
        st.counter("reactive_barrier.to_central") >= 1,
        "never came back to central"
    );
    assert_eq!(log.count() as u64, bar.switches());
    digest_events(fnv(digest_stats(elapsed, &st), bar.switches()), &log)
}

/// A `RobustLock` on 4 nodes: a `FaultPlan` kill of node 3 drives it
/// abortable -> recoverable, the crash-free passages after it drive it
/// back, and every third attempt carries a tight deadline (some abort).
fn run_digest_robust_lock() -> u64 {
    use alewife_sim::FaultPlan;
    let m = Machine::new(
        Config::default()
            .nodes(4)
            .seed(0x5EED_601D)
            .faults(FaultPlan::new().kill_for(2_000, 3, 1_000)),
    );
    let log = std::rc::Rc::new(reactive_core::SwitchLog::new());
    let lock = reactive_core::RobustLock::builder(&m, 0, 4)
        .instrument(log.clone())
        .build();
    let shared = m.alloc_on(1, 1);
    for p in 0..3 {
        let (cpu, lock) = (m.cpu(p), lock.clone());
        m.spawn(p, async move {
            for i in 0..60u64 {
                let deadline = if i % 3 == 0 {
                    cpu.now() + 150
                } else {
                    u64::MAX
                };
                match lock.acquire(&cpu, p, deadline).await {
                    Some(t) => {
                        let v = cpu.read(shared).await;
                        cpu.work(20 + cpu.rand_below(40)).await;
                        cpu.write(shared, v + 1).await;
                        lock.release(&cpu, p, t).await;
                    }
                    None => cpu.bump("robust_golden.aborts", 1),
                }
                cpu.work(cpu.rand_below(100)).await;
            }
        });
    }
    let (rcpu, rlock) = (m.cpu(3), lock.clone());
    m.on_recovery(3, move || {
        let (cpu, lock) = (rcpu.clone(), rlock.clone());
        Box::pin(async move {
            lock.recover(&cpu, 3).await;
        })
    });
    let elapsed = m.run();
    assert_eq!(m.live_tasks(), 0);
    let st = m.stats();
    let aborts = st.counter("robust_golden.aborts");
    assert!(aborts > 0, "no deadline aborted");
    assert_eq!(m.read_word(shared) + aborts, 3 * 60);
    assert!(
        st.counter("robust_lock.to_recoverable") >= 1,
        "kill drove no switch"
    );
    assert!(
        st.counter("robust_lock.to_abortable") >= 1,
        "calm passages never switched back"
    );
    assert_eq!(log.count() as u64, lock.switches());
    digest_events(fnv(digest_stats(elapsed, &st), lock.switches()), &log)
}

const GOLDEN_FETCH_OP_TREE_32: u64 = 0x4FCB_294F_2DAE_19F6;
const GOLDEN_MP_LOCK_8: u64 = 0xB4C7_2721_2F2F_C99E;
const GOLDEN_MP_FETCH_OP_16: u64 = 0xCB9D_83B0_17CB_B9E7;
const GOLDEN_BARRIER_6: u64 = 0x688F_D115_AAF6_A833;
const GOLDEN_ROBUST_LOCK_4: u64 = 0x1581_00C8_A6CD_D078;

fn assert_stable_golden(name: &str, run: fn() -> u64, golden: u64) {
    let (a, b) = (run(), run());
    assert_eq!(a, b, "{name} digests differ run-to-run");
    assert_eq!(a, golden, "{name} digest drifted: got {a:#018x}");
}

#[test]
fn reactive_digest_fetch_op_tree_is_stable_and_matches_golden() {
    assert_stable_golden(
        "fetch-op tree",
        run_digest_fetch_op_tree,
        GOLDEN_FETCH_OP_TREE_32,
    );
}

#[test]
fn reactive_digest_mp_lock_is_stable_and_matches_golden() {
    assert_stable_golden("MP lock", run_digest_mp_lock, GOLDEN_MP_LOCK_8);
}

#[test]
fn reactive_digest_mp_fetch_op_is_stable_and_matches_golden() {
    assert_stable_golden("MP fetch-op", run_digest_mp_fetch_op, GOLDEN_MP_FETCH_OP_16);
}

#[test]
fn reactive_digest_barrier_is_stable_and_matches_golden() {
    assert_stable_golden("barrier", run_digest_barrier, GOLDEN_BARRIER_6);
}

#[test]
fn reactive_digest_robust_lock_is_stable_and_matches_golden() {
    assert_stable_golden("robust lock", run_digest_robust_lock, GOLDEN_ROBUST_LOCK_4);
}
