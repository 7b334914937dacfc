//! Host probes: single-purpose programs that isolate one component of a
//! layer, in the manner of `examples/profile_hotpath.rs`. They run in a
//! traced run only, after the workload, and only the probes of the
//! layers that workload exercises.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use reactive_sync::api::oracle::check_switch_history;
use reactive_sync::api::{
    Always, Competitive3, Hysteresis, Observation, Policy, ProtocolId, SwitchEvent,
};
use reactive_sync::native::mcs::{McsLock, McsNode};
use reactive_sync::native::reactive::{ReactiveLock, ReactiveMutex};
use reactive_sync::native::tts::TtsLock;
use reactive_sync::service::{
    ArrivalCurve, Arrivals, LimiterConfig, ObjectArena, TokenBucket, Zipf,
};
use reactive_sync::sim::{Config, Cpu, Machine, Port, WaitHistogram};

use crate::gen::XorShift;
use crate::workloads::{Outcome, LOAD_THREADS};

/// Run the probes of the layers `workload` exercises.
pub fn run(workload: &str, out: &mut Outcome) {
    match workload {
        "sim_lock_storm" => {
            sim(out);
            api(out);
        }
        "sim_apps_mix" | "cluster_ring" => sim(out),
        "service_virtual" => {
            histogram(out);
            service(out);
        }
        "native_cold" | "native_hot" => {
            service(out);
            native(out);
        }
        other => panic!("`{other}` is not a workload"),
    }
}

const SIM_NODES: usize = 64;

/// Host ns per simulated event of a 64-task machine built by `spawn`.
fn ns_per_event(spawn: impl Fn(&Machine)) -> (f64, u64) {
    let m = Machine::new(Config::default().nodes(SIM_NODES));
    spawn(&m);
    let t0 = Instant::now();
    m.run();
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(m.live_tasks(), 0, "probe deadlocked");
    let events = m.stats().sim_events;
    (ns / events as f64, events)
}

async fn deep8(cpu: &Cpu, n: u64) {
    async fn d1(cpu: &Cpu) {
        cpu.work(3).await
    }
    async fn d2(cpu: &Cpu) {
        d1(cpu).await
    }
    async fn d3(cpu: &Cpu) {
        d2(cpu).await
    }
    async fn d4(cpu: &Cpu) {
        d3(cpu).await
    }
    async fn d5(cpu: &Cpu) {
        d4(cpu).await
    }
    async fn d6(cpu: &Cpu) {
        d5(cpu).await
    }
    async fn d7(cpu: &Cpu) {
        d6(cpu).await
    }
    for _ in 0..n {
        d7(cpu).await;
    }
}

/// Every node calls a replying handler on its neighbour `calls` times.
fn handler_storm(m: &Machine, calls: u64, bump: bool) {
    const PORT: Port = Port(7);
    for p in 0..SIM_NODES {
        m.register_handler(p, PORT, move |hctx, args| {
            if bump {
                hctx.bump("probe_calls", 1);
            }
            let tok = hctx.token();
            hctx.reply_to(tok, args[0]);
        });
        let cpu = m.cpu(p);
        m.spawn(p, async move {
            for i in 0..calls {
                cpu.rpc((p + 1) % SIM_NODES, PORT, [i, 0, 0, 0]).await;
            }
        });
    }
}

fn sim(out: &mut Outcome) {
    const PER_TASK: u64 = 20_000;
    // The executor alone: work() events, nothing shared.
    let (work_only, _) = ns_per_event(|m| {
        for p in 0..SIM_NODES {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..PER_TASK {
                    cpu.work(3).await;
                }
            });
        }
    });
    out.layer("sim.probe.work_only_ns_per_event", work_only);
    // Cache hits: each task reads a word homed on its own node.
    let (cached, _) = ns_per_event(|m| {
        for p in 0..SIM_NODES {
            let (cpu, a) = (m.cpu(p), m.alloc_on(p, 1));
            m.spawn(p, async move {
                for _ in 0..PER_TASK {
                    cpu.read(a).await;
                }
            });
        }
    });
    out.layer("sim.probe.cached_read_ns_per_event", cached);
    // Future polling: eight nested awaits per event.
    let (deep, _) = ns_per_event(|m| {
        for p in 0..SIM_NODES {
            let cpu = m.cpu(p);
            m.spawn(p, async move { deep8(&cpu, PER_TASK).await });
        }
    });
    out.layer("sim.probe.deep_chain_ns_per_event", deep);
    // Coherence: 32 pairs ping-pong through poll_until and invalidation
    // wakes.
    let (pingpong, _) = ns_per_event(|m| {
        for pair in 0..SIM_NODES / 2 {
            let (a, b) = (m.alloc_on(2 * pair, 1), m.alloc_on(2 * pair + 1, 1));
            let (c0, c1) = (m.cpu(2 * pair), m.cpu(2 * pair + 1));
            m.spawn(2 * pair, async move {
                for i in 1..=PER_TASK / 4 {
                    c0.write(a, i).await;
                    c0.poll_until(b, move |v| v >= i).await;
                }
            });
            m.spawn(2 * pair + 1, async move {
                for i in 1..=PER_TASK / 4 {
                    c1.poll_until(a, move |v| v >= i).await;
                    c1.write(b, i).await;
                }
            });
        }
    });
    out.layer("sim.probe.pingpong_ns_per_event", pingpong);
    // Directory occupancy: every task fetch&adds one word.
    let (faa, _) = ns_per_event(|m| {
        let a = m.alloc_on(0, 1);
        for p in 0..SIM_NODES {
            let cpu = m.cpu(p);
            m.spawn(p, async move {
                for _ in 0..PER_TASK / 4 {
                    cpu.fetch_and_add(a, 1).await;
                }
            });
        }
    });
    out.layer("sim.probe.faa_ns_per_event", faa);
    // Active messages, and what `HandlerCtx::bump` adds to a handler.
    let calls = PER_TASK / 4;
    let (plain, plain_events) = ns_per_event(|m| handler_storm(m, calls, false));
    let (bumped, bumped_events) = ns_per_event(|m| handler_storm(m, calls, true));
    out.layer("sim.probe.active_msg_ns_per_event", plain);
    let handlers = (SIM_NODES as u64 * calls) as f64;
    out.layer(
        "sim.probe.handler_bump_ns",
        ((bumped * bumped_events as f64 - plain * plain_events as f64) / handlers).max(0.0),
    );
}

fn histogram(out: &mut Outcome) {
    // Past MAX_RAW, so both the append and the reservoir path run.
    const SAMPLES: u64 = 1_000_000;
    let mut rng = XorShift::new(1);
    let values: Vec<u64> = (0..SAMPLES).map(|_| rng.below(100_000)).collect();
    let mut h = WaitHistogram::new();
    let t0 = Instant::now();
    for &v in &values {
        h.record(black_box(v));
    }
    out.layer(
        "sim.histogram.record_ns",
        t0.elapsed().as_nanos() as f64 / SAMPLES as f64,
    );
    // The first query after a record sorts the reservoir; a report asks
    // for three percentiles.
    let t0 = Instant::now();
    black_box((h.p50(), h.p99(), h.p999()));
    out.layer(
        "sim.histogram.percentile_ns",
        t0.elapsed().as_nanos() as f64 / 3.0,
    );
}

fn api(out: &mut Outcome) {
    const DECISIONS: usize = 2_000_000;
    let (tts, queue) = (ProtocolId(0), ProtocolId(1));
    let mut rng = XorShift::new(2);
    // A recorded observation stream: mostly optimal, with bursts that
    // argue for the other protocol.
    let stream: Vec<Observation> = (0..4_096)
        .map(|i| {
            let current = if (i / 512) % 2 == 0 { tts } else { queue };
            let other = if current == tts { queue } else { tts };
            if rng.below(4) == 0 {
                Observation::suboptimal(current, other, 50.0 + rng.below(400) as f64)
            } else {
                Observation::optimal(current)
            }
        })
        .collect();
    // Boxed, as reactive objects hold their policies.
    let mut policies: [Box<dyn Policy>; 3] = [
        Box::new(Always),
        Box::new(Competitive3::new(8_800.0)),
        Box::new(Hysteresis::new(4, 16)),
    ];
    let t0 = Instant::now();
    for i in 0..DECISIONS {
        let obs = &stream[i % stream.len()];
        black_box(policies[i % 3].decide(black_box(obs)));
    }
    out.layer(
        "api.policy.decide_ns",
        t0.elapsed().as_nanos() as f64 / DECISIONS as f64,
    );

    let log: Vec<SwitchEvent> = (0..2_000u64)
        .map(|i| {
            let (from, to) = if i % 2 == 0 {
                (tts, queue)
            } else {
                (queue, tts)
            };
            SwitchEvent {
                time: 1_000 * i,
                from,
                to,
                residual: 100.0,
            }
        })
        .collect();
    let t0 = Instant::now();
    check_switch_history(black_box(&log), 2, tts).expect("alternating log is valid");
    out.layer("api.oracle.check_s", t0.elapsed().as_secs_f64());
}

/// Mean ns of `op` over `n` calls.
fn ns_per_call(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        op(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn service(out: &mut Outcome) {
    const CALLS: u64 = 2_000_000;
    let mut zipf = Zipf::new(500_000, 0.95, 3);
    out.layer(
        "service.workload.zipf_sample_ns",
        ns_per_call(CALLS, |_| {
            black_box(zipf.sample());
        }),
    );
    let mut arrivals = Arrivals::new(ArrivalCurve::Constant { rate_per_sec: 2e6 }, 4);
    out.layer(
        "service.workload.next_arrival_ns",
        ns_per_call(CALLS, |_| {
            black_box(arrivals.next_arrival());
        }),
    );
    // Time advances a tenth of a refill period per call: most calls are
    // denied, as under a switch storm.
    let cfg = LimiterConfig::default();
    let mut bucket = TokenBucket::new(cfg);
    out.layer(
        "service.limiter.try_acquire_ns",
        ns_per_call(CALLS, |i| {
            black_box(bucket.try_acquire(i * cfg.period_ns / 10));
        }),
    );
    // Load + CAS over the whole arena in scattered order: the flat fast
    // path's memory behaviour without the service around it.
    let arena = ObjectArena::new(1_000_000, 16);
    out.layer(
        "service.arena.cas_ns",
        ns_per_call(CALLS, |i| {
            let object = (i * 1_000_003) % 1_000_000;
            let word = arena.load(object);
            black_box(arena.cas(object, word, word ^ 1).is_ok());
        }),
    );
}

fn native(out: &mut Outcome) {
    const OPS: u64 = 2_000_000;
    let tts_lock = TtsLock::new();
    let tts = ns_per_call(OPS, |_| {
        tts_lock.lock();
        tts_lock.unlock();
    });
    let (mcs_lock, node) = (McsLock::new(), McsNode::new());
    let mcs = ns_per_call(OPS, |_| {
        black_box(mcs_lock.lock(&node));
        mcs_lock.unlock(&node);
    });
    let lock = ReactiveLock::new();
    let reactive = ns_per_call(OPS, |_| {
        let held = lock.acquire();
        lock.release(held);
    });
    out.layer("native.tts.uncontended_ns", tts);
    out.layer("native.mcs.uncontended_ns", mcs);
    out.layer("native.reactive.uncontended_ns", reactive);
    out.layer("native.reactive.overhead_vs_tts", reactive / tts);

    // Two threads, one lock, a critical section of one increment.
    let each = OPS / 4;
    let counter = ReactiveMutex::new(0u64);
    let start = Barrier::new(LOAD_THREADS);
    let wall = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOAD_THREADS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..each {
                        *counter.lock() += 1;
                    }
                    t0.elapsed().as_nanos() as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(0.0, f64::max)
    });
    out.layer(
        "native.reactive.contended_ns_per_op",
        wall / (LOAD_THREADS as u64 * each) as f64,
    );
    out.layer("native.reactive.switches", counter.switches() as f64);
    assert_eq!(
        counter.into_inner(),
        LOAD_THREADS as u64 * each,
        "reactive lock lost an update"
    );
}
