//! Beyond the paper — the lock service on its virtual-time executor:
//! tail latency, bytes per object, stampede limiting and tracks-best,
//! each over a canonical [`ServiceConfig`].

use lock_service::{
    check_no_stampede, ArenaMode, ArrivalCurve, LimiterConfig, Load, ServiceConfig, ServiceReport,
    ServiceSim, TenantConfig,
};

use super::{Outcome, Scale, Scenario};
use crate::claim::Claim;

/// Acquire deadline of the mixed workload's hot tenant (ns).
const MIXED_DEADLINE_NS: u64 = 60_000;

/// The canonical mixed multi-tenant workload behind the tail-latency
/// and tracks-best rows: tenant 0 is hot (closed-loop, Zipf 0.95,
/// deadline-bounded), tenant 1 is broad and calm (open-loop, near
/// uniform). `hot` scales tenant 0's client herd; the same builder
/// serves both the calm and the contended regime so the two are
/// comparable point-for-point.
fn mixed(scale: Scale, hot: bool, mode: ArenaMode) -> ServiceReport {
    let objects = scale.pick(100_000, 10_000);
    let mut cfg = ServiceConfig::new(objects, 16, 0xC0FF_EE00);
    cfg.mode = mode;
    cfg.limiter = Some(LimiterConfig::default());
    cfg.horizon_ns = scale.pick(4_000_000, 400_000);
    cfg.reservoir = scale.pick(65_536, 8_192);
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: objects / 2,
        theta: 0.95,
        load: Load::Closed {
            clients: if hot { 32 } else { 2 },
            think_ns: if hot { 200 } else { 4_000 },
        },
        hold_ns: 250,
        deadline_ns: MIXED_DEADLINE_NS,
    });
    cfg.tenants.push(TenantConfig {
        first_object: objects / 2,
        objects: objects / 2,
        theta: 0.2,
        load: Load::Open {
            curve: ArrivalCurve::Constant {
                rate_per_sec: scale.pick(2e6, 1e6),
            },
        },
        hold_ns: 100,
        deadline_ns: 0,
    });
    ServiceSim::new(cfg).run()
}

pub(super) const TAIL_LATENCY: Scenario = Scenario {
    name: "service_tail_latency",
    figure: "— (beyond the paper; lock-service tail latency)",
    paper_says: "a multi-tenant arena of adaptive objects keeps p999 acquire latency \
                 under the tenant deadline and below static TTS, without shedding load: \
                 reactive switching is what bounds the tail",
    claims: &[
        // The CI-gated tail bound: p999 stays under the hot tenant's
        // 60 µs deadline with real headroom.
        Claim::BoundedRatio {
            num: "service/p999_ns",
            den: None,
            min: 100.0,
            max: 40_000.0,
        },
        // Adaptive tail beats the static-TTS tail outright.
        Claim::BoundedRatio {
            num: "service/p999_ns",
            den: Some("service/static_tts_p999_ns"),
            min: 0.0,
            max: 0.95,
        },
        // …and does so while serving everything (static TTS sheds >1%
        // of requests at their deadline; adaptive sheds none).
        Claim::BoundedRatio {
            num: "service/abort_rate",
            den: None,
            min: 0.0,
            max: 0.005,
        },
        Claim::BoundedRatio {
            num: "service/static_tts_abort_rate",
            den: None,
            min: 0.01,
            max: 1.0,
        },
        // The adaptation was real (objects actually switched) and
        // stampede-free under the default limiter.
        Claim::BoundedRatio {
            num: "service/switches",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        Claim::BoundedRatio {
            num: "service/tail_oracle_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
    ],
    run: tail_latency,
};

fn tail_latency(scale: Scale) -> Outcome {
    let ad = mixed(scale, true, ArenaMode::Adaptive);
    let tts = mixed(scale, true, ArenaMode::StaticTts);
    let mut o = Outcome {
        sweep: "",
        headline: format!(
            "hot mixed tenancy over {} objects: adaptive p50/p99/p999 = {}/{}/{} ns \
             ({} acquires, {} switches, abort rate {:.4}) vs static-TTS p999 {} ns \
             (abort rate {:.4}); limiter oracle clean",
            ad.objects,
            ad.p50_ns(),
            ad.p99_ns(),
            ad.p999_ns(),
            ad.acquires,
            ad.switches,
            ad.abort_rate(),
            tts.p999_ns(),
            tts.abort_rate(),
        ),
        ..Outcome::default()
    };
    o.scalar("service/p50_ns", ad.p50_ns() as f64);
    o.scalar("service/p99_ns", ad.p99_ns() as f64);
    o.scalar("service/p999_ns", ad.p999_ns() as f64);
    o.scalar("service/static_tts_p999_ns", tts.p999_ns() as f64);
    o.scalar("service/abort_rate", ad.abort_rate());
    o.scalar("service/static_tts_abort_rate", tts.abort_rate());
    o.scalar("service/switches", ad.switches as f64);
    o.scalar(
        "service/tail_oracle_violations",
        ad.stampedes().len() as f64,
    );
    o
}

pub(super) const BYTES_PER_OBJECT: Scenario = Scenario {
    name: "service_bytes_per_object",
    figure: "— (beyond the paper; lock-service memory bound)",
    paper_says: "per-object state is memory-bounded: one packed 4-byte word per \
                 object at rest, journals and instrumentation lazily allocated for hot \
                 objects only, so bytes/object stays flat (≈4, budget 8) as the arena \
                 grows an order of magnitude",
    claims: &[
        // The 4-byte slot word is the floor, measured rather than
        // asserted; the 8-byte cap fails a return to 8-byte words.
        Claim::BoundedRatio {
            num: "service/at_rest_bytes_per_object",
            den: None,
            min: 4.0,
            max: 8.0,
        },
        Claim::BoundedRatio {
            num: "service/total_bytes_per_object",
            den: None,
            min: 4.0,
            max: 8.0,
        },
        // Flat scaling: growing the arena 10x must not move
        // bytes/object (fixed costs amortise; nothing per-object grows).
        Claim::FlatScaling {
            series: "service/at_rest_bytes_per_object",
            from_x: 0.0,
            factor: 1.05,
        },
        // Side state tracks the working set, not the arena.
        Claim::BoundedRatio {
            num: "service/hot_fraction",
            den: None,
            min: 0.0,
            max: 1e-3,
        },
    ],
    run: bytes_per_object,
};

/// A thin uniform trickle over a huge arena, so the working set stays
/// tiny while the at-rest population scales 10⁵ → 10⁶ (10⁴ → 10⁵ at
/// quick scale).
fn bytes_per_object(scale: Scale) -> Outcome {
    let sweep: [u64; 2] = scale.pick([100_000, 1_000_000], [10_000, 100_000]);
    let mut at_rest = Vec::new();
    let mut total = Vec::new();
    let mut hot_frac = Vec::new();
    for objects in sweep {
        let mut cfg = ServiceConfig::new(objects, 32, 0x51D);
        cfg.mode = ArenaMode::Adaptive;
        cfg.limiter = Some(LimiterConfig::default());
        cfg.horizon_ns = scale.pick(1_000_000, 200_000);
        cfg.reservoir = 4_096;
        cfg.tenants.push(TenantConfig {
            first_object: 0,
            objects,
            theta: 0.6,
            load: Load::Open {
                curve: ArrivalCurve::Constant { rate_per_sec: 1e6 },
            },
            hold_ns: 120,
            deadline_ns: 0,
        });
        let r = ServiceSim::new(cfg).run();
        let x = objects as f64;
        at_rest.push((x, r.footprint.at_rest_bytes_per_object()));
        total.push((x, r.footprint.total_bytes_per_object()));
        hot_frac.push((x, r.footprint.hot_objects as f64 / objects as f64));
    }
    let mut o = Outcome {
        sweep: "arena objects",
        headline: format!(
            "{} -> {} objects: at-rest {:.2} -> {:.2} bytes/object \
             ({:.2} -> {:.2} including hot side state); working-set fraction \
             {:.2e} -> {:.2e}",
            sweep[0],
            sweep[1],
            at_rest[0].1,
            at_rest[1].1,
            total[0].1,
            total[1].1,
            hot_frac[0].1,
            hot_frac[1].1,
        ),
        ..Outcome::default()
    };
    o.push("service/at_rest_bytes_per_object", at_rest);
    o.push("service/total_bytes_per_object", total);
    o.push("service/hot_fraction", hot_frac);
    o
}

pub(super) const STAMPEDE: Scenario = Scenario {
    name: "service_stampede",
    figure: "— (beyond the paper; switch-rate limiting under bursts)",
    paper_says: "a per-shard token bucket keeps synchronized switch demand from \
                 stampeding: every window obeys burst + W/period + 1, checked by an \
                 offline oracle that provably rejects the unthrottled control run",
    claims: &[
        // The limited run satisfies the no-stampede invariant…
        Claim::BoundedRatio {
            num: "service/stampede_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
        // …while the unthrottled control violates the same bound, so
        // the oracle demonstrably has teeth on real logs.
        Claim::BoundedRatio {
            num: "service/control_violations",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        // The limiter throttled without freezing: switches still
        // happened, and denials prove the spike actually pressed against
        // the cap.
        Claim::BoundedRatio {
            num: "service/limited_switches",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        Claim::BoundedRatio {
            num: "service/switch_denials",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
    ],
    run: stampede,
};

/// Limiter for the burst scenario: looser than the default (the spike
/// legitimately needs hundreds of switches) but still a hard ceiling
/// the stampeding control run exceeds.
const BURST_LIMITER: LimiterConfig = LimiterConfig {
    burst: 32,
    period_ns: 5_000,
};

/// The bursty stampede workload: a diurnal background tenant over most
/// of the arena, plus a spiking tenant whose load lands *uniformly* on
/// a small hot range — during a spike every object in the range builds
/// a contended streak and crosses the switch threshold within the same
/// few microseconds. That synchronized switch demand is exactly the
/// stampede the per-shard limiter ([`BURST_LIMITER`]) exists to spread
/// out; `limited = false` is the stampeding control arm whose switch
/// log the oracle must *reject*.
fn burst(scale: Scale, limited: bool) -> ServiceReport {
    let objects = scale.pick(100_000, 10_000);
    let hot_range = scale.pick(512, 256);
    let mut cfg = ServiceConfig::new(objects, 8, 0xB00);
    cfg.mode = ArenaMode::Adaptive;
    cfg.limiter = limited.then_some(BURST_LIMITER);
    cfg.horizon_ns = scale.pick(1_200_000, 400_000);
    cfg.reservoir = scale.pick(65_536, 8_192);
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: hot_range,
        theta: 0.0,
        load: Load::Open {
            curve: ArrivalCurve::Burst {
                base_per_sec: 2e5,
                // ~2e6/s per hot object during a spike: past each
                // object's service rate, so queues and streaks build.
                spike_per_sec: scale.pick(1e9, 5e8),
                duty_ns: 50_000,
                period_ns: 200_000,
            },
        },
        hold_ns: 200,
        deadline_ns: 80_000,
    });
    cfg.tenants.push(TenantConfig {
        first_object: hot_range,
        objects: objects - hot_range,
        theta: 0.5,
        load: Load::Open {
            curve: ArrivalCurve::Diurnal {
                low_per_sec: 1e5,
                high_per_sec: 1e6,
                period_ns: 1_000_000,
            },
        },
        hold_ns: 150,
        deadline_ns: 0,
    });
    ServiceSim::new(cfg).run()
}

fn stampede(scale: Scale) -> Outcome {
    let limited = burst(scale, true);
    let control = burst(scale, false);
    let limited_viol = limited.stampedes().len();
    let control_viol = check_no_stampede(&control.switch_log, BURST_LIMITER)
        .expect("the burst limiter has a positive period")
        .len();
    let mut o = Outcome {
        sweep: "",
        headline: format!(
            "spiking load over {} objects: limited run committed {} switches \
             ({} denied, oracle clean); unlimited control stampeded {} switches \
             with {} window violations of the same bound",
            limited.objects,
            limited.switches,
            limited.switch_denials,
            control.switches,
            control_viol,
        ),
        ..Outcome::default()
    };
    o.scalar("service/stampede_violations", limited_viol as f64);
    o.scalar("service/control_violations", control_viol as f64);
    o.scalar("service/limited_switches", limited.switches as f64);
    o.scalar("service/switch_denials", limited.switch_denials as f64);
    o
}

pub(super) const TRACKS_BEST: Scenario = Scenario {
    name: "service_tracks_best",
    figure: "— (beyond the paper; Fig. 3.15's shape at service scale)",
    paper_says: "across contention regimes the adaptive arena stays within 1.5x of \
                 the best static protocol choice, while each static choice loses a \
                 regime (TTS cheap when calm, queue the only survivor when hot)",
    claims: &[
        Claim::TracksBest {
            series: "service/adaptive",
            over: &["service/static_tts", "service/static_queue"],
            slack: 1.5,
        },
        // The regimes genuinely disagree about the best static protocol
        // — otherwise tracking the best would be vacuous.
        Claim::Crossover {
            cheap: "service/static_tts",
            scalable: "service/static_queue",
        },
    ],
    run: tracks_best,
};

fn tracks_best(scale: Scale) -> Outcome {
    type ModeSeries = (&'static str, ArenaMode, Vec<(f64, f64)>);
    let mut series: Vec<ModeSeries> = vec![
        ("service/adaptive", ArenaMode::Adaptive, Vec::new()),
        ("service/static_tts", ArenaMode::StaticTts, Vec::new()),
        ("service/static_queue", ArenaMode::StaticQueue, Vec::new()),
    ];
    for (x, hot) in [(0.0, false), (1.0, true)] {
        for (_, mode, points) in series.iter_mut() {
            let r = mixed(scale, hot, *mode);
            // Deadline-adjusted mean acquire latency: every abort is
            // charged its full deadline, so a protocol cannot "win" on
            // mean latency by shedding the requests it failed to serve
            // (static TTS does exactly that under contention).
            let total = r.acquires + r.aborts;
            let mean = if total == 0 {
                0.0
            } else {
                (r.wait.sum as f64 + r.aborts as f64 * MIXED_DEADLINE_NS as f64) / total as f64
            };
            points.push((x, mean));
        }
    }
    let fmt = |p: &Vec<(f64, f64)>| format!("{:.0}/{:.0}", p[0].1, p[1].1);
    let mut o = Outcome {
        sweep: "contention regime (0 = calm, 1 = hot)",
        headline: format!(
            "deadline-adjusted mean acquire ns (calm/hot): adaptive {}, \
             static TTS {}, static queue {} — the arena tracks the best static \
             protocol in both regimes",
            fmt(&series[0].2),
            fmt(&series[1].2),
            fmt(&series[2].2),
        ),
        ..Outcome::default()
    };
    for (label, _, points) in series {
        o.push(label, points);
    }
    o
}
