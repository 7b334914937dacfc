//! Workload glue for the lock-service scenarios: canonical
//! [`ServiceConfig`]s behind the four `service_*` rows of
//! `EXPERIMENTS.md`, so the JSON artifact and the CI claim suite
//! measure exactly the same runs.

use lock_service::{
    ArenaMode, ArrivalCurve, LimiterConfig, Load, ServiceConfig, ServiceReport, ServiceSim,
    TenantConfig,
};

use crate::scenario::Scale;

/// The canonical mixed multi-tenant workload behind the tail-latency
/// and tracks-best rows: tenant 0 is hot (closed-loop, Zipf 0.95,
/// deadline-bounded), tenant 1 is broad and calm (open-loop, near
/// uniform). `hot` scales tenant 0's client herd; the same builder
/// serves both the calm and the contended regime so the two are
/// comparable point-for-point.
pub fn mixed_config(scale: Scale, objects: u64, hot: bool, mode: ArenaMode) -> ServiceConfig {
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
    cfg
}

/// Limiter for the burst scenario: looser than the default (the spike
/// legitimately needs hundreds of switches) but still a hard ceiling
/// the stampeding control run exceeds.
pub const BURST_LIMITER: LimiterConfig = LimiterConfig {
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
pub fn burst_config(scale: Scale, limited: bool) -> ServiceConfig {
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
    cfg
}

/// The residency workload behind the bytes/object row: a thin uniform
/// trickle over a huge arena, so the working set stays tiny while the
/// at-rest population scales 10⁵ → 10⁶ (10⁴ → 10⁵ at quick scale).
pub fn residency_config(scale: Scale, objects: u64) -> ServiceConfig {
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
    cfg
}

/// Arena sizes for the bytes/object sweep at each scale.
pub fn residency_sweep(scale: Scale) -> [u64; 2] {
    match scale {
        Scale::Full => [100_000, 1_000_000],
        Scale::Quick => [10_000, 100_000],
    }
}

/// Acquire deadline of the mixed workload's hot tenant (ns).
pub const MIXED_DEADLINE_NS: u64 = 60_000;

/// Deadline-adjusted mean acquire latency: every abort is charged its
/// full deadline, so a protocol cannot "win" on mean latency by
/// shedding the requests it failed to serve (static TTS does exactly
/// that under contention).
pub fn adjusted_mean_ns(r: &ServiceReport, deadline_ns: u64) -> f64 {
    let total = r.acquires + r.aborts;
    if total == 0 {
        return 0.0;
    }
    (r.wait.sum as f64 + r.aborts as f64 * deadline_ns as f64) / total as f64
}

/// Run one canonical mixed workload.
pub fn run_mixed(scale: Scale, hot: bool, mode: ArenaMode) -> ServiceReport {
    let objects = scale.pick(100_000, 10_000);
    ServiceSim::new(mixed_config(scale, objects, hot, mode)).run()
}

/// Run the burst workload with the limiter on or off.
pub fn run_burst(scale: Scale, limited: bool) -> ServiceReport {
    ServiceSim::new(burst_config(scale, limited)).run()
}

/// Run the residency workload at a given arena size.
pub fn run_residency(scale: Scale, objects: u64) -> ServiceReport {
    ServiceSim::new(residency_config(scale, objects)).run()
}
