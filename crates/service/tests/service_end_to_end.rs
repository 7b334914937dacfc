//! End-to-end contracts of the virtual-time executor: run-to-run
//! determinism, the memory bound, deadline aborts, adaptive switching
//! under the limiter, and the stampede oracle's teeth on a real
//! (not hand-built) switch log.

use lock_service::{
    ArenaMode, ArrivalCurve, LimiterConfig, Load, ServiceConfig, ServiceSim, TenantConfig,
};

/// A two-tenant mixed workload: one hot closed-loop tenant (drives
/// switching), one sprawling open-loop tenant (drives residency).
fn mixed_config(objects: u64, mode: ArenaMode, limiter: Option<LimiterConfig>) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(objects, 16, 1234);
    cfg.mode = mode;
    cfg.limiter = limiter;
    cfg.horizon_ns = 1_000_000;
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: objects / 2,
        theta: 0.95,
        load: Load::Closed {
            clients: 24,
            think_ns: 300,
        },
        hold_ns: 250,
        deadline_ns: 40_000,
    });
    cfg.tenants.push(TenantConfig {
        first_object: objects / 2,
        objects: objects / 2,
        theta: 0.2,
        load: Load::Open {
            curve: ArrivalCurve::Constant { rate_per_sec: 2e6 },
        },
        hold_ns: 100,
        deadline_ns: 0,
    });
    cfg
}

#[test]
fn identical_configs_produce_identical_reports() {
    let a = ServiceSim::new(mixed_config(
        50_000,
        ArenaMode::Adaptive,
        Some(LimiterConfig::default()),
    ))
    .run();
    let b = ServiceSim::new(mixed_config(
        50_000,
        ArenaMode::Adaptive,
        Some(LimiterConfig::default()),
    ))
    .run();
    assert_eq!(a.acquires, b.acquires);
    assert_eq!(a.aborts, b.aborts);
    assert_eq!(a.switches, b.switches);
    assert_eq!(a.switch_denials, b.switch_denials);
    assert_eq!(a.p50_ns(), b.p50_ns());
    assert_eq!(a.p999_ns(), b.p999_ns());
    assert_eq!(a.switch_log, b.switch_log);
    assert!(a.acquires > 1_000, "workload too small to mean anything");
}

#[test]
fn adaptive_run_switches_and_stays_stampede_free() {
    let r = ServiceSim::new(mixed_config(
        50_000,
        ArenaMode::Adaptive,
        Some(LimiterConfig::default()),
    ))
    .run();
    assert!(r.switches > 0, "hot tenant never triggered a switch");
    assert!(r.stampedes().is_empty(), "limited run must pass the oracle");
    assert!(r.aborts > 0, "deadline tenant never aborted");
    assert!(
        r.abort_rate() < 0.5,
        "abort rate {:.2} implausibly high",
        r.abort_rate()
    );
}

#[test]
fn unlimited_control_run_fails_the_oracle() {
    // Same workload, limiter off: the oracle (checked against the
    // default limiter parameters) must reject the resulting log,
    // proving both that the stampede is real and that the checker has
    // teeth on executor-produced logs.
    let r = ServiceSim::new(mixed_config(50_000, ArenaMode::Adaptive, None)).run();
    assert!(r.switches > 0);
    let v = lock_service::check_no_stampede(&r.switch_log, LimiterConfig::default()).unwrap();
    assert!(!v.is_empty(), "unthrottled run should stampede somewhere");
}

#[test]
fn at_rest_memory_stays_bounded_as_arena_grows() {
    let small = ServiceSim::new(mixed_config(
        50_000,
        ArenaMode::Adaptive,
        Some(LimiterConfig::default()),
    ))
    .run();
    let big = ServiceSim::new(mixed_config(
        500_000,
        ArenaMode::Adaptive,
        Some(LimiterConfig::default()),
    ))
    .run();
    for r in [&small, &big] {
        assert!(
            r.footprint.at_rest_bytes_per_object() <= 8.0,
            "at-rest bytes/object {} exceeds budget",
            r.footprint.at_rest_bytes_per_object()
        );
        // The side table tracks the working set, not the arena.
        assert!(r.footprint.hot_objects < r.objects / 10);
    }
    // Growing the arena 10× must not grow at-rest bytes/object at all
    // (fixed shard state amortises; slots are constant per object).
    assert!(
        big.footprint.at_rest_bytes_per_object()
            <= small.footprint.at_rest_bytes_per_object() + 0.01
    );
}

#[test]
fn no_grant_completes_past_its_deadline() {
    // One scorching object, many clients, tight deadline: handoffs
    // regularly collide with deadlines. A waiter is aborted unless the
    // grant *completes* (handoff cost included) before its deadline,
    // so in the static modes (no switch surcharge) every recorded
    // acquire latency must fall strictly below the deadline.
    for mode in [ArenaMode::StaticTts, ArenaMode::StaticQueue] {
        let mut cfg = ServiceConfig::new(16, 4, 99);
        cfg.mode = mode;
        cfg.horizon_ns = 500_000;
        cfg.tenants.push(TenantConfig {
            first_object: 0,
            objects: 1,
            theta: 0.0,
            load: Load::Closed {
                clients: 32,
                think_ns: 100,
            },
            hold_ns: 400,
            deadline_ns: 2_000,
        });
        let r = ServiceSim::new(cfg).run();
        assert!(r.aborts > 0, "deadline never bit in {mode:?}");
        assert!(r.acquires > 0, "nothing was ever granted in {mode:?}");
        assert!(
            r.wait.max < 2_000,
            "a {mode:?} grant completed past its deadline: {} ns",
            r.wait.max
        );
    }
}

#[test]
fn static_modes_never_switch() {
    for mode in [ArenaMode::StaticTts, ArenaMode::StaticQueue] {
        let r = ServiceSim::new(mixed_config(20_000, mode, Some(LimiterConfig::default()))).run();
        assert_eq!(r.switches, 0);
        assert_eq!(r.switch_denials, 0);
        assert!(r.acquires > 0);
    }
}
