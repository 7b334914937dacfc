//! Golden digests for the virtual-time executor: four small configs
//! whose every counted output is pinned bit-exact. Captured before the
//! side-table refactor of `exec.rs` (side entries only for contended
//! objects, one-word heap key), so any silent change to event order,
//! handoff choice, abort accounting or the footprint high-water mark
//! shows up here as a mismatch. CI runs this file in debug and in
//! release: the executor's debug-only invariant checks must not perturb
//! the history.

use lock_service::{
    ArenaMode, ArrivalCurve, LimiterConfig, Load, ServiceConfig, ServiceReport, ServiceSim,
    TenantConfig,
};

const FIELDS: [&str; 12] = [
    "acquires",
    "aborts",
    "switches",
    "switch_denials",
    "end_ns",
    "wait.sum",
    "wait.max",
    "p50",
    "p999",
    "max_active",
    "footprint.hot_bytes",
    "switch_log digest",
];

/// FNV-1a over a stream of u64s.
fn fnv(acc: u64, x: u64) -> u64 {
    let mut h = acc;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn observe(r: &ServiceReport) -> [u64; 12] {
    let mut log = 0xcbf2_9ce4_8422_2325;
    for s in &r.switch_log {
        for x in [
            s.time_ns,
            u64::from(s.shard),
            s.object,
            u64::from(s.from),
            u64::from(s.to),
        ] {
            log = fnv(log, x);
        }
    }
    [
        r.acquires,
        r.aborts,
        r.switches,
        r.switch_denials,
        r.end_ns,
        r.wait.sum,
        r.wait.max,
        r.p50_ns(),
        r.p999_ns(),
        r.max_active,
        r.footprint.hot_bytes,
        log,
    ]
}

#[track_caller]
fn assert_golden(name: &str, cfg: ServiceConfig, want: [u64; 12]) {
    let got = observe(&ServiceSim::new(cfg).run());
    for (field, (g, w)) in FIELDS.iter().zip(got.iter().zip(&want)) {
        assert_eq!(g, w, "{name}: {field} moved (full observation: {got:?})");
    }
}

/// A hot closed-loop tenant whose deadline bites plus a calm open-loop
/// tenant that mostly takes the uncontended path.
fn mixed(mode: ArenaMode, limiter: Option<LimiterConfig>) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(4_096, 8, 0x5EED_601D);
    cfg.mode = mode;
    cfg.limiter = limiter;
    cfg.horizon_ns = 400_000;
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: 64,
        theta: 0.95,
        load: Load::Closed {
            clients: 24,
            think_ns: 150,
        },
        hold_ns: 250,
        deadline_ns: 3_000,
    });
    cfg.tenants.push(TenantConfig {
        first_object: 64,
        objects: 4_032,
        theta: 0.2,
        load: Load::Open {
            curve: ArrivalCurve::Burst {
                base_per_sec: 1e6,
                spike_per_sec: 8e6,
                duty_ns: 20_000,
                period_ns: 100_000,
            },
        },
        hold_ns: 100,
        deadline_ns: 0,
    });
    cfg
}

// Field order is `FIELDS`.
#[rustfmt::skip]
const ADAPTIVE: [u64; 12] = [
    9_851, 452, 56, 28, 402_287, 4_613_179,
    2_999, 15, 2_993, 16, 4_544, 12_334_599_346_080_932_841,
];
#[rustfmt::skip]
const STATIC_TTS: [u64; 12] = [
    8_086, 1_487, 0, 0, 401_689, 1_232_774,
    2_974, 15, 2_689, 15, 3_000, 14_695_981_039_346_656_037,
];
#[rustfmt::skip]
const STATIC_QUEUE: [u64; 12] = [
    10_058, 476, 0, 0, 401_650, 4_468_795,
    2_999, 28, 2_996, 14, 2_800, 14_695_981_039_346_656_037,
];
#[rustfmt::skip]
const NO_LIMITER: [u64; 12] = [
    9_825, 439, 79, 0, 401_997, 4_667_091,
    2_999, 15, 2_994, 16, 5_096, 17_567_111_011_936_093_450,
];

#[test]
fn adaptive_mixed_tenants_with_aborting_deadline() {
    assert_golden(
        "adaptive",
        mixed(ArenaMode::Adaptive, Some(LimiterConfig::default())),
        ADAPTIVE,
    );
}

#[test]
fn static_tts_lifo_handoff_and_per_waiter_cost() {
    assert_golden(
        "static_tts",
        mixed(ArenaMode::StaticTts, Some(LimiterConfig::default())),
        STATIC_TTS,
    );
}

#[test]
fn static_queue_fifo_handoff() {
    assert_golden(
        "static_queue",
        mixed(ArenaMode::StaticQueue, Some(LimiterConfig::default())),
        STATIC_QUEUE,
    );
}

#[test]
fn adaptive_without_limiter() {
    assert_golden("no_limiter", mixed(ArenaMode::Adaptive, None), NO_LIMITER);
}
