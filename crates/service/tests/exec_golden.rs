//! Golden digests for the virtual-time executor: five small configs
//! whose every counted output is pinned bit-exact. The first four were
//! captured before the side-table refactor of `exec.rs` (side entries
//! only for contended objects, one-word heap key); the reservoir digest
//! and the `sparse` config were captured on the heap event loop before
//! it moved to the calendar queue, so any silent change to event order,
//! handoff choice, abort accounting, the retained latency samples or
//! the footprint high-water mark shows up here as a mismatch. `sparse`
//! schedules most events further ahead than the queue's window, so its
//! overflow-spill path is pinned too. CI runs this file in debug and in
//! release: the executor's debug-only invariant checks must not perturb
//! the history.

use lock_service::{
    ArenaMode, ArrivalCurve, LimiterConfig, Load, ServiceConfig, ServiceReport, ServiceSim,
    TenantConfig,
};

const FIELDS: [&str; 13] = [
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
    "wait.raw digest",
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

fn observe(r: &ServiceReport) -> [u64; 13] {
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
    // The retained reservoir, in order: which samples survive depends
    // on the order the grants were recorded in.
    let raw = r
        .wait
        .raw
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &x| fnv(h, x));
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
        raw,
    ]
}

#[track_caller]
fn assert_golden(name: &str, cfg: ServiceConfig, want: [u64; 13]) {
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

/// Mostly idle: a closed tenant that thinks 20 µs between requests
/// and a diurnal open tenant whose trough spaces arrivals ≈ 20 µs
/// apart, so most events are scheduled further ahead than the event
/// queue's 4096 ns window and reach their bucket through the overflow
/// heap. The peak (20 M arrivals/s on 64 objects, overlapping the
/// closed tenant's 8) still contends, aborts and switches, and the
/// 1 024-sample reservoir is small enough to start evicting.
fn sparse() -> ServiceConfig {
    let mut cfg = ServiceConfig::new(1_024, 4, 0x5A55_E000);
    cfg.horizon_ns = 2_000_000;
    cfg.reservoir = 1_024;
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: 8,
        theta: 0.9,
        load: Load::Closed {
            clients: 6,
            think_ns: 20_000,
        },
        hold_ns: 400,
        deadline_ns: 5_000,
    });
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: 64,
        theta: 0.9,
        load: Load::Open {
            curve: ArrivalCurve::Diurnal {
                low_per_sec: 5e4,
                high_per_sec: 2e7,
                period_ns: 1_000_000,
            },
        },
        hold_ns: 200,
        deadline_ns: 0,
    });
    cfg
}

// Field order is `FIELDS`.
#[rustfmt::skip]
const ADAPTIVE: [u64; 13] = [
    9_851, 452, 56, 28, 402_287, 4_613_179,
    2_999, 15, 2_993, 16, 4_544, 12_334_599_346_080_932_841,
    7_086_204_124_651_054_744,
];
#[rustfmt::skip]
const STATIC_TTS: [u64; 13] = [
    8_086, 1_487, 0, 0, 401_689, 1_232_774,
    2_974, 15, 2_689, 15, 3_000, 14_695_981_039_346_656_037,
    8_156_083_436_085_086_900,
];
#[rustfmt::skip]
const STATIC_QUEUE: [u64; 13] = [
    10_058, 476, 0, 0, 401_650, 4_468_795,
    2_999, 28, 2_996, 14, 2_800, 14_695_981_039_346_656_037,
    10_652_927_500_497_028_297,
];
#[rustfmt::skip]
const NO_LIMITER: [u64; 13] = [
    9_825, 439, 79, 0, 401_997, 4_667_091,
    2_999, 15, 2_994, 16, 5_096, 17_567_111_011_936_093_450,
    15_608_349_821_909_597_776,
];
#[rustfmt::skip]
const SPARSE: [u64; 13] = [
    20_616, 62, 86, 49, 1_997_920, 60_819_106,
    86_285, 15, 75_190, 13, 4_664, 16_580_024_136_598_828_299,
    7_881_948_833_013_675_806,
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

#[test]
fn sparse_events_spill_from_the_overflow_heap() {
    assert_golden("sparse", sparse(), SPARSE);
}
