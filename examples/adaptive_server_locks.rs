//! A server's lock fleet in one screen: the multi-tenant lock service
//! hosts 100,000 adaptive objects in a packed arena and drives them
//! with two tenants — a latency-budgeted closed-loop tenant hammering
//! a Zipf-skewed hot set, and a bursty open-loop tenant whose spikes
//! try to stampede every hot object into a protocol switch at once.
//!
//! The demo runs the same workload three ways (adaptive, always-TTS,
//! always-queue) and prints what the CI bench gates on: tail latency,
//! abort rate, switch rate under the per-shard limiter, bytes/object
//! at rest, and the offline no-stampede oracle's verdict.
//!
//! Run with: `cargo run --release --example adaptive_server_locks`

use reactive_sync::service::{
    ArenaMode, ArrivalCurve, Load, ServiceConfig, ServiceReport, ServiceSim, TenantConfig,
};

const OBJECTS: u64 = 100_000;

fn config(mode: ArenaMode) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(OBJECTS, 16, 0xADA97);
    cfg.horizon_ns = 2_000_000; // 2 ms of virtual time
    cfg.mode = mode;
    // Tenant A: 32 request handlers in a closed loop over a Zipf-skewed
    // table (a few keys absorb most traffic), each request carrying a
    // 60 µs deadline — stuck waiters abort (think: answer 503).
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: OBJECTS,
        theta: 0.95,
        load: Load::Closed {
            clients: 32,
            think_ns: 300,
        },
        hold_ns: 250,
        deadline_ns: 60_000,
    });
    // Tenant B: open-loop background traffic that spikes 10x for 50 µs
    // out of every 200 µs across a small hot range.
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: 512,
        theta: 0.0,
        load: Load::Open {
            curve: ArrivalCurve::Burst {
                base_per_sec: 2_000_000.0,
                spike_per_sec: 20_000_000.0,
                duty_ns: 50_000,
                period_ns: 200_000,
            },
        },
        hold_ns: 100,
        deadline_ns: 0,
    });
    cfg
}

fn row(label: &str, r: &ServiceReport) {
    println!(
        "{label:>9} | p50 {:>5} ns | p99 {:>6} ns | p999 {:>6} ns | \
         aborts {:>5.2}% | switches {:>4} (+{} denied)",
        r.p50_ns(),
        r.p99_ns(),
        r.p999_ns(),
        100.0 * r.abort_rate(),
        r.switches,
        r.switch_denials,
    );
}

fn main() {
    let adaptive = ServiceSim::new(config(ArenaMode::Adaptive)).run();
    let tts = ServiceSim::new(config(ArenaMode::StaticTts)).run();
    let queue = ServiceSim::new(config(ArenaMode::StaticQueue)).run();

    println!("{OBJECTS} objects, 2 tenants, 2 ms virtual time\n");
    row("adaptive", &adaptive);
    row("all-TTS", &tts);
    row("all-queue", &queue);

    let fp = &adaptive.footprint;
    println!(
        "\narena at rest: {:.2} bytes/object ({} of {} objects ever went hot)",
        fp.at_rest_bytes_per_object(),
        fp.hot_objects,
        fp.objects,
    );
    let stampedes = adaptive.stampedes();
    println!(
        "no-stampede oracle over {} logged switches: {}",
        adaptive.switch_log.len(),
        if stampedes.is_empty() {
            "clean".to_string()
        } else {
            format!("{} window violations", stampedes.len())
        },
    );
    assert!(stampedes.is_empty(), "limiter let a stampede through");
}
