//! Beyond the paper — the native lock service on real host threads:
//! the tail row and the deflation round trip.
//!
//! Unlike every other scenario family, these rows run *real threads on
//! the host* — wall-clock time, real preemption, cores-scaled. The
//! claims are therefore calibrated with far more headroom than the
//! deterministic virtual-time rows: they gate the *shape* of the result
//! (adaptive inflation beats a static-TTS pin at the tail; deflation
//! reclaims the slab) rather than exact numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lock_service::{
    run_native, ArenaMode, ArrivalCurve, LimiterConfig, Load, NativeReport, NativeRunConfig,
    NativeService, TenantConfig,
};

use super::{Outcome, Scale, Scenario};
use crate::claim::Claim;

/// Worker threads for the native rows: twice the cores (at least two),
/// so the run is *deliberately oversubscribed* on every host. The
/// pathologies these rows gate — a preempted flat-lock holder, a
/// waiter descheduled for a whole scheduling quantum, capture by
/// whichever thread happens to be running — only exist when threads
/// outnumber cores, and pinning the ratio keeps a 1-core dev box and
/// a 4-core CI runner in the same regime.
fn native_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).max(2)
}

pub(super) const TAIL: Scenario = Scenario {
    name: "service_native_tail",
    figure: "— (beyond the paper; the service tail row on real threads)",
    paper_says: "the adaptive arena's tail advantage survives the move from virtual \
                 time to real preempted threads: inflating hot objects to FIFO \
                 kernel-backed locks beats a static flat-TTS pin at the \
                 deadline-adjusted p999 (shed requests charged their full deadline) \
                 under mixed tenancy, because an unfair flat spin lock lets a \
                 zero-think captor starve its waiters to the deadline",
    claims: &[
        // The CI-gated native sanity claim: the hot tenant's adaptive
        // deadline-adjusted p999 beats its static-TTS one outright.
        // Under flat TTS the running captor starves whichever worker is
        // descheduled until the 50 ms deadline sheds it (charged in
        // full); once inflated, the kernel lock's FIFO queue grants
        // everyone at handoff scale (calibrated: adjusted p999
        // ~0.1-1.6 ms vs the 50 ms shed plateau, ratio <= 0.032 across
        // reps). Real-thread numbers are noisy, so the bound is
        // deliberately far looser than the measurements.
        Claim::BoundedRatio {
            num: "service_native/hot_adjusted_p999_ns",
            den: Some("service_native/static_tts_hot_adjusted_p999_ns"),
            min: 0.0,
            max: 0.9,
        },
        // The adaptation was real: hot objects actually inflated.
        Claim::BoundedRatio {
            num: "service_native/inflations",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        // The calm tenant's 60 µs deadline sheds almost nothing on the
        // adaptive arm.
        Claim::BoundedRatio {
            num: "service_native/abort_rate",
            den: None,
            min: 0.0,
            max: 0.05,
        },
        // The online stampede check stays clean under the default
        // limiter even with real racing threads committing switches.
        Claim::BoundedRatio {
            num: "service_native/tail_oracle_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
    ],
    run: tail,
};

/// One arm of the native tail comparison: a hot closed-loop tenant
/// monopolising a single object with zero think time and a *long*
/// hold — long enough that the lock is held for most of each worker's
/// loop, so every worker's next hot dispatch genuinely races the
/// others (the capture-effect regime where an unfair flat spin lock
/// starves whichever worker is descheduled for a whole scheduling
/// quantum, while the inflated FIFO lock's yield loop bounds the same
/// wait at handoff scale) — plus a calm open-loop tenant spread over
/// the rest of the arena with a short deadline (exercising the native
/// abort path).
///
/// The hot tenant's deadline is *generous* (50 ms, quanta-scale) and
/// exists for measurement honesty, not shedding: under flat TTS a
/// starved waiter can simply never win, and an acquire that never
/// completes leaves no latency sample — the worse the lock behaves,
/// the better its completed-only tail looks. The deadline forces every
/// starved request to eventually resolve (grant or shed), and the
/// driver charges each shed request its full deadline in the adjusted
/// histogram the claims gate on.
fn tail_arm(scale: Scale, mode: ArenaMode) -> NativeReport {
    let threads = native_threads();
    let mut cfg = NativeRunConfig::new(4_096, 16, 0xA11CE);
    cfg.mode = mode;
    cfg.limiter = Some(LimiterConfig::default());
    cfg.threads = threads;
    cfg.run_ns = scale.pick(1_500_000_000, 300_000_000);
    cfg.reservoir = scale.pick(65_536, 16_384);
    cfg.tenants.push(TenantConfig {
        first_object: 0,
        objects: 1,
        theta: 0.95,
        load: Load::Closed {
            clients: (2 * threads) as u32,
            think_ns: 0,
        },
        hold_ns: 30_000,
        deadline_ns: 50_000_000,
    });
    cfg.tenants.push(TenantConfig {
        first_object: 1,
        objects: 4_095,
        theta: 0.2,
        load: Load::Open {
            curve: ArrivalCurve::Constant {
                rate_per_sec: 20_000.0,
            },
        },
        hold_ns: 300,
        deadline_ns: 60_000,
    });
    run_native(&cfg)
}

fn tail(scale: Scale) -> Outcome {
    let ad = tail_arm(scale, ArenaMode::Adaptive);
    let tts = tail_arm(scale, ArenaMode::StaticTts);
    let mut o = Outcome {
        sweep: "",
        headline: format!(
            "{} host threads, wall clock: adaptive hot-tenant adjusted p999 {} ns \
             ({} grants, {} shed, {} inflations) vs static-TTS flat-spin adjusted \
             p999 {} ns ({} grants, {} shed at their 50 ms deadline); adaptive \
             merged p50/p99/p999 = {}/{}/{} ns, abort rate {:.4}; limiter oracle \
             clean",
            ad.threads,
            ad.tenant_adjusted_p999_ns(0),
            ad.tenant_wait[0].count,
            ad.aborts_by_tenant[0],
            ad.inflations,
            tts.tenant_adjusted_p999_ns(0),
            tts.tenant_wait[0].count,
            tts.aborts_by_tenant[0],
            ad.p50_ns(),
            ad.p99_ns(),
            ad.p999_ns(),
            ad.abort_rate(),
        ),
        ..Outcome::default()
    };
    o.scalar("service_native/p50_ns", ad.p50_ns() as f64);
    o.scalar("service_native/p99_ns", ad.p99_ns() as f64);
    o.scalar("service_native/p999_ns", ad.p999_ns() as f64);
    // The gated comparison runs on the *hot tenant's own
    // deadline-adjusted* histogram, for two reasons. First, the merged
    // histogram folds in the open tenant's scheduled-arrival backlog — a
    // measure of CPU saturation that drowns the policy signal on small
    // hosts. Second, a completed-only percentile is survivorship-biased:
    // flat TTS starves a descheduled waiter so thoroughly that its
    // acquire never finishes and never lands a sample, so the *worse*
    // the flat lock behaves the *better* its completed tail looks. The
    // adjusted histogram charges every shed request its full 50 ms
    // deadline, which is a lower bound on the truth.
    o.scalar(
        "service_native/hot_adjusted_p999_ns",
        ad.tenant_adjusted_p999_ns(0) as f64,
    );
    o.scalar(
        "service_native/static_tts_hot_adjusted_p999_ns",
        tts.tenant_adjusted_p999_ns(0) as f64,
    );
    o.scalar("service_native/hot_grants", ad.tenant_wait[0].count as f64);
    o.scalar(
        "service_native/static_tts_hot_grants",
        tts.tenant_wait[0].count as f64,
    );
    o.scalar(
        "service_native/static_tts_hot_shed",
        tts.aborts_by_tenant[0] as f64,
    );
    o.scalar("service_native/inflations", ad.inflations as f64);
    o.scalar("service_native/abort_rate", ad.abort_rate());
    o.scalar("service_native/switches_per_sec", ad.switches_per_sec());
    o.scalar(
        "service_native/tail_oracle_violations",
        ad.stampedes.len() as f64,
    );
    o
}

pub(super) const DEFLATION: Scenario = Scenario {
    name: "service_native_deflation",
    figure: "— (beyond the paper; lock deflation reclaims the hot set)",
    paper_says: "a durably calm inflated object demotes back to a flat slot word: \
                 the slab entry is reclaimed (footprint shrinks when a hot phase \
                 cools), a later storm re-inflates through the free list without \
                 growing the slab, and mutual exclusion holds across both \
                 promotion boundaries",
    claims: &[
        // The round trip really happened: inflate, deflate, and inflate
        // again (>= 2 cumulative inflations).
        Claim::BoundedRatio {
            num: "service_native/roundtrip_inflations",
            den: None,
            min: 2.0,
            max: f64::INFINITY,
        },
        Claim::BoundedRatio {
            num: "service_native/deflations",
            den: None,
            min: 1.0,
            max: f64::INFINITY,
        },
        // Deflation fully drained the live hot set…
        Claim::BoundedRatio {
            num: "service_native/live_after_calm",
            den: None,
            min: 0.0,
            max: 0.0,
        },
        // …and gave the bytes back.
        Claim::BoundedRatio {
            num: "service_native/footprint_ratio",
            den: None,
            min: 0.0,
            max: 0.95,
        },
        // Re-inflation reused the retired slab entry instead of growing
        // the slab.
        Claim::BoundedRatio {
            num: "service_native/slab_entries",
            den: None,
            min: 1.0,
            max: 1.0,
        },
        // The in-CS overlap counter saw exclusive holds across the flat
        // path, the inflated path, and both transitions.
        Claim::BoundedRatio {
            num: "service_native/mutex_violations",
            den: None,
            min: 0.0,
            max: 0.0,
        },
    ],
    run: deflation,
};

/// Drive one object through hot → calm → hot again with real racing
/// threads, checking mutual exclusion throughout: the inflate →
/// deflate → re-inflate round trip.
fn deflation(scale: Scale) -> Outcome {
    let threads = native_threads();
    let iters = scale.pick(6_000, 1_500);
    let svc = Arc::new(NativeService::new(64, 4, Some(LimiterConfig::default())));
    let in_cs = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));

    let storm = |until_inflations: u64| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let in_cs = Arc::clone(&in_cs);
                let violations = Arc::clone(&violations);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let g = svc.acquire(0, None).expect("no deadline, must acquire");
                        // order: SeqCst — cross-thread overlap counter.
                        if in_cs.fetch_add(1, Ordering::SeqCst) != 0 {
                            // order: SeqCst — see above.
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        // Yield mid-hold so waiters run (and register)
                        // during the hold even on one core.
                        std::thread::yield_now();
                        // order: SeqCst — see above.
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                        if svc.inflations() >= until_inflations {
                            break;
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("storm thread panicked");
        }
    };

    // Phase 1: contention inflates.
    storm(1);
    let hot_bytes_storm = svc.footprint().hot_bytes;

    // Phase 2: polite solo traffic — the kernel settles back to TTS and
    // the calm streak walks the object down to a flat word.
    for _ in 0..400 {
        drop(svc.acquire(0, None).expect("uncontended"));
        if svc.deflations() >= 1 {
            break;
        }
    }
    let live_after_calm = svc.live_inflated();
    let hot_bytes_calm = svc.footprint().hot_bytes;

    // Phase 3: a second storm re-inflates through the free list.
    storm(svc.inflations() + 1);

    let (inflations, deflations, slab_entries) =
        (svc.inflations(), svc.deflations(), svc.slab_entries());
    // order: SeqCst — final read after joins.
    let violations = violations.load(Ordering::SeqCst);
    let footprint_ratio = hot_bytes_calm as f64 / hot_bytes_storm as f64;
    let mut o = Outcome {
        sweep: "",
        headline: format!(
            "storm -> calm -> storm on one object: {inflations} inflations / {deflations} \
             deflations, {live_after_calm} live after calm, hot footprint {hot_bytes_storm} \
             -> {hot_bytes_calm} bytes ({footprint_ratio:.2}x), slab holds {slab_entries} \
             entry after re-inflation; {violations} mutual-exclusion violations"
        ),
        ..Outcome::default()
    };
    o.scalar("service_native/roundtrip_inflations", inflations as f64);
    o.scalar("service_native/deflations", deflations as f64);
    o.scalar("service_native/live_after_calm", live_after_calm as f64);
    o.scalar("service_native/footprint_ratio", footprint_ratio);
    o.scalar("service_native/slab_entries", slab_entries as f64);
    o.scalar("service_native/mutex_violations", violations as f64);
    o
}
