//! Workload glue for the native lock-service scenarios: canonical
//! [`NativeRunConfig`]s behind the `service_native_*` rows of
//! `EXPERIMENTS.md`, so `BENCH_service_native.json` and the CI claim
//! suite measure exactly the same runs.
//!
//! Unlike every other scenario family, these rows run *real threads on
//! the host* — wall-clock time, real preemption, cores-scaled. The
//! claims are therefore calibrated with far more headroom than the
//! deterministic virtual-time rows: they gate the *shape* of the result
//! (adaptive inflation beats a static-TTS pin at the tail; deflation
//! reclaims the slab) rather than exact numbers.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lock_service::{
    run_native, slot, ArenaMode, ArrivalCurve, LimiterConfig, Load, NativeReport, NativeRunConfig,
    NativeService, ObjectArena, TenantConfig,
};

use crate::experiments::{FlipFlop, Stay};
use crate::scenario::Scale;

/// Worker threads for the native rows: twice the cores (at least two),
/// so the run is *deliberately oversubscribed* on every host. The
/// pathologies these rows gate — a preempted flat-lock holder, a
/// waiter descheduled for a whole scheduling quantum, capture by
/// whichever thread happens to be running — only exist when threads
/// outnumber cores, and pinning the ratio keeps a 1-core dev box and
/// a 4-core CI runner in the same regime.
pub fn native_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).max(2)
}

/// The native mixed-tenancy workload behind the tail row: a hot
/// closed-loop tenant monopolising a single object with zero think
/// time and a *long* hold — long enough that the lock is held for
/// most of each worker's loop, so every worker's next hot dispatch
/// genuinely races the others (the capture-effect regime where an
/// unfair flat spin lock starves whichever worker is descheduled for
/// a whole scheduling quantum, while the inflated FIFO lock's yield
/// loop bounds the same wait at handoff scale) — plus a calm
/// open-loop tenant spread over the rest of the arena with a short
/// deadline (exercising the native abort path).
///
/// The hot tenant's deadline is *generous* (50 ms, quanta-scale) and
/// exists for measurement honesty, not shedding: under flat TTS a
/// starved waiter can simply never win, and an acquire that never
/// completes leaves no latency sample — the worse the lock behaves,
/// the better its completed-only tail looks. The deadline forces
/// every starved request to eventually resolve (grant or shed), and
/// the driver charges each shed request its full deadline in the
/// adjusted histogram the claims gate on.
pub fn tail_config(scale: Scale, mode: ArenaMode) -> NativeRunConfig {
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
    cfg
}

/// Run one arm of the native tail comparison.
pub fn run_tail(scale: Scale, mode: ArenaMode) -> NativeReport {
    run_native(&tail_config(scale, mode))
}

/// What the three-phase deflation driver measured.
#[derive(Debug)]
pub struct DeflationOutcome {
    /// Cumulative inflations after the second storm (>= 2 proves
    /// re-inflation).
    pub inflations: u64,
    /// Cumulative deflations (>= 1 proves the demotion path ran).
    pub deflations: u64,
    /// Live inflated locks right after the calm phase (0 proves the
    /// hot set was fully reclaimed).
    pub live_after_calm: u64,
    /// Hot-side footprint bytes after the first storm.
    pub hot_bytes_storm: u64,
    /// Hot-side footprint bytes after the calm phase — strictly below
    /// [`Self::hot_bytes_storm`] is the "footprint shrinks when a hot
    /// phase cools" claim.
    pub hot_bytes_calm: u64,
    /// Physical slab entries after the second storm; staying at the
    /// first storm's peak proves free-list reuse.
    pub slab_entries: u64,
    /// Mutual-exclusion overlaps observed by the in-CS counter (must
    /// be 0 across both promotion boundaries).
    pub violations: u64,
}

/// Drive one object through hot → calm → hot again with real racing
/// threads, checking mutual exclusion throughout: the inflate →
/// deflate → re-inflate round trip behind the deflation row.
pub fn run_deflation(scale: Scale) -> DeflationOutcome {
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

    // Phase 2: polite solo traffic — the kernel settles back to TTS
    // and the calm streak walks the object down to a flat word.
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

    DeflationOutcome {
        inflations: svc.inflations(),
        deflations: svc.deflations(),
        live_after_calm,
        hot_bytes_storm,
        hot_bytes_calm,
        slab_entries: svc.slab_entries(),
        // order: SeqCst — final read after joins.
        violations: violations.load(Ordering::SeqCst),
    }
}

/// Which way through [`NativeService::acquire`] a path-cost arm takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// The slot-word CAS; nothing inflates.
    Flat,
    /// An inflated lock whose kernel has settled into its TTS protocol.
    InflatedTts,
    /// An inflated lock still in the queue protocol it was born in.
    InflatedQueue,
}

impl Path {
    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Path::Flat => "flat",
            Path::InflatedTts => "inflated_tts",
            Path::InflatedQueue => "inflated_queue",
        }
    }
}

/// Single-thread cost of one uncontended acquire + guard drop per path,
/// without and with a (never-expiring) deadline, plus the lock-level
/// reactive-vs-TTS overhead: the per-stage cost table of the native
/// acquire (ROADMAP item 5's native side-note).
#[derive(Debug)]
pub struct PathCosts {
    /// `(path, ns without a deadline, ns with one)`.
    pub rows: Vec<(Path, f64, f64)>,
    /// The flat path's two atomic RMWs alone on a bare [`ObjectArena`]
    /// (`load_acquire` + acquiring `cas` + releasing `cas`), ns: the
    /// floor the `flat` row's bookkeeping is measured against.
    pub arena_rmw_pair_ns: f64,
    /// Uncontended `TtsLock` lock + unlock, ns.
    pub tts_ns: f64,
    /// Uncontended default `ReactiveLock` acquire + release, ns.
    pub reactive_ns: f64,
    /// The §3.5.5 protocol-change round trip of an uncontended
    /// `ReactiveLock`, ns: twice the extra cost of a release that
    /// switches protocol (under [`FlipFlop`]) over one that does not
    /// (under [`Stay`]).
    pub switch_round_trip_ns: f64,
}

/// Objects each path-cost arm cycles through: enough that the slab
/// table spans several chunks, few enough to stay cache-resident next
/// to the single-object lock probes.
const PATH_OBJECTS: u64 = 256;
/// Solo acquisitions a queue-born inflated lock serves in queue mode
/// before its empty-queue monitor proposes TTS (`EMPTY_QUEUE_LIMIT`).
const QUEUE_MODE_GRANTS: u64 = 16;

/// Mean ns of one acquire + release on `path`, over `services` fresh
/// arenas (a queue-mode lock only stays one for [`QUEUE_MODE_GRANTS`]
/// solo acquisitions, so the arm is rebuilt rather than run longer).
fn path_ns(path: Path, deadline: Option<Duration>, services: u32) -> f64 {
    let mode = match path {
        Path::Flat => ArenaMode::Adaptive,
        // Inflates at first release, never deflates.
        Path::InflatedTts | Path::InflatedQueue => ArenaMode::StaticQueue,
    };
    let sweep = |svc: &NativeService, rounds: u64| {
        for _ in 0..rounds {
            for object in 0..PATH_OBJECTS {
                drop(black_box(svc.acquire(object, deadline)));
            }
        }
    };
    let (mut ns, mut pairs) = (0u128, 0u64);
    for _ in 0..services {
        let svc = NativeService::with_mode(PATH_OBJECTS, 4, None, mode);
        // Untimed: the inflating first release, and for the TTS arm the
        // solo grants that walk every kernel down to TTS.
        let warm = match path {
            Path::Flat | Path::InflatedQueue => 1,
            Path::InflatedTts => QUEUE_MODE_GRANTS + 4,
        };
        let timed = QUEUE_MODE_GRANTS - 2;
        sweep(&svc, warm);
        let t0 = Instant::now();
        sweep(&svc, timed);
        ns += t0.elapsed().as_nanos();
        pairs += timed * PATH_OBJECTS;
        let switched = svc.lock_switches();
        match path {
            Path::Flat => assert_eq!(svc.inflations(), 0),
            Path::InflatedQueue => assert_eq!(switched, 0, "left queue mode while timed"),
            Path::InflatedTts => assert_eq!(switched, PATH_OBJECTS, "not all in TTS mode"),
        }
    }
    ns as f64 / pairs as f64
}

/// Mean ns of a bare `load_acquire` + `cas` + `cas` on an
/// [`ObjectArena`], swept over the flat arm's objects with its round
/// and arena counts: no guard, no streaks, no threshold.
fn arena_rmw_pair_ns(services: u32) -> f64 {
    let sweep = |arena: &ObjectArena, rounds: u64| {
        for _ in 0..rounds {
            for object in 0..PATH_OBJECTS {
                let word = arena.load_acquire(object);
                let held = word | slot::HELD;
                black_box(arena.cas(object, word, held)).expect("uncontended");
                black_box(arena.cas(object, held, word)).expect("uncontended");
            }
        }
    };
    let (mut ns, mut pairs) = (0u128, 0u64);
    for _ in 0..services {
        let arena = ObjectArena::new(PATH_OBJECTS, 4);
        sweep(&arena, 1);
        let timed = QUEUE_MODE_GRANTS - 2;
        let t0 = Instant::now();
        sweep(&arena, timed);
        ns += t0.elapsed().as_nanos();
        pairs += timed * PATH_OBJECTS;
    }
    ns as f64 / pairs as f64
}

/// Measure the path-cost table (about a second at full scale).
pub fn path_costs(scale: Scale) -> PathCosts {
    let services = scale.pick(400, 40);
    let deadline = Some(Duration::from_millis(50));
    let rows = [Path::Flat, Path::InflatedTts, Path::InflatedQueue]
        .into_iter()
        .map(|p| {
            (
                p,
                path_ns(p, None, services),
                path_ns(p, deadline, services),
            )
        })
        .collect();
    let ops = scale.pick(2_000_000, 200_000);
    let per_op = |f: &dyn Fn()| {
        let t0 = Instant::now();
        for _ in 0..ops {
            f();
        }
        t0.elapsed().as_nanos() as f64 / ops as f64
    };
    let tts = reactive_native::TtsLock::new();
    let reactive = reactive_native::ReactiveLock::new();
    let lock_ns = |lock: reactive_native::ReactiveLock| {
        per_op(&|| {
            let held = lock.acquire();
            lock.release(held);
        })
    };
    let builder = reactive_native::ReactiveLock::builder;
    PathCosts {
        rows,
        arena_rmw_pair_ns: arena_rmw_pair_ns(services),
        tts_ns: per_op(&|| {
            tts.lock();
            tts.unlock();
        }),
        reactive_ns: lock_ns(reactive),
        switch_round_trip_ns: 2.0
            * (lock_ns(builder().policy(FlipFlop).build())
                - lock_ns(builder().policy(Stay).build())),
    }
}
