//! The native lock service's single-thread path costs: one uncontended
//! acquire + guard drop per path through [`NativeService::acquire`],
//! the bare arena RMW pair beneath them, and the host reactive lock's
//! overhead and protocol-change round trip. The `experiments` bench
//! writes the table to `BENCH_service_native.json` as `path_cost`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lock_service::{slot, ArenaMode, NativeService, ObjectArena};
use reactive_api::lock::Tuning;

use crate::scenario::{FlipFlop, Scale, Stay};

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
    /// switches protocol (under a policy that always switches) over one
    /// that does not (under one that never does).
    pub switch_round_trip_ns: f64,
}

/// Objects each path-cost arm cycles through: enough that the slab
/// table spans several chunks, few enough to stay cache-resident next
/// to the single-object lock probes.
const PATH_OBJECTS: u64 = 256;
/// Solo acquisitions a queue-born inflated lock serves in queue mode
/// before its empty-queue monitor proposes TTS: the host tuning's
/// `Tuning::HOST.empty_queue_limit`.
const QUEUE_MODE_GRANTS: u64 = Tuning::HOST.empty_queue_limit;

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
