//! `native_cold` and `native_hot`: the native lock service on exactly
//! two real threads, each replaying a pre-generated request stream.
//!
//! One `service.native` layer, two paths through it:
//!
//! * **cold** — Zipf 0.2 over all 10⁶ objects, no hold, no deadline. Two
//!   threads almost never meet on an object, so every acquire is the flat
//!   slot-word CAS; the `native` crate, the kernel and the slab are
//!   bypassed. (Almost: in 2·10⁸ acquires a handful of true collisions
//!   build a streak, so `service.native.inflations` reads 0 to 10.)
//! * **hot** — Zipf 0.95 over 8 objects, 200 ns hold, 50 ms deadline.
//!   The threads collide constantly: inflation onto
//!   `reactive_native::ReactiveLock`, kernel switches, the limiter,
//!   deflation and the slab free list all run.
//!
//! A gain on the cold path that costs the hot path must show here.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use reactive_sync::service::{LimiterConfig, NativeService};

use super::{
    over, repeat, trace_overhead, traced, untraced, Outcome, RunOpts, LOAD_THREADS, MIN_REPS,
};
use crate::gen::{build_stream, Request, ZipfTable};
use crate::stats::{median, percentile_grouped, Summary};
use crate::trace::Tracer;

const OBJECTS: u64 = 1_000_000;
const SHARDS: u32 = 16;
/// Requests per thread; a thread that reaches the end starts over.
const STREAM_LEN: usize = 1 << 20;
/// One acquire in this many is timed (call → grant) in every run: two
/// clock reads cost about as much as the cold path itself, so timing
/// every acquire would halve the rate being measured.
const LATENCY_EVERY: u64 = 16;
/// One operation in this many gets an acquire span and a release span
/// in a traced repetition, up to [`SPAN_CAP`] per thread: the cold path
/// runs 10⁷ operations a second, and a span file of half a gigabyte
/// explains no more than one of a megabyte.
const SPAN_EVERY: u64 = 64;
const SPAN_CAP: usize = 4_096;

/// Which path through the service the stream drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// All objects, near-uniform: the flat fast path.
    Cold,
    /// Eight objects, skewed, held 200 ns: the inflated path.
    Hot,
}

struct Shape {
    /// Requests each thread makes in one repetition: about 2 s here. A
    /// fixed amount of work, not of time, so that what grows with work
    /// done (latency samples, the service's switch log) is the same on a
    /// fast and on a slow host, and `peak_rss_mb` with it.
    ops_per_thread: u64,
    /// Objects the stream touches (ranks scattered over the arena).
    hot_set: usize,
    theta: f64,
    hold_ns: u32,
    deadline: Option<Duration>,
}

impl Variant {
    fn shape(self) -> Shape {
        match self {
            Variant::Cold => Shape {
                ops_per_thread: 24 << 20,
                hot_set: OBJECTS as usize,
                theta: 0.2,
                hold_ns: 0,
                deadline: None,
            },
            Variant::Hot => Shape {
                ops_per_thread: 2 << 20,
                hot_set: 8,
                theta: 0.95,
                hold_ns: 200,
                deadline: Some(Duration::from_millis(50)),
            },
        }
    }
}

/// Everything built before the timed region.
struct Rig {
    service: NativeService,
    streams: Vec<Vec<Request>>,
    /// Overlap detector: `owner[object]` is the holder's thread id + 1
    /// while the object is held, else 0.
    owner: Vec<AtomicU8>,
}

fn build(variant: Variant, opts: &RunOpts, tr: &mut Tracer) -> Rig {
    let shape = variant.shape();
    let zipf = ZipfTable::new(shape.hot_set, shape.theta);
    let len = opts.scaled(STREAM_LEN as u64, 1 << 12) as usize;
    let streams = (0..LOAD_THREADS as u64)
        .map(|t| {
            build_stream(
                len,
                &zipf,
                OBJECTS,
                shape.hold_ns,
                opts.seed.wrapping_mul(LOAD_THREADS as u64).wrapping_add(t),
            )
        })
        .collect();
    let service = tr.span("service.native.new", |_| {
        NativeService::new(OBJECTS, SHARDS, Some(LimiterConfig::default()))
    });
    Rig {
        service,
        streams,
        owner: (0..OBJECTS).map(|_| AtomicU8::new(0)).collect(),
    }
}

/// What one thread brings home from a repetition.
#[derive(Default)]
struct Tally {
    grants: u64,
    aborts: u64,
    consumed: u64,
    elapsed_s: f64,
    /// Sampled call → grant times, ns.
    latency: Vec<u64>,
    /// Traced repetitions: sampled `(start, end)` against the tracer's
    /// clock.
    acquire_spans: Vec<(u64, u64)>,
    release_spans: Vec<(u64, u64)>,
}

fn spin_for(ns: u32) {
    let t0 = Instant::now();
    let hold = Duration::from_nanos(u64::from(ns));
    while t0.elapsed() < hold {
        std::hint::spin_loop();
    }
}

fn worker(
    rig: &Rig,
    id: usize,
    deadline: Option<Duration>,
    ops: u64,
    (start, stop): (&Barrier, &AtomicBool),
    overlaps: &AtomicU64,
    spans: Option<Instant>,
) -> Tally {
    let stream = &rig.streams[id];
    let me = id as u8 + 1;
    let mut t = Tally {
        latency: Vec::with_capacity((ops / LATENCY_EVERY) as usize + 1),
        ..Tally::default()
    };
    crate::affinity::pin_current_thread(id);
    start.wait();
    let t0 = Instant::now();
    let mut n: u64 = 0;
    'run: loop {
        for req in stream {
            // order: Relaxed — `stop` carries no data; seeing it a few
            // requests late only lengthens the tail it exists to cut.
            if n == ops || (n.is_multiple_of(64) && stop.load(Ordering::Relaxed)) {
                break 'run;
            }
            let timed = n.is_multiple_of(LATENCY_EVERY);
            let spanned =
                spans.filter(|_| n.is_multiple_of(SPAN_EVERY) && t.acquire_spans.len() < SPAN_CAP);
            n += 1;
            let asked = (timed || spanned.is_some()).then(Instant::now);
            let guard = rig.service.acquire(u64::from(req.object), deadline);
            let granted = asked.map(|_| Instant::now());
            let Some(guard) = guard else {
                t.aborts += 1;
                continue;
            };
            if let (Some(a), Some(g)) = (asked, granted) {
                if timed {
                    t.latency.push((g - a).as_nanos() as u64);
                }
                if let Some(epoch) = spanned {
                    t.acquire_spans
                        .push(((a - epoch).as_nanos() as u64, (g - epoch).as_nanos() as u64));
                }
            }
            // order: Relaxed — the lock under test orders the two holders;
            // a stale read here could only hide an overlap it allowed.
            let slot = &rig.owner[req.object as usize];
            if slot.swap(me, Ordering::Relaxed) != 0 {
                overlaps.fetch_add(1, Ordering::Relaxed);
            }
            if req.hold_ns > 0 {
                spin_for(req.hold_ns);
            }
            slot.store(0, Ordering::Relaxed);
            match spanned {
                Some(epoch) => {
                    let r0 = epoch.elapsed().as_nanos() as u64;
                    drop(guard);
                    t.release_spans
                        .push((r0, epoch.elapsed().as_nanos() as u64));
                }
                None => drop(guard),
            }
            t.grants += 1;
        }
    }
    // The first thread done ends the repetition for both: a thread left
    // running alone would measure an uncontended service.
    stop.store(true, Ordering::Relaxed);
    t.consumed = n;
    t.elapsed_s = t0.elapsed().as_secs_f64();
    t
}

/// One repetition, folded over its two threads. Only the percentiles of
/// the samples are kept: the cold path yields 10⁶ of them a second.
struct Rep {
    grants: u64,
    aborts: u64,
    lost: u64,
    wall_s: f64,
    /// Call → grant, ns: 50th, 99th, 99.9th percentile.
    acquire_p: [f64; 3],
    /// Guard drop, ns, 50th percentile (0 in an untraced repetition).
    release_p50: f64,
}

fn repetition(
    rig: &Rig,
    deadline: Option<Duration>,
    ops: u64,
    overlaps: &AtomicU64,
    tr: &mut Tracer,
) -> Rep {
    tr.span("service.native.load", |tr| {
        let spans = tr.active().then(|| tr.epoch());
        let (start, stop) = (Barrier::new(LOAD_THREADS), AtomicBool::new(false));
        let tallies: Vec<Tally> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..LOAD_THREADS)
                .map(|id| {
                    let gate = (&start, &stop);
                    s.spawn(move || worker(rig, id, deadline, ops, gate, overlaps, spans))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let parent = tr.current();
        let mut rep = Rep {
            grants: 0,
            aborts: 0,
            lost: 0,
            wall_s: 0.0,
            acquire_p: [0.0; 3],
            release_p50: 0.0,
        };
        let (mut latency, mut release) = (Vec::new(), Vec::new());
        for t in tallies {
            rep.grants += t.grants;
            rep.aborts += t.aborts;
            rep.lost += t.consumed - t.grants - t.aborts;
            rep.wall_s = rep.wall_s.max(t.elapsed_s);
            latency.extend_from_slice(&t.latency);
            release.extend(t.release_spans.iter().map(|&(a, b)| b - a));
            tr.add_samples("service.native.acquire", parent, t.acquire_spans);
            tr.add_samples("service.native.release", parent, t.release_spans);
        }
        latency.sort_unstable();
        rep.acquire_p = [50.0, 99.0, 99.9].map(|p| percentile_grouped(&latency, p));
        if !release.is_empty() {
            release.sort_unstable();
            rep.release_p50 = percentile_grouped(&release, 50.0);
        }
        rep
    })
}

/// Run the workload.
pub fn run(variant: Variant, opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let shape = variant.shape();
    let ops = opts.scaled(shape.ops_per_thread, 1 << 12);

    // The rig that is measured is built once more, inside a span when
    // the run is traced.
    tr.set(opts.trace, 0);
    let rig = build(variant, opts, tr);
    tr.set(false, 0);
    let overlaps = AtomicU64::new(0);
    // Warm-up: a short repetition, untimed, so pages are touched and the
    // hot objects have inflated once.
    repetition(&rig, shape.deadline, ops / 4, &overlaps, &mut Tracer::new());

    let (reps, setup_s) = repeat(
        opts,
        tr,
        MIN_REPS,
        || build(variant, opts, &mut Tracer::new()),
        |tr, _| repetition(&rig, shape.deadline, ops, &overlaps, tr),
    );

    let overlapped = overlaps.load(Ordering::Relaxed);
    out.failed += overlapped;
    out.check(overlapped == 0, || {
        format!("{overlapped} critical sections overlapped")
    });
    for r in reps.iter().map(|r| &r.value) {
        out.attempted += r.grants + r.aborts + r.lost;
        out.failed += r.aborts + r.lost;
        out.check(r.lost == 0, || {
            format!("{} requests neither granted nor aborted", r.lost)
        });
    }
    let inflations = rig.service.inflations();

    let timed = untraced(&reps);
    let grant_rate = over(&timed, |r| r.grants as f64 / r.wall_s);
    let p50 = over(&timed, |r| r.acquire_p[0]);
    let p99 = over(&timed, |r| r.acquire_p[1]);
    out.primary("acquires_per_s", grant_rate);
    out.primary(
        "requests_per_s",
        over(&timed, |r| (r.grants + r.aborts) as f64 / r.wall_s),
    );
    out.mirror("events_per_s", grant_rate);
    out.mirror("threaded_vs_serial", Summary::exact(1.0));
    out.mirror("sim_cycles", Summary::exact(1.0));
    out.mirror("reactive_vs_best_static", Summary::exact(1.0));
    out.primary("acquire_p50_ns", p50);
    out.primary("acquire_p99_ns", p99);
    // No virtual clock here: virtual time is host time.
    out.mirror("virtual_p50_ns", p50);
    out.mirror("virtual_p999_ns", p99);
    let footprint = rig.service.footprint();
    out.primary(
        "bytes_per_object",
        Summary::exact(footprint.total_bytes_per_object()),
    );
    out.finish(setup_s);

    if opts.trace {
        let all: Vec<&Rep> = reps.iter().map(|r| &r.value).collect();
        let grants: u64 = all.iter().map(|r| r.grants).sum();
        let deflations = rig.service.deflations();
        out.layer(
            "service.native.new_s",
            median(&tr.self_seconds_by_rep("service.native.new")),
        );
        out.layer(
            "service.native.acquire_p999_ns",
            over(&all, |r| r.acquire_p[2]).median,
        );
        out.layer(
            "service.native.release_p50_ns",
            over(&traced(&reps), |r| r.release_p50).median,
        );
        out.layer("service.native.inflations", inflations as f64);
        out.layer("service.native.deflations", deflations as f64);
        out.layer(
            "service.native.lock_switches",
            rig.service.lock_switches() as f64,
        );
        out.layer(
            "service.native.live_inflated",
            rig.service.live_inflated() as f64,
        );
        out.layer(
            "service.native.slab_entries",
            rig.service.slab_entries() as f64,
        );
        out.layer(
            "service.native.inflate_churn",
            deflations as f64 / grants.max(1) as f64,
        );
        out.layer("service.native.hot_bytes", footprint.hot_bytes as f64);
        out.layer(
            "trace_overhead",
            trace_overhead(&reps, |r| r.grants as f64 / r.wall_s),
        );
    }
    out
}
