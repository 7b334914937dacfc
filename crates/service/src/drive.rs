//! The native load driver: real threads replaying [`crate::workload`]
//! tenants against a [`NativeService`].
//!
//! The virtual-time executor ([`crate::exec`]) owns every deterministic
//! CI-gated claim; this driver answers the question it cannot — what do
//! the same tenant mixes cost on *real* cores, with real cache-line
//! bouncing, real preemption, and the kernel-backed inflated locks
//! actually spinning? Each worker thread replays a seeded slice of the
//! tenant set:
//!
//! * An **open-loop** tenant's Poisson process is partitioned by
//!   handing every worker a `rate/threads`-scaled copy of the arrival
//!   curve with a distinct seed ([`crate::workload::ArrivalCurve::scaled`]); the
//!   superposition of the thinned sub-processes reproduces the offered
//!   load exactly. Latency is measured from the *scheduled* arrival
//!   time, so a backlogged worker charges its queueing delay to the
//!   tail instead of silently omitting it (the coordinated-omission
//!   trap).
//! * A **closed-loop** tenant's clients are dealt round-robin across
//!   workers; each client issues, holds, thinks, repeats. Latency is
//!   measured from dispatch — a closed client that has not issued yet
//!   is not waiting.
//!
//! Worker samples are merged into one reservoir-sampled
//! [`WaitHistogram`], so native p50/p99/p999 land in the same shape of
//! report the simulator produces and the bench can print them side by
//! side. Samples are *also* split per tenant
//! ([`NativeReport::tenant_wait`]): the merged tail conflates a hot
//! tenant's true lock waits with a backlogged open tenant's queueing
//! delay (which measures CPU saturation, not lock policy), so claims
//! about a specific tenant's service gate on its own histogram.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use alewife_sim::stats::WaitHistogram;

use crate::arena::Footprint;
use crate::exec::ArenaMode;
use crate::limiter::LimiterConfig;
use crate::native::NativeService;
use crate::oracle::Stampede;
use crate::workload::{think_time, Arrivals, Load, TenantConfig, Zipf};

/// Spins between clock reads while waiting out a scheduled gap or a
/// hold; yields at this cadence so co-scheduled workers make progress
/// on small hosts.
const WAIT_YIELD_MASK: u32 = 63;

/// Full description of one native driver run.
#[derive(Clone, Debug)]
pub struct NativeRunConfig {
    /// Objects hosted by the arena.
    pub objects: u64,
    /// Arena shards (limiter granularity).
    pub shards: u32,
    /// Base seed; every (tenant, worker) stream derives its own.
    pub seed: u64,
    /// Protocol-selection regime (adaptive inflation/deflation or a
    /// static pin — the bench's control arms).
    pub mode: ArenaMode,
    /// Per-shard switch-rate limiter, if any.
    pub limiter: Option<LimiterConfig>,
    /// Worker threads; 0 picks `max(2, available_parallelism)`.
    pub threads: usize,
    /// Wall-clock run length in ns.
    pub run_ns: u64,
    /// Wait-histogram reservoir capacity.
    pub reservoir: usize,
    /// The tenants driving load.
    pub tenants: Vec<TenantConfig>,
}

impl NativeRunConfig {
    /// A config with the standard knob defaults; callers fill in
    /// tenants.
    pub fn new(objects: u64, shards: u32, seed: u64) -> Self {
        NativeRunConfig {
            objects,
            shards,
            seed,
            mode: ArenaMode::Adaptive,
            limiter: Some(LimiterConfig::default()),
            threads: 0,
            run_ns: 200_000_000,
            reservoir: 65_536,
            tenants: Vec::new(),
        }
    }

    /// The worker count a run will actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)
    }
}

/// Everything a native run measured.
#[derive(Debug)]
pub struct NativeReport {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock ns the run actually took.
    pub elapsed_ns: u64,
    /// Grants completed.
    pub acquires: u64,
    /// Requests aborted at their deadline.
    pub aborts: u64,
    /// Flat→reactive promotions (cumulative).
    pub inflations: u64,
    /// Reactive→flat demotions (cumulative).
    pub deflations: u64,
    /// Inflated locks still live at run end.
    pub live_inflated: u64,
    /// Kernel-internal protocol switches inside inflated locks.
    pub lock_switches: u64,
    /// Acquire-latency histogram (scheduled arrival → grant for open
    /// tenants, dispatch → grant for closed ones; ns).
    pub wait: WaitHistogram,
    /// Per-tenant acquire-latency histograms, indexed like
    /// `cfg.tenants`; same measurement convention as [`Self::wait`].
    pub tenant_wait: Vec<WaitHistogram>,
    /// Per-tenant *deadline-adjusted* histograms: every grant records
    /// its wait, and every abort records the tenant's full deadline.
    /// A completed-only percentile silently censors starvation — a
    /// flat spin lock that starves a waiter to its deadline produces
    /// *no* latency sample, so its tail looks better the worse it
    /// behaves. Charging each shed request its whole deadline is the
    /// same convention the virtual-time rows use for shed traffic.
    pub tenant_adjusted: Vec<WaitHistogram>,
    /// Per-tenant deadline aborts, indexed like `cfg.tenants`.
    pub aborts_by_tenant: Vec<u64>,
    /// Measured memory footprint at run end.
    pub footprint: Footprint,
    /// The no-stampede verdict for this run (empty = clean; meaningful
    /// only when a limiter was configured): the violations the shards
    /// caught as switches committed, exact over the whole run.
    pub stampedes: Vec<Stampede>,
    /// Limiter in force, if any.
    pub limiter: Option<LimiterConfig>,
}

impl NativeReport {
    /// Median acquire latency (ns).
    pub fn p50_ns(&self) -> u64 {
        self.wait.p50()
    }

    /// 99th-percentile acquire latency (ns).
    pub fn p99_ns(&self) -> u64 {
        self.wait.p99()
    }

    /// 99.9th-percentile acquire latency (ns).
    pub fn p999_ns(&self) -> u64 {
        self.wait.p999()
    }

    /// 99.9th-percentile *deadline-adjusted* latency of one tenant
    /// (ns): aborts count as samples at the tenant's full deadline.
    ///
    /// # Panics
    /// If `tenant` is out of range for the run's tenant list.
    pub fn tenant_adjusted_p999_ns(&self, tenant: usize) -> u64 {
        self.tenant_adjusted[tenant].p999()
    }

    /// Fraction of requests that aborted at their deadline.
    pub fn abort_rate(&self) -> f64 {
        let total = self.acquires + self.aborts;
        if total == 0 {
            return 0.0;
        }
        self.aborts as f64 / total as f64
    }

    /// Inflations + deflations per second of wall-clock time.
    pub fn switches_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.inflations + self.deflations) as f64 * 1e9 / self.elapsed_ns as f64
    }
}

/// One worker's slice of the load: its open-loop sub-processes and its
/// round-robin share of the closed-loop clients.
struct OpenStream {
    tenant: usize,
    arrivals: Arrivals,
    zipf: Zipf,
    /// Next scheduled arrival (ns since run start), refilled lazily;
    /// `u64::MAX` once the process is exhausted.
    due: u64,
    primed: bool,
}

struct ClosedClient {
    tenant: usize,
    zipf: Zipf,
    think_state: u64,
    /// Earliest dispatch time (ns since run start).
    due: u64,
}

/// Derive a per-(tenant, worker, role) seed from the base seed; one
/// xorshift step decorrelates neighbouring ids.
fn derive_seed(base: u64, tenant: usize, worker: usize, role: u64) -> u64 {
    let mut s = base
        ^ (tenant as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (worker as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        ^ role.wrapping_mul(0x1656_67B1_9E37_79F9);
    alewife_sim::rng::next(&mut s)
}

/// Busy-wait (with periodic yields) until `target_ns` after `start`.
fn wait_until(start: Instant, target_ns: u64) {
    let mut i: u32 = 0;
    while (start.elapsed().as_nanos() as u64) < target_ns {
        std::hint::spin_loop();
        i = i.wrapping_add(1);
        if i & WAIT_YIELD_MASK == 0 {
            std::thread::yield_now();
        }
    }
}

/// Tallies one worker brings home.
#[derive(Default)]
struct WorkerOut {
    /// (tenant index, acquire latency ns) per grant.
    samples: Vec<(usize, u64)>,
    acquires: u64,
    aborts: u64,
    /// Deadline aborts per tenant, indexed like `cfg.tenants`.
    aborts_by_tenant: Vec<u64>,
}

/// Run `cfg` and collect the measured report.
///
/// # Panics
/// If a tenant's object range reaches outside the arena or the
/// reservoir holds no sample (same contract as the virtual-time
/// executor, checked before any thread starts), or a worker thread
/// panics.
pub fn run_native(cfg: &NativeRunConfig) -> NativeReport {
    assert!(cfg.reservoir > 0, "wait-histogram reservoir of 0 samples");
    for t in &cfg.tenants {
        assert!(
            t.first_object + t.objects <= cfg.objects,
            "tenant range [{}, {}) outside arena of {}",
            t.first_object,
            t.first_object + t.objects,
            cfg.objects
        );
    }
    let threads = cfg.effective_threads();
    let svc = NativeService::with_mode(cfg.objects, cfg.shards, cfg.limiter, cfg.mode);
    let outs: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::with_capacity(threads));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            let svc = &svc;
            let outs = &outs;
            scope.spawn(move || {
                let out = worker(cfg, w, threads, svc, start);
                outs.lock().expect("worker output poisoned").push(out);
            });
        }
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let mut wait = WaitHistogram::with_sampling(cfg.reservoir, cfg.seed);
    let mut tenant_wait: Vec<WaitHistogram> = (0..cfg.tenants.len())
        .map(|t| WaitHistogram::with_sampling(cfg.reservoir, cfg.seed ^ (t as u64 + 1)))
        .collect();
    let mut tenant_adjusted: Vec<WaitHistogram> = (0..cfg.tenants.len())
        .map(|t| WaitHistogram::with_sampling(cfg.reservoir, cfg.seed ^ (t as u64 + 101)))
        .collect();
    let mut aborts_by_tenant = vec![0u64; cfg.tenants.len()];
    let mut acquires = 0;
    let mut aborts = 0;
    for o in outs.into_inner().expect("worker output poisoned") {
        acquires += o.acquires;
        aborts += o.aborts;
        for (t, n) in o.aborts_by_tenant.iter().enumerate() {
            aborts_by_tenant[t] += n;
        }
        for (t, s) in o.samples {
            wait.record(s);
            tenant_wait[t].record(s);
            tenant_adjusted[t].record(s);
        }
    }
    // Charge every shed request its full deadline so starvation shows
    // up in the adjusted tail instead of being censored out of it.
    for (t, tc) in cfg.tenants.iter().enumerate() {
        for _ in 0..aborts_by_tenant[t] {
            tenant_adjusted[t].record(tc.deadline_ns);
        }
    }
    debug_assert_eq!(
        aborts,
        svc.aborts(),
        "driver and service abort counts disagree"
    );
    NativeReport {
        threads,
        elapsed_ns,
        acquires,
        aborts,
        inflations: svc.inflations(),
        deflations: svc.deflations(),
        live_inflated: svc.live_inflated(),
        lock_switches: svc.lock_switches(),
        wait,
        tenant_wait,
        tenant_adjusted,
        aborts_by_tenant,
        footprint: svc.footprint(),
        stampedes: svc.stampedes(),
        limiter: cfg.limiter,
    }
}

/// One worker thread's replay loop: repeatedly pick the earliest-due
/// request among its streams, wait out the gap, and drive it through
/// the service.
fn worker(
    cfg: &NativeRunConfig,
    w: usize,
    threads: usize,
    svc: &NativeService,
    start: Instant,
) -> WorkerOut {
    let inv = 1.0 / threads as f64;
    let mut opens: Vec<OpenStream> = Vec::new();
    let mut closeds: Vec<ClosedClient> = Vec::new();
    for (ti, t) in cfg.tenants.iter().enumerate() {
        match t.load {
            Load::Open { curve } => opens.push(OpenStream {
                tenant: ti,
                arrivals: Arrivals::new(curve.scaled(inv), derive_seed(cfg.seed, ti, w, 1)),
                zipf: Zipf::new(t.objects, t.theta, derive_seed(cfg.seed, ti, w, 2)),
                due: 0,
                primed: false,
            }),
            Load::Closed { clients, think_ns } => {
                for c in 0..clients {
                    if c as usize % threads != w {
                        continue;
                    }
                    let mut think_state = derive_seed(cfg.seed, ti, w, 3 + u64::from(c));
                    // Stagger the first dispatch by one think time so
                    // all clients don't fire in the same instant.
                    let due = think_time(think_ns, &mut think_state);
                    closeds.push(ClosedClient {
                        tenant: ti,
                        zipf: Zipf::new(
                            t.objects,
                            t.theta,
                            derive_seed(cfg.seed, ti, w, 101 + u64::from(c)),
                        ),
                        think_state,
                        due,
                    });
                }
            }
        }
    }
    let mut out = WorkerOut {
        aborts_by_tenant: vec![0; cfg.tenants.len()],
        ..WorkerOut::default()
    };
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= cfg.run_ns {
            return out;
        }
        // Refill exhausted open schedules, then pick the earliest-due
        // request across both disciplines.
        for o in opens.iter_mut() {
            if !o.primed {
                o.due = o.arrivals.next_arrival().unwrap_or(u64::MAX);
                o.primed = true;
            }
        }
        let open_best = opens
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.due)
            .map(|(i, o)| (o.due, i));
        let closed_best = closeds
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.due)
            .map(|(i, c)| (c.due, i));
        let (due, pick_open) = match (open_best, closed_best) {
            (None, None) => return out, // no load assigned to this worker
            (Some((d, _)), None) => (d, true),
            (None, Some((d, _))) => (d, false),
            (Some((od, _)), Some((cd, _))) => {
                if od <= cd {
                    (od, true)
                } else {
                    (cd, false)
                }
            }
        };
        if due >= cfg.run_ns || due == u64::MAX {
            return out;
        }
        if due > now {
            wait_until(start, due);
        }
        let (tenant, object, is_open) = if pick_open {
            let i = open_best.expect("picked open").1;
            let o = &mut opens[i];
            o.primed = false;
            (
                o.tenant,
                cfg.tenants[o.tenant].first_object + o.zipf.sample(),
                true,
            )
        } else {
            let i = closed_best.expect("picked closed").1;
            let c = &mut closeds[i];
            (
                c.tenant,
                cfg.tenants[c.tenant].first_object + c.zipf.sample(),
                false,
            )
        };
        let tcfg = &cfg.tenants[tenant];
        let deadline = (tcfg.deadline_ns > 0).then(|| Duration::from_nanos(tcfg.deadline_ns));
        let dispatched = start.elapsed().as_nanos() as u64;
        let mut finished = dispatched;
        match svc.acquire(object, deadline) {
            Some(guard) => {
                let granted = start.elapsed().as_nanos() as u64;
                if tcfg.hold_ns > 0 {
                    wait_until(start, granted + tcfg.hold_ns);
                }
                drop(guard);
                finished = start.elapsed().as_nanos() as u64;
                out.acquires += 1;
                // Open latency runs from the *scheduled* arrival so
                // backlog is charged to the tail; closed latency runs
                // from dispatch (the client wasn't asking earlier).
                let from = if is_open { due } else { dispatched };
                out.samples.push((tenant, granted.saturating_sub(from)));
            }
            None => {
                out.aborts += 1;
                out.aborts_by_tenant[tenant] += 1;
            }
        }
        if !pick_open {
            let i = closed_best.expect("picked closed").1;
            let c = &mut closeds[i];
            c.due = finished + think_time(tcfg.think_ns_or_zero(), &mut c.think_state);
        }
    }
}

impl TenantConfig {
    /// Closed-loop think time, or 0 for open-loop tenants (which never
    /// consult it).
    fn think_ns_or_zero(&self) -> u64 {
        match self.load {
            Load::Closed { think_ns, .. } => think_ns,
            Load::Open { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ArrivalCurve;

    fn quick_cfg() -> NativeRunConfig {
        let mut cfg = NativeRunConfig::new(64, 4, 7);
        cfg.threads = 2;
        cfg.run_ns = 20_000_000; // 20 ms
        cfg.tenants.push(TenantConfig {
            first_object: 0,
            objects: 8,
            theta: 0.9,
            load: Load::Closed {
                clients: 4,
                think_ns: 1_000,
            },
            hold_ns: 500,
            deadline_ns: 0,
        });
        cfg.tenants.push(TenantConfig {
            first_object: 8,
            objects: 56,
            theta: 0.2,
            load: Load::Open {
                curve: ArrivalCurve::Constant {
                    rate_per_sec: 50_000.0,
                },
            },
            hold_ns: 200,
            deadline_ns: 1_000_000,
        });
        cfg
    }

    #[test]
    fn driver_produces_work_and_consistent_counters() {
        let cfg = quick_cfg();
        let r = run_native(&cfg);
        assert!(r.acquires > 0, "no grants in 20ms");
        assert_eq!(r.wait.count, r.acquires);
        assert_eq!(r.tenant_wait.len(), cfg.tenants.len());
        let split: u64 = r.tenant_wait.iter().map(|h| h.count).sum();
        assert_eq!(split, r.acquires, "per-tenant split loses samples");
        assert!(
            r.tenant_wait.iter().all(|h| h.count > 0),
            "a tenant got no grants"
        );
        let adjusted: u64 = r.tenant_adjusted.iter().map(|h| h.count).sum();
        assert_eq!(
            adjusted,
            r.acquires + r.aborts,
            "adjusted histograms must hold every grant plus every shed request"
        );
        assert_eq!(r.aborts_by_tenant.iter().sum::<u64>(), r.aborts);
        for t in 0..cfg.tenants.len() {
            assert_eq!(
                r.tenant_adjusted[t].count,
                r.tenant_wait[t].count + r.aborts_by_tenant[t],
                "tenant {t}: adjusted = completed + shed"
            );
        }
        assert!(r.elapsed_ns >= cfg.run_ns);
        assert_eq!(r.threads, 2);
        assert!(r.p50_ns() <= r.p99_ns() && r.p99_ns() <= r.p999_ns());
        assert_eq!(r.inflations - r.deflations, r.live_inflated);
        assert!(r.stampedes.is_empty(), "limiter bound violated");
    }

    #[test]
    fn static_tts_arm_never_inflates() {
        let mut cfg = quick_cfg();
        cfg.mode = ArenaMode::StaticTts;
        let r = run_native(&cfg);
        assert!(r.acquires > 0);
        assert_eq!(r.inflations, 0);
        assert_eq!(r.footprint.hot_objects, 0);
    }

    #[test]
    fn tenant_range_outside_arena_panics() {
        let mut cfg = NativeRunConfig::new(8, 1, 1);
        cfg.tenants.push(TenantConfig {
            first_object: 4,
            objects: 8,
            theta: 0.0,
            load: Load::Closed {
                clients: 1,
                think_ns: 0,
            },
            hold_ns: 0,
            deadline_ns: 0,
        });
        assert!(std::panic::catch_unwind(|| run_native(&cfg)).is_err());
    }

    #[test]
    fn zero_reservoir_panics_before_the_run() {
        let mut cfg = quick_cfg();
        cfg.run_ns = 2_000_000_000;
        cfg.reservoir = 0;
        let t0 = Instant::now();
        assert!(std::panic::catch_unwind(|| run_native(&cfg)).is_err());
        assert!(
            t0.elapsed().as_secs_f64() < 1.0,
            "rejected only after {:?} of load",
            t0.elapsed()
        );
    }
}
