//! The six workloads and what they share: run options, the repetition
//! loop, and the [`Outcome`] each returns.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics::{self, END_TO_END};
use crate::stats::Summary;
use crate::trace::Tracer;

pub mod cluster_ring;
pub mod native;
pub mod service_virtual;
pub mod sim_apps_mix;
pub mod sim_lock_storm;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 6] = [
    "sim_lock_storm",
    "sim_apps_mix",
    "cluster_ring",
    "service_virtual",
    "native_cold",
    "native_hot",
];

/// Workloads whose every metric of interest is counted, not timed: the
/// ones `--selftest` runs twice and compares.
pub const DETERMINISTIC: [&str; 4] = [
    "sim_lock_storm",
    "sim_apps_mix",
    "cluster_ring",
    "service_virtual",
];

/// Load threads the threaded workloads use — exactly two, so results
/// compare across hosts. A host with fewer cores is refused rather than
/// oversubscribed.
pub const LOAD_THREADS: usize = 2;

/// Simulated cycle length of the NWO model (33 MHz), for reporting
/// simulated waits in the `virtual_*_ns` metrics.
pub const CYCLE_NS: f64 = 1000.0 / 33.0;

/// A share of exactly 0 cannot be held to a relative bound, so
/// `abort_share` is floored here: its resolution is one failure in a
/// million operations.
pub const ABORT_SHARE_FLOOR: f64 = 1e-6;

/// How one invocation runs.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Workload seed; equal seeds give equal inputs.
    pub seed: u64,
    /// Length of the timed region, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics, spans and probes.
    pub trace: bool,
    /// Divide every input size by this (1 in a real run; `--selftest`
    /// and the tests use 50).
    pub shrink: u64,
}

impl RunOpts {
    /// `n / shrink`, at least `floor`.
    pub fn scaled(&self, n: u64, floor: u64) -> u64 {
        (n / self.shrink).max(floor)
    }
}

/// How a workload relates to an end-to-end metric it prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// The workload exercises what the metric measures.
    Primary,
    /// The workload has no such quantity; the cell repeats its nearest
    /// one (README.md says which) so that every workload prints every
    /// metric, as the driver requires.
    Mirror,
}

impl Cell {
    /// Spelling in result files.
    pub fn as_str(self) -> &'static str {
        match self {
            Cell::Primary => "primary",
            Cell::Mirror => "mirror",
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed: deadline sheds, unfinished tasks, lost
    /// updates.
    pub failed: u64,
    /// Output checks that did not hold; empty on a correct run.
    pub check_failures: Vec<String>,
    /// End-to-end metrics (all fourteen, in an untraced run).
    pub e2e: BTreeMap<&'static str, (Summary, Cell)>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a primary cell.
    pub fn primary(&mut self, name: &'static str, s: Summary) {
        self.put(name, s, Cell::Primary);
    }

    /// Record a mirror cell.
    pub fn mirror(&mut self, name: &'static str, s: Summary) {
        self.put(name, s, Cell::Mirror);
    }

    fn put(&mut self, name: &'static str, s: Summary, cell: Cell) {
        assert!(metrics::end_to_end(name).is_some(), "unknown metric {name}");
        assert!(
            self.e2e.insert(name, (s, cell)).is_none(),
            "{name} recorded twice"
        );
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::PER_LAYER.iter().any(|m| m.0 == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Note a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Fill in the three metrics every workload derives the same way,
    /// then verify that all fourteen are present and none is 0.
    pub fn finish(&mut self, setup_s: Summary) {
        self.primary("setup_s", setup_s);
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.primary("abort_share", Summary::exact(share.max(ABORT_SHARE_FLOOR)));
        self.primary("peak_rss_mb", Summary::exact(crate::host::peak_rss_mib()));
        for m in &END_TO_END {
            let (s, _) = self
                .e2e
                .get(m.name)
                .unwrap_or_else(|| panic!("{} not recorded", m.name));
            assert!(s.median > 0.0, "{} is {}", m.name, s.median);
        }
    }
}

/// Sub-seeds a workload with seed-sensitive tails spreads its
/// repetitions over. A virtual 99.9th percentile moves by a quarter from
/// one seed to the next; pooled over five sub-seeds it moves by a tenth,
/// at no cost in run time, because the repetitions are needed for the
/// timings anyway.
pub const SUB_SEEDS: u32 = 5;

/// The seed of repetition round `round`: distinct for distinct
/// `(seed, round % SUB_SEEDS)`.
pub fn sub_seed(seed: u64, round: u32) -> u64 {
    seed.wrapping_mul(u64::from(SUB_SEEDS))
        .wrapping_add(u64::from(round % SUB_SEEDS))
}

/// One repetition's result.
pub struct Rep<R> {
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// Its round: repetitions of one round do identical work.
    pub round: u32,
    /// What it measured.
    pub value: R,
}

/// Time `setup` at least `at_least` times, and on until `budget_s`
/// seconds or `at_most` samples are used up. The first call of a burst
/// runs on caches the repetition before it left cold; when more follow,
/// it is dropped, so that a small set-up's samples are all warm ones and
/// the median does not sit on the border between two populations.
fn setup_burst<T>(
    samples: &mut Vec<f64>,
    (at_least, at_most, budget_s): (usize, usize, f64),
    setup: &mut impl FnMut() -> T,
) {
    let t0 = Instant::now();
    let mut burst = Vec::new();
    while burst.len() < at_least || (burst.len() < at_most && t0.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        let built = setup();
        burst.push(t.elapsed().as_secs_f64());
        // Dropped outside the sample, and before the next one builds.
        drop(built);
    }
    let skip = usize::from(burst.len() > 1);
    samples.extend_from_slice(&burst[skip..]);
}

/// Call `rep` until `opts.seconds` have passed, and at least `min_rounds`
/// times. A traced run repeats in pairs, untraced then traced, at least
/// two pairs, so both sides of `trace_overhead` see the same conditions.
/// `rep` gets the tracer, already switched, and the round number.
///
/// `setup` is timed too, for `setup_s`: a burst of samples before the
/// first round and a smaller burst before each of the next four. The recording
/// host changes speed in steps every few seconds; samples spread over
/// the run see the same mixture of steps in every run, where one burst
/// at the start sees whichever step the process was born into. Small
/// set-ups get more samples, but not without limit: a simulated machine
/// dropped with tasks it never ran keeps its memory (the tasks and the
/// machine refer to each other).
pub fn repeat<R, T>(
    opts: &RunOpts,
    tracer: &mut Tracer,
    min_rounds: u32,
    mut setup: impl FnMut() -> T,
    mut rep: impl FnMut(&mut Tracer, u32) -> R,
) -> (Vec<Rep<R>>, Summary) {
    let (per_round, min_rounds) = if opts.trace { (2, 2) } else { (1, min_rounds) };
    let mut out = Vec::new();
    let mut setup_samples = Vec::new();
    // Time spent in repetitions; set-up bursts do not use up `--seconds`.
    let mut spent = 0.0;
    let mut round = 0;
    while round < min_rounds || spent < opts.seconds {
        // Only before the first few rounds, so that how many set-ups a
        // run builds (and leaks) does not depend on how many rounds the
        // host's speed let it fit.
        if round < SUB_SEEDS {
            let burst = if round == 0 {
                (5, 31, 0.3)
            } else {
                (1, 11, 0.05)
            };
            setup_burst(&mut setup_samples, burst, &mut setup);
        }
        let t0 = Instant::now();
        for k in 0..per_round {
            let traced = k == 1;
            tracer.set(traced, round * per_round + k);
            out.push(Rep {
                traced,
                round,
                value: rep(tracer, round),
            });
        }
        spent += t0.elapsed().as_secs_f64();
        round += 1;
    }
    tracer.set(false, round * per_round);
    (out, Summary::of(&setup_samples))
}

/// The first repetition that ran the sub-seed of `round`: the one every
/// later repetition of that sub-seed must agree with, count for count.
pub fn first_of_sub_seed<R>(reps: &[Rep<R>], round: u32) -> &R {
    let same = |r: &&Rep<R>| r.round % SUB_SEEDS == round % SUB_SEEDS;
    &reps.iter().find(same).expect("the round ran").value
}

/// Fewest repetitions that give a median worth the name.
pub const MIN_REPS: u32 = 3;

/// The untraced repetitions: the ones end-to-end metrics come from.
pub fn untraced<R>(reps: &[Rep<R>]) -> Vec<&R> {
    reps.iter()
        .filter(|r| !r.traced)
        .map(|r| &r.value)
        .collect()
}

/// The untraced first repetition of each sub-seed: the ones a workload
/// that spreads its repetitions over sub-seeds pools its counted metrics
/// from, however many more repetitions `--seconds` allowed.
pub fn pooled<R>(reps: &[Rep<R>]) -> Vec<&R> {
    reps.iter()
        .filter(|r| !r.traced && r.round < SUB_SEEDS)
        .map(|r| &r.value)
        .collect()
}

/// The traced repetitions: the ones per-layer timings come from.
pub fn traced<R>(reps: &[Rep<R>]) -> Vec<&R> {
    reps.iter().filter(|r| r.traced).map(|r| &r.value).collect()
}

/// Summarise `f` over repetitions.
pub fn over<R>(reps: &[&R], f: impl Fn(&R) -> f64) -> Summary {
    Summary::of(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Host time of traced repetitions over that of untraced ones, from each
/// repetition's headline rate (1 when tracing costs nothing, 1.10 when
/// it slows the workload by a tenth).
pub fn trace_overhead<R>(reps: &[Rep<R>], rate: impl Fn(&R) -> f64) -> f64 {
    let (traced, untraced) = (traced(reps), untraced(reps));
    if traced.is_empty() {
        return 1.0;
    }
    over(&untraced, &rate).median / over(&traced, &rate).median
}

/// Record the counts `Stats` carries, read where the `sim.stats` span
/// closes.
pub fn sim_counts(out: &mut Outcome, st: &reactive_sync::sim::Stats) {
    out.layer("sim.events", st.sim_events as f64);
    out.layer("sim.dir_requests", st.dir_requests as f64);
    out.layer("sim.remote_misses", st.remote_misses as f64);
    out.layer("sim.invalidations", st.invalidations as f64);
    out.layer("sim.net_msgs", st.net_msgs as f64);
    out.layer("sim.active_msgs", st.active_msgs as f64);
    out.layer("sim.limitless_traps", st.limitless_traps as f64);
}

/// Run the workload called `name` (one of [`NAMES`]). The error is a
/// refusal: this host cannot run it comparably.
pub fn run(name: &str, opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome, String> {
    let threaded = matches!(name, "cluster_ring" | "native_cold" | "native_hot");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threaded && cores < LOAD_THREADS {
        return Err(format!(
            "{name} runs {LOAD_THREADS} load threads and this host has {cores} core(s); \
             an oversubscribed number would not compare across hosts, so none is reported"
        ));
    }
    match name {
        "sim_lock_storm" => Ok(sim_lock_storm::run(opts, tracer)),
        "sim_apps_mix" => Ok(sim_apps_mix::run(opts, tracer)),
        "cluster_ring" => Ok(cluster_ring::run(opts, tracer)),
        "service_virtual" => Ok(service_virtual::run(opts, tracer)),
        "native_cold" => Ok(native::run(native::Variant::Cold, opts, tracer)),
        "native_hot" => Ok(native::run(native::Variant::Hot, opts, tracer)),
        other => panic!("`{other}` is not a workload"),
    }
}
