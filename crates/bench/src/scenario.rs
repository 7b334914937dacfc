//! Machine-checked reproductions of the paper's figures and tables.
//!
//! Every `fig_*`/`table_*` row of `EXPERIMENTS.md` is a [`Scenario`]: a
//! description of the figure's sweep (machine shape, workload, protocol
//! set, contention schedule) plus a set of [`Claim`]s encoding the
//! "Paper says" column as assertable predicates — the checkable-claim
//! framing of the competitive-analysis literature, where a result like
//! "3-competitive" is an inequality, not a prose row.
//!
//! A scenario runs at two [`Scale`]s:
//!
//! * [`Scale::Full`] — the figure reproduction the `experiments` bench
//!   target prints (`cargo bench --bench experiments -- --only
//!   fig_3_15_baseline`), with the paper's sweeps.
//! * [`Scale::Quick`] — a scaled-down deterministic variant cheap enough
//!   for `cargo test -q`; the tier-1 suite
//!   (`crates/bench/tests/scenario_claims.rs`) checks every claim of
//!   every scenario at this scale, so a regression in any paper result
//!   fails CI.
//!
//! Claim bounds are calibrated to hold at *both* scales (the simulator
//! is deterministic, so quick runs are bit-stable); where a quantity is
//! scale-dependent, the scenario exports a scale-invariant ratio or an
//! extreme over the sweep instead.
//!
//! The `experiments` bench target is the only row runner: it runs all
//! scenarios (or the `--only` selection) in `EXPERIMENTS.md` table order
//! and writes each row once, with its measured headline and claim
//! verdicts (stable keys, stable order): the [`WALL_CLOCK_ROWS`] to
//! `BENCH_service_native.json`, every other row to
//! `BENCH_experiments.json`.

use alewife_sim::CostModel;
use lock_service::ArenaMode;
use reactive_core::mp::{ReactiveMpFetchOp, ReactiveMpLock};
use sim_apps::alg::{AnyFetchOp, AnyLock, FetchOpAlg, LockAlg, WaitAlg};
use sim_apps::{aq, cgrad, cholesky, countnet, fib, fibheap, gamteb, jacobi, mp3d, mutex_app, tsp};
use waiting_theory::expected::{worst_case_factor, Family};
use waiting_theory::optimal::optimal_alpha;
use waiting_theory::task_system::{worst_case_sequence, TaskSystem};

use crate::experiments as exp;
use crate::table;

/// How big a reproduction to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The figure-scale sweep printed by the `experiments` bench.
    Full,
    /// The scaled-down deterministic variant run by the tier-1 tests.
    Quick,
}

impl Scale {
    /// Pick `f` at full scale, `q` at quick scale.
    pub fn pick<T>(self, f: T, q: T) -> T {
        match self {
            Scale::Full => f,
            Scale::Quick => q,
        }
    }
}

/// One measured sweep: a labelled curve over the scenario's x-axis.
#[derive(Clone, Debug)]
pub struct Series {
    /// Label claims refer to (stable across scales).
    pub label: &'static str,
    /// `(x, y)` points in sweep order.
    pub points: Vec<(f64, f64)>,
}

/// The measured result of running a scenario at some scale.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// What the x-axis means (for table printing).
    pub sweep: &'static str,
    /// Measured curves.
    pub series: Vec<Series>,
    /// Named scalar measurements (extremes, endpoint ratios, constants).
    pub scalars: Vec<(&'static str, f64)>,
    /// One-line measured headline for the EXPERIMENTS.md row.
    pub headline: String,
}

impl Outcome {
    fn push(&mut self, label: &'static str, points: Vec<(f64, f64)>) {
        self.series.push(Series { label, points });
    }

    fn scalar(&mut self, name: &'static str, v: f64) {
        self.scalars.push((name, v));
    }

    /// Look a name up for a claim: scalars first, then a series'
    /// y-values. A missing name, an empty series or a NaN value is an
    /// error naming it.
    fn values(&self, name: &str) -> Result<Vec<f64>, String> {
        if let Some(&(_, v)) = self.scalars.iter().find(|(n, _)| *n == name) {
            if v.is_nan() {
                return Err(format!("scalar {name} is NaN"));
            }
            return Ok(vec![v]);
        }
        let s = self.claim_series(name)?;
        Ok(s.points.iter().map(|&(_, y)| y).collect())
    }

    /// [`Outcome::series_named`] for a claim: a NaN point is an error
    /// too, since every comparison against it is false.
    fn claim_series(&self, name: &str) -> Result<&Series, String> {
        let s = self.series_named(name)?;
        match s.points.iter().find(|&&(_, y)| y.is_nan()) {
            Some(&(x, _)) => Err(format!("series {name} is NaN at x = {x}")),
            None => Ok(s),
        }
    }

    /// The series labelled `name`; a missing or empty series is an
    /// error naming it.
    fn series_named(&self, name: &str) -> Result<&Series, String> {
        match self.series.iter().find(|s| s.label == name) {
            None => Err(format!("series {name} missing")),
            Some(s) if s.points.is_empty() => Err(format!("series {name} is empty")),
            Some(s) => Ok(s),
        }
    }
}

/// A machine-checkable predicate encoding one "Paper says" statement.
#[derive(Clone, Copy, Debug)]
pub enum Claim {
    /// `cheap` wins at the sweep's low end, `scalable` at the high end
    /// (the paper's protocol-crossover shape: TTS vs MCS, lock-based vs
    /// combining fetch-and-op, shared-memory vs message-passing).
    Crossover {
        /// Series that must win at the first sweep point.
        cheap: &'static str,
        /// Series that must win at the last sweep point.
        scalable: &'static str,
    },
    /// Every value of `num` (divided pointwise by `den` if given) lies
    /// in `[min, max]`. `num`/`den` may name a series or a scalar; a
    /// scalar broadcasts against a series.
    BoundedRatio {
        /// Numerator series/scalar.
        num: &'static str,
        /// Optional denominator series/scalar.
        den: Option<&'static str>,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
    /// Over sweep points with `x >= from_x`, the series' max/min stays
    /// below `factor` (no meltdown — the paper's "flat" curves).
    FlatScaling {
        /// Series that must stay flat.
        series: &'static str,
        /// Ignore the sweep below this x (uncontended points are cheap
        /// for everyone and would understate the min).
        from_x: f64,
        /// Maximum allowed max/min spread.
        factor: f64,
    },
    /// At every sweep point, `series <= slack * min(over...)` — the
    /// reactive/two-phase algorithm tracks the best static choice.
    TracksBest {
        /// The adaptive series.
        series: &'static str,
        /// The static alternatives it must track.
        over: &'static [&'static str],
        /// Allowed multiplicative slack over the pointwise best.
        slack: f64,
    },
    /// Scalar `value` is within `factor` of scalar `optimal`
    /// (`value <= factor * optimal` and `value >= optimal / factor`).
    WithinFactorOfOptimal {
        /// Measured scalar.
        value: &'static str,
        /// The optimum it must approach.
        optimal: &'static str,
        /// Allowed multiplicative distance.
        factor: f64,
    },
}

impl Claim {
    /// Short human-readable form (stable: used as the JSON key).
    pub fn describe(&self) -> String {
        match self {
            Claim::Crossover { cheap, scalable } => {
                format!("crossover: {cheap} wins low end, {scalable} wins high end")
            }
            Claim::BoundedRatio { num, den, min, max } => match den {
                Some(d) => format!("bounded: {min} <= {num}/{d} <= {max}"),
                None => format!("bounded: {min} <= {num} <= {max}"),
            },
            Claim::FlatScaling {
                series,
                from_x,
                factor,
            } => {
                format!("flat: {series} spread <= {factor}x for x >= {from_x}")
            }
            Claim::TracksBest {
                series,
                over,
                slack,
            } => {
                format!("tracks-best: {series} <= {slack}x min{over:?}")
            }
            Claim::WithinFactorOfOptimal {
                value,
                optimal,
                factor,
            } => {
                format!("within-optimal: {value} within {factor}x of {optimal}")
            }
        }
    }

    /// Evaluate against an outcome. `Ok` carries the witnessing detail,
    /// `Err` the violation.
    pub fn check(&self, o: &Outcome) -> Result<String, String> {
        match *self {
            Claim::Crossover { cheap, scalable } => {
                let c = o.claim_series(cheap)?;
                let s = o.claim_series(scalable)?;
                let (c0, cn) = (c.points[0].1, c.points[c.points.len() - 1].1);
                let (s0, sn) = (s.points[0].1, s.points[s.points.len() - 1].1);
                if c0 > s0 {
                    return Err(format!(
                        "{cheap} ({c0:.1}) loses to {scalable} ({s0:.1}) at low end"
                    ));
                }
                if sn > cn {
                    return Err(format!(
                        "{scalable} ({sn:.1}) loses to {cheap} ({cn:.1}) at high end"
                    ));
                }
                Ok(format!(
                    "{cheap} {c0:.1} <= {s0:.1} low; {scalable} {sn:.1} <= {cn:.1} high"
                ))
            }
            Claim::BoundedRatio { num, den, min, max } => {
                let n = o.values(num)?;
                let d = match den {
                    Some(d) => o.values(d)?,
                    None => vec![1.0],
                };
                let len = n.len().max(d.len());
                if n.len() != len && n.len() != 1 || d.len() != len && d.len() != 1 {
                    return Err(format!("{num}/{den:?} length mismatch"));
                }
                let mut worst_lo = f64::INFINITY;
                let mut worst_hi = f64::NEG_INFINITY;
                for i in 0..len {
                    let nv = n[i.min(n.len() - 1)];
                    let dv = d[i.min(d.len() - 1)];
                    let r = nv / dv;
                    worst_lo = worst_lo.min(r);
                    worst_hi = worst_hi.max(r);
                    if !(min..=max).contains(&r) {
                        return Err(format!(
                            "point {i}: {nv:.3}/{dv:.3} = {r:.3} outside [{min}, {max}]"
                        ));
                    }
                }
                Ok(format!(
                    "in [{worst_lo:.3}, {worst_hi:.3}] ⊆ [{min}, {max}]"
                ))
            }
            Claim::FlatScaling {
                series,
                from_x,
                factor,
            } => {
                let s = o.claim_series(series)?;
                let ys: Vec<f64> = s
                    .points
                    .iter()
                    .filter(|&&(x, _)| x >= from_x)
                    .map(|&(_, y)| y)
                    .collect();
                if ys.len() < 2 {
                    return Err(format!("{series}: fewer than 2 points at x >= {from_x}"));
                }
                let (lo, hi) = ys
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| {
                        (l.min(y), h.max(y))
                    });
                // All-zero points give 0/0: no spread was measured.
                let spread = hi / lo;
                if spread.is_nan() || spread > factor {
                    Err(format!(
                        "{series} spread {spread:.2}x > {factor}x ({lo:.1}..{hi:.1})"
                    ))
                } else {
                    Ok(format!("{series} spread {spread:.2}x <= {factor}x"))
                }
            }
            Claim::TracksBest {
                series,
                over,
                slack,
            } => {
                let s = o.claim_series(series)?;
                let mut worst = 0f64;
                for (i, &(x, y)) in s.points.iter().enumerate() {
                    let mut best = f64::INFINITY;
                    for &other in over {
                        let os = o.claim_series(other)?;
                        if os.points.len() != s.points.len() {
                            return Err(format!(
                                "series {other} has {} points but {series} has {}",
                                os.points.len(),
                                s.points.len()
                            ));
                        }
                        best = best.min(os.points[i].1);
                    }
                    let r = y / best;
                    worst = worst.max(r);
                    if r > slack {
                        return Err(format!(
                            "at x = {x}: {series} {y:.1} is {r:.2}x best static {best:.1} (> {slack}x)"
                        ));
                    }
                }
                Ok(format!(
                    "{series} <= {worst:.2}x best static (allowed {slack}x)"
                ))
            }
            Claim::WithinFactorOfOptimal {
                value,
                optimal,
                factor,
            } => {
                let v = o.values(value)?[0];
                let opt = o.values(optimal)?[0];
                if v > factor * opt || v < opt / factor {
                    Err(format!(
                        "{value} = {v:.4} not within {factor}x of {optimal} = {opt:.4}"
                    ))
                } else {
                    Ok(format!(
                        "{value} = {v:.4} within {factor}x of {optimal} = {opt:.4}"
                    ))
                }
            }
        }
    }
}

/// One claim's verdict, as reported by the runners.
#[derive(Clone, Debug)]
pub struct ClaimResult {
    /// [`Claim::describe`] of the claim checked.
    pub claim: String,
    /// Whether the outcome satisfied it.
    pub pass: bool,
    /// Witness (pass) or violation (fail) detail.
    pub detail: String,
}

/// A figure/table reproduction with machine-checkable claims.
pub struct Scenario {
    /// Row key: the stable name of this row in `EXPERIMENTS.md`, the
    /// `BENCH_*.json` record, and `experiments --only`.
    pub name: &'static str,
    /// Paper figure/table the row reproduces.
    pub figure: &'static str,
    /// The qualitative result the claims encode.
    pub paper_says: &'static str,
    /// The machine-checkable encoding of `paper_says`.
    pub claims: &'static [Claim],
    run: fn(Scale) -> Outcome,
}

impl Scenario {
    /// Run the sweep at the given scale.
    pub fn run(&self, scale: Scale) -> Outcome {
        (self.run)(scale)
    }

    /// Evaluate every claim against an outcome.
    pub fn check(&self, o: &Outcome) -> Vec<ClaimResult> {
        self.claims
            .iter()
            .map(|c| match c.check(o) {
                Ok(detail) => ClaimResult {
                    claim: c.describe(),
                    pass: true,
                    detail,
                },
                Err(detail) => ClaimResult {
                    claim: c.describe(),
                    pass: false,
                    detail,
                },
            })
            .collect()
    }

    /// Run, print the measured series/scalars and claim verdicts, and
    /// return the outcome with its claim results (the `experiments`
    /// bench's entry point).
    pub fn report(&self, scale: Scale) -> (Outcome, Vec<ClaimResult>) {
        let o = self.run(scale);
        let results = self.check(&o);
        table::title(&format!("{} — {}", self.name, self.figure));
        println!("paper says: {}", self.paper_says);
        if !o.series.is_empty() {
            let xs: Vec<String> = o.series[0]
                .points
                .iter()
                .map(|&(x, _)| {
                    if x == x.trunc() {
                        format!("{x:.0}")
                    } else {
                        format!("{x}")
                    }
                })
                .collect();
            println!();
            table::header(o.sweep, &xs);
            for s in &o.series {
                let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
                table::row_f64(s.label, &ys);
            }
        }
        if !o.scalars.is_empty() {
            println!();
            for (n, v) in &o.scalars {
                println!("  {n:<38}{v:>12.4}");
            }
        }
        println!();
        for r in &results {
            let mark = if r.pass { "PASS" } else { "FAIL" };
            println!("  [{mark}] {} — {}", r.claim, r.detail);
        }
        println!("\nmeasured: {}", o.headline);
        (o, results)
    }
}

/// All 30 scenarios, in `EXPERIMENTS.md` table order (Chapter 3 rows,
/// then Chapter 4, then the beyond-the-paper rows).
/// `BENCH_experiments.json` rows follow this order.
pub fn all() -> Vec<Scenario> {
    vec![
        fig_3_14(),
        fig_3_15(),
        fig_3_16(),
        fig_3_17(),
        fig_3_21(),
        fig_3_22(),
        fig_3_23(),
        fig_3_24(),
        fig_3_25(),
        fig_3_26(),
        table_4_1(),
        fig_4_4(),
        fig_4_5(),
        fig_4_6(),
        fig_4_12(),
        fig_4_13(),
        fig_4_14(),
        table_4_6(),
        barrier_reactive(),
        switch_cost(),
        rmr_recoverable(),
        rmr_abortable(),
        storm_robustness(),
        service_tail_latency(),
        service_bytes_per_object(),
        service_stampede(),
        service_tracks_best(),
        service_native_tail(),
        service_native_deflation(),
        sim_parallel_scale(),
    ]
}

/// The rows timed on the host's wall clock rather than counted in
/// simulated or virtual time, in table order. The `experiments` bench
/// writes them to `BENCH_service_native.json` and every other row to
/// `BENCH_experiments.json`, which therefore regenerates byte for byte.
pub const WALL_CLOCK_ROWS: [&str; 2] = ["service_native_tail", "service_native_deflation"];

/// Look a scenario up by its row key.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// Resolve an `experiments --only` argument: a comma-separated list of
/// row keys. Returns the named scenarios in table order, each once
/// however often it was named; an empty or unknown entry is an error
/// that lists the valid keys.
pub fn select(only: &str) -> Result<Vec<Scenario>, String> {
    let rows = all();
    let wanted: Vec<&str> = only.split(',').collect();
    if let Some(bad) = wanted.iter().find(|w| !rows.iter().any(|s| s.name == **w)) {
        let keys: Vec<&str> = rows.iter().map(|s| s.name).collect();
        return Err(format!(
            "no row named `{bad}`; valid rows:\n  {}",
            keys.join("\n  ")
        ));
    }
    Ok(rows
        .into_iter()
        .filter(|s| wanted.contains(&s.name))
        .collect())
}

/// One application benchmark configuration, timed under an algorithm.
type Case<A> = Box<dyn Fn(A) -> f64>;

/// Run the (benchmark case × algorithm) timing matrix shared by the
/// application scenarios (Figs. 3.24/3.25/4.12/4.13/4.14): pushes one
/// series per algorithm (x = case index) into `o` and returns the
/// per-case ratio of the **last** algorithm — the adaptive one, by
/// convention — to the best of the preceding static ones.
fn adaptive_matrix<A: Copy>(
    o: &mut Outcome,
    algs: &[(&'static str, A)],
    cases: &[Case<A>],
) -> Vec<f64> {
    let mut cols: Vec<Vec<(f64, f64)>> = vec![Vec::new(); algs.len()];
    let mut ratios = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let times: Vec<f64> = algs.iter().map(|&(_, a)| case(a)).collect();
        let best_static = times[..times.len() - 1]
            .iter()
            .fold(f64::INFINITY, |m, &t| m.min(t));
        ratios.push(times[times.len() - 1] / best_static);
        for (c, &t) in cols.iter_mut().zip(&times) {
            c.push((i as f64, t));
        }
    }
    for (&(label, _), pts) in algs.iter().zip(cols) {
        o.push(label, pts);
    }
    ratios
}

// ---------------------------------------------------------------------
// Chapter 3 — protocol selection
// ---------------------------------------------------------------------

fn fig_3_14() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        // The on-line players are the policies the reactive objects
        // ship with, at the §3.5.5 round trip (8000 + 800 cycles).
        use reactive_api::{online_rule, Always, Competitive3, Hysteresis, Policy};
        let ts = TaskSystem::two_protocol(8_000.0, 800.0, 150.0, 15.0);
        let run =
            |policy: &mut dyn Policy, reqs: &[usize]| ts.run_online(online_rule(policy), reqs);
        let comp3 = || Competitive3::new(8_800.0);
        let cycles: &[usize] = scale.pick(&[1, 5, 20, 50], &[1, 5, 20]);
        let mut comp = Vec::new();
        let mut always = Vec::new();
        let mut never = Vec::new();
        let mut hyst = Vec::new();
        for &c in cycles {
            let reqs = worst_case_sequence(&ts, c);
            let opt = ts.offline_opt(&reqs);
            let x = c as f64;
            comp.push((x, run(&mut comp3(), &reqs) / opt));
            always.push((x, run(&mut Always, &reqs) / opt));
            never.push((x, ts.run_online(|s, _, _| s, &reqs) / opt));
            hyst.push((x, run(&mut Hysteresis::new(20, 55), &reqs) / opt));
        }
        let worst = comp.iter().fold(0f64, |m, &(_, r)| m.max(r));
        // The thrash side of the figure: an adversary alternating every
        // request makes switch-immediately pay a transition per request
        // while the 3-competitive policy stays put.
        let alt: Vec<usize> = (0..500).map(|i| i % 2).collect();
        let thrash = run(&mut Always, &alt) / run(&mut comp3(), &alt);
        let mut o = Outcome {
            sweep: "policy \\ adversary cycles",
            headline: format!(
                "competitive3 worst case {worst:.2}x vs offline opt (bound 3.00); \
                 always-switch pays {thrash:.1}x competitive3 on the alternating adversary"
            ),
            ..Outcome::default()
        };
        o.push("ratio/competitive3", comp);
        o.push("ratio/always", always);
        o.push("ratio/never", never);
        o.push("ratio/hysteresis", hyst);
        o.scalar("comp3_worst", worst);
        o.scalar("always_thrash_vs_comp3", thrash);
        o
    }
    Scenario {
        name: "fig_3_14_policy_bound",
        figure: "Fig. 3.14",
        paper_says: "3-competitive policy's worst case: online cost approaches 3x optimum \
                     on the adversarial sequence",
        claims: &[
            Claim::BoundedRatio {
                num: "ratio/competitive3",
                den: None,
                min: 1.0,
                max: 3.0,
            },
            Claim::BoundedRatio {
                num: "comp3_worst",
                den: None,
                min: 2.5,
                max: 3.0,
            },
            Claim::BoundedRatio {
                num: "always_thrash_vs_comp3",
                den: None,
                min: 1.5,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

fn fig_3_15() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&exp::BASELINE_PROCS, &[1, 2, 16]);
        let ops = scale.pick(exp::BASELINE_OPS, 256);
        let nwo = CostModel::nwo;
        let lock_algs: [(&'static str, LockAlg, bool); 5] = [
            ("lock/test&set", LockAlg::TestAndSet, false),
            ("lock/tts", LockAlg::Tts, false),
            ("lock/tts-dirnb", LockAlg::Tts, true),
            ("lock/mcs", LockAlg::Mcs, false),
            ("lock/reactive", LockAlg::Reactive, false),
        ];
        let fo_algs: [(&'static str, FetchOpAlg); 4] = [
            ("fo/tts-lock", FetchOpAlg::TtsLock),
            ("fo/queue-lock", FetchOpAlg::QueueLock),
            ("fo/combining", FetchOpAlg::Combining),
            ("fo/reactive", FetchOpAlg::Reactive),
        ];
        let mut o = Outcome {
            sweep: "series \\ procs",
            ..Outcome::default()
        };
        for (label, alg, fm) in lock_algs {
            let pts = procs
                .iter()
                .map(|&p| {
                    let o =
                        exp::lock_overhead_n(p, nwo(), fm, ops, |m| AnyLock::make(m, 0, alg, p));
                    (p as f64, o)
                })
                .collect();
            o.push(label, pts);
        }
        for (label, alg) in fo_algs {
            let pts = procs
                .iter()
                .map(|&p| {
                    let o =
                        exp::fetchop_overhead_n(p, nwo(), ops, |m| AnyFetchOp::make(m, 0, alg, p));
                    (p as f64, o)
                })
                .collect();
            o.push(label, pts);
        }
        let hi = procs.len() - 1;
        let headline = {
            let at = |l: &str, i: usize| o.series_named(l).unwrap().points[i].1;
            format!(
                "TTS {:.0} -> {:.0} cyc/CS (meltdown), MCS {:.0} -> {:.0} (flat), reactive \
                 {:.2}x best at {} procs; combining beats lock-based fetch-op {:.0} vs {:.0}",
                at("lock/tts", 0),
                at("lock/tts", hi),
                at("lock/mcs", 0),
                at("lock/mcs", hi),
                at("lock/reactive", hi) / at("lock/tts", hi).min(at("lock/mcs", hi)),
                procs[hi],
                at("fo/combining", hi),
                at("fo/tts-lock", hi),
            )
        };
        o.headline = headline;
        o
    }
    Scenario {
        name: "fig_3_15_baseline",
        figure: "Figs. 1.1/3.2/3.15",
        paper_says: "TTS best <= 4 procs then melts down; MCS flat; combining tree wins at \
                     high contention; reactive tracks the best everywhere",
        claims: &[
            Claim::Crossover {
                cheap: "lock/tts",
                scalable: "lock/mcs",
            },
            Claim::FlatScaling {
                series: "lock/mcs",
                from_x: 2.0,
                factor: 2.5,
            },
            Claim::TracksBest {
                series: "lock/reactive",
                over: &["lock/tts", "lock/mcs"],
                slack: 1.8,
            },
            Claim::Crossover {
                cheap: "fo/tts-lock",
                scalable: "fo/combining",
            },
            Claim::TracksBest {
                series: "fo/reactive",
                over: &["fo/tts-lock", "fo/queue-lock", "fo/combining"],
                slack: 2.5,
            },
        ],
        run,
    }
}

fn fig_3_16() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        // The prototype machine is 16 nodes; stop the sweep there.
        let procs: &[usize] = scale.pick(&[1, 2, 4, 8, 16], &[1, 2, 16]);
        let ops = scale.pick(exp::BASELINE_OPS, 256);
        let proto = CostModel::prototype;
        let algs: [(&'static str, LockAlg, bool); 5] = [
            ("lock/test&set", LockAlg::TestAndSet, false),
            ("lock/tts", LockAlg::Tts, false),
            ("lock/tts-dirnb", LockAlg::Tts, true),
            ("lock/mcs", LockAlg::Mcs, false),
            ("lock/reactive", LockAlg::Reactive, false),
        ];
        let mut o = Outcome {
            sweep: "series \\ procs",
            ..Outcome::default()
        };
        for (label, alg, fm) in algs {
            let pts = procs
                .iter()
                .map(|&p| {
                    let o =
                        exp::lock_overhead_n(p, proto(), fm, ops, |m| AnyLock::make(m, 0, alg, p));
                    (p as f64, o)
                })
                .collect();
            o.push(label, pts);
        }
        let hi = procs.len() - 1;
        let (tts, dirnb, mcs) = {
            let at = |l: &str| o.series_named(l).unwrap().points[hi].1;
            (at("lock/tts"), at("lock/tts-dirnb"), at("lock/mcs"))
        };
        o.scalar("tts_hi", tts);
        o.scalar("dirnb_hi", dirnb);
        o.scalar("mcs_hi", mcs);
        o.headline = format!(
            "prototype model at {} procs: TTS {tts:.0} cyc/CS, Dir_NB full-map {dirnb:.0} \
             (softens, {:.2}x TTS) but still {:.1}x MCS ({mcs:.0})",
            procs[hi],
            dirnb / tts,
            dirnb / mcs,
        );
        o
    }
    Scenario {
        name: "fig_3_16_hardware",
        figure: "Fig. 3.16",
        paper_says: "Dir_NB full-map directory softens but does not cure TTS meltdown; \
                     limited pointers + software traps worsen it",
        claims: &[
            Claim::Crossover {
                cheap: "lock/tts",
                scalable: "lock/mcs",
            },
            // Softens: the full-map directory serves the invalidate
            // storm without LimitLESS traps...
            Claim::BoundedRatio {
                num: "dirnb_hi",
                den: Some("tts_hi"),
                min: 0.0,
                max: 0.9,
            },
            // ...but does not cure: still far off the queue lock.
            Claim::BoundedRatio {
                num: "dirnb_hi",
                den: Some("mcs_hi"),
                min: 1.5,
                max: f64::INFINITY,
            },
            Claim::TracksBest {
                series: "lock/reactive",
                over: &["lock/tts", "lock/mcs"],
                slack: 1.8,
            },
        ],
        run,
    }
}

fn fig_3_17() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let all = exp::patterns();
        let (ids, acq): (&[usize], u64) = scale.pick((&[1, 5, 9, 12][..], 12), (&[1, 12][..], 8));
        let mut ts = Vec::new();
        let mut mcs = Vec::new();
        let mut re = Vec::new();
        for &id in ids {
            let p = &all[id - 1];
            let opt = exp::multi_object(p, None, acq) as f64;
            let x = id as f64;
            ts.push((
                x,
                exp::multi_object(p, Some(LockAlg::TestAndSet), acq) as f64 / opt,
            ));
            mcs.push((
                x,
                exp::multi_object(p, Some(LockAlg::Mcs), acq) as f64 / opt,
            ));
            re.push((
                x,
                exp::multi_object(p, Some(LockAlg::Reactive), acq) as f64 / opt,
            ));
        }
        let re_worst = re.iter().fold(0f64, |m, &(_, r)| m.max(r));
        let ts_worst = ts.iter().fold(0f64, |m, &(_, r)| m.max(r));
        let mut o = Outcome {
            sweep: "norm. time \\ pattern",
            headline: format!(
                "reactive <= {re_worst:.2}x the per-lock-optimal static choice across \
                 patterns {ids:?}; test&set up to {ts_worst:.1}x"
            ),
            ..Outcome::default()
        };
        o.push("norm/test&set", ts);
        o.push("norm/mcs", mcs);
        o.push("norm/reactive", re);
        o.scalar("reactive_worst", re_worst);
        o.scalar("testandset_worst", ts_worst);
        o
    }
    Scenario {
        name: "fig_3_17_multi_object",
        figure: "Figs. 3.17-3.19",
        paper_says: "with many objects and skewed access, reactive ~= best static \
                     per-object choice",
        claims: &[
            Claim::BoundedRatio {
                num: "norm/reactive",
                den: None,
                min: 0.5,
                max: 1.6,
            },
            // The skewed patterns punish the wrong static choice hard;
            // reactive avoids that cliff.
            Claim::BoundedRatio {
                num: "testandset_worst",
                den: Some("reactive_worst"),
                min: 2.0,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

/// Shared sweep for the time-varying scenarios (Figures 3.21-3.23):
/// returns `(lengths, periods)` for the scale.
fn tv_scale(scale: Scale) -> (&'static [u64], u64) {
    scale.pick((&[256, 512, 1024, 2048][..], 4), (&[128, 512][..], 2))
}

fn fig_3_21() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let (lengths, periods) = tv_scale(scale);
        let mut o = Outcome {
            sweep: "series \\ period length",
            ..Outcome::default()
        };
        let mut last_first = (1.0, 1.0);
        for &pct in &[10u64, 90] {
            let mut ratio = Vec::new();
            let mut switches = Vec::new();
            for &l in lengths {
                let mcs = exp::time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
                let (t, s) = exp::time_varying(LockAlg::Reactive, l, pct, periods);
                ratio.push((l as f64, t as f64 / mcs));
                switches.push((l as f64, s as f64));
            }
            if pct == 90 {
                last_first = (ratio[ratio.len() - 1].1, ratio[0].1);
            }
            o.push(
                if pct == 10 {
                    "re/mcs@10%"
                } else {
                    "re/mcs@90%"
                },
                ratio,
            );
            o.push(
                if pct == 10 {
                    "switches@10%"
                } else {
                    "switches@90%"
                },
                switches,
            );
        }
        // One committed protocol change per contention-phase boundary:
        // `periods` repetitions of (low, high) give 2*periods phases and
        // 2*periods - 1 boundaries.
        o.scalar("switches_expected", (2 * periods - 1) as f64);
        o.scalar("re_mcs_90_last", last_first.0);
        o.scalar("re_mcs_90_first", last_first.1);
        o.headline = format!(
            "reactive/MCS {:.2} -> {:.2} (90% contention) as the period grows {} -> {}; \
             exactly {} switches per run (one per phase boundary, from SwitchLog)",
            last_first.1,
            last_first.0,
            lengths[0],
            lengths[lengths.len() - 1],
            2 * periods - 1,
        );
        o
    }
    Scenario {
        name: "fig_3_21_time_varying",
        figure: "Fig. 3.21",
        paper_says: "under phase-changing contention the reactive lock re-converges within \
                     a bounded lag",
        claims: &[
            // Bounded lag: at long periods the switching transient
            // amortizes to within 15% of the best static protocol.
            Claim::BoundedRatio {
                num: "re_mcs_90_last",
                den: None,
                min: 0.85,
                max: 1.15,
            },
            // Re-convergence: the penalty shrinks as periods grow.
            Claim::BoundedRatio {
                num: "re_mcs_90_last",
                den: Some("re_mcs_90_first"),
                min: 0.0,
                max: 0.92,
            },
            // Adaptation is exact: one switch per phase boundary at
            // every sweep point, read from the shared API's SwitchLog.
            Claim::BoundedRatio {
                num: "switches@90%",
                den: Some("switches_expected"),
                min: 1.0,
                max: 1.0,
            },
            Claim::BoundedRatio {
                num: "switches@10%",
                den: Some("switches_expected"),
                min: 1.0,
                max: 1.0,
            },
        ],
        run,
    }
}

fn fig_3_22() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let (lengths, periods) = tv_scale(scale);
        let pct = 50;
        let mut o = Outcome {
            sweep: "series \\ period length",
            ..Outcome::default()
        };
        let mut comp = Vec::new();
        let mut always = Vec::new();
        let mut comp_sw = Vec::new();
        let mut always_sw = Vec::new();
        for &l in lengths {
            let mcs = exp::time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
            let (ta, sa) = exp::time_varying(LockAlg::Reactive, l, pct, periods);
            let (tc, sc) = exp::time_varying(LockAlg::ReactiveCompetitive, l, pct, periods);
            always.push((l as f64, ta as f64 / mcs));
            comp.push((l as f64, tc as f64 / mcs));
            always_sw.push((l as f64, sa as f64));
            comp_sw.push((l as f64, sc as f64));
        }
        let (c0, a0) = (comp[0].1, always[0].1);
        let (csw, asw) = (
            comp_sw.iter().map(|&(_, s)| s).sum::<f64>(),
            always_sw.iter().map(|&(_, s)| s).sum::<f64>(),
        );
        o.push("comp3/mcs", comp);
        o.push("always/mcs", always);
        o.push("switches/comp3", comp_sw);
        o.push("switches/always", always_sw);
        o.scalar("comp3_shortest", c0);
        o.scalar("always_shortest", a0);
        o.scalar("comp3_switch_total", csw);
        o.scalar("always_switch_total", asw);
        o.headline = format!(
            "oscillating load, shortest period: comp3 {c0:.2}x MCS vs always-switch {a0:.2}x; \
             {csw:.0} vs {asw:.0} total switches — the 3-competitive policy bounds the \
             worst case with a fraction of the changes"
        );
        o
    }
    Scenario {
        name: "fig_3_22_competitive",
        figure: "Fig. 3.22",
        paper_says: "3-competitive policy bounds worst-case cost vs switch-immediately \
                     under oscillating load",
        claims: &[
            // Bounded worst case: close to switch-immediately even on
            // the shortest (most adversarial) period. At quick scale
            // the 8800-cycle switch threshold is large relative to a
            // phase, so the lag is visible but bounded; a policy
            // regression to never-adapting would sit at hysteresis'
            // ~3.4-4x and blow both bounds.
            Claim::BoundedRatio {
                num: "comp3_shortest",
                den: Some("always_shortest"),
                min: 0.5,
                max: 1.3,
            },
            Claim::BoundedRatio {
                num: "comp3/mcs",
                den: None,
                min: 0.8,
                max: 2.2,
            },
            // ...while committing far fewer protocol changes.
            Claim::BoundedRatio {
                num: "comp3_switch_total",
                den: Some("always_switch_total"),
                min: 0.0,
                max: 0.6,
            },
        ],
        run,
    }
}

fn fig_3_23() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let (lengths, periods) = tv_scale(scale);
        let pct = 50;
        let mut o = Outcome {
            sweep: "series \\ period length",
            ..Outcome::default()
        };
        struct Row {
            label: &'static str,
            alg: LockAlg,
            ratio: Vec<(f64, f64)>,
            switches: Vec<(f64, f64)>,
        }
        let row = |label, alg| Row {
            label,
            alg,
            ratio: Vec::new(),
            switches: Vec::new(),
        };
        let mut rows = vec![
            row("hyst(4,500)/mcs", LockAlg::ReactiveHysteresis(4, 500)),
            row("hyst(20,55)/mcs", LockAlg::ReactiveHysteresis(20, 55)),
            row("always/mcs", LockAlg::Reactive),
        ];
        for &l in lengths {
            let mcs = exp::time_varying(LockAlg::Mcs, l, pct, periods).0 as f64;
            for r in rows.iter_mut() {
                let (t, s) = exp::time_varying(r.alg, l, pct, periods);
                r.ratio.push((l as f64, t as f64 / mcs));
                r.switches.push((l as f64, s as f64));
            }
        }
        let tally = |sw: &[(f64, f64)]| sw.iter().map(|&(_, s)| s).sum::<f64>();
        let h45_sw = tally(&rows[0].switches);
        let h2055_sw = tally(&rows[1].switches);
        let always_sw = tally(&rows[2].switches);
        let h45_worst = rows[0].ratio.iter().fold(0f64, |m, &(_, r)| m.max(r));
        for r in rows {
            o.push(r.label, r.ratio);
        }
        o.scalar("hyst4500_switch_total", h45_sw);
        o.scalar("hyst2055_switch_total", h2055_sw);
        o.scalar("always_switch_total", always_sw);
        o.scalar("hyst4500_worst", h45_worst);
        o.headline = format!(
            "hysteresis damps switching: hyst(20,55) commits {h2055_sw:.0} and hyst(4,500) \
             {h45_sw:.0} changes vs always-switch's {always_sw:.0}; hyst(4,500) stays \
             <= {h45_worst:.2}x MCS"
        );
        o
    }
    Scenario {
        name: "fig_3_23_hysteresis",
        figure: "Fig. 3.23",
        paper_says: "hysteresis damps protocol thrashing at switch-boundary contention",
        claims: &[
            // Strong damping: the deep-hysteresis pair never switches on
            // this schedule.
            Claim::BoundedRatio {
                num: "hyst2055_switch_total",
                den: Some("always_switch_total"),
                min: 0.0,
                max: 0.34,
            },
            // The asymmetric pair still adapts upward promptly but
            // switches less than switch-immediately...
            Claim::BoundedRatio {
                num: "hyst4500_switch_total",
                den: Some("always_switch_total"),
                min: 0.0,
                max: 1.0,
            },
            // ...at competitive cost (the never-adapting hyst(20,55)
            // pair sits at ~3.4-4x MCS on this schedule; 2.0 separates
            // "adapts with a lag" from "stuck in TTS").
            Claim::BoundedRatio {
                num: "hyst4500_worst",
                den: None,
                min: 0.8,
                max: 2.0,
            },
        ],
        run,
    }
}

fn fig_3_24() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let mut names = vec!["gamteb", "aq"];
        let mut cases: Vec<Case<FetchOpAlg>> = vec![
            Box::new(|a| gamteb::run(&gamteb::GamtebConfig::small(8, a)).elapsed as f64),
            Box::new(|a| aq::run_queue(&aq::AqConfig::small(4, a, WaitAlg::Spin)).elapsed as f64),
        ];
        if scale == Scale::Full {
            names.push("tsp");
            cases.push(Box::new(|a| {
                tsp::run(&tsp::TspConfig::small(4, a)).elapsed as f64
            }));
        }
        let algs = [
            ("app/queue-lock", FetchOpAlg::QueueLock),
            ("app/combining", FetchOpAlg::Combining),
            ("app/reactive", FetchOpAlg::Reactive),
        ];
        let mut o = Outcome {
            sweep: "cycles \\ app index",
            ..Outcome::default()
        };
        let ratios = adaptive_matrix(&mut o, &algs, &cases);
        let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
        o.scalar("reactive_worst_ratio", worst);
        o.headline = format!(
            "reactive fetch-and-op within {worst:.2}x of the best static protocol \
             across {names:?} (small problem sizes amplify switch transients)"
        );
        o
    }
    Scenario {
        name: "fig_3_24_apps_fetchop",
        figure: "Fig. 3.24",
        paper_says: "app throughput with reactive fetch-and-op within a few % of best \
                     static protocol",
        claims: &[Claim::TracksBest {
            series: "app/reactive",
            over: &["app/queue-lock", "app/combining"],
            slack: 1.45,
        }],
        run,
    }
}

fn fig_3_25() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&[4, 8, 16], &[4, 8]);
        let mut cases: Vec<Case<LockAlg>> = Vec::new();
        for &p in procs {
            cases.push(Box::new(move |a| {
                let mut cfg = mp3d::Mp3dConfig::small(p, a);
                cfg.particles_per_proc = 8;
                mp3d::run(&cfg).elapsed as f64
            }));
        }
        for &p in scale.pick(&[4, 8, 16][..], &[4][..]) {
            cases.push(Box::new(move |a| {
                cholesky::run(&cholesky::CholeskyConfig::small(p, a)).elapsed as f64
            }));
        }
        let algs = [
            ("app/test&set", LockAlg::TestAndSet),
            ("app/mcs", LockAlg::Mcs),
            ("app/reactive", LockAlg::Reactive),
        ];
        let mut o = Outcome {
            sweep: "cycles \\ app index",
            ..Outcome::default()
        };
        let ratios = adaptive_matrix(&mut o, &algs, &cases);
        let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
        o.scalar("reactive_worst_ratio", worst);
        o.headline = format!(
            "reactive locks within {worst:.2}x of the best static protocol across \
             MP3D/Cholesky at P = {procs:?}"
        );
        o
    }
    Scenario {
        name: "fig_3_25_apps_locks",
        figure: "Fig. 3.25",
        paper_says: "app throughput with reactive locks within a few % of best static \
                     protocol",
        claims: &[Claim::TracksBest {
            series: "app/reactive",
            over: &["app/test&set", "app/mcs"],
            slack: 1.35,
        }],
        run,
    }
}

fn fig_3_26() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&exp::BASELINE_PROCS, &[1, 16]);
        let ops = scale.pick(exp::BASELINE_OPS, 256);
        let mut o = Outcome {
            sweep: "series \\ procs",
            ..Outcome::default()
        };
        let lock_algs: [(&'static str, LockAlg); 3] = [
            ("lock/tts", LockAlg::Tts),
            ("lock/mcs", LockAlg::Mcs),
            ("lock/mp-queue", LockAlg::MpQueue),
        ];
        for (label, alg) in lock_algs {
            let pts = procs
                .iter()
                .map(|&p| {
                    (
                        p as f64,
                        exp::lock_overhead_n(p, CostModel::nwo(), false, ops, |m| {
                            AnyLock::make(m, 0, alg, p)
                        }),
                    )
                })
                .collect();
            o.push(label, pts);
        }
        o.push(
            "lock/reactive-smmp",
            procs
                .iter()
                .map(|&p| {
                    let o = exp::lock_overhead_n(p, CostModel::nwo(), false, ops, |m| {
                        ReactiveMpLock::new(m, 0, 0, p)
                    });
                    (p as f64, o)
                })
                .collect(),
        );
        let fo_algs: [(&'static str, FetchOpAlg); 3] = [
            ("fo/tts-lock", FetchOpAlg::TtsLock),
            ("fo/mp-central", FetchOpAlg::MpCentral),
            ("fo/mp-combining", FetchOpAlg::MpCombining),
        ];
        for (label, alg) in fo_algs {
            let pts = procs
                .iter()
                .map(|&p| {
                    (
                        p as f64,
                        exp::fetchop_overhead_n(p, CostModel::nwo(), ops, |m| {
                            AnyFetchOp::make(m, 0, alg, p)
                        }),
                    )
                })
                .collect();
            o.push(label, pts);
        }
        o.push(
            "fo/reactive-smmp",
            procs
                .iter()
                .map(|&p| {
                    let o = exp::fetchop_overhead_n(p, CostModel::nwo(), ops, |m| {
                        ReactiveMpFetchOp::new(m, 0, 0, p)
                    });
                    (p as f64, o)
                })
                .collect(),
        );
        let hi = procs.len() - 1;
        let at = |o: &Outcome, l: &str| o.series_named(l).unwrap().points[hi].1;
        let fo_re = at(&o, "fo/reactive-smmp");
        let fo_tts = at(&o, "fo/tts-lock");
        o.scalar("fo_reactive_hi", fo_re);
        o.scalar("fo_tts_hi", fo_tts);
        let headline = format!(
            "SM->MP lock crossover tracked: reactive {:.0} cyc/CS at {} procs vs TTS {:.0} / \
             MP queue {:.0}; reactive fetch-op leaves SM ({fo_re:.0} vs TTS-lock {fo_tts:.0}) \
             but lags the MP-combining optimum ({:.0})",
            at(&o, "lock/reactive-smmp"),
            procs[hi],
            at(&o, "lock/tts"),
            at(&o, "lock/mp-queue"),
            at(&o, "fo/mp-combining"),
        );
        o.headline = headline;
        o
    }
    Scenario {
        name: "fig_3_26_message_passing",
        figure: "Fig. 3.26",
        paper_says: "reactive shared-memory <-> message-passing selection tracks the \
                     crossover",
        claims: &[
            Claim::Crossover {
                cheap: "lock/tts",
                scalable: "lock/mp-queue",
            },
            Claim::Crossover {
                cheap: "fo/tts-lock",
                scalable: "fo/mp-combining",
            },
            Claim::TracksBest {
                series: "lock/reactive-smmp",
                over: &["lock/tts", "lock/mp-queue"],
                slack: 3.5,
            },
            // The reactive fetch-op leaves the melting SM protocol
            // (switches to MP) even though it lags the MP optimum —
            // pinned so a regression back to pure-SM behaviour fails.
            Claim::BoundedRatio {
                num: "fo_reactive_hi",
                den: Some("fo_tts_hi"),
                min: 0.0,
                max: 0.85,
            },
        ],
        run,
    }
}

// ---------------------------------------------------------------------
// Chapter 4 — waiting algorithms
// ---------------------------------------------------------------------

fn table_4_1() -> Scenario {
    fn run(_scale: Scale) -> Outcome {
        let c = CostModel::nwo();
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "model B = {} cycles ({}/{}/{} unload/reenable/reload), following the \
                 paper's ~500-cycle measured split",
                c.block_cost(),
                c.unload,
                c.reenable,
                c.reload
            ),
            ..Outcome::default()
        };
        o.scalar("unload", c.unload as f64);
        o.scalar("reenable", c.reenable as f64);
        o.scalar("reload", c.reload as f64);
        o.scalar("block_cost", c.block_cost() as f64);
        o
    }
    Scenario {
        name: "table_4_1_blocking_cost",
        figure: "Table 4.1",
        paper_says: "blocking ~= 500 cycles split unload ~300 / reenable ~100 / reload ~65",
        claims: &[
            Claim::BoundedRatio {
                num: "block_cost",
                den: None,
                min: 465.0,
                max: 465.0,
            },
            Claim::BoundedRatio {
                num: "unload",
                den: None,
                min: 300.0,
                max: 300.0,
            },
            Claim::BoundedRatio {
                num: "reenable",
                den: None,
                min: 100.0,
                max: 100.0,
            },
            Claim::BoundedRatio {
                num: "reload",
                den: None,
                min: 65.0,
                max: 65.0,
            },
        ],
        run,
    }
}

const B: f64 = 465.0;

fn fig_4_4() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let scales: &[f64] = scale.pick(&[0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 10.0], &[0.25, 1.0, 4.0]);
        let mut o = Outcome {
            sweep: "E[C]/E[C_opt] \\ mean wait (xB)",
            ..Outcome::default()
        };
        for (label, alpha) in [
            ("2phase a=0.54", 0.5413f64),
            ("2phase a=1.0", 1.0),
            ("2phase a=0.25", 0.25),
        ] {
            let pts = scales
                .iter()
                .map(|&s| {
                    let d = waiting_theory::WaitDist::exponential_with_mean(s * B);
                    (s, waiting_theory::competitive_factor(&d, alpha, B, 1.0))
                })
                .collect();
            o.push(label, pts);
        }
        let rho_054 = worst_case_factor(Family::Exponential, 0.5413, B);
        let rho_100 = worst_case_factor(Family::Exponential, 1.0, B);
        let (a_star, rho_star) = optimal_alpha(Family::Exponential, B);
        o.scalar("rho_054", rho_054);
        o.scalar("rho_100", rho_100);
        o.scalar("alpha_star", a_star);
        o.scalar("rho_star", rho_star);
        o.headline = format!(
            "Lpoll = 0.54B is {rho_054:.4}-competitive in expectation (paper: e/(e-1) = 1.5820); \
             search recovers a* = {a_star:.4}, rho* = {rho_star:.4}"
        );
        o
    }
    Scenario {
        name: "fig_4_4_exponential",
        figure: "Fig. 4.4",
        paper_says: "exponential waits: two-phase with Lpoll = 0.54*B within 1.58x of optimal",
        claims: &[
            Claim::BoundedRatio {
                num: "rho_054",
                den: None,
                min: 1.5,
                max: 1.585,
            },
            Claim::WithinFactorOfOptimal {
                value: "rho_054",
                optimal: "rho_star",
                factor: 1.002,
            },
            Claim::BoundedRatio {
                num: "alpha_star",
                den: None,
                min: 0.52,
                max: 0.56,
            },
            // The classic Lpoll = B choice is exactly 2-competitive in
            // the adversary's limit.
            Claim::BoundedRatio {
                num: "rho_100",
                den: None,
                min: 1.9,
                max: 2.0,
            },
        ],
        run,
    }
}

fn fig_4_5() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let scales: &[f64] = scale.pick(&[0.25, 0.5, 1.0, 2.0, 4.0, 10.0], &[0.5, 2.0]);
        let mut o = Outcome {
            sweep: "E[C]/E[C_opt] \\ bound (xB)",
            ..Outcome::default()
        };
        for (label, alpha) in [("2phase a=0.62", 0.62f64), ("2phase a=1.0", 1.0)] {
            let pts = scales
                .iter()
                .map(|&s| {
                    let d = waiting_theory::WaitDist::uniform(s * B);
                    (s, waiting_theory::competitive_factor(&d, alpha, B, 1.0))
                })
                .collect();
            o.push(label, pts);
        }
        let rho_062 = worst_case_factor(Family::Uniform, 0.62, B);
        let (a_star, rho_star) = optimal_alpha(Family::Uniform, B);
        o.scalar("rho_062", rho_062);
        o.scalar("alpha_star", a_star);
        o.scalar("rho_star", rho_star);
        o.headline = format!(
            "Lpoll = 0.62B is {rho_062:.4}-competitive under uniform waits (paper: 1.62); \
             search recovers a* = {a_star:.4}, rho* = {rho_star:.4}"
        );
        o
    }
    Scenario {
        name: "fig_4_5_uniform",
        figure: "Fig. 4.5",
        paper_says: "uniform waits: a* ~= 0.62, 1.62-competitive",
        claims: &[
            Claim::BoundedRatio {
                num: "rho_062",
                den: None,
                min: 1.55,
                max: 1.63,
            },
            Claim::WithinFactorOfOptimal {
                value: "rho_062",
                optimal: "rho_star",
                factor: 1.005,
            },
            Claim::BoundedRatio {
                num: "alpha_star",
                den: None,
                min: 0.60,
                max: 0.64,
            },
        ],
        run,
    }
}

fn fig_4_6() -> Scenario {
    fn run(_scale: Scale) -> Outcome {
        // Profiles are cheap (P = 8 small configs); both scales run the
        // same deterministic workloads.
        let fib = fib::run(&fib::FibConfig::small(8, WaitAlg::Spin));
        let aqr = aq::run_futures(&aq::AqConfig::small(8, FetchOpAlg::TtsLock, WaitAlg::Spin));
        let cg = cgrad::run(&cgrad::CgradConfig::small(8, WaitAlg::Spin));
        let jb = jacobi::run_barrier(&jacobi::JacobiConfig::small(8, WaitAlg::Spin));
        let fh = fibheap::run(&fibheap::FibHeapConfig::small(8, WaitAlg::Spin));
        let mx = mutex_app::run(&mutex_app::MutexConfig::small(8, WaitAlg::Spin));
        // A missing or empty histogram yields NaN, which fails every
        // BoundedRatio range check as a clean claim FAIL instead of a
        // panic (the pre-scenario bench printed "(no waits recorded)").
        let ratio = |stats: &alewife_sim::Stats, key: &str| match stats.waits.get(key) {
            Some(h) if h.count > 0 => (
                h.percentile(50.0) as f64 / h.mean(),
                h.max as f64 / h.mean(),
            ),
            _ => (f64::NAN, f64::NAN),
        };
        let (fib_p50, fib_tail) = ratio(&fib.stats, "future");
        let (aq_p50, _) = ratio(&aqr.stats, "future");
        let (cg_p50, cg_tail) = ratio(&cg.stats, "barrier");
        let (jb_p50, _) = ratio(&jb.stats, "barrier");
        let (fh_p50, _) = ratio(&fh.stats, "mutex");
        let (mx_p50, _) = ratio(&mx.stats, "mutex");
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "p50/mean: futures {fib_p50:.2}/{aq_p50:.2} (right-skewed, exponential-like), \
                 barriers {cg_p50:.2}/{jb_p50:.2} (median ~= mean, uniform-like), mutexes \
                 {fh_p50:.2}/{mx_p50:.2} (heavy-tailed); barrier max/mean {cg_tail:.1} vs \
                 futures {fib_tail:.1}"
            ),
            ..Outcome::default()
        };
        o.scalar("fib_p50_over_mean", fib_p50);
        o.scalar("aq_p50_over_mean", aq_p50);
        o.scalar("cgrad_p50_over_mean", cg_p50);
        o.scalar("jbar_p50_over_mean", jb_p50);
        o.scalar("fibheap_p50_over_mean", fh_p50);
        o.scalar("mutex_p50_over_mean", mx_p50);
        o.scalar("fib_max_over_mean", fib_tail);
        o.scalar("cgrad_max_over_mean", cg_tail);
        o
    }
    Scenario {
        name: "fig_4_6_wait_profiles",
        figure: "Figs. 4.6-4.11",
        paper_says: "measured waiting-time distributions match the assumed families \
                     (exponential producer-consumer/mutex, uniform barriers)",
        claims: &[
            // Exponential-like: median well below the mean (ln 2 ~= 0.69
            // for a true exponential).
            Claim::BoundedRatio {
                num: "fib_p50_over_mean",
                den: None,
                min: 0.35,
                max: 0.95,
            },
            Claim::BoundedRatio {
                num: "aq_p50_over_mean",
                den: None,
                min: 0.35,
                max: 0.95,
            },
            // Uniform-like: median tracks the mean.
            Claim::BoundedRatio {
                num: "cgrad_p50_over_mean",
                den: None,
                min: 0.7,
                max: 1.3,
            },
            Claim::BoundedRatio {
                num: "jbar_p50_over_mean",
                den: None,
                min: 0.7,
                max: 1.3,
            },
            // Mutex waits: strongly right-skewed.
            Claim::BoundedRatio {
                num: "fibheap_p50_over_mean",
                den: None,
                min: 0.05,
                max: 0.6,
            },
            Claim::BoundedRatio {
                num: "mutex_p50_over_mean",
                den: None,
                min: 0.05,
                max: 0.6,
            },
            // The barrier family's bounded support shows in the tail.
            Claim::BoundedRatio {
                num: "cgrad_max_over_mean",
                den: Some("fib_max_over_mean"),
                min: 0.0,
                max: 0.95,
            },
        ],
        run,
    }
}

fn fig_4_12() -> Scenario {
    fn run(_scale: Scale) -> Outcome {
        let b = CostModel::nwo().block_cost();
        let algs = [
            ("wait/spin", WaitAlg::Spin),
            ("wait/block", WaitAlg::Block),
            ("wait/2phase", WaitAlg::TwoPhase((b as f64 * 0.5413) as u64)),
        ];
        let cases: [Case<WaitAlg>; 3] = [
            Box::new(|w| {
                jacobi::run_jstructures(&jacobi::JacobiConfig::small(8, w)).elapsed as f64
            }),
            Box::new(|w| fib::run(&fib::FibConfig::small(8, w)).elapsed as f64),
            Box::new(|w| {
                aq::run_futures(&aq::AqConfig::small(8, FetchOpAlg::TtsLock, w)).elapsed as f64
            }),
        ];
        let mut o = Outcome {
            sweep: "cycles \\ app index",
            ..Outcome::default()
        };
        let ratios = adaptive_matrix(&mut o, &algs, &cases);
        o.scalar("jacobi_ratio", ratios[0]);
        o.scalar("fib_ratio", ratios[1]);
        o.scalar("aq_ratio", ratios[2]);
        o.headline = format!(
            "2phase(0.54B) vs best static: Jacobi {:.2}x, AQ {:.2}x; Fib {:.2}x — at these \
             miniature sizes blocking's unload/reload dominates Fib's short futures, a \
             known small-scale artifact pinned by the claim bounds",
            ratios[0], ratios[2], ratios[1]
        );
        o
    }
    Scenario {
        name: "fig_4_12_producer_consumer",
        figure: "Fig. 4.12",
        paper_says: "two-phase waiting ~= best static poll/block choice for \
                     J-structures/futures",
        claims: &[
            Claim::BoundedRatio {
                num: "jacobi_ratio",
                den: None,
                min: 0.8,
                max: 1.2,
            },
            Claim::BoundedRatio {
                num: "aq_ratio",
                den: None,
                min: 0.8,
                max: 2.1,
            },
            // Regression pin for the Fib small-scale anomaly: two-phase
            // pays poll+block on most of Fib's sub-B waits. If this
            // drifts further from the paper's ~= 1, investigate.
            Claim::BoundedRatio {
                num: "fib_ratio",
                den: None,
                min: 0.8,
                max: 3.6,
            },
        ],
        run,
    }
}

fn fig_4_13() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let b = CostModel::nwo().block_cost();
        let procs: &[usize] = scale.pick(&[4, 8, 16], &[8]);
        let algs = [
            ("wait/spin", WaitAlg::Spin),
            ("wait/block", WaitAlg::Block),
            ("wait/2phase", WaitAlg::TwoPhase(b)),
        ];
        let mut cases: Vec<Case<WaitAlg>> = Vec::new();
        for &p in procs {
            cases.push(Box::new(move |w| {
                cgrad::run(&cgrad::CgradConfig::small(p, w)).elapsed as f64
            }));
            cases.push(Box::new(move |w| {
                jacobi::run_barrier(&jacobi::JacobiConfig::small(p, w)).elapsed as f64
            }));
        }
        let mut o = Outcome {
            sweep: "cycles \\ app index",
            ..Outcome::default()
        };
        let ratios = adaptive_matrix(&mut o, &algs, &cases);
        let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
        o.scalar("two_phase_worst_ratio", worst);
        o.headline = format!(
            "2phase(L=B) within {worst:.2}x of the best static choice across CGrad and \
             Jacobi-Bar at P = {procs:?} despite uniform barrier waits"
        );
        o
    }
    Scenario {
        name: "fig_4_13_barriers",
        figure: "Fig. 4.13",
        paper_says: "two-phase waiting competitive at barriers despite uniform waits",
        claims: &[Claim::TracksBest {
            series: "wait/2phase",
            over: &["wait/spin", "wait/block"],
            slack: 1.25,
        }],
        run,
    }
}

fn fig_4_14() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let b = CostModel::nwo().block_cost();
        let procs: &[usize] = scale.pick(&[4, 8, 16], &[8]);
        let algs = [
            ("wait/spin", WaitAlg::Spin),
            ("wait/block", WaitAlg::Block),
            ("wait/2phase", WaitAlg::TwoPhase((b as f64 * 0.5413) as u64)),
        ];
        let mut cases: Vec<Case<WaitAlg>> = Vec::new();
        for &p in procs {
            cases.push(Box::new(move |w| {
                fibheap::run(&fibheap::FibHeapConfig::small(p, w)).elapsed as f64
            }));
            cases.push(Box::new(move |w| {
                countnet::run(&countnet::CountNetConfig::small(p, w)).elapsed as f64
            }));
            cases.push(Box::new(move |w| {
                mutex_app::run(&mutex_app::MutexConfig::small(p, w)).elapsed as f64
            }));
        }
        let mut o = Outcome {
            sweep: "cycles \\ app index",
            ..Outcome::default()
        };
        let ratios = adaptive_matrix(&mut o, &algs, &cases);
        let worst = ratios.iter().fold(0f64, |m, &r| m.max(r));
        // The meltdown scalar compares the spin and two-phase series
        // pointwise (both pushed by adaptive_matrix just above).
        let spin_over_2p = {
            let spin = o.series_named("wait/spin").unwrap();
            let two = o.series_named("wait/2phase").unwrap();
            spin.points
                .iter()
                .zip(&two.points)
                .fold(0f64, |m, (&(_, s), &(_, t))| m.max(s / t))
        };
        o.scalar("two_phase_worst_ratio", worst);
        o.scalar("spin_meltdown_vs_two_phase", spin_over_2p);
        o.headline = format!(
            "2phase(0.54B) within {worst:.2}x of best static across \
             FibHeap/CountNet/Mutex at P = {procs:?}; always-spin melts to \
             {spin_over_2p:.1}x two-phase under load"
        );
        o
    }
    Scenario {
        name: "fig_4_14_mutex",
        figure: "Fig. 4.14",
        paper_says: "two-phase waiting competitive for mutexes under varied load",
        claims: &[
            Claim::TracksBest {
                series: "wait/2phase",
                over: &["wait/spin", "wait/block"],
                slack: 1.35,
            },
            Claim::BoundedRatio {
                num: "spin_meltdown_vs_two_phase",
                den: None,
                min: 1.3,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

fn table_4_6() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let b = CostModel::nwo().block_cost();
        let half = WaitAlg::TwoPhase(b / 2);
        let full = WaitAlg::TwoPhase(b);
        type Runner = Box<dyn Fn(WaitAlg) -> f64>;
        let mut apps: Vec<(&'static str, Runner)> = vec![
            (
                "jacobi",
                Box::new(|w| {
                    jacobi::run_jstructures(&jacobi::JacobiConfig::small(8, w)).elapsed as f64
                }),
            ),
            (
                "fib",
                Box::new(|w| fib::run(&fib::FibConfig::small(8, w)).elapsed as f64),
            ),
            (
                "cgrad",
                Box::new(|w| cgrad::run(&cgrad::CgradConfig::small(8, w)).elapsed as f64),
            ),
            (
                "mutex",
                Box::new(|w| mutex_app::run(&mutex_app::MutexConfig::small(8, w)).elapsed as f64),
            ),
        ];
        if scale == Scale::Full {
            apps.push((
                "aq",
                Box::new(|w| {
                    aq::run_futures(&aq::AqConfig::small(8, FetchOpAlg::TtsLock, w)).elapsed as f64
                }),
            ));
            apps.push((
                "jacobi-bar",
                Box::new(|w| {
                    jacobi::run_barrier(&jacobi::JacobiConfig::small(8, w)).elapsed as f64
                }),
            ));
            apps.push((
                "fibheap",
                Box::new(|w| fibheap::run(&fibheap::FibHeapConfig::small(8, w)).elapsed as f64),
            ));
            apps.push((
                "countnet",
                Box::new(|w| countnet::run(&countnet::CountNetConfig::small(8, w)).elapsed as f64),
            ));
        }
        let mut ratio = Vec::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (i, (_, runner)) in apps.iter().enumerate() {
            let r = runner(half) / runner(full);
            lo = lo.min(r);
            hi = hi.max(r);
            ratio.push((i as f64, r));
        }
        let names: Vec<&str> = apps.iter().map(|&(n, _)| n).collect();
        let mut o = Outcome {
            sweep: "L=0.5B / L=B \\ app index",
            headline: format!(
                "elapsed(Lpoll = B/2) / elapsed(Lpoll = B) in [{lo:.2}, {hi:.2}] across \
                 {names:?} — the rule of thumb costs at most a few % either way"
            ),
            ..Outcome::default()
        };
        o.push("ratio/halfB_over_B", ratio);
        o
    }
    Scenario {
        name: "table_4_6_lpoll_half",
        figure: "Table 4.6",
        paper_says: "Lpoll = B/2 rule of thumb within a few % of optimal across apps",
        claims: &[Claim::BoundedRatio {
            num: "ratio/halfB_over_B",
            den: None,
            min: 0.8,
            max: 1.2,
        }],
        run,
    }
}

// ---------------------------------------------------------------------
// Beyond the paper — kernel-built objects
// ---------------------------------------------------------------------

fn barrier_reactive() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&[2, 4, 8, 16, 32], &[2, 32]);
        let rounds = scale.pick(24, 12);
        let mut central = Vec::new();
        let mut tree = Vec::new();
        let mut reactive = Vec::new();
        let mut switches_hi = 0u64;
        for &p in procs {
            let x = p as f64;
            central.push((
                x,
                exp::barrier_overhead_counted(exp::BarrierAlg::Central, p, rounds).0,
            ));
            tree.push((
                x,
                exp::barrier_overhead_counted(exp::BarrierAlg::Tree, p, rounds).0,
            ));
            let (r, s) = exp::barrier_overhead_counted(exp::BarrierAlg::Reactive, p, rounds);
            reactive.push((x, r));
            switches_hi = s;
        }
        let hi = procs.len() - 1;
        let worst = reactive
            .iter()
            .zip(central.iter().zip(&tree))
            .fold(0f64, |m, (&(_, r), (&(_, c), &(_, t)))| m.max(r / c.min(t)));
        let mut o = Outcome {
            sweep: "cycles/round \\ procs",
            headline: format!(
                "reactive barrier within {worst:.2}x of the best static arrival protocol \
                 across P = {}..{}; tree beats central {:.0} vs {:.0} cycles/round at P = {} \
                 ({} switch(es), via the switching kernel)",
                procs[0], procs[hi], tree[hi].1, central[hi].1, procs[hi], switches_hi,
            ),
            ..Outcome::default()
        };
        o.push("bar/central", central);
        o.push("bar/tree", tree);
        o.push("bar/reactive", reactive);
        o.scalar("reactive_switches_hi", switches_hi as f64);
        o.scalar("reactive_worst_ratio", worst);
        o
    }
    Scenario {
        name: "barrier_reactive",
        figure: "— (beyond the paper)",
        paper_says: "the kernel-built reactive barrier tracks the best static arrival \
                     protocol: central sense-reversing at low P, combining tree at high P",
        claims: &[
            Claim::Crossover {
                cheap: "bar/central",
                scalable: "bar/tree",
            },
            Claim::TracksBest {
                series: "bar/reactive",
                over: &["bar/central", "bar/tree"],
                slack: 1.25,
            },
            // The tree's scalability edge at the high end is real, and
            // the reactive barrier reached it by switching (count read
            // from the kernel).
            Claim::BoundedRatio {
                num: "reactive_switches_hi",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

/// §3.5.5's protocol-change round trip on Alewife, `d_AB + d_BA`
/// (≈ 8000 + ≈ 800 cycles): the constant `Competitive3` takes.
const PAPER_ROUND_TRIP: f64 = 8_800.0;

fn switch_cost() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let [to_queue, to_tts] = exp::switch_cost_cycles(scale.pick(300, 30));
        let round_trip = to_queue + to_tts;
        let mut o = Outcome {
            headline: format!(
                "16-way contended sim: TTS→queue {to_queue:.1} cycles, queue→TTS \
                 {to_tts:.1}, round trip {round_trip:.1} ({:.2}x the paper's ≈ 8000 + ≈ 800 \
                 on Alewife); native round trip in BENCH_service_native.json `path_cost`",
                round_trip / PAPER_ROUND_TRIP
            ),
            ..Outcome::default()
        };
        o.scalar("to_queue_cycles", to_queue);
        o.scalar("to_tts_cycles", to_tts);
        o.scalar("round_trip_cycles", round_trip);
        o.scalar("paper_round_trip_cycles", PAPER_ROUND_TRIP);
        o
    }
    Scenario {
        name: "switch_cost",
        figure: "§3.5.5 (the ≈8000-cycle figure)",
        paper_says: "a protocol change costs a measurable constant d_AB + d_BA (≈ 8000 + ≈ 800 \
                     cycles on Alewife), the round trip the 3-competitive policy is \
                     parameterized by",
        claims: &[
            // Each direction's switching release costs more than a
            // plain release in the same mode.
            Claim::BoundedRatio {
                num: "to_queue_cycles",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            Claim::BoundedRatio {
                num: "to_tts_cycles",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            // The round trip is no dearer than Alewife's and not
            // trivially small.
            Claim::BoundedRatio {
                num: "round_trip_cycles",
                den: Some("paper_round_trip_cycles"),
                min: 0.1,
                max: 1.0,
            },
        ],
        run,
    }
}

// ---------------------------------------------------------------------
// Beyond the paper — crash/abort robustness and RMR accounting
// ---------------------------------------------------------------------

fn rmr_recoverable() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&[2, 4, 8, 16], &[2, 8]);
        let iters = scale.pick(40, 16);
        let kills = scale.pick(3, 2);
        let mut per_passage = Vec::new();
        let mut per_log = Vec::new();
        let mut conserved = Vec::new();
        let mut kills_total = 0.0;
        for &p in procs {
            let s = crate::rmr::recoverable_rmr(p, iters, kills, 6_000, 1_500);
            let x = p as f64;
            let per = s.rmr_cc as f64 / s.passages as f64;
            per_passage.push((x, per));
            // log2(n), floored at 1 so the n = 2 point divides by the
            // tree's single level.
            per_log.push((x, per / (p as f64).log2().max(1.0)));
            conserved.push((x, s.passages as f64 / (iters * p as u64) as f64));
            kills_total += s.kills as f64;
        }
        let worst = per_log.iter().fold(0f64, |m, &(_, v)| m.max(v));
        let mut o = Outcome {
            sweep: "RMR \\ procs",
            headline: format!(
                "recoverable mutex: <= {worst:.1} CC RMR per passage per log2(n) across \
                 crash schedules ({kills_total:.0} kills injected); every passage conserved"
            ),
            ..Outcome::default()
        };
        o.push("rmr/cc_per_passage", per_passage);
        o.push("rmr/cc_per_passage_per_log", per_log);
        o.push("rmr/passages_conserved", conserved);
        o.scalar("kills_total", kills_total);
        o
    }
    Scenario {
        name: "rmr_recoverable",
        figure: "— (beyond the paper; Golab–Ramaraju RME bound)",
        paper_says: "the crash-recoverable mutex costs O(log n) CC-model RMRs per passage \
                     even across crash/recovery schedules, and no passage is lost",
        claims: &[
            // RMRs per passage grow no faster than c * log2(n) (c
            // calibrated with headroom over the deterministic
            // measurement).
            Claim::BoundedRatio {
                num: "rmr/cc_per_passage_per_log",
                den: None,
                min: 0.0,
                max: 12.0,
            },
            // Conservation: every scheduled passage completed despite
            // the kills (the NVM tally reaches iters on every node).
            Claim::BoundedRatio {
                num: "rmr/passages_conserved",
                den: None,
                min: 1.0,
                max: 1.0,
            },
            // The schedule actually crashed nodes.
            Claim::BoundedRatio {
                num: "kills_total",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

fn rmr_abortable() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs: &[usize] = scale.pick(&[2, 4, 8, 16], &[2, 8]);
        let iters = scale.pick(60, 24);
        let mut cc_per_op = Vec::new();
        let mut dsm_per_op = Vec::new();
        let mut abort_share = Vec::new();
        for &p in procs {
            let s = crate::rmr::abortable_rmr(p, iters, 400, 10);
            let x = p as f64;
            let ops = (s.passages + s.aborts) as f64;
            cc_per_op.push((x, s.rmr_cc as f64 / ops));
            dsm_per_op.push((x, s.rmr_dsm as f64 / ops));
            abort_share.push((x, s.aborts as f64 / ops));
        }
        let cc_worst = cc_per_op.iter().fold(0f64, |m, &(_, v)| m.max(v));
        let dsm_worst = dsm_per_op.iter().fold(0f64, |m, &(_, v)| m.max(v));
        let aborted: f64 = abort_share.iter().map(|&(_, v)| v).sum::<f64>();
        let mut o = Outcome {
            sweep: "RMR \\ procs",
            headline: format!(
                "abortable MCS: amortized RMR per operation stays flat — \
                 <= {cc_worst:.1} (CC) and <= {dsm_worst:.1} (DSM) per passage-or-abort \
                 from P = {} to {}, aborts included",
                procs[0],
                procs[procs.len() - 1],
            ),
            ..Outcome::default()
        };
        o.push("rmr/cc_per_op", cc_per_op);
        o.push("rmr/dsm_per_op", dsm_per_op);
        o.push("rmr/abort_share", abort_share);
        o.scalar("aborts_happened", aborted);
        o
    }
    Scenario {
        name: "rmr_abortable",
        figure: "— (beyond the paper; O(1)-amortized abortable lock)",
        paper_says: "the abortable MCS lock costs O(1) amortized RMRs per operation \
                     (passage or abort) in both the CC and DSM cost models",
        claims: &[
            // O(1) amortized, CC model: a constant independent of P.
            Claim::BoundedRatio {
                num: "rmr/cc_per_op",
                den: None,
                min: 0.0,
                max: 16.0,
            },
            // ...and DSM model (qnodes are homed locally, so the walk
            // stays constant-cost there too).
            Claim::BoundedRatio {
                num: "rmr/dsm_per_op",
                den: None,
                min: 0.0,
                max: 16.0,
            },
            // The deadline/storm schedule actually exercised aborts.
            Claim::BoundedRatio {
                num: "aborts_happened",
                den: None,
                min: 0.01,
                max: f64::INFINITY,
            },
            // Flat: per-op cost does not grow with P (the amortized
            // constant, restated as a scaling shape).
            Claim::FlatScaling {
                series: "rmr/cc_per_op",
                from_x: 2.0,
                factor: 4.0,
            },
        ],
        run,
    }
}

fn storm_robustness() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let procs = scale.pick(12, 6);
        let iters = scale.pick(30, 12);
        let kills = scale.pick(10, 4);
        let outage = 1_200u64;
        let s = crate::rmr::crash_storm(procs, iters, kills, 40_000, outage);
        let violations = if s.violation.is_some() { 1.0 } else { 0.0 };
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "crash storm ({} kills over {} nodes): {} passages all conserved, \
                 oracle clean over {} events, worst kill-to-repaired lag {} cycles \
                 (outage {}){}",
                s.kills,
                procs,
                s.passages,
                s.events,
                s.recovery_worst,
                outage,
                match &s.violation {
                    Some(v) => format!("; VIOLATION: {v}"),
                    None => String::new(),
                },
            ),
            ..Outcome::default()
        };
        o.scalar("storm/oracle_violations", violations);
        o.scalar(
            "storm/passages_conserved",
            s.passages as f64 / (iters * procs as u64) as f64,
        );
        o.scalar("storm/kills", s.kills as f64);
        o.scalar("storm/recovery_worst", s.recovery_worst as f64);
        o.scalar("storm/outage", outage as f64);
        o
    }
    Scenario {
        name: "storm_robustness",
        figure: "— (beyond the paper; crash-storm robustness)",
        paper_says: "under a randomized crash storm the recoverable mutex loses no waiter, \
                     never double-grants, and every node is repaired within a bounded lag \
                     of its outage",
        claims: &[
            // The crash-aware §3.2 oracle (waiter conservation, abort
            // safety, no double grant) over the full observable history.
            Claim::BoundedRatio {
                num: "storm/oracle_violations",
                den: None,
                min: 0.0,
                max: 0.0,
            },
            // No lost passages: every node's NVM tally reaches its quota.
            Claim::BoundedRatio {
                num: "storm/passages_conserved",
                den: None,
                min: 1.0,
                max: 1.0,
            },
            // The storm actually delivered kills.
            Claim::BoundedRatio {
                num: "storm/kills",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            // Bounded recovery: kill-to-repaired lag is the outage plus
            // a bounded repair tail (tree unwind + re-entry), not an
            // unbounded stall.
            Claim::BoundedRatio {
                num: "storm/recovery_worst",
                den: Some("storm/outage"),
                min: 0.0,
                max: 3.0,
            },
        ],
        run,
    }
}

fn service_tail_latency() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let ad = crate::service::run_mixed(scale, true, ArenaMode::Adaptive);
        let tts = crate::service::run_mixed(scale, true, ArenaMode::StaticTts);
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "hot mixed tenancy over {} objects: adaptive p50/p99/p999 = {}/{}/{} ns \
                 ({} acquires, {} switches, abort rate {:.4}) vs static-TTS p999 {} ns \
                 (abort rate {:.4}); limiter oracle clean",
                ad.objects,
                ad.p50_ns(),
                ad.p99_ns(),
                ad.p999_ns(),
                ad.acquires,
                ad.switches,
                ad.abort_rate(),
                tts.p999_ns(),
                tts.abort_rate(),
            ),
            ..Outcome::default()
        };
        o.scalar("service/p50_ns", ad.p50_ns() as f64);
        o.scalar("service/p99_ns", ad.p99_ns() as f64);
        o.scalar("service/p999_ns", ad.p999_ns() as f64);
        o.scalar("service/static_tts_p999_ns", tts.p999_ns() as f64);
        o.scalar("service/abort_rate", ad.abort_rate());
        o.scalar("service/static_tts_abort_rate", tts.abort_rate());
        o.scalar("service/switches", ad.switches as f64);
        o.scalar(
            "service/tail_oracle_violations",
            ad.stampedes().len() as f64,
        );
        o
    }
    Scenario {
        name: "service_tail_latency",
        figure: "— (beyond the paper; lock-service tail latency)",
        paper_says: "a multi-tenant arena of adaptive objects keeps p999 acquire latency \
                     under the tenant deadline and below static TTS, without shedding load: \
                     reactive switching is what bounds the tail",
        claims: &[
            // The CI-gated tail bound: p999 stays under the hot
            // tenant's 60 µs deadline with real headroom.
            Claim::BoundedRatio {
                num: "service/p999_ns",
                den: None,
                min: 100.0,
                max: 40_000.0,
            },
            // Adaptive tail beats the static-TTS tail outright.
            Claim::BoundedRatio {
                num: "service/p999_ns",
                den: Some("service/static_tts_p999_ns"),
                min: 0.0,
                max: 0.95,
            },
            // …and does so while serving everything (static TTS sheds
            // >1% of requests at their deadline; adaptive sheds none).
            Claim::BoundedRatio {
                num: "service/abort_rate",
                den: None,
                min: 0.0,
                max: 0.005,
            },
            Claim::BoundedRatio {
                num: "service/static_tts_abort_rate",
                den: None,
                min: 0.01,
                max: 1.0,
            },
            // The adaptation was real (objects actually switched) and
            // stampede-free under the default limiter.
            Claim::BoundedRatio {
                num: "service/switches",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            Claim::BoundedRatio {
                num: "service/tail_oracle_violations",
                den: None,
                min: 0.0,
                max: 0.0,
            },
        ],
        run,
    }
}

fn service_bytes_per_object() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let sweep = crate::service::residency_sweep(scale);
        let mut at_rest = Vec::new();
        let mut total = Vec::new();
        let mut hot_frac = Vec::new();
        for &objects in &sweep {
            let r = crate::service::run_residency(scale, objects);
            let x = objects as f64;
            at_rest.push((x, r.footprint.at_rest_bytes_per_object()));
            total.push((x, r.footprint.total_bytes_per_object()));
            hot_frac.push((x, r.footprint.hot_objects as f64 / objects as f64));
        }
        let mut o = Outcome {
            sweep: "arena objects",
            headline: format!(
                "{} -> {} objects: at-rest {:.2} -> {:.2} bytes/object \
                 ({:.2} -> {:.2} including hot side state); working-set fraction \
                 {:.2e} -> {:.2e}",
                sweep[0],
                sweep[1],
                at_rest[0].1,
                at_rest[1].1,
                total[0].1,
                total[1].1,
                hot_frac[0].1,
                hot_frac[1].1,
            ),
            ..Outcome::default()
        };
        o.push("service/at_rest_bytes_per_object", at_rest);
        o.push("service/total_bytes_per_object", total);
        o.push("service/hot_fraction", hot_frac);
        o
    }
    Scenario {
        name: "service_bytes_per_object",
        figure: "— (beyond the paper; lock-service memory bound)",
        paper_says: "per-object state is memory-bounded: one packed word per object at \
                     rest, journals and instrumentation lazily allocated for hot objects \
                     only, so bytes/object stays flat (≈8, budget 64) as the arena grows \
                     an order of magnitude",
        claims: &[
            // The 64-byte budget, with the slot word's ~8 bytes as the
            // real floor — measured, not asserted.
            Claim::BoundedRatio {
                num: "service/at_rest_bytes_per_object",
                den: None,
                min: 8.0,
                max: 64.0,
            },
            Claim::BoundedRatio {
                num: "service/total_bytes_per_object",
                den: None,
                min: 8.0,
                max: 64.0,
            },
            // Flat scaling: growing the arena 10x must not move
            // bytes/object (fixed costs amortise; nothing per-object
            // grows).
            Claim::FlatScaling {
                series: "service/at_rest_bytes_per_object",
                from_x: 0.0,
                factor: 1.05,
            },
            // Side state tracks the working set, not the arena.
            Claim::BoundedRatio {
                num: "service/hot_fraction",
                den: None,
                min: 0.0,
                max: 1e-3,
            },
        ],
        run,
    }
}

fn service_stampede() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let limited = crate::service::run_burst(scale, true);
        let control = crate::service::run_burst(scale, false);
        let cfg = crate::service::BURST_LIMITER;
        let limited_viol = limited.stampedes().len();
        let control_viol = lock_service::check_no_stampede(&control.switch_log, cfg)
            .expect("the burst limiter has a positive period")
            .len();
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "spiking load over {} objects: limited run committed {} switches \
                 ({} denied, oracle clean); unlimited control stampeded {} switches \
                 with {} window violations of the same bound",
                limited.objects,
                limited.switches,
                limited.switch_denials,
                control.switches,
                control_viol,
            ),
            ..Outcome::default()
        };
        o.scalar("service/stampede_violations", limited_viol as f64);
        o.scalar("service/control_violations", control_viol as f64);
        o.scalar("service/limited_switches", limited.switches as f64);
        o.scalar("service/switch_denials", limited.switch_denials as f64);
        o
    }
    Scenario {
        name: "service_stampede",
        figure: "— (beyond the paper; switch-rate limiting under bursts)",
        paper_says: "a per-shard token bucket keeps synchronized switch demand from \
                     stampeding: every window obeys burst + W/period + 1, checked by an \
                     offline oracle that provably rejects the unthrottled control run",
        claims: &[
            // The limited run satisfies the no-stampede invariant…
            Claim::BoundedRatio {
                num: "service/stampede_violations",
                den: None,
                min: 0.0,
                max: 0.0,
            },
            // …while the unthrottled control violates the same bound,
            // so the oracle demonstrably has teeth on real logs.
            Claim::BoundedRatio {
                num: "service/control_violations",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            // The limiter throttled without freezing: switches still
            // happened, and denials prove the spike actually pressed
            // against the cap.
            Claim::BoundedRatio {
                num: "service/limited_switches",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
            Claim::BoundedRatio {
                num: "service/switch_denials",
                den: None,
                min: 1.0,
                max: f64::INFINITY,
            },
        ],
        run,
    }
}

fn service_tracks_best() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let deadline = crate::service::MIXED_DEADLINE_NS;
        type ModeSeries = (&'static str, ArenaMode, Vec<(f64, f64)>);
        let mut series: Vec<ModeSeries> = vec![
            ("service/adaptive", ArenaMode::Adaptive, Vec::new()),
            ("service/static_tts", ArenaMode::StaticTts, Vec::new()),
            ("service/static_queue", ArenaMode::StaticQueue, Vec::new()),
        ];
        for (x, hot) in [(0.0, false), (1.0, true)] {
            for (_, mode, points) in series.iter_mut() {
                let r = crate::service::run_mixed(scale, hot, *mode);
                points.push((x, crate::service::adjusted_mean_ns(&r, deadline)));
            }
        }
        let fmt = |p: &Vec<(f64, f64)>| format!("{:.0}/{:.0}", p[0].1, p[1].1);
        let mut o = Outcome {
            sweep: "contention regime (0 = calm, 1 = hot)",
            headline: format!(
                "deadline-adjusted mean acquire ns (calm/hot): adaptive {}, \
                 static TTS {}, static queue {} — the arena tracks the best static \
                 protocol in both regimes",
                fmt(&series[0].2),
                fmt(&series[1].2),
                fmt(&series[2].2),
            ),
            ..Outcome::default()
        };
        for (label, _, points) in series {
            o.push(label, points);
        }
        o
    }
    Scenario {
        name: "service_tracks_best",
        figure: "— (beyond the paper; Fig. 3.15's shape at service scale)",
        paper_says: "across contention regimes the adaptive arena stays within 1.5x of \
                     the best static protocol choice, while each static choice loses a \
                     regime (TTS cheap when calm, queue the only survivor when hot)",
        claims: &[
            Claim::TracksBest {
                series: "service/adaptive",
                over: &["service/static_tts", "service/static_queue"],
                slack: 1.5,
            },
            // The regimes genuinely disagree about the best static
            // protocol — otherwise tracking the best would be vacuous.
            Claim::Crossover {
                cheap: "service/static_tts",
                scalable: "service/static_queue",
            },
        ],
        run,
    }
}

fn service_native_tail() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let ad = crate::service_native::run_tail(scale, ArenaMode::Adaptive);
        let tts = crate::service_native::run_tail(scale, ArenaMode::StaticTts);
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
        // deadline-adjusted* histogram, for two reasons. First, the
        // merged histogram folds in the open tenant's
        // scheduled-arrival backlog — a measure of CPU saturation
        // that drowns the policy signal on small hosts. Second, a
        // completed-only percentile is survivorship-biased: flat TTS
        // starves a descheduled waiter so thoroughly that its acquire
        // never finishes and never lands a sample, so the *worse* the
        // flat lock behaves the *better* its completed tail looks.
        // The adjusted histogram charges every shed request its full
        // 50 ms deadline, which is a lower bound on the truth.
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
    Scenario {
        name: "service_native_tail",
        figure: "— (beyond the paper; the service tail row on real threads)",
        paper_says: "the adaptive arena's tail advantage survives the move from virtual \
                     time to real preempted threads: inflating hot objects to FIFO \
                     kernel-backed locks beats a static flat-TTS pin at the \
                     deadline-adjusted p999 (shed requests charged their full deadline) \
                     under mixed tenancy, because an unfair flat spin lock lets a \
                     zero-think captor starve its waiters to the deadline",
        claims: &[
            // The CI-gated native sanity claim: the hot tenant's
            // adaptive deadline-adjusted p999 beats its static-TTS
            // one outright. Under flat TTS the running captor starves
            // whichever worker is descheduled until the 50 ms
            // deadline sheds it (charged in full); once inflated, the
            // kernel lock's FIFO queue grants everyone at handoff
            // scale (calibrated: adjusted p999 ~0.1-1.6 ms vs the
            // 50 ms shed plateau, ratio <= 0.032 across reps).
            // Real-thread numbers are noisy, so the bound is
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
            // The calm tenant's 60 µs deadline sheds almost nothing on
            // the adaptive arm.
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
        run,
    }
}

fn service_native_deflation() -> Scenario {
    fn run(scale: Scale) -> Outcome {
        let d = crate::service_native::run_deflation(scale);
        let footprint_ratio = d.hot_bytes_calm as f64 / d.hot_bytes_storm as f64;
        let mut o = Outcome {
            sweep: "",
            headline: format!(
                "storm -> calm -> storm on one object: {} inflations / {} deflations, \
                 {} live after calm, hot footprint {} -> {} bytes ({:.2}x), slab holds \
                 {} entry after re-inflation; {} mutual-exclusion violations",
                d.inflations,
                d.deflations,
                d.live_after_calm,
                d.hot_bytes_storm,
                d.hot_bytes_calm,
                footprint_ratio,
                d.slab_entries,
                d.violations,
            ),
            ..Outcome::default()
        };
        o.scalar("service_native/roundtrip_inflations", d.inflations as f64);
        o.scalar("service_native/deflations", d.deflations as f64);
        o.scalar("service_native/live_after_calm", d.live_after_calm as f64);
        o.scalar("service_native/footprint_ratio", footprint_ratio);
        o.scalar("service_native/slab_entries", d.slab_entries as f64);
        o.scalar("service_native/mutex_violations", d.violations as f64);
        o
    }
    Scenario {
        name: "service_native_deflation",
        figure: "— (beyond the paper; lock deflation reclaims the hot set)",
        paper_says: "a durably calm inflated object demotes back to a flat slot word: \
                     the slab entry is reclaimed (footprint shrinks when a hot phase \
                     cools), a later storm re-inflates through the free list without \
                     growing the slab, and mutual exclusion holds across both \
                     promotion boundaries",
        claims: &[
            // The round trip really happened: inflate, deflate, and
            // inflate again (>= 2 cumulative inflations).
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
            // Re-inflation reused the retired slab entry instead of
            // growing the slab.
            Claim::BoundedRatio {
                num: "service_native/slab_entries",
                den: None,
                min: 1.0,
                max: 1.0,
            },
            // The in-CS overlap counter saw exclusive holds across the
            // flat path, the inflated path, and both transitions.
            Claim::BoundedRatio {
                num: "service_native/mutex_violations",
                den: None,
                min: 0.0,
                max: 0.0,
            },
        ],
        run,
    }
}

fn sim_parallel_scale() -> Scenario {
    use alewife_sim::parallel::{Cluster, ClusterReport, ParallelConfig};
    use alewife_sim::Config;

    fn cluster(nodes: usize, workers: usize, epoch_window: u64) -> Cluster {
        Cluster::new(
            nodes,
            Config::default().cost(CostModel::nwo()).seed(0x5CA1E),
            ParallelConfig {
                workers,
                epoch_window,
            },
        )
    }

    /// The mode-observable digest: if any of these differ between the
    /// serial and threaded executions, conformance is broken.
    fn digest(r: &ClusterReport) -> (u64, u64, u64, u64, u64, u64) {
        (
            r.stats.sim_events,
            r.stats.net_msgs,
            r.stats.active_msgs,
            r.stats.counter("ring_hops"),
            r.elapsed,
            r.stats.rmr_cc.iter().sum(),
        )
    }

    fn run(scale: Scale) -> Outcome {
        // 16x the single-machine headline shape at full scale: 1024
        // nodes as sixteen 64-node tiles. Quick keeps the same tiling
        // rule at debug-affordable size, with the epoch window scaled
        // down alongside the run length so the schedule still spans
        // enough epochs for the balance (speedup) measurement to be
        // meaningful.
        let (nodes, workers, iters, window) =
            scale.pick((1024, 16, 60, 20_000), (64, 4, 12, 1_500));

        // Cross-mode conformance + causality on the contended reactive
        // cluster (the workload the benchmark's `cluster_ring` times).
        // The paper's contended-lock workload, tiled once per shard,
        // with a heartbeat every 4 acquisitions.
        let serial = cluster(nodes, workers, window)
            .run_serial(|c| exp::cluster_lock_tile(c, LockAlg::Reactive, 5, 1, iters, 4));
        let threaded = cluster(nodes, workers, window)
            .run_parallel(|c| exp::cluster_lock_tile(c, LockAlg::Reactive, 5, 1, iters, 4));
        let conforms = digest(&serial) == digest(&threaded)
            && serial.live_tasks == 0
            && threaded.live_tasks == 0;
        let violations = serial.causality_violations + threaded.causality_violations;
        // Epoch-schedule speedup in *events*: total events over the
        // per-epoch-max critical path. Deterministic and
        // build-independent, so it gates identically at both scales;
        // W perfectly balanced shards would score W.
        let speedup = serial.stats.sim_events as f64 / serial.critical_path_events as f64;

        // The paper's reactive-tracks-best claim, re-run at tile scale
        // in the fig 3.15 regime (CS = 100 cycles, bounded random
        // think, 16 lock acquisitions per processor) and scored the
        // same way: per-CS overhead above the ideal test-loop latency,
        // at two think-time bounds. The cluster's elapsed time is the
        // max over its (identically loaded, differently seeded) tiles,
        // so per-CS cost divides by one tile's acquisition count.
        let (tb_cs, tb_iters) = (100u64, 16u64);
        let tile_procs = nodes / workers;
        let thinks: [u64; 2] = [500, 1_000];
        let algs = [
            ("par/reactive", LockAlg::Reactive),
            ("par/tts", LockAlg::Tts),
            ("par/queue", LockAlg::Mcs),
        ];
        let mut curves: Vec<(&'static str, Vec<(f64, f64)>)> =
            algs.iter().map(|&(l, _)| (l, Vec::new())).collect();
        for &think in &thinks {
            for (ci, &(_, alg)) in algs.iter().enumerate() {
                let r = cluster(nodes, workers, window)
                    .run_serial(|c| exp::cluster_lock_tile(c, alg, tb_cs, think, tb_iters, 4));
                assert_eq!(r.live_tasks, 0, "tile workload deadlocked");
                let per_cs = r.elapsed as f64 / (tile_procs as u64 * tb_iters) as f64;
                let ideal =
                    ((tb_cs as f64 + think as f64 / 2.0) / tile_procs as f64).max(tb_cs as f64);
                curves[ci].1.push((think as f64, (per_cs - ideal).max(0.0)));
            }
        }

        let mut o = Outcome {
            sweep: "overhead cyc/CS \\ think bound",
            headline: format!(
                "{nodes}-node cluster as {workers} tiles: cross-mode conformance {}, \
                 {} causality violations, epoch critical-path speedup {speedup:.1}x over \
                 {} epochs (lookahead {} cycles); per-tile reactive tracks best static",
                if conforms { "exact" } else { "BROKEN" },
                violations,
                serial.epochs,
                serial.lookahead,
            ),
            ..Outcome::default()
        };
        for (label, pts) in curves {
            o.push(label, pts);
        }
        o.scalar("parallel/conformance_equal", f64::from(u8::from(conforms)));
        o.scalar("parallel/causality_violations", violations as f64);
        o.scalar("parallel/critical_path_speedup", speedup);
        o.scalar("parallel/epochs", serial.epochs as f64);
        o
    }
    Scenario {
        name: "sim_parallel_scale",
        figure: "— (beyond the paper; conservative parallel simulation)",
        paper_says: "sharding the machine into per-tile simulators under a conservative \
                     epoch scheme loses nothing: the threaded execution is bit-identical \
                     to the serial reference, no event ever runs ahead of an undelivered \
                     cross-tile message, the epoch schedule exposes real parallelism \
                     (critical path well under total work), and the paper's \
                     reactive-tracks-best result survives at 16x machine scale",
        claims: &[
            Claim::BoundedRatio {
                num: "parallel/conformance_equal",
                den: None,
                min: 1.0,
                max: 1.0,
            },
            Claim::BoundedRatio {
                num: "parallel/causality_violations",
                den: None,
                min: 0.0,
                max: 0.0,
            },
            // The epoch schedule must expose real parallelism, not
            // degenerate to lockstep serialization.
            Claim::BoundedRatio {
                num: "parallel/critical_path_speedup",
                den: None,
                min: 2.0,
                max: f64::INFINITY,
            },
            // Same slack as fig_3_15_baseline: reactive pays its probe
            // overhead but stays within 1.8x of the best static choice.
            Claim::TracksBest {
                series: "par/reactive",
                over: &["par/tts", "par/queue"],
                slack: 1.8,
            },
        ],
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_have_unique_names_and_claims() {
        let s = all();
        assert_eq!(s.len(), 30, "EXPERIMENTS.md has 30 figure/table rows");
        for sc in &s {
            assert!(!sc.claims.is_empty(), "{} has no claims", sc.name);
        }
        let mut names: Vec<&str> = s.iter().map(|sc| sc.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30, "duplicate scenario names");
    }

    #[test]
    fn by_name_finds_every_row() {
        for sc in all() {
            assert_eq!(by_name(sc.name).expect("registered row").name, sc.name);
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("fig_9_99_nonsense").is_none());
    }

    #[test]
    fn slices_are_disjoint_table_ordered_subsets_of_the_registry() {
        // The two row files split the registry: the wall-clock rows go to
        // BENCH_service_native.json, the counted rest to
        // BENCH_experiments.json.
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        let at: Vec<usize> = WALL_CLOCK_ROWS
            .iter()
            .map(|k| {
                names
                    .iter()
                    .position(|n| n == k)
                    .unwrap_or_else(|| panic!("wall-clock row {k} is not in all()"))
            })
            .collect();
        assert!(
            at.windows(2).all(|w| w[0] < w[1]),
            "wall-clock rows out of order"
        );
        let counted: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !WALL_CLOCK_ROWS.contains(n))
            .collect();
        assert_eq!(
            counted.len() + WALL_CLOCK_ROWS.len(),
            names.len(),
            "a row is in both slices or in neither"
        );
        assert!(!counted.is_empty(), "no counted rows");
    }

    #[test]
    fn select_normalises_order_and_rejects_bad_entries() {
        let rows = select("rmr_abortable,fig_3_15_baseline,rmr_abortable").expect("valid");
        let names: Vec<&str> = rows.iter().map(|s| s.name).collect();
        assert_eq!(names, ["fig_3_15_baseline", "rmr_abortable"]);
        for bad in [
            "nope",
            "",
            "fig_3_15_baseline,",
            "fig_3_15_baseline, rmr_abortable",
        ] {
            let err = select(bad).err().expect("rejected");
            for sc in all() {
                assert!(err.contains(sc.name), "{bad:?}: {} not listed", sc.name);
            }
        }
    }

    #[test]
    fn claim_checks_catch_violations() {
        let mut o = Outcome::default();
        o.push("a", vec![(1.0, 1.0), (2.0, 10.0)]);
        o.push("b", vec![(1.0, 2.0), (2.0, 3.0)]);
        o.scalar("s", 5.0);
        // Crossover holds: a wins at x=1, b wins at x=2.
        assert!(Claim::Crossover {
            cheap: "a",
            scalable: "b"
        }
        .check(&o)
        .is_ok());
        // ...and fails when reversed.
        assert!(Claim::Crossover {
            cheap: "b",
            scalable: "a"
        }
        .check(&o)
        .is_err());
        assert!(Claim::BoundedRatio {
            num: "s",
            den: None,
            min: 4.0,
            max: 6.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::BoundedRatio {
            num: "a",
            den: Some("b"),
            min: 0.0,
            max: 1.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::FlatScaling {
            series: "b",
            from_x: 1.0,
            factor: 2.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::FlatScaling {
            series: "a",
            from_x: 1.0,
            factor: 2.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::TracksBest {
            series: "a",
            over: &["b"],
            slack: 4.0
        }
        .check(&o)
        .is_ok());
        assert!(Claim::TracksBest {
            series: "a",
            over: &["b"],
            slack: 2.0
        }
        .check(&o)
        .is_err());
        assert!(Claim::WithinFactorOfOptimal {
            value: "s",
            optimal: "s",
            factor: 1.0
        }
        .check(&o)
        .is_ok());
        // Missing names are errors, not panics.
        assert!(Claim::BoundedRatio {
            num: "zzz",
            den: None,
            min: 0.0,
            max: 1.0
        }
        .check(&o)
        .is_err());
        // So is an empty series, for every kind of claim.
        o.push("none", vec![]);
        o.push("void", vec![]);
        let empty = [
            Claim::Crossover {
                cheap: "none",
                scalable: "b",
            },
            Claim::TracksBest {
                series: "none",
                over: &["b"],
                slack: 4.0,
            },
            Claim::BoundedRatio {
                num: "none",
                den: Some("void"),
                min: 0.0,
                max: 1.0,
            },
            Claim::WithinFactorOfOptimal {
                value: "none",
                optimal: "s",
                factor: 1.0,
            },
        ];
        for claim in empty {
            let err = claim.check(&o).expect_err(&claim.describe());
            assert_eq!(err, "series none is empty", "{}", claim.describe());
        }
        // A NaN value fails every kind of claim that reads it, naming
        // it; every comparison against NaN is false, so none may pass
        // by default.
        o.push("nan_end", vec![(1.0, 1.0), (2.0, f64::NAN)]);
        o.push("nan_mid", vec![(1.0, 1.0), (2.0, f64::NAN), (3.0, 1.5)]);
        o.push("zeros", vec![(1.0, 0.0), (2.0, 0.0)]);
        o.scalar("s_nan", f64::NAN);
        let nan = [
            (
                Claim::Crossover {
                    cheap: "nan_end",
                    scalable: "b",
                },
                "nan_end",
            ),
            (
                Claim::FlatScaling {
                    series: "nan_mid",
                    from_x: 1.0,
                    factor: 2.0,
                },
                "nan_mid",
            ),
            (
                Claim::FlatScaling {
                    series: "zeros",
                    from_x: 1.0,
                    factor: 2.0,
                },
                "zeros",
            ),
            (
                Claim::TracksBest {
                    series: "nan_end",
                    over: &["b"],
                    slack: 4.0,
                },
                "nan_end",
            ),
            (
                Claim::TracksBest {
                    series: "a",
                    over: &["nan_end"],
                    slack: 4.0,
                },
                "nan_end",
            ),
            (
                Claim::WithinFactorOfOptimal {
                    value: "s_nan",
                    optimal: "s",
                    factor: 1.0,
                },
                "s_nan",
            ),
            (
                Claim::WithinFactorOfOptimal {
                    value: "s",
                    optimal: "s_nan",
                    factor: 1.0,
                },
                "s_nan",
            ),
        ];
        for (claim, name) in nan {
            let err = claim.check(&o).expect_err(&claim.describe());
            assert!(err.contains(name), "{}: {err}", claim.describe());
        }
    }
}
