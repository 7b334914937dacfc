//! Machine-checked reproductions of the paper's figures and tables.
//!
//! Every `fig_*`/`table_*` row of `EXPERIMENTS.md` is a [`Scenario`]: a
//! description of the figure's sweep (machine shape, workload, protocol
//! set, contention schedule) plus a set of [`Claim`]s encoding the
//! "Paper says" column as assertable predicates — the checkable-claim
//! framing of the competitive-analysis literature, where a result like
//! "3-competitive" is an inequality, not a prose row. This module is
//! the registry; each row is one value in its family's submodule,
//! beside the workload it runs.
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

use crate::claim::{Claim, ClaimResult};
use crate::table;

mod chapter3;
mod chapter4;
mod kernel;
mod native;
mod parallel;
mod rmr;
mod service;

pub(crate) use kernel::{FlipFlop, Stay};

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
    pub(crate) fn push(&mut self, label: &'static str, points: Vec<(f64, f64)>) {
        self.series.push(Series { label, points });
    }

    pub(crate) fn scalar(&mut self, name: &'static str, v: f64) {
        self.scalars.push((name, v));
    }

    /// The series labelled `name`; a missing or empty series is an
    /// error naming it.
    pub(crate) fn series_named(&self, name: &str) -> Result<&Series, String> {
        match self.series.iter().find(|s| s.label == name) {
            None => Err(format!("series {name} missing")),
            Some(s) if s.points.is_empty() => Err(format!("series {name} is empty")),
            Some(s) => Ok(s),
        }
    }
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
            .map(|c| {
                let (pass, detail) = match c.check(o) {
                    Ok(detail) => (true, detail),
                    Err(detail) => (false, detail),
                };
                ClaimResult {
                    claim: c.describe(),
                    pass,
                    detail,
                }
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
        chapter3::FIG_3_14,
        chapter3::FIG_3_15,
        chapter3::FIG_3_16,
        chapter3::FIG_3_17,
        chapter3::FIG_3_21,
        chapter3::FIG_3_22,
        chapter3::FIG_3_23,
        chapter3::FIG_3_24,
        chapter3::FIG_3_25,
        chapter3::FIG_3_26,
        chapter4::TABLE_4_1,
        chapter4::FIG_4_4,
        chapter4::FIG_4_5,
        chapter4::FIG_4_6,
        chapter4::FIG_4_12,
        chapter4::FIG_4_13,
        chapter4::FIG_4_14,
        chapter4::TABLE_4_6,
        kernel::BARRIER_REACTIVE,
        kernel::SWITCH_COST,
        rmr::RMR_RECOVERABLE,
        rmr::RMR_ABORTABLE,
        rmr::STORM_ROBUSTNESS,
        service::TAIL_LATENCY,
        service::BYTES_PER_OBJECT,
        service::STAMPEDE,
        service::TRACKS_BEST,
        native::TAIL,
        native::DEFLATION,
        parallel::SIM_PARALLEL_SCALE,
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

/// Run the (benchmark case × algorithm) timing matrix shared by the
/// application scenarios (Figs. 3.24/3.25/4.12/4.13/4.14): `time`
/// measures one case under one algorithm. Pushes one series per
/// algorithm (x = case index) into `o` and returns the per-case ratio
/// of the **last** algorithm — the adaptive one, by convention — to
/// the best of the preceding static ones.
fn adaptive_matrix<C: Copy, A: Copy>(
    o: &mut Outcome,
    algs: &[(&'static str, A)],
    cases: &[C],
    time: impl Fn(C, A) -> f64,
) -> Vec<f64> {
    let mut cols: Vec<Vec<(f64, f64)>> = vec![Vec::new(); algs.len()];
    let mut ratios = Vec::new();
    for (i, &case) in cases.iter().enumerate() {
        let times: Vec<f64> = algs.iter().map(|&(_, a)| time(case, a)).collect();
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

/// The largest y of a series' points.
fn worst(points: &[(f64, f64)]) -> f64 {
    points.iter().fold(0f64, |m, &(_, y)| m.max(y))
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
            // `Claim::describe` is the per-claim key in the row files.
            let mut keys: Vec<String> = sc.claims.iter().map(Claim::describe).collect();
            keys.sort_unstable();
            for pair in keys.windows(2) {
                assert_ne!(pair[0], pair[1], "{} repeats a claim", sc.name);
            }
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
}
