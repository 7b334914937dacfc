//! `compare A.json B.json`: is B the same as, better or worse than A?
//!
//! Per (workload, end-to-end metric): both medians and quartiles, the
//! change against the metric's bound, and a verdict —
//!
//! * `same` — B's median is within the bound of A's;
//! * `better` / `worse` — it moved past the bound;
//! * `unresolved` — the spread inside either file is wider than the
//!   bound, so a move of that size could be noise; resolved all the same
//!   when the two inter-quartile ranges do not even touch.
//!
//! For equal seeds a counted metric must be identical, and any
//! difference is `better` or `worse`. The exit code is non-zero if any
//! row is `worse`.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::Summary;
use crate::workloads::DETERMINISTIC;

/// A row's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Improved past the bound.
    Better,
    /// Worsened past the bound.
    Worse,
    /// Spread wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B is worse (negative: better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Judge one metric. `identical_inputs` says the two files ran the same
/// seed, so a counted metric on a primary cell must not differ at all.
pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary, identical_inputs: bool) -> Verdict {
    let worse_by = worsening(m, a.median, b.median);
    let by_direction = |w: f64| {
        if w > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    };
    if m.exact && identical_inputs {
        return if a.median == b.median {
            Verdict::Same
        } else {
            by_direction(worse_by)
        };
    }
    if a.spread().max(b.spread()) > m.bound {
        let apart = a.q3.min(b.q3) < a.q1.max(b.q1);
        return if apart && worse_by.abs() > m.bound {
            by_direction(worse_by)
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by.abs() <= m.bound {
        Verdict::Same
    } else {
        by_direction(worse_by)
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |k| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: num("n")? as usize,
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files; print the table; fail on `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let seed = |d: &Json| d.get("seed").and_then(Json::as_f64);
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let shown = |s: Option<f64>| s.map_or("?".to_string(), |s| s.to_string());
    println!(
        "A = {} (seed {})\nB = {} (seed {})",
        a_path.display(),
        shown(seed(&a)),
        b_path.display(),
        shown(seed(&b))
    );
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A iqr", "B iqr"
    );
    let workloads = |d: &Json| d.get("workloads").and_then(Json::as_obj).cloned();
    let (wa, wb) = (
        workloads(&a).ok_or("A has no workloads")?,
        workloads(&b).ok_or("B has no workloads")?,
    );
    let mut counts = [0usize; 4];
    for name in crate::workloads::NAMES {
        let metrics = |w: &std::collections::BTreeMap<String, Json>| {
            w.get(name).and_then(|e| e.get("metrics")).cloned()
        };
        let (Some(ma), Some(mb)) = (metrics(&wa), metrics(&wb)) else {
            println!("{name:<16} (not in both files)");
            continue;
        };
        for m in &END_TO_END {
            let row = |d: &Json| d.get(m.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (row(&ma), row(&mb)) else {
                return Err(format!("{name}.{} is missing or malformed", m.name));
            };
            let primary = ma
                .get(m.name)
                .and_then(|r| r.get("cell"))
                .and_then(Json::as_str)
                == Some("primary");
            // Only a deterministic workload repeats a counted metric: the
            // native footprint depends on which objects happened to be hot
            // when the run ended.
            let repeats = same_seed && primary && DETERMINISTIC.contains(&name);
            let v = judge(m, &sa, &sb, repeats);
            counts[v as usize] += 1;
            println!(
                "{:<16} {:<24} {:>14.6} {:>14.6} {:>+7.2}% {:>5.1}% {:>6.2}% {:>6.2}%  {}",
                name,
                m.name,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                100.0 * m.bound,
                100.0 * sa.spread(),
                100.0 * sb.spread(),
                v.as_str()
            );
        }
    }
    println!(
        "same {}  better {}  worse {}  unresolved {}",
        counts[Verdict::Same as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(if counts[Verdict::Worse as usize] == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.995,
            q3: median * 1.005,
            n: 5,
        }
    }

    #[test]
    fn direction_and_bound_decide() {
        let rate = end_to_end("events_per_s").unwrap(); // higher is better
        let lat = end_to_end("acquire_p50_ns").unwrap(); // lower is better
        assert_eq!(
            judge(
                rate,
                &tight(100.0),
                &tight(100.0 * (1.0 - rate.bound / 2.0)),
                false
            ),
            Verdict::Same
        );
        assert_eq!(
            judge(rate, &tight(100.0), &tight(50.0), false),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &tight(100.0), &tight(200.0), false),
            Verdict::Better
        );
        assert_eq!(
            judge(lat, &tight(100.0), &tight(200.0), false),
            Verdict::Worse
        );
        assert_eq!(
            judge(lat, &tight(100.0), &tight(50.0), false),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_ranges_are_apart() {
        let rate = end_to_end("events_per_s").unwrap();
        let noisy = |median: f64| Summary {
            median,
            q1: median * 0.8,
            q3: median * 1.2,
            n: 5,
        };
        assert_eq!(
            judge(rate, &noisy(100.0), &noisy(95.0), false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(rate, &noisy(100.0), &noisy(40.0), false),
            Verdict::Worse
        );
    }

    #[test]
    fn counted_metrics_must_match_for_equal_seeds() {
        let cycles = end_to_end("sim_cycles").unwrap();
        let (a, b) = (Summary::exact(1000.0), Summary::exact(1001.0));
        assert_eq!(judge(cycles, &a, &a, true), Verdict::Same);
        assert_eq!(judge(cycles, &a, &b, true), Verdict::Worse);
        assert_eq!(judge(cycles, &b, &a, true), Verdict::Better);
        // Different seeds: the bound covers seed-to-seed variation.
        assert_eq!(judge(cycles, &a, &b, false), Verdict::Same);
    }
}
