//! Turning an [`Outcome`] into text: the by-name listing for a person,
//! the one-line JSON object for the driver, and the result file that
//! `compare` reads.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::Outcome;
use crate::Args;

/// Per-layer value of a traced run; a layer the workload does not touch
/// reads 0.
fn layer_value(o: &Outcome, name: &str) -> f64 {
    o.layers.get(name).copied().unwrap_or(0.0)
}

/// A value for the by-name listing: six significant decimals for
/// ordinary sizes, exponent form for the very small.
fn number(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

/// Every metric by name with its unit, one per line.
pub fn human(workload: &str, o: &Outcome, trace: bool) -> String {
    let mut s = format!("== {workload} ==\n");
    if trace {
        for (name, unit, _) in &PER_LAYER {
            let v = number(layer_value(o, name));
            writeln!(s, "{name:<44} {v:>18} {unit}").expect("write to String");
        }
    } else {
        for m in &END_TO_END {
            let (sum, cell) = &o.e2e[m.name];
            writeln!(
                s,
                "{:<26} {:>18} {:<11} q1 {} q3 {} n {} ({})",
                m.name,
                number(sum.median),
                m.unit,
                number(sum.q1),
                number(sum.q3),
                sum.n,
                cell.as_str()
            )
            .expect("write to String");
        }
    }
    let checks = if o.check_failures.is_empty() {
        "pass".to_string()
    } else {
        format!("FAILED: {}", o.check_failures.join("; "))
    };
    writeln!(
        s,
        "ops_attempted {}  ops_failed {}  checks {checks}",
        o.attempted, o.failed
    )
    .expect("write to String");
    s
}

/// `{"value": …, "unit": …}`.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Every per-layer metric of a traced run, by name.
fn layers_json(o: &Outcome) -> Json {
    Json::obj(
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, metric(layer_value(o, name), unit))),
    )
}

/// The object the driver reads from the last line of standard output.
pub fn contract_line(o: &Outcome, trace: bool) -> Json {
    let metrics = if trace {
        layers_json(o)
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .map(|m| (m.name, metric(o.e2e[m.name].0.median, m.unit))),
        )
    };
    Json::obj([
        ("correct", Json::Bool(o.check_failures.is_empty())),
        ("attempted", Json::Num(o.attempted.max(1) as f64)),
        ("failed", Json::Num(o.failed as f64)),
        ("metrics", metrics),
    ])
}

/// One workload's entry in a result file.
pub fn workload_json(o: &Outcome, trace: bool) -> Json {
    let mut entry = vec![
        ("correct", Json::Bool(o.check_failures.is_empty())),
        ("ops_attempted", Json::Num(o.attempted as f64)),
        ("ops_failed", Json::Num(o.failed as f64)),
        (
            "check_failures",
            Json::Arr(o.check_failures.iter().cloned().map(Json::Str).collect()),
        ),
    ];
    if trace {
        entry.push(("layers", layers_json(o)));
    } else {
        entry.push((
            "metrics",
            Json::obj(END_TO_END.iter().map(|m| {
                let (s, cell) = &o.e2e[m.name];
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(s.median)),
                        ("unit", Json::Str(m.unit.into())),
                        ("q1", Json::Num(s.q1)),
                        ("q3", Json::Num(s.q3)),
                        ("n", Json::Num(s.n as f64)),
                        ("cell", Json::Str(cell.as_str().into())),
                    ]),
                )
            })),
        ));
    }
    Json::obj(entry)
}

/// Fold a traced run's entry into the untraced entry of the same
/// workload: the end-to-end numbers stay those measured with tracing
/// off; the layers, and a failed check, come from the traced run.
pub fn merge_traced(untraced: Json, traced: &Json) -> Json {
    let Json::Obj(mut entry) = untraced else {
        return traced.clone();
    };
    if let Some(layers) = traced.get("layers") {
        entry.insert("layers".into(), layers.clone());
    }
    if traced.get("correct") == Some(&Json::Bool(false)) {
        entry.insert("correct".into(), Json::Bool(false));
    }
    Json::Obj(entry)
}

/// A complete result file: the host block, the run's settings, and the
/// workloads measured.
pub fn result_file(args: &Args, workloads: impl IntoIterator<Item = (String, Json)>) -> Json {
    let repo = crate::bench_dir().join("..");
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("host", crate::host::describe(&repo)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(workloads)),
    ])
}
