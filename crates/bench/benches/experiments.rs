//! The experiment driver, and the only row-running bench target: runs
//! `EXPERIMENTS.md` scenarios in table order, prints each row's table
//! and claim verdicts, and exits 1 if any claim fails — a second claim
//! gate on top of `tests/scenario_claims.rs`.
//!
//! ```sh
//! cargo bench --bench experiments                      # all rows, full scale
//! cargo bench --bench experiments -- --quick           # scaled-down variants (CI)
//! cargo bench --bench experiments -- --only fig_3_15_baseline,rmr_abortable
//! ```
//!
//! Without `--only` it writes each row once, at the repository root:
//! the `scenario::WALL_CLOCK_ROWS` and the single-thread `"path_cost"`
//! table to `BENCH_service_native.json`, every other row to
//! `BENCH_experiments.json`. With `--only` it runs just the named rows
//! and writes no file; an unknown row name exits 2 with the list of
//! valid keys before anything runs.

use repro_bench::record::{rows_json, Row};
use repro_bench::scenario::{self, Scale, WALL_CLOCK_ROWS};
use repro_bench::service_native::path_costs;

fn usage(problem: &str) -> ! {
    eprintln!("experiments: {problem}");
    eprintln!("usage: cargo bench --bench experiments [-- [--quick] [--only <row>[,<row>...]]]");
    std::process::exit(2);
}

/// Measure and print the native path-cost table; returns it as the
/// `"path_cost"` member of `BENCH_service_native.json`.
fn path_cost_member(scale: Scale) -> String {
    let costs = path_costs(scale);
    println!("\nsingle-thread path cost, acquire + guard drop (ns):");
    println!(
        "  {:16} {:>12} {:>14}",
        "path", "no deadline", "with deadline"
    );
    let mut json = String::from("  \"path_cost\": {\n    \"unit\": \"ns per acquire+release\",\n");
    for (path, bare, timed) in &costs.rows {
        println!("  {:16} {bare:>12.1} {timed:>14.1}", path.label());
        json.push_str(&format!(
            "    \"{}\": {{\"no_deadline\": {bare:.1}, \"deadline\": {timed:.1}}},\n",
            path.label()
        ));
    }
    println!(
        "  {:16} {:>12.1}",
        "arena_rmw_pair", costs.arena_rmw_pair_ns
    );
    json.push_str(&format!(
        "    \"arena_rmw_pair\": {:.1},\n",
        costs.arena_rmw_pair_ns
    ));
    let ratio = costs.reactive_ns / costs.tts_ns;
    println!(
        "  uncontended lock: tts {:.1}, reactive {:.1} ({ratio:.2}x)",
        costs.tts_ns, costs.reactive_ns
    );
    println!(
        "  reactive-lock protocol-change round trip: {:.1}",
        costs.switch_round_trip_ns
    );
    json.push_str(&format!(
        "    \"tts_lock\": {:.1}, \"reactive_lock\": {:.1}, \"reactive_vs_tts\": {ratio:.2},\n    \
         \"switch_round_trip\": {:.1}\n  }}\n",
        costs.tts_ns, costs.reactive_ns, costs.switch_round_trip_ns
    ));
    json
}

/// Write `BENCH_<bench>.json` at the repository root.
fn write_record(bench: &str, quick: bool, rows: &[&Row], extra: Option<&str>) {
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, rows_json(bench, quick, rows, extra))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn main() {
    let mut quick = false;
    let mut only = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--only" => only = Some(args.next().unwrap_or_default()),
            // `cargo bench` appends this to every bench binary's arguments.
            "--bench" => {}
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let scenarios = match &only {
        Some(spec) => scenario::select(spec).unwrap_or_else(|e| usage(&e)),
        None => scenario::all(),
    };

    let rows: Vec<Row> = scenarios
        .iter()
        .map(|sc| {
            let (outcome, results) = sc.report(scale);
            Row {
                name: sc.name.to_string(),
                figure: sc.figure,
                headline: outcome.headline,
                results,
            }
        })
        .collect();

    let wrote = if only.is_none() {
        let (wall, counted): (Vec<&Row>, Vec<&Row>) = rows
            .iter()
            .partition(|r| WALL_CLOCK_ROWS.contains(&r.name.as_str()));
        write_record("experiments", quick, &counted, None);
        let path_cost = path_cost_member(scale);
        write_record("service_native", quick, &wall, Some(&path_cost));
        "wrote BENCH_experiments.json and BENCH_service_native.json"
    } else {
        "--only run, no file written"
    };

    let failed = rows.iter().filter(|r| !r.pass()).count();
    println!("\n{}", "=".repeat(72));
    println!(
        "{}/{} rows pass all claims ({} scale); {wrote}",
        rows.len() - failed,
        rows.len(),
        if quick { "quick" } else { "full" },
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
