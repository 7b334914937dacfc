//! Native lock-service scenario family runner: executes the real-thread
//! rows (`service_native_tail`, `service_native_deflation`), checks
//! their claims, and writes `BENCH_service_native.json` at the
//! repository root.
//!
//! These are the only rows measured on host threads and a wall clock —
//! cores-scaled, preemption and all — so their numbers sit next to the
//! virtual-time `BENCH_service.json` rows rather than replacing them.
//! Rows are emitted in `EXPERIMENTS.md` table order with the scenario
//! name as the stable row key, enforced by the `crates/check` lint
//! (`service-native-keys` rule).
//!
//! ```sh
//! cargo bench --bench service_native             # full-scale runs
//! cargo bench --bench service_native -- --quick  # scaled-down (CI)
//! ```
//!
//! After the rows comes the single-thread *path cost* table
//! (`"path_cost"` in the JSON; no claims): acquire + guard drop on the
//! flat, inflated-TTS and inflated-queue paths, each without and with a
//! deadline, and the lock-level reactive-vs-TTS overhead.
//!
//! Exits nonzero if any claim fails.

use repro_bench::scenario::{by_name, Scale};
use repro_bench::service_native::path_costs;

/// The native lock-service family, in `EXPERIMENTS.md` table order.
const ROWS: [&str; 2] = ["service_native_tail", "service_native_deflation"];

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };

    let mut json = String::from("{\n  \"bench\": \"service_native\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n  \"rows\": [\n"));
    let mut failed_rows = 0usize;
    for (i, name) in ROWS.iter().enumerate() {
        let sc = by_name(name);
        let (outcome, results) = sc.report(scale);
        let pass = results.iter().all(|r| r.pass);
        if !pass {
            failed_rows += 1;
        }
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"figure\": \"{}\", \"status\": \"{}\", \
             \"headline\": \"{}\",\n     \"claims\": [\n",
            esc(sc.name),
            esc(sc.figure),
            if pass { "pass" } else { "FAIL" },
            esc(&outcome.headline),
        ));
        for (j, r) in results.iter().enumerate() {
            json.push_str(&format!(
                "       {{\"claim\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}{}\n",
                esc(&r.claim),
                r.pass,
                esc(&r.detail),
                if j + 1 < results.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < ROWS.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    let costs = path_costs(scale);
    println!("\nsingle-thread path cost, acquire + guard drop (ns):");
    println!(
        "  {:16} {:>12} {:>14}",
        "path", "no deadline", "with deadline"
    );
    json.push_str("  \"path_cost\": {\n    \"unit\": \"ns per acquire+release\",\n");
    for (path, bare, timed) in &costs.rows {
        println!("  {:16} {bare:>12.1} {timed:>14.1}", path.label());
        json.push_str(&format!(
            "    \"{}\": {{\"no_deadline\": {bare:.1}, \"deadline\": {timed:.1}}},\n",
            path.label()
        ));
    }
    let ratio = costs.reactive_ns / costs.tts_ns;
    println!(
        "  uncontended lock: tts {:.1}, reactive {:.1} ({ratio:.2}x)",
        costs.tts_ns, costs.reactive_ns
    );
    json.push_str(&format!(
        "    \"tts_lock\": {:.1}, \"reactive_lock\": {:.1}, \"reactive_vs_tts\": {ratio:.2}\n  }}\n}}\n",
        costs.tts_ns, costs.reactive_ns
    ));

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_service_native.json"
    );
    std::fs::write(path, json).expect("write BENCH_service_native.json");

    println!("\n{}", "=".repeat(72));
    println!(
        "{}/{} native lock-service rows pass all claims ({} scale); \
         wrote BENCH_service_native.json",
        ROWS.len() - failed_rows,
        ROWS.len(),
        if quick { "quick" } else { "full" },
    );
    if failed_rows > 0 {
        std::process::exit(1);
    }
}
