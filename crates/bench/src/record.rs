//! The rows record: the one writer behind `BENCH_experiments.json`
//! (the counted rows), `BENCH_service_native.json` (the wall-clock
//! rows) and `BENCH_sim.json` (the simulator's throughput rows).
//!
//! The shape is fixed — top-level `bench`, `quick`, `rows`; per row
//! `name`, `figure`, `status`, `headline`, `claims` — with the scenario
//! name as the stable row key, so diffs of the JSON across commits line
//! up row-for-row and the `crates/check` lint can key-check each file
//! against `EXPERIMENTS.md`.

use crate::claim::ClaimResult;

/// One row's measured result, as the record stores it.
pub struct Row {
    /// The row key.
    pub name: String,
    /// Paper figure/table the row reproduces.
    pub figure: &'static str,
    /// The measured headline.
    pub headline: String,
    /// Every claim's verdict.
    pub results: Vec<ClaimResult>,
}

impl Row {
    /// Whether every claim held.
    pub fn pass(&self) -> bool {
        self.results.iter().all(|r| r.pass)
    }
}

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

/// Render one record file. `extra`, when given, is a pre-rendered
/// top-level member (two-space indented, newline-terminated) placed
/// after `rows` — the wall-clock record's `path_cost` table, the
/// simulator record's `host_cores`.
pub fn rows_json(bench: &str, quick: bool, rows: &[&Row], extra: Option<&str>) -> String {
    let mut json = format!("{{\n  \"bench\": \"{bench}\",\n  \"quick\": {quick},\n  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"figure\": \"{}\", \"status\": \"{}\", \
             \"headline\": \"{}\",\n     \"claims\": [\n",
            esc(&row.name),
            esc(row.figure),
            if row.pass() { "pass" } else { "FAIL" },
            esc(&row.headline),
        ));
        for (j, r) in row.results.iter().enumerate() {
            json.push_str(&format!(
                "       {{\"claim\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}{}\n",
                esc(&r.claim),
                r.pass,
                esc(&r.detail),
                if j + 1 < row.results.len() { "," } else { "" },
            ));
        }
        json.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    match extra {
        Some(member) => json.push_str(&format!("  ],\n{member}}}\n")),
        None => json.push_str("  ]\n}\n"),
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_json_golden() {
        let verdict = |claim: &str, pass, detail: &str| ClaimResult {
            claim: claim.to_string(),
            pass,
            detail: detail.to_string(),
        };
        let rows = [
            Row {
                name: "row_a".to_string(),
                figure: "Fig. 1 \"quoted\"",
                headline: "a\\b\nnext\tline".to_string(),
                results: vec![
                    verdict("x <= 1", true, "x = 1"),
                    verdict("y\u{1}", false, "bell"),
                ],
            },
            Row {
                name: "row_b".to_string(),
                figure: "— (beyond the paper)",
                headline: "ok".to_string(),
                results: vec![verdict("z", true, "")],
            },
        ];
        let refs: Vec<&Row> = rows.iter().collect();
        let plain = concat!(
            "{\n",
            "  \"bench\": \"golden\",\n",
            "  \"quick\": true,\n",
            "  \"rows\": [\n",
            "    {\"name\": \"row_a\", \"figure\": \"Fig. 1 \\\"quoted\\\"\", \"status\": \"FAIL\", ",
            "\"headline\": \"a\\\\b\\nnext\\u0009line\",\n",
            "     \"claims\": [\n",
            "       {\"claim\": \"x <= 1\", \"pass\": true, \"detail\": \"x = 1\"},\n",
            "       {\"claim\": \"y\\u0001\", \"pass\": false, \"detail\": \"bell\"}\n",
            "     ]},\n",
            "    {\"name\": \"row_b\", \"figure\": \"— (beyond the paper)\", \"status\": \"pass\", ",
            "\"headline\": \"ok\",\n",
            "     \"claims\": [\n",
            "       {\"claim\": \"z\", \"pass\": true, \"detail\": \"\"}\n",
            "     ]}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(rows_json("golden", true, &refs, None), plain);

        let with_extra = rows_json("golden", true, &refs, Some("  \"more\": {}\n"));
        let head = plain.strip_suffix("  ]\n}\n").expect("plain tail");
        assert_eq!(with_extra, format!("{head}  ],\n  \"more\": {{}}\n}}\n"));
    }
}
