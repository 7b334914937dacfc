//! Repo-invariant lint: textual/structural rules that `cargo check`
//! cannot express, enforced over the workspace's own sources (vendor
//! stubs and generated artifacts excluded).
//!
//! Rules:
//!
//! * `ordering` — every atomic memory-ordering use
//!   (`Ordering::Relaxed` … `Ordering::SeqCst`) carries an adjacent
//!   `// order:` justification (same line, or in the contiguous
//!   comment block immediately above), or its file is allowlisted.
//! * `unsafe` — every `unsafe` keyword carries an adjacent `SAFETY:`
//!   comment (same placement rule), or its file is allowlisted.
//! * `hot-path-maps` — the simulator's hot-path modules must stay on
//!   dense arena/slab structures: no `HashMap`/`BTreeMap`.
//! * `horizon-comments` — every cross-shard lane flush/drain site in
//!   the parallel scheduler (`crates/sim/src/parallel.rs`) carries an
//!   adjacent `// horizon:` comment justifying why the transfer cannot
//!   violate the conservative safe-horizon invariant, and both kinds of
//!   site exist (a renamed transfer must not let the rule pass with
//!   nothing to check).
//! * `event-size` — the compile-time 16-byte bound on simulator events
//!   must stay present in `exec.rs`.
//! * `dir-entry-size` — the compile-time 14-byte bound on a directory
//!   entry must stay present in `coherence.rs`: every simulated line
//!   pays for one.
//! * `slot-size` — the compile-time 4-byte size of the lock service's
//!   slot word must stay asserted in `arena.rs`: every hosted object
//!   pays for one.
//! * `experiments-keys` — over the two row files the `experiments`
//!   bench writes (`BENCH_experiments.json`, the counted rows, and
//!   `BENCH_service_native.json`, the wall-clock rows): every row name
//!   must be an `EXPERIMENTS.md` table key, and every key must have a
//!   row in exactly one of the files, so the record cannot silently
//!   drop a gated scenario or carry one twice. No key is exempt.
//! * `quick-record` — every committed `BENCH_*.json` at the root must
//!   read `"quick": false`: a `--quick` bench run overwrites the
//!   full-scale record in place, and this catches committing that.
//!
//! The allowlist is `crates/check/lint_allow.txt`: `<rule> <key>` per
//! line, `#` comments. Keys are workspace-relative paths for the file
//! rules.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

// The patterns this file searches for are spelled split so the lint
// never matches its own source.
const ORDERING_PAT: &str = concat!("Order", "ing::");
const ORDER_COMMENT: &str = concat!("or", "der:");
const SAFETY_COMMENT: &str = concat!("SAF", "ETY:");
const UNSAFE_KW: &str = concat!("un", "safe");
const HASH_MAP: &str = concat!("Hash", "Map");
const BTREE_MAP: &str = concat!("BTree", "Map");
const HORIZON_COMMENT: &str = concat!("hori", "zon:");

/// Cross-shard lane transfer calls in the parallel scheduler, the
/// sender's and the receiver's; each occurrence must justify the
/// safe-horizon invariant, and each must occur.
const CHANNEL_OPS: [&str; 2] = [concat!(".lane_", "flush("), concat!(".lane_", "drain(")];

/// The one file the `horizon-comments` rule applies to.
const PARALLEL_FILE: &str = "crates/sim/src/parallel.rs";

/// Atomic-ordering variants (`std::cmp::Ordering`'s variants are not
/// in this list, so comparison code never trips the rule).
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// The simulator modules the paper's throughput numbers depend on;
/// PR 2 moved them to dense structures and this rule keeps them there.
const HOT_PATH_FILES: [&str; 4] = [
    "crates/sim/src/queue.rs",
    "crates/sim/src/state.rs",
    "crates/sim/src/exec.rs",
    "crates/sim/src/coherence.rs",
];

/// One rule violation.
#[derive(Debug)]
pub struct Finding {
    /// Rule name (allowlist key space).
    pub rule: &'static str,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line (0 for whole-file findings).
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.msg)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.msg
            )
        }
    }
}

/// Parsed `lint_allow.txt`.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: BTreeSet<(String, String)>,
}

impl Allowlist {
    /// Parse allowlist text (`<rule> <key>` lines, `#` comments).
    pub fn parse(text: &str) -> Allowlist {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let (rule, key) = l.split_once(char::is_whitespace)?;
                Some((rule.to_string(), key.trim().to_string()))
            })
            .collect();
        Allowlist { entries }
    }

    fn allows(&self, rule: &str, key: &str) -> bool {
        self.entries.contains(&(rule.to_string(), key.to_string()))
    }
}

/// Run every rule over the workspace at `root`. Returns the surviving
/// findings (allowlisted ones are dropped).
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let allow = match fs::read_to_string(root.join("crates/check/lint_allow.txt")) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::default(),
    };
    let mut findings = Vec::new();
    for file in rust_sources(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&file)?;
        let lines: Vec<&str> = text.lines().collect();
        if !allow.allows("ordering", &rel) {
            ordering_rule(&rel, &lines, &mut findings);
        }
        if !allow.allows(UNSAFE_KW, &rel) {
            unsafe_rule(&rel, &lines, &mut findings);
        }
        if HOT_PATH_FILES.contains(&rel.as_str()) {
            hot_path_rule(&rel, &lines, &mut findings);
        }
        if rel == PARALLEL_FILE && !allow.allows("horizon-comments", &rel) {
            horizon_rule(&rel, &lines, &mut findings);
        }
        if rel == "crates/sim/src/exec.rs" {
            size_assert_rule("event-size", &rel, &text, EV_SIZE, &mut findings);
        }
        if rel == "crates/sim/src/coherence.rs" {
            size_assert_rule("dir-entry-size", &rel, &text, DIR_ENTRY_SIZE, &mut findings);
        }
        if rel == "crates/service/src/arena.rs" {
            size_assert_rule("slot-size", &rel, &text, SLOT_SIZE, &mut findings);
        }
    }
    record_rules(root, &mut findings)?;
    Ok(findings)
}

/// All workspace-owned `.rs` files (vendor stubs and build output are
/// not ours to lint).
fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "vendor" {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether the line is comment-only (`//`, `///`, `//!`).
fn is_comment_line(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// Whether line `i` carries `needle` — on the line itself, on an
/// earlier line of the same (multi-line) statement, or in the
/// contiguous comment block immediately above the statement.
fn justified(lines: &[&str], i: usize, needle: &str) -> bool {
    if lines[i].contains(needle) {
        return true;
    }
    // Walk to the statement head: a predecessor that is blank, a
    // comment, or ends a statement/block means line `j` starts one.
    let mut j = i;
    while j > 0 {
        let prev = lines[j - 1].trim_end();
        if prev.is_empty()
            || is_comment_line(prev)
            || prev.ends_with(';')
            || prev.ends_with('{')
            || prev.ends_with('}')
        {
            break;
        }
        j -= 1;
        if lines[j].contains(needle) {
            return true;
        }
    }
    while j > 0 && is_comment_line(lines[j - 1]) {
        j -= 1;
        if lines[j].contains(needle) {
            return true;
        }
    }
    false
}

fn ordering_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let hit = ATOMIC_ORDERINGS
            .iter()
            .any(|v| line.contains(&format!("{ORDERING_PAT}{v}")));
        if !hit {
            continue;
        }
        if !justified(lines, i, ORDER_COMMENT) {
            findings.push(Finding {
                rule: "ordering",
                file: file.to_string(),
                line: i + 1,
                msg: format!(
                    "atomic ordering without an adjacent `// {ORDER_COMMENT}` justification"
                ),
            });
        }
    }
}

fn unsafe_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) || !has_word(line, UNSAFE_KW) {
            continue;
        }
        if !justified(lines, i, SAFETY_COMMENT) {
            findings.push(Finding {
                rule: UNSAFE_KW,
                file: file.to_string(),
                line: i + 1,
                msg: format!("`{UNSAFE_KW}` without an adjacent `// {SAFETY_COMMENT}` comment"),
            });
        }
    }
}

/// Word-boundary substring match (so `unsafe_code` in a lint attribute
/// never counts as the keyword).
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let ok_before = start == 0 || !is_word(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_word(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

fn hot_path_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        for map in [HASH_MAP, BTREE_MAP] {
            if has_word(line, map) {
                findings.push(Finding {
                    rule: "hot-path-maps",
                    file: file.to_string(),
                    line: i + 1,
                    msg: format!("`{map}` on the simulator hot path (use a dense arena/slab)"),
                });
            }
        }
    }
}

fn horizon_rule(file: &str, lines: &[&str], findings: &mut Vec<Finding>) {
    let mut seen = [false; CHANNEL_OPS.len()];
    for (i, line) in lines.iter().enumerate() {
        if is_comment_line(line) {
            continue;
        }
        let Some(op) = CHANNEL_OPS.iter().position(|op| line.contains(op)) else {
            continue;
        };
        seen[op] = true;
        if !justified(lines, i, HORIZON_COMMENT) {
            findings.push(Finding {
                rule: "horizon-comments",
                file: file.to_string(),
                line: i + 1,
                msg: format!(
                    "cross-shard lane transfer without an adjacent `// {HORIZON_COMMENT}` \
                     justification of the safe-horizon invariant"
                ),
            });
        }
    }
    for (op, _) in CHANNEL_OPS.iter().zip(seen).filter(|(_, seen)| !seen) {
        findings.push(Finding {
            rule: "horizon-comments",
            file: file.to_string(),
            line: 0,
            msg: format!(
                "no `{op}…)` call site found: if the cross-shard transfer was renamed, \
                 point the rule's `CHANNEL_OPS` at the new name"
            ),
        });
    }
}

const EV_SIZE: &str = "size_of::<Ev>() <= 16";
const DIR_ENTRY_SIZE: &str = "size_of::<DirEntry>() <= 14";
const SLOT_SIZE: &str = "size_of::<Slot>() == 4";

/// The compile-time size assert `needle` must stay in `text`.
fn size_assert_rule(
    rule: &'static str,
    file: &str,
    text: &str,
    needle: &str,
    findings: &mut Vec<Finding>,
) {
    if !text.contains(needle) {
        findings.push(Finding {
            rule,
            file: file.to_string(),
            line: 0,
            msg: format!("compile-time `{needle}` assert is missing"),
        });
    }
}

/// Scenario keys from `EXPERIMENTS.md` tables: the first backticked
/// cell of each table row (`| \`key\` | ...`).
fn experiment_md_keys(text: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.trim_start().strip_prefix("| `") else {
            continue;
        };
        if let Some((key, _)) = rest.split_once('`') {
            if !key.is_empty() {
                keys.insert(key.to_string());
            }
        }
    }
    keys
}

/// `"name": "<key>"` values of a row file, in file order (hand parse:
/// the workspace has no JSON dependency, and the format is ours).
fn experiment_json_keys(text: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("\"name\"") {
        rest = &rest[pos + "\"name\"".len()..];
        let Some(colon) = rest.find(':') else { break };
        let tail = rest[colon + 1..].trim_start();
        if let Some(val) = tail.strip_prefix('"') {
            if let Some((key, _)) = val.split_once('"') {
                keys.push(key.to_string());
            }
        }
    }
    keys
}

/// The row files the `experiments` bench writes: the counted rows and
/// the wall-clock rows.
const ROW_FILES: [&str; 2] = ["BENCH_experiments.json", "BENCH_service_native.json"];

/// The `experiments-keys` rule over the row files' `(name, text)`:
/// every row name must be an `EXPERIMENTS.md` table key, and every key
/// must have exactly one row across the files.
fn key_rule(md_keys: &BTreeSet<String>, files: &[(&str, String)], findings: &mut Vec<Finding>) {
    const RULE: &str = "experiments-keys";
    let mut rows = Vec::new();
    for (file, json) in files {
        for key in experiment_json_keys(json) {
            if !md_keys.contains(&key) {
                findings.push(Finding {
                    rule: RULE,
                    file: file.to_string(),
                    line: 0,
                    msg: format!("row `{key}` has no EXPERIMENTS.md table row"),
                });
            }
            rows.push(key);
        }
    }
    for key in md_keys {
        let n = rows.iter().filter(|row| *row == key).count();
        if n != 1 {
            findings.push(Finding {
                rule: RULE,
                file: "EXPERIMENTS.md".to_string(),
                line: 0,
                msg: format!(
                    "scenario `{key}` has {n} rows across {}, not exactly one (write it \
                     once from `scenario::all()` in crates/bench)",
                    ROW_FILES.join(" and ")
                ),
            });
        }
    }
}

/// Flag a record file that does not read `"quick": false`.
fn quick_record_rule(file: &str, json: &str, findings: &mut Vec<Finding>) {
    let compact: String = json.split_whitespace().collect();
    if !compact.contains("\"quick\":false") {
        findings.push(Finding {
            rule: "quick-record",
            file: file.to_string(),
            line: 0,
            msg: "the committed record must read `\"quick\": false` (a `--quick` bench run \
                  overwrote it: restore it or re-run at full scale)"
                .to_string(),
        });
    }
}

/// The record rules: `quick-record` over every `BENCH_*.json` at the
/// root, then `experiments-keys` over the [`ROW_FILES`].
fn record_rules(root: &Path, findings: &mut Vec<Finding>) -> io::Result<()> {
    let mut records = Vec::new();
    for entry in fs::read_dir(root)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            records.push(name);
        }
    }
    records.sort();
    for file in &records {
        quick_record_rule(file, &fs::read_to_string(root.join(file))?, findings);
    }
    let md_keys = experiment_md_keys(&fs::read_to_string(root.join("EXPERIMENTS.md"))?);
    let files = ROW_FILES
        .iter()
        .map(|file| Ok((*file, fs::read_to_string(root.join(file))?)))
        .collect::<io::Result<Vec<_>>>()?;
    key_rule(&md_keys, &files, findings);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Synthetic sources are built from the split constants so the lint
    // never flags its own test fixtures.
    #[test]
    fn ordering_requires_adjacent_justification() {
        let load = format!("x.load({ORDERING_PAT}Relaxed);");
        let comment = format!("// {ORDER_COMMENT} Relaxed — diagnostic.");
        let ok = [comment.as_str(), load.as_str()];
        let bad = [load.as_str()];
        let far = [comment.as_str(), "", "", load.as_str()];
        let mut f = Vec::new();
        ordering_rule("a.rs", &ok, &mut f);
        assert!(f.is_empty(), "{f:?}");
        ordering_rule("a.rs", &bad, &mut f);
        assert_eq!(f.len(), 1);
        f.clear();
        ordering_rule("a.rs", &far, &mut f);
        assert_eq!(f.len(), 1, "a blank line breaks the comment block");
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_ordering() {
        let cmp = format!("std::cmp::{ORDERING_PAT}Less => {{}}");
        let lines = [cmp.as_str()];
        let mut f = Vec::new();
        ordering_rule("a.rs", &lines, &mut f);
        assert!(
            f.is_empty(),
            "comparison Ordering variants tripped the rule"
        );
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let safety = format!("// {SAFETY_COMMENT} we hold the lock.");
        let block = format!("{UNSAFE_KW} {{ *p }}");
        let attr = format!("#![deny({UNSAFE_KW}_op_in_{UNSAFE_KW}_fn)]");
        let mut f = Vec::new();
        unsafe_rule("a.rs", &[safety.as_str(), block.as_str()], &mut f);
        assert!(f.is_empty(), "{f:?}");
        unsafe_rule("a.rs", &[block.as_str()], &mut f);
        assert_eq!(f.len(), 1);
        f.clear();
        unsafe_rule("a.rs", &[attr.as_str()], &mut f);
        assert!(f.is_empty(), "lint attributes are not the keyword");
    }

    #[test]
    fn hot_path_rule_flags_maps_outside_comments() {
        let map = concat!("Hash", "Map");
        let lines = [
            format!("use std::collections::{map};"),
            format!("// a comment may mention {map}"),
        ];
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let mut f = Vec::new();
        hot_path_rule("crates/sim/src/state.rs", &refs, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn horizon_rule_requires_adjacent_justification() {
        let flush = format!("ex{}parity, s, dst, msg);", CHANNEL_OPS[0]);
        let drain = format!(
            "ex{}1 - parity, src, s, |m| rt.inject(&m, base));",
            CHANNEL_OPS[1]
        );
        let comment = format!("// {HORIZON_COMMENT} drained only after the next gate.");
        let (comment, flush, drain) = (comment.as_str(), flush.as_str(), drain.as_str());
        let mut f = Vec::new();
        horizon_rule(PARALLEL_FILE, &[comment, flush, comment, drain], &mut f);
        assert!(f.is_empty(), "{f:?}");
        horizon_rule(PARALLEL_FILE, &[flush, drain], &mut f);
        assert_eq!(f.len(), 2, "both unjustified transfer sites flagged");
        assert_eq!((f[0].line, f[1].line), (1, 2));
        f.clear();
        // A multi-line statement reaches back to the block above its head.
        let head = "self.exchange";
        let tail = format!("    {flush}");
        horizon_rule(
            PARALLEL_FILE,
            &[comment, head, tail.as_str(), comment, drain],
            &mut f,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn horizon_rule_does_not_pass_with_nothing_to_check() {
        let flush = format!(
            "ex{}parity, s, dst, msg); // {HORIZON_COMMENT} ok",
            CHANNEL_OPS[0]
        );
        let mut f = Vec::new();
        horizon_rule(PARALLEL_FILE, &["tx.try_send(msg)", flush.as_str()], &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 0);
        assert!(f[0].msg.contains(CHANNEL_OPS[1]), "names the missing site");
    }

    #[test]
    fn dir_entry_size_rule_requires_the_assert() {
        let rule = |text: &str| {
            let mut f = Vec::new();
            size_assert_rule("dir-entry-size", "c.rs", text, DIR_ENTRY_SIZE, &mut f);
            f.len()
        };
        let present = format!("const _: () = assert!({DIR_ENTRY_SIZE});");
        assert_eq!(rule(&present), 0);
        assert_eq!(rule("struct DirEntry;"), 1, "a missing assert is a finding");
    }

    #[test]
    fn slot_size_rule_requires_the_assert() {
        let rule = |text: &str| {
            let mut f = Vec::new();
            size_assert_rule("slot-size", "a.rs", text, SLOT_SIZE, &mut f);
            f.len()
        };
        let present = format!("const _: () = assert!(std::mem::{SLOT_SIZE});");
        assert_eq!(rule(&present), 0);
        // The old 8-byte word, or no assert at all, is a finding.
        assert_eq!(rule("const _: () = assert!(size_of::<Slot>() == 8);"), 1);
        assert_eq!(rule("type Slot = AtomicU32;"), 1);
    }

    #[test]
    fn experiment_key_parsers() {
        let md = "| `fig_1` | Fig. 1 | x | y | ✓ |\nplain text\n| `tbl_2` | ... |\n";
        assert_eq!(
            experiment_md_keys(md).into_iter().collect::<Vec<_>>(),
            vec!["fig_1".to_string(), "tbl_2".to_string()]
        );
        let json = r#"{"rows": [{"name": "fig_1"}, {"name": "tbl_2"}]}"#;
        assert_eq!(
            experiment_json_keys(json).into_iter().collect::<Vec<_>>(),
            vec!["fig_1".to_string(), "tbl_2".to_string()]
        );
    }

    /// `(file, message)` of every `experiments-keys` finding for one
    /// synthetic `EXPERIMENTS.md` and the two row files' `"name"`s.
    fn key_findings(counted: &[&str], wall: &[&str]) -> Vec<(String, String)> {
        let md = "| `fig_1` |\n| `rmr_a` |\n| `service_native_d` |\n| `switch_cost` |\n";
        let json = |names: &[&str]| -> String {
            names
                .iter()
                .map(|n| format!("{{\"name\": \"{n}\"}}"))
                .collect()
        };
        let files = [(ROW_FILES[0], json(counted)), (ROW_FILES[1], json(wall))];
        let mut f = Vec::new();
        key_rule(&experiment_md_keys(md), &files, &mut f);
        assert!(f.iter().all(|f| f.rule == "experiments-keys"), "{f:?}");
        f.into_iter().map(|f| (f.file, f.msg)).collect()
    }

    const COUNTED: &[&str] = &["fig_1", "rmr_a", "switch_cost"];
    const WALL: &[&str] = &["service_native_d"];

    #[test]
    fn each_key_has_one_row_across_the_row_files() {
        // Consistent: each key in one file.
        assert_eq!(key_findings(COUNTED, WALL), []);
        let only = |f: Vec<(String, String)>| -> (String, String) {
            assert_eq!(f.len(), 1, "{f:?}");
            f.into_iter().next().unwrap()
        };
        // A row written to both files.
        let (file, msg) = only(key_findings(
            &["fig_1", "rmr_a", "switch_cost", "service_native_d"],
            WALL,
        ));
        assert_eq!(file, "EXPERIMENTS.md");
        assert!(msg.contains("`service_native_d` has 2 rows"), "{msg}");
        // A key in neither file: no key is exempt.
        let (file, msg) = only(key_findings(&["fig_1", "rmr_a"], WALL));
        assert_eq!(file, "EXPERIMENTS.md");
        assert!(msg.contains("`switch_cost` has 0 rows"), "{msg}");
        // A row that is not a key, reported against its file.
        let (file, msg) = only(key_findings(COUNTED, &["service_native_d", "zzz"]));
        assert_eq!(file, "BENCH_service_native.json");
        assert!(msg.contains("row `zzz` has no EXPERIMENTS.md"), "{msg}");
    }

    #[test]
    fn quick_record_rejects_a_quick_run() {
        let mut f = Vec::new();
        quick_record_rule("BENCH_a.json", "{\n  \"quick\": false,\n}\n", &mut f);
        assert!(f.is_empty(), "{f:?}");
        quick_record_rule("BENCH_a.json", "{\n  \"quick\": true,\n}\n", &mut f);
        quick_record_rule("BENCH_b.json", "{\"rows\": []}", &mut f);
        let hits: Vec<_> = f.iter().map(|f| (f.rule, f.file.as_str())).collect();
        assert_eq!(
            hits,
            [
                ("quick-record", "BENCH_a.json"),
                ("quick-record", "BENCH_b.json")
            ],
            "a quick run and a missing field are both findings"
        );
    }

    #[test]
    fn allowlist_parses_and_filters() {
        let a = Allowlist::parse("# comment\nordering crates/x.rs\nhorizon-comments crates/y.rs\n");
        assert!(a.allows("ordering", "crates/x.rs"));
        assert!(a.allows("horizon-comments", "crates/y.rs"));
        assert!(!a.allows(UNSAFE_KW, "crates/x.rs"));
    }
}
