//! What a result depends on besides the code: the host block every
//! result file carries, and this process's peak memory.

use std::process::Command;

use crate::json::Json;

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's output, or `unknown`.
fn first_line(cmd: &str, args: &[&str], dir: &std::path::Path) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The host block: cores, CPU model, compiler, revision.
pub fn describe(repo: &std::path::Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(first_line("rustc", &["-V"], repo))),
        (
            "git_rev",
            Json::Str(first_line("git", &["rev-parse", "HEAD"], repo)),
        ),
        (
            "load_threads",
            Json::Num(crate::workloads::LOAD_THREADS as f64),
        ),
    ])
}
