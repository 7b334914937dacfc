//! `rsbench` — the repository benchmark. See `README.md` beside this
//! crate for the workloads, the metrics and how they interact; see
//! `BENCHMARK.json` at the repository root for the driver's view.
//!
//! ```text
//! rsbench --seed S [--workload W] [--seconds N] [--trace [0|1]] [--out FILE]
//! rsbench compare A.json B.json
//! rsbench --selftest
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

mod affinity;
mod compare;
mod gen;
mod host;
mod json;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use trace::Tracer;
use workloads::RunOpts;

/// Exit code of a workload that refused to run on this host (too few
/// cores); the suite records such a workload as `null`.
const EXIT_REFUSED: u8 = 3;

/// What the command line asked for.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: run.sh --seed S [--workload W] [--seconds N] [--trace [0|1]] [--out FILE]\n\
         \x20      run.sh compare A.json B.json\n\
         \x20      run.sh check | run.sh --selftest\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut seed_given = false;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !seed_given {
        return Err(format!("--seed is required\n{}", usage()));
    }
    Ok(args)
}

/// The `[profile.release]` table of a manifest, comments and blank lines
/// dropped.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Cargo reads profiles from the workspace root being built — this
/// package, not the repository — so the root's release profile is copied
/// here. A benchmark built with other settings than the code it measures
/// ships with would mislead; refuse to run if the copy has drifted.
fn check_profile() -> Result<(), String> {
    let root = release_profile(include_str!("../../Cargo.toml"));
    let own = release_profile(include_str!("../Cargo.toml"));
    if root.is_empty() || root != own {
        return Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ));
    }
    Ok(())
}

/// The `benchmark/` directory: where `out/` lives.
fn bench_dir() -> PathBuf {
    std::env::var_os("RSBENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Run one workload in this process and report it.
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        shrink: 1,
    };
    if !workloads::NAMES.contains(&name) {
        return Err(format!("unknown workload `{name}`\n{}", usage()));
    }
    let mut tracer = Tracer::new();
    let mut outcome = match workloads::run(name, &opts, &mut tracer) {
        Ok(o) => o,
        Err(refusal) => {
            eprintln!("rsbench: {refusal}");
            return Ok(ExitCode::from(EXIT_REFUSED));
        }
    };
    if args.trace {
        probes::run(name, &mut outcome);
        let path = bench_dir().join("out").join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "rsbench: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        );
    }
    print!("{}", report::human(name, &outcome, args.trace));
    if let Some(path) = &args.out {
        let doc = report::result_file(
            args,
            [(
                name.to_string(),
                report::workload_json(&outcome, args.trace),
            )],
        );
        write_file(path, &doc.to_pretty())?;
    }
    println!("{}", report::contract_line(&outcome, args.trace).to_line());
    Ok(if outcome.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run every workload, each in a child process of its own (so that peak
/// memory and allocator state belong to one workload, exactly as in the
/// driver's single-workload runs), and merge their result files.
fn run_suite(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = bench_dir().join("out");
    let mut merged: Vec<(String, Json)> = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut entry: Option<Json> = None;
        let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        for &trace in passes {
            let part = scratch.join(format!("part-{name}-{}.json", u8::from(trace)));
            eprintln!("rsbench: {name} (trace {})", u8::from(trace));
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            if status.code() == Some(i32::from(EXIT_REFUSED)) {
                break;
            }
            all_correct &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{name} left no result ({status}): {e}"))?;
            let _ = std::fs::remove_file(&part);
            let doc = Json::parse(&text)?;
            let one = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .ok_or_else(|| format!("{}: no `{name}` entry", part.display()))?
                .clone();
            entry = Some(match entry {
                None => one,
                Some(untraced) => report::merge_traced(untraced, &one),
            });
        }
        merged.push((name.to_string(), entry.unwrap_or(Json::Null)));
    }
    let doc = report::result_file(args, merged);
    match &args.out {
        Some(path) => {
            write_file(path, &doc.to_pretty())?;
            eprintln!("rsbench: results -> {}", path.display());
        }
        None => print!("{}", doc.to_pretty()),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every deterministic workload twice at 1/50 scale and require the
/// counted metrics to agree — the property that lets a host-side change
/// be checked for leaving simulated behaviour alone.
fn selftest() -> Result<(), String> {
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        trace: false,
        shrink: 50,
    };
    for name in workloads::DETERMINISTIC {
        let counted = |o: &workloads::Outcome| -> Vec<(&'static str, f64)> {
            metrics::END_TO_END
                .iter()
                .filter(|m| m.exact && o.e2e[m.name].1 == workloads::Cell::Primary)
                .map(|m| (m.name, o.e2e[m.name].0.median))
                .collect()
        };
        let a = workloads::run(name, &opts, &mut Tracer::new())?;
        let b = workloads::run(name, &opts, &mut Tracer::new())?;
        for o in [&a, &b] {
            if !o.check_failures.is_empty() {
                return Err(format!("{name}: {:?}", o.check_failures));
            }
        }
        if counted(&a) != counted(&b) {
            return Err(format!(
                "{name}: counted metrics differ between two runs of one seed:\n{:?}\n{:?}",
                counted(&a),
                counted(&b)
            ));
        }
        println!(
            "selftest {name}: {} counted metrics repeat",
            counted(&a).len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = check_profile().and_then(|()| match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err(usage()),
        },
        Some("--selftest") => selftest().map(|()| ExitCode::SUCCESS),
        Some("-h" | "--help") | None => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        _ => parse(&argv).and_then(|args| match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_suite(&args),
        }),
    });
    result.unwrap_or_else(|why| {
        eprintln!("rsbench: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&argv(
            "--workload native_hot --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("native_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let a = parse(&argv("--trace 0 --seed 1")).unwrap();
        assert!(!a.trace && a.workload.is_none());
        assert!(parse(&argv("--seed 1 --trace")).unwrap().trace);
        assert!(parse(&argv("--trace --seed 1 --out x.json")).unwrap().trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--workload x")).is_err(), "seed is required");
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--seed 1 --seconds 0")).is_err());
        assert!(parse(&argv("--seed 1 --frobnicate")).is_err());
    }

    #[test]
    fn profile_copy_matches_root() {
        check_profile().unwrap();
        assert_eq!(
            release_profile("[a]\nx=1\n[profile.release]\n# c\nlto = \"thin\"\n\n[b]\ny=2"),
            vec!["lto = \"thin\""]
        );
    }

    /// The seed reaches the program: another seed, another run.
    #[test]
    fn a_different_seed_gives_different_sim_events() {
        let events = |seed| {
            let opts = RunOpts {
                seed,
                seconds: 0.0,
                trace: true,
                shrink: 50,
            };
            let o = workloads::run("sim_lock_storm", &opts, &mut Tracer::new()).unwrap();
            assert!(o.check_failures.is_empty(), "{:?}", o.check_failures);
            o.layers["sim.events"]
        };
        assert_eq!(events(1), events(1));
        assert_ne!(events(1), events(7));
    }

    /// The cargo-test form of `--selftest`.
    #[test]
    fn deterministic_workloads_repeat_exactly() {
        selftest().unwrap();
    }
}
