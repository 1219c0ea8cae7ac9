//! `snod-benchmark`: the repository's benchmark.
//!
//! ```text
//! snod-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! snod-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace] [--smoke]
//! snod-benchmark noise [--sets N] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: it prints
//! every metric by name with its unit and, as the last line of standard
//! output, one JSON object `{correct, attempted, failed, metrics}`.
//! `run` executes each workload in a child process of its own (so peak
//! memory and allocator state are per workload) and writes summaries
//! under the build directory; `noise` repeats `run` on one build and
//! holds the A/A differences against the bounds.

mod daemon;
mod inputs;
mod json;
mod loadgen;
mod manifest;
mod oracle;
mod procfs;
mod report;
mod serve;
mod shadow;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;

/// How one workload is to be run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Slices of the timed phase: one per second asked for.
    pub slices: usize,
    /// 1, or [`manifest::SMOKE_DIVISOR`] under `--smoke`.
    pub divisor: usize,
    /// Times set-up is performed from scratch (traced runs: once).
    pub setups: usize,
    pub traced: bool,
    /// Where summaries, traces and the daemon's checkpoints go.
    pub out_dir: PathBuf,
}

/// Flags shared by the three command forms.
#[derive(Debug, Clone)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    smoke: bool,
    detail: bool,
    sets: usize,
}

impl Cli {
    /// One slice per second asked for; `--smoke` fixes both numbers.
    fn slices(&self) -> usize {
        if self.smoke {
            manifest::SMOKE_SLICES
        } else {
            self.seconds.max(manifest::MIN_SLICES)
        }
    }

    fn divisor(&self) -> usize {
        if self.smoke {
            manifest::SMOKE_DIVISOR
        } else {
            1
        }
    }
}

fn parse(args: &[String], trace_takes_value: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 16,
        trace: false,
        smoke: false,
        detail: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--sets" => {
                cli.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--trace" if trace_takes_value => match value("0 or 1")?.as_str() {
                "0" => cli.trace = false,
                "1" => cli.trace = true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            },
            "--trace" => cli.trace = true,
            "--smoke" => cli.smoke = true,
            "--detail" => cli.detail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &cli.workload {
        if !manifest::WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w} (one of {})",
                manifest::WORKLOADS.join(", ")
            ));
        }
    }
    if !(1..=60).contains(&cli.seconds) || cli.sets < 2 {
        return Err("--seconds is 1 to 60, --sets at least 2".into());
    }
    Ok(cli)
}

/// Build outputs live under the cargo target directory of the checkout
/// the command runs in; the benchmark keeps its files beside them.
fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse(&args[1..], false).and_then(|cli| cmd_run(&cli)),
        Some("noise") => parse(&args[1..], false).and_then(|cli| cmd_noise(&cli)),
        Some("daemon") => serve::daemon_main(&args[1..]).map(|()| true),
        _ => parse(&args, true).and_then(|cli| cmd_workload(&cli)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("snod-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and prints its result line last.
fn cmd_workload(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.as_deref().ok_or("--workload is required")?;
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let args = RunArgs {
        seed: cli.seed,
        slices: cli.slices(),
        divisor: cli.divisor(),
        setups: if cli.smoke || cli.trace {
            1
        } else {
            manifest::SETUP_REPEATS
        },
        traced: cli.trace,
        out_dir,
    };
    let outcome = if workload.starts_with("sim_") {
        sim::run(workload, &args)
    } else {
        serve::run(workload, &args)?
    };
    outcome.print();
    if cli.detail {
        println!("DETAIL {}", outcome.detail());
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

pub fn write_trace(args: &RunArgs, workload: &str, tracer: &trace::Tracer) {
    let path = args.out_dir.join(format!("trace_{workload}.json"));
    if let Err(e) = std::fs::write(&path, tracer.to_json().to_string()) {
        eprintln!("snod-benchmark: {}: {e}", path.display());
    }
}

/// Re-executes this binary for one workload and returns the child's
/// detailed outcome.
fn run_child(workload: &str, cli: &Cli, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--detail"])
        .args([
            "--seed",
            &cli.seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut detail = None;
    for line in text.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(d) => detail = Some(Json::parse(d)?),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    detail.ok_or(format!(
        "{workload} printed no result (exit {:?})",
        out.status.code()
    ))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Where and how the numbers were taken; part of every summary.
fn envelope(cli: &Cli) -> Json {
    let slice = |n: u64| Json::Num((n as usize / cli.divisor()).max(1) as f64);
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "features",
            Json::str("library crates, default features off"),
        ),
        ("obs", Json::Bool(false)),
        ("seed", Json::Num(cli.seed as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("slices", Json::Num(cli.slices() as f64)),
        (
            "slice_sizes",
            Json::obj([
                (
                    "sim_d3_periods",
                    slice(manifest::D3_PERIODS_PER_SLICE as u64),
                ),
                (
                    "sim_mgdd_periods",
                    slice(manifest::MGDD_PERIODS_PER_SLICE as u64),
                ),
                (
                    "sim_fqn_periods",
                    slice(manifest::FQN_PERIODS_PER_SLICE as u64),
                ),
                (
                    "serve_saturated_readings",
                    slice(manifest::SATURATED_READINGS_PER_SLICE),
                ),
                (
                    "serve_paced_readings",
                    slice(manifest::PACED_READINGS_PER_SLICE),
                ),
            ]),
        ),
        (
            "checkpoint_filesystem",
            Json::str(procfs::filesystem_of(&out_dir())),
        ),
    ])
}

/// What each name means: the workloads' reasons, every end-to-end
/// metric with its direction and bound, every per-layer metric with its
/// layer and what it should move.
fn manifest_json() -> Json {
    let workloads = manifest::WORKLOADS
        .map(|w| Json::obj([("name", Json::str(w)), ("why", Json::str(manifest::why(w)))]));
    let end_to_end = manifest::END_TO_END.map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = manifest::PER_LAYER.map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("layer", Json::str(m.layer)),
            ("moves", Json::str(m.moves)),
        ])
    });
    Json::obj([
        ("workloads", Json::Arr(workloads.to_vec())),
        ("end_to_end", Json::Arr(end_to_end.to_vec())),
        ("per_layer", Json::Arr(per_layer.to_vec())),
    ])
}

/// Runs the chosen workloads (all by default), each in its own child.
fn run_set(cli: &Cli, traced: bool) -> Result<(bool, Vec<Json>), String> {
    let mut details = Vec::new();
    let mut correct = true;
    for w in manifest::WORKLOADS {
        if cli.workload.as_deref().is_some_and(|only| only != w) {
            continue;
        }
        let detail = run_child(w, cli, traced)?;
        correct &= detail.get("correct").and_then(Json::as_bool) == Some(true);
        details.push(detail);
    }
    Ok((correct, details))
}

fn write_summary(cli: &Cli, name: &str, details: Vec<Json>) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let doc = Json::obj([
        ("envelope", envelope(cli)),
        ("manifest", manifest_json()),
        ("workloads", Json::Arr(details)),
    ]);
    let path = dir.join(name);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_run(cli: &Cli) -> Result<bool, String> {
    let (mut correct, details) = run_set(cli, false)?;
    write_summary(cli, "summary_run.json", details)?;
    if cli.trace {
        let (traced_correct, details) = run_set(cli, true)?;
        correct &= traced_correct;
        write_summary(cli, "summary_trace.json", details)?;
    }
    Ok(correct)
}

/// A/A self-check: `--sets` full runs of one build; every end-to-end
/// metric's largest difference between sets is held against its bound,
/// and the exact metrics and output digests must be bit-equal.
fn cmd_noise(cli: &Cli) -> Result<bool, String> {
    const EXACT: [&str; 4] = [
        "leaf_precision",
        "leaf_recall",
        "tx_bytes_per_reading",
        "state_bytes_per_node",
    ];
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 1..=cli.sets {
        println!("---- noise set {set} of {} ----", cli.sets);
        let (correct, details) = run_set(cli, false)?;
        ok &= correct;
        sets.push(details);
    }
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "diff", "bound"
    );
    for w in 0..sets[0].len() {
        let name = sets[0][w]
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        for def in manifest::END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s[w].get("metrics")?.get(def.name)?.get("value")?.as_f64())
                .collect();
            if values.len() != sets.len() {
                println!("{name:<18} {:<24} missing in a set", def.name);
                ok = false;
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let diff = (hi - lo) / lo.abs();
            let exact = EXACT.contains(&def.name);
            let bound = if exact { 0.0 } else { def.bound };
            let breach = diff > bound;
            ok &= !breach;
            println!(
                "{name:<18} {:<24} {lo:>14.6} {hi:>14.6} {:>8.2}% {:>6.0}% {}",
                def.name,
                diff * 100.0,
                bound * 100.0,
                if breach {
                    "BREACH"
                } else if exact {
                    "exact"
                } else {
                    ""
                }
            );
        }
        let digests: Vec<Option<&str>> = sets
            .iter()
            .map(|s| s[w].get("notes")?.get("output_digest")?.as_str())
            .collect();
        let same = digests.windows(2).all(|p| p[0] == p[1] && p[0].is_some());
        println!(
            "{name:<18} output_digest {}",
            if same { "equal across sets" } else { "DIFFERS" }
        );
        ok &= same;
    }
    println!(
        "noise: {}",
        if ok {
            "every metric within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_form_parses() {
        let cli = parse(
            &strings(&[
                "--workload",
                "sim_fqn",
                "--seed",
                "7",
                "--seconds",
                "16",
                "--trace",
                "1",
            ]),
            true,
        )
        .unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("sim_fqn"), 7, 16, true)
        );
        assert!(parse(&strings(&["--workload", "nope"]), true).is_err());
        assert!(parse(&strings(&["--trace", "2"]), true).is_err());
        assert!(parse(&strings(&["--seconds", "0"]), true).is_err());
        assert!(parse(&strings(&["--trace", "--smoke"]), false).is_ok_and(|c| c.trace && c.smoke));
    }
}
