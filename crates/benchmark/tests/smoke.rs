//! The whole path on the smallest sizes, through the binary the driver
//! runs: every workload, untraced and traced, must end `correct: true`
//! with every name of its metric table on the result line.
//!
//! Run it optimised (`cargo test --release -p snod-benchmark`, about
//! 8 s). The windows a workload warms up are part of the workload, not
//! of `--smoke`, and an unoptimised build needs over a minute to fill
//! them, so there the test only says so.

use std::process::Command;

const WORKLOADS: [&str; 5] = [
    "sim_d3",
    "sim_mgdd",
    "sim_fqn",
    "serve_saturated",
    "serve_paced",
];

fn manifest_names(key: &str) -> Vec<String> {
    // BENCHMARK.json is written one metric per line; the names are the
    // first quoted value after `"name": `.
    let doc = include_str!("../../../BENCHMARK.json");
    let section = doc
        .split(&format!("\"{key}\": ["))
        .nth(1)
        .expect("section present");
    let section = section.split("\n  ]").next().expect("section ends");
    section
        .lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .map(|rest| rest.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn smoke(workload: &str, trace: &str) -> String {
    let dir = std::env::temp_dir().join(format!("snod-benchmark-smoke-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_snod-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "4",
            "--trace",
            trace,
            "--smoke",
        ])
        .env("CARGO_TARGET_DIR", &dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}"
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn smoke_runs_end_correct_with_every_metric_named() {
    if cfg!(debug_assertions) {
        eprintln!("smoke test skipped in an unoptimised build: run `cargo test --release -p snod-benchmark`");
        return;
    }
    let names = [manifest_names("end_to_end"), manifest_names("per_layer")];
    assert_eq!((names[0].len(), names[1].len()), (9, 46));
    std::thread::scope(|scope| {
        for workload in WORKLOADS {
            let names = &names;
            scope.spawn(move || {
                for (trace, table) in ["0", "1"].iter().zip(names) {
                    let line = smoke(workload, trace);
                    assert!(
                        line.starts_with("{\"correct\": true, \"attempted\": "),
                        "{workload}: {line}"
                    );
                    for name in table {
                        assert!(
                            line.contains(&format!("\"{name}\": {{\"value\": ")),
                            "{workload}: no {name}"
                        );
                    }
                }
            });
        }
    });
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("snod-benchmark-smoke-{}", std::process::id())),
    );
}
