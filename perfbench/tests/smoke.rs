//! Toy-size smoke test: every workload, untraced and traced, passes its
//! output checks and prints every metric `BENCHMARK.json` names — as a
//! `name value unit` line and in the JSON result line, with its unit.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Deserialize)]
struct Spec {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Spec>,
    per_layer: Vec<Spec>,
}

#[derive(Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

/// Builds the repository's `thriftyd`, which `daemon-churn` spawns,
/// into this test's scratch target directory and returns its path.
fn build_thriftyd() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("thriftyd");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "thriftyd",
        ])
        .arg("--manifest-path")
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/daemon/Cargo.toml"
        ))
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "thriftyd builds");
    target.join("release").join("thriftyd")
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let thriftyd = build_thriftyd();
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let bench: Benchmark = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    for workload in &bench.workloads {
        for (trace, specs) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    &workload.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                ])
                .args(["--trace", trace, "--toy", "--thriftyd"])
                .arg(&thriftyd)
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{} --trace {trace}\n{stdout}\n{}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");
            let last = stdout.lines().last().expect("a result line");
            let result: RunResult =
                serde_json::from_str(last).expect("the last line is the result");
            assert!(result.correct, "{context}");
            assert!(result.attempted > 0, "{context}");
            assert_eq!(result.failed, 0, "{context}");
            assert_eq!(result.metrics.len(), specs.len(), "{context}");
            for spec in specs {
                let m = result
                    .metrics
                    .get(&spec.name)
                    .unwrap_or_else(|| panic!("{} missing\n{context}", spec.name));
                assert_eq!(m.unit, spec.unit, "{context}");
                assert!(m.value.is_finite(), "{context}");
                let printed = stdout.lines().any(|l| {
                    let words: Vec<&str> = l.split_whitespace().collect();
                    words.len() == 3 && words[0] == spec.name && words[2] == spec.unit
                });
                assert!(
                    printed,
                    "no `{} <value> {}` line\n{context}",
                    spec.name, spec.unit
                );
            }
        }
    }
}
