//! Self-test of the benchmark: every workload at tiny size, untraced and
//! traced, must print every metric `BENCHMARK.json` names with its unit
//! and pass its correctness gate; a deliberately corrupted reference
//! verdict must fail the gate.

use serde_json::Value as Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "serve-view",
    "cluster-plain",
    "symbolic-decide",
    "symbolic-project",
];

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny invocation; returns its exit success and result line.
fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_rega-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0",
            "--trace",
            if trace { "1" } else { "0" },
            "--tiny",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = serde_json::from_str(last).expect("the last stdout line is JSON");
    (out.status.success(), result)
}

fn assert_metrics(workload: &str, result: &Json, listed: &Json) {
    let metrics = result["metrics"].as_object().expect("a metrics object");
    let names: Vec<&str> = listed
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name"))
        .collect();
    assert_eq!(
        metrics.len(),
        names.len(),
        "{workload}: {:?}",
        metrics.keys()
    );
    for m in listed.as_array().unwrap() {
        let name = m["name"].as_str().unwrap();
        let got = &result["metrics"][name];
        assert!(
            got["value"].as_f64().is_some(),
            "{workload}: {name} missing"
        );
        assert_eq!(got["unit"], m["unit"], "{workload}: unit of {name}");
    }
}

fn check(workload: &str, seed: u64) {
    let bench = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let (ok, result) = run(workload, seed, trace, &[]);
        assert!(ok, "{workload} (trace {trace}) failed: {result}");
        assert_eq!(result["correct"], Json::Bool(true), "{workload}: {result}");
        assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {result}");
        assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
        assert_metrics(workload, &result, &bench[key]);
    }
    let (ok, result) = run(workload, seed, false, &["--corrupt-verdict"]);
    assert!(!ok, "{workload}: a corrupted verdict must fail the run");
    assert_eq!(result["correct"], Json::Bool(false), "{workload}: {result}");
}

#[test]
fn serve_view_reports_every_metric_and_gates() {
    check(WORKLOADS[0], 11);
}

#[test]
fn cluster_plain_reports_every_metric_and_gates() {
    check(WORKLOADS[1], 12);
}

#[test]
fn symbolic_decide_reports_every_metric_and_gates() {
    check(WORKLOADS[2], 13);
}

#[test]
fn symbolic_project_reports_every_metric_and_gates() {
    check(WORKLOADS[3], 14);
}

#[test]
fn benchmark_json_names_the_four_workloads() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn the_same_seed_reproduces_the_same_inputs() {
    let fingerprint = |seed: u64| {
        let out = Command::new(env!("CARGO_BIN_EXE_rega-perfbench"))
            .args([
                "--workload",
                "symbolic-project",
                "--seed",
                &seed.to_string(),
            ])
            .args(["--seconds", "0", "--trace", "0", "--tiny"])
            .output()
            .expect("the benchmark binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        let at = stderr.find("\"fingerprint\":\"").expect("a fingerprint") + 15;
        stderr[at..at + 16].to_string()
    };
    assert_eq!(fingerprint(5), fingerprint(5));
    assert_ne!(fingerprint(5), fingerprint(6));
}
