//! Shared helpers for the benchmark harness (experiments E1–E12; see
//! EXPERIMENTS.md for the experiment index and recorded outcomes).

use criterion::Criterion;
use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A Criterion instance tuned for the CI-scale experiment runs: small
/// sample counts, short measurement windows.
pub fn criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(200))
        .configure_from_args()
}

/// Times `routine` over `samples` samples and returns the median of the
/// per-sample mean iteration times, in nanoseconds. Iterations per sample
/// are sized so each sample runs at least ~10 ms (fast routines are
/// batched). The vendored criterion stub keeps its statistics private, so
/// experiments that write a `BENCH_*.json` artifact measure through this
/// helper instead.
pub fn measure<O>(samples: usize, mut routine: impl FnMut() -> O) -> f64 {
    assert!(samples > 0);
    // One throwaway call for warm-up, then estimate the iteration cost.
    std::hint::black_box(routine());
    let est_start = Instant::now();
    std::hint::black_box(routine());
    let est = est_start.elapsed().as_secs_f64();
    let target = Duration::from_millis(10).as_secs_f64();
    let iters = ((target / est.max(1e-9)).ceil() as u64).clamp(1, 1_000_000);

    let mut means = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        means.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    means[means.len() / 2]
}

/// A benchmark artifact in the repository benchmark's result shape
/// (`perfbench/README.md`): `{"correct", "attempted", "failed", "metrics":
/// {name: {"value", "unit"}}}`.
pub struct BenchResult {
    /// False when an output differed from its reference.
    pub correct: bool,
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Default for BenchResult {
    fn default() -> Self {
        BenchResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }
}

impl BenchResult {
    /// Records `name = value unit` (later records overwrite earlier ones).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// The artifact's JSON payload.
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| (name.clone(), json!({"value": *value, "unit": *unit})))
            .collect();
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Json::Object(metrics),
        })
    }
}

/// Writes a machine-readable benchmark artifact `<file_stem>.json` at the
/// repository root (next to EXPERIMENTS.md) and returns its path.
pub fn write_bench_json(file_stem: &str, result: &BenchResult) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("{file_stem}.json"));
    write_result(&path, result);
    path
}

fn write_result(path: &Path, result: &BenchResult) {
    let text = serde_json::to_string_pretty(&result.to_json()).expect("serializable payload");
    std::fs::write(path, text + "\n").expect("writable artifact path");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_statistics() {
        let cheap = measure(3, || std::hint::black_box(21u64 * 2));
        assert!(cheap.is_finite() && cheap > 0.0);
        // Sleeping never returns early, so the median bounds it from below.
        let slow = measure(3, || std::thread::sleep(Duration::from_millis(1)));
        assert!(slow >= 1e6, "a 1 ms routine measured {slow} ns");
    }

    #[test]
    fn written_payload_has_the_perfbench_result_shape() {
        let mut result = BenchResult {
            attempted: 2,
            ..BenchResult::default()
        };
        result.set("e04.check_emptiness_ns.example1", 1500.5, "ns");
        result.set("e04.nonempty.example1", 1.0, "bool");
        let path =
            std::env::temp_dir().join(format!("rega-bench-shape-{}.json", std::process::id()));
        write_result(&path, &result);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let doc = serde_json::from_str(&text).unwrap();
        let top: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc["correct"].as_bool(), Some(true));
        assert_eq!(doc["attempted"].as_u64(), Some(2));
        assert_eq!(doc["failed"].as_u64(), Some(0));
        let metrics = doc["metrics"].as_object().unwrap();
        assert_eq!(metrics.len(), 2);
        for m in metrics.values() {
            let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["unit", "value"]);
        }
        let ns = &metrics["e04.check_emptiness_ns.example1"];
        assert_eq!(ns["value"].as_f64(), Some(1500.5));
        assert_eq!(ns["unit"].as_str(), Some("ns"));
        assert_eq!(
            metrics["e04.nonempty.example1"]["unit"].as_str(),
            Some("bool")
        );
    }
}
