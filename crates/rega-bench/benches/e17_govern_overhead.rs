//! E17: resource-governor overhead — every exponential construction now
//! routes through [`Budget::tick`] at loop granularity, so the question is
//! what that costs when nothing trips. Two states of the same code path:
//!
//! * **unarmed** ([`Budget::unlimited`]): the budget handle is empty; a
//!   tick is a single branch on an `Option` — this is the hot path every
//!   plain entry point takes (it calls its `*_governed` form with
//!   `Budget::unlimited()`);
//! * **armed** (generous limits nothing in the workload approaches): a
//!   tick is a relaxed load/compare/store on the node counter plus a
//!   stride-amortized (every 64th tick) deadline/cancellation check.
//!
//! The acceptance bar (ISSUE 5): armed-vs-unarmed must stay within the
//! ±5% noise floor of this harness on the construction workloads below —
//! the governor is bookkeeping, not a second algorithm.

use rega_analysis::emptiness::{check_emptiness_governed, EmptinessOptions};
use rega_bench::{fmt_secs, write_bench_json};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::symbolic::scontrol_nba_governed;
use rega_core::{paper, Budget, BudgetSpec, ExtendedAutomaton};
use rega_data::{SatCache, Schema};
use rega_views::{project_extended_governed, project_register_automaton_governed};
use serde_json::json;
use std::time::Instant;

const RUNS: usize = 15;
/// Minimum length of one timed sample: the micro workloads finish in a
/// handful of microseconds on the warm cache, so iterations per sample
/// are sized to keep each sample above this floor and out of
/// scheduler-jitter territory.
const SAMPLE_FLOOR_SECS: f64 = 5e-3;

/// Limits far above anything the workloads reach, so the armed budget
/// exercises the full tick bookkeeping without ever tripping.
fn generous() -> Budget {
    Budget::start(&BudgetSpec {
        deadline_ms: Some(3_600_000),
        max_nodes: Some(u64::MAX >> 1),
        max_types: None,
    })
}

type Workload = (&'static str, Box<dyn Fn(&Budget)>);

/// The governed constructions under test. Each closure owns a warm
/// [`SatCache`]: with satisfiability memoized, per-iteration work is
/// dominated by the governed loops themselves, which makes the measured
/// tick overhead a *worst case* relative to cold-cache runs.
fn workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    for (name, ext) in [
        (
            "emptiness/example1",
            ExtendedAutomaton::new(paper::example1().0),
        ),
        ("emptiness/example5", paper::example5()),
        ("emptiness/example8", paper::example8()),
        (
            "emptiness/random8",
            ExtendedAutomaton::new(random_automaton(
                &GenParams {
                    states: 8,
                    k: 2,
                    out_degree: 2,
                    literals_per_type: 2,
                    unary_relations: 1,
                    relational_probability: 0.4,
                },
                13,
            )),
        ),
    ] {
        let cache = SatCache::new(ext.ra().schema().clone());
        let opts = EmptinessOptions::default();
        out.push((
            name,
            Box::new(move |b: &Budget| {
                check_emptiness_governed(&ext, &opts, &cache, b).unwrap();
            }),
        ));
    }

    let flat = random_automaton(
        &GenParams {
            states: 6,
            k: 2,
            out_degree: 2,
            literals_per_type: 2,
            unary_relations: 0,
            relational_probability: 0.0,
        },
        7,
    );
    let cache = SatCache::new(Schema::empty());
    out.push((
        "views/prop20_random6",
        Box::new(move |b: &Budget| {
            project_register_automaton_governed(&flat, 1, &cache, b).unwrap();
        }),
    ));

    let ext1 = ExtendedAutomaton::new(paper::example1().0);
    let cache = SatCache::new(Schema::empty());
    out.push((
        "views/thm13_example1",
        Box::new(move |b: &Budget| {
            project_extended_governed(&ext1, 1, &cache, b).unwrap();
        }),
    ));

    let ra5 = paper::example5().ra().clone();
    let cache = SatCache::new(ra5.schema().clone());
    out.push((
        "symbolic/scontrol_example5",
        Box::new(move |b: &Budget| {
            scontrol_nba_governed(&ra5, &cache, b).unwrap();
        }),
    ));
    out
}

/// One timed sample (`iters` construction runs), seconds per run.
fn timed_run(work: &dyn Fn(&Budget), budget: &Budget, iters: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        work(budget);
    }
    t.elapsed().as_secs_f64() / iters as f64
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(|x, y| x.partial_cmp(y).unwrap());
    times[times.len() / 2]
}

/// The headline estimator. On this single-core container, cohabiting
/// load inflates individual samples by tens of percent; noise only ever
/// *adds* time, so the minimum over interleaved rounds is the best
/// available estimate of the undisturbed runtime, and the min-vs-min
/// delta the cleanest estimate of the true tick cost. Medians are kept
/// in the JSON artifact for the skeptical reader.
fn minimum(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

fn main() {
    println!(
        "e17: governor tick overhead, armed (generous limits) vs unarmed \
         (Budget::unlimited), min over {RUNS} interleaved rounds, \
         samples sized to >= {:.0} ms",
        SAMPLE_FLOOR_SECS * 1e3
    );
    println!(
        "e17: {:<28} {:>12} {:>12} {:>9}",
        "workload", "unarmed", "armed", "delta"
    );

    let mut entries = Vec::new();
    let mut worst = 0.0f64;
    for (name, work) in workloads() {
        let unlimited = Budget::unlimited();
        // Warm the caches so neither arm pays the one-time saturation
        // bill, and size iterations so a sample clears the jitter floor.
        work(&unlimited);
        let est_start = Instant::now();
        work(&unlimited);
        let est = est_start.elapsed().as_secs_f64();
        let iters = ((SAMPLE_FLOOR_SECS / est.max(1e-9)).ceil() as u64).clamp(1, 1_000_000);

        // Interleave the two arms round-robin so machine drift (thermal,
        // cohabiting load) hits both equally rather than whichever runs
        // last.
        let mut unarmed_t = Vec::with_capacity(RUNS);
        let mut armed_t = Vec::with_capacity(RUNS);
        for _ in 0..RUNS {
            unarmed_t.push(timed_run(work.as_ref(), &unlimited, iters));
            // A fresh armed budget per sample: node counts accumulate on
            // the handle, and the deadline clock must not creep toward
            // its (generous) limit across the whole bench.
            let armed = generous();
            armed_t.push(timed_run(work.as_ref(), &armed, iters));
        }
        let base = minimum(&unarmed_t);
        let armed = minimum(&armed_t);
        let delta_pct = (armed / base - 1.0) * 100.0;
        worst = worst.max(delta_pct);
        println!(
            "e17: {:<28} {:>12} {:>12} {:>+8.2}%",
            name,
            fmt_secs(base),
            fmt_secs(armed),
            delta_pct
        );
        entries.push(json!({
            "workload": name,
            "unarmed_min_ns": base * 1e9,
            "armed_min_ns": armed * 1e9,
            "unarmed_median_ns": median(&mut unarmed_t) * 1e9,
            "armed_median_ns": median(&mut armed_t) * 1e9,
            "delta_pct": delta_pct,
            "samples": RUNS,
            "iters_per_sample": iters,
        }));
    }

    println!(
        "e17: worst armed-vs-unarmed delta {worst:+.2}% \
         (acceptance bar: within the ±5% noise floor; see EXPERIMENTS.md)"
    );
    let path = write_bench_json(
        "BENCH_e17",
        &json!({
            "experiment": "e17_govern_overhead",
            "runs": RUNS,
            "sample_floor_ms": SAMPLE_FLOOR_SECS * 1e3,
            "entries": entries,
        }),
    );
    println!("e17: wrote {}", path.display());
}
