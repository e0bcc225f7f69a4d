//! E18: the fast symbolic kernel — on-the-fly emptiness (lazy `SControl`
//! expansion into an edge arena, bitset σ-type joint-satisfiability,
//! incremental stabilized class builds, witness construction interleaved
//! with the lasso search) versus the retained reference pipeline
//! (materialized NBA, up-front lasso enumeration, from-scratch class
//! rebuilds per horizon). Both run uncached public entry points, so the
//! comparison isolates the kernel itself rather than cross-call memoization
//! (that axis is E15's subject).
//!
//! Workloads come in two groups. The `paper` group is the E4 suite of the
//! paper's five examples — correctness anchors small enough that both
//! pipelines finish in microseconds and the kernel's gain is modest. The
//! `scaling` group is random automata of growing state count, out-degree,
//! and register count — the regime the kernel targets, where the reference
//! pays for materializing the full symbolic NBA and rebuilding class
//! structures from scratch at every horizon. The two pipelines are timed
//! in alternation (fast / reference / fast / reference) keeping the best
//! median per side, so machine-state drift cannot masquerade as kernel
//! speedup. Verdict identity (and witness-lasso identity on non-empty
//! instances) is asserted before any timing is recorded. Emits
//! `BENCH_e18.json` at the repository root.

use rega_analysis::emptiness::{
    check_emptiness, check_emptiness_reference_governed, EmptinessOptions, EmptinessVerdict,
};
use rega_bench::{fmt_secs, measure_pair, write_bench_json};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::{paper, Budget, ExtendedAutomaton};
use rega_data::SatCache;
use serde_json::json;

const SAMPLES: usize = 10;

fn workloads() -> Vec<(String, &'static str, ExtendedAutomaton)> {
    let mut w = vec![
        (
            "example1".to_string(),
            "paper",
            ExtendedAutomaton::new(paper::example1().0),
        ),
        ("example5".to_string(), "paper", paper::example5()),
        ("example7".to_string(), "paper", paper::example7()),
        ("example8".to_string(), "paper", paper::example8()),
        (
            "example23".to_string(),
            "paper",
            ExtendedAutomaton::new(paper::example23()),
        ),
    ];
    // Growing state count at the E4 generator shape.
    for states in [4usize, 8, 12, 16, 20] {
        let ra = random_automaton(
            &GenParams {
                states,
                k: 2,
                out_degree: 2,
                literals_per_type: 2,
                unary_relations: 1,
                relational_probability: 0.4,
            },
            13,
        );
        w.push((
            format!("random-{states}s"),
            "scaling",
            ExtendedAutomaton::new(ra),
        ));
    }
    // Denser transition structure: larger symbolic alphabets per state.
    for (states, out_degree) in [(8usize, 4usize), (12, 4), (16, 6)] {
        let ra = random_automaton(
            &GenParams {
                states,
                k: 2,
                out_degree,
                literals_per_type: 2,
                unary_relations: 1,
                relational_probability: 0.4,
            },
            13,
        );
        w.push((
            format!("dense-{states}s-d{out_degree}"),
            "scaling",
            ExtendedAutomaton::new(ra),
        ));
    }
    // A third register: wider σ-types through the bitset joint-sat path.
    let ra = random_automaton(
        &GenParams {
            states: 8,
            k: 3,
            out_degree: 2,
            literals_per_type: 3,
            unary_relations: 1,
            relational_probability: 0.4,
        },
        13,
    );
    w.push((
        "regs3-8s".to_string(),
        "scaling",
        ExtendedAutomaton::new(ra),
    ));
    w
}

/// The reference pipeline with a fresh cache per call, like
/// [`check_emptiness`].
fn reference_pipeline(ext: &ExtendedAutomaton, opts: &EmptinessOptions) -> EmptinessVerdict {
    let cache = SatCache::new(ext.ra().schema().clone());
    check_emptiness_reference_governed(ext, opts, &cache, &Budget::unlimited()).unwrap()
}

/// Asserts the two pipelines agree exactly on this workload and returns
/// (nonempty, witness-lassos-identical).
fn assert_identical_verdicts(ext: &ExtendedAutomaton, opts: &EmptinessOptions, name: &str) -> bool {
    let fast = check_emptiness(ext, opts).unwrap();
    let refr = reference_pipeline(ext, opts);
    match (&fast, &refr) {
        (EmptinessVerdict::Empty, EmptinessVerdict::Empty) => false,
        (EmptinessVerdict::NonEmpty(wf), EmptinessVerdict::NonEmpty(wr)) => {
            assert_eq!(
                wf.control, wr.control,
                "e18: {name}: pipelines accepted different witness lassos"
            );
            true
        }
        _ => panic!(
            "e18: {name}: verdict mismatch — fast={} reference={}",
            fast.is_nonempty(),
            refr.is_nonempty()
        ),
    }
}

fn main() {
    let opts = EmptinessOptions::default();
    let mut entries = Vec::new();
    let mut speedups = Vec::new();

    let mut group_speedups: Vec<(&'static str, Vec<f64>)> =
        vec![("paper", Vec::new()), ("scaling", Vec::new())];

    println!("e18: on-the-fly emptiness kernel vs retained reference pipeline");
    println!(
        "e18: {:<16} {:<8} {:>8} {:>12} {:>12} {:>8}",
        "workload", "group", "nonempty", "fast", "reference", "speedup"
    );
    for (name, group, ext) in workloads() {
        let nonempty = assert_identical_verdicts(&ext, &opts, &name);
        let (fast, refr) = measure_pair(
            SAMPLES,
            || check_emptiness(&ext, &opts).unwrap(),
            || reference_pipeline(&ext, &opts),
        );
        let speedup = refr.median_secs / fast.median_secs.max(1e-12);
        speedups.push(speedup);
        group_speedups
            .iter_mut()
            .find(|(g, _)| *g == group)
            .unwrap()
            .1
            .push(speedup);
        println!(
            "e18: {:<16} {:<8} {:>8} {:>12} {:>12} {:>7.2}x",
            name,
            group,
            nonempty,
            fmt_secs(fast.median_secs),
            fmt_secs(refr.median_secs),
            speedup,
        );
        entries.push(json!({
            "workload": name,
            "group": group,
            "nonempty": nonempty,
            "verdicts_identical": true,
            "fast": fast.to_json(),
            "reference": refr.to_json(),
            "speedup": speedup,
        }));
    }

    let median_of = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let median_speedup = median_of(&mut speedups);
    println!(
        "e18: median speedup {median_speedup:.2}x over {} workloads (min {:.2}x, max {:.2}x)",
        speedups.len(),
        speedups[0],
        speedups[speedups.len() - 1],
    );
    let mut group_medians = Vec::new();
    for (group, mut v) in group_speedups {
        let m = median_of(&mut v);
        println!(
            "e18:   {group} group median {m:.2}x over {} workloads",
            v.len()
        );
        group_medians.push(json!({ "group": group, "median_speedup": m, "workloads": v.len() }));
    }

    let payload = json!({
        "experiment": "e18_emptiness_kernel",
        "note": "fast = on-the-fly kernel (public check_emptiness), reference = retained \
                 materialize-then-enumerate pipeline; alternating best-median timing; \
                 verdicts and witness lassos asserted identical before timing",
        "median_speedup": median_speedup,
        "min_speedup": speedups[0],
        "max_speedup": speedups[speedups.len() - 1],
        "group_medians": group_medians,
        "workloads": entries,
    });
    let path = write_bench_json("BENCH_e18", &payload);
    println!("e18: wrote {}", path.display());
}
