//! E15: σ-type interning + satisfiability cache — `scontrol_nba` and
//! `check_emptiness` on the E4 (paper-example emptiness), E7 (projection
//! view) and E10 (database-hiding view) workloads, direct path (a fresh
//! cache per call, the pre-interning behaviour) versus a persistent warm
//! [`SatCache`]. Emits the machine-readable artifact `BENCH_e15.json` at
//! the repository root alongside the human-readable log.

use rega_analysis::emptiness::{check_emptiness, check_emptiness_governed, EmptinessOptions};
use rega_bench::{fmt_secs, measure_pair, write_bench_json, Measured};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::symbolic::{scontrol_nba, scontrol_nba_governed};
use rega_core::{paper, Budget, ExtendedAutomaton};
use rega_data::SatCache;
use rega_views::prop20::project_register_automaton;
use rega_views::thm24::{project_hiding_database, Thm24Options};
use serde_json::json;

const SAMPLES: usize = 12;

struct Workload {
    group: &'static str,
    name: &'static str,
    ext: ExtendedAutomaton,
}

fn workloads() -> Vec<Workload> {
    let mut w = Vec::new();
    // E4: the emptiness suite over the paper's examples.
    for (name, ext) in [
        ("example1", ExtendedAutomaton::new(paper::example1().0)),
        ("example5", paper::example5()),
        ("example7", paper::example7()),
        ("example8", paper::example8()),
        ("example23", ExtendedAutomaton::new(paper::example23())),
    ] {
        w.push(Workload {
            group: "e04",
            name,
            ext,
        });
    }
    // E7: projection views (Prop 20) — the view automata the projection
    // pipeline feeds back into the decision procedures.
    let gen = |states: usize, seed: u64| {
        random_automaton(
            &GenParams {
                states,
                k: 2,
                out_degree: 2,
                literals_per_type: 2,
                unary_relations: 0,
                relational_probability: 0.0,
            },
            seed,
        )
    };
    w.push(Workload {
        group: "e07",
        name: "view(example1, m=1)",
        ext: project_register_automaton(&paper::example1().0, 1)
            .unwrap()
            .view,
    });
    w.push(Workload {
        group: "e07",
        name: "view(random-3s-2k, m=1)",
        ext: project_register_automaton(&gen(3, 5), 1).unwrap().view,
    });
    // E10: Theorem 24's database-hiding construction on Example 23.
    w.push(Workload {
        group: "e10",
        name: "example23 (raw)",
        ext: ExtendedAutomaton::new(paper::example23()),
    });
    w.push(Workload {
        group: "e10",
        name: "thm24-view(example23, m=1)",
        ext: project_hiding_database(&paper::example23(), 1, &Thm24Options::default())
            .unwrap()
            .view
            .ext()
            .clone(),
    });
    w
}

fn speedup(direct: &Measured, cached: &Measured) -> f64 {
    direct.median_secs / cached.median_secs.max(1e-12)
}

fn main() {
    let opts = EmptinessOptions::default();
    let mut entries = Vec::new();
    let mut scontrol_speedups = Vec::new();
    let mut emptiness_speedups = Vec::new();

    println!("e15: σ-type interning — direct vs warm-cached, median per call");
    println!(
        "e15: {:<5} {:<27} {:>12} {:>12} {:>8}   {:>12} {:>12} {:>8}",
        "group",
        "workload",
        "sctl-direct",
        "sctl-cached",
        "speedup",
        "empt-direct",
        "empt-cached",
        "speedup"
    );
    let mut combined_speedups = Vec::new();
    for w in workloads() {
        let ra = w.ext.ra();
        // Direct path: the public API builds a fresh cache per call. The
        // seed code memoized within each call (local `type_ids` /
        // `joint_sat` maps, per-build analyses), so this is a faithful
        // before-baseline; the cached path adds cross-call reuse.
        let cache = SatCache::new(ra.schema().clone());
        let unlimited = Budget::unlimited();
        let (sctl_direct, sctl_cached) = measure_pair(
            SAMPLES,
            || scontrol_nba(ra).unwrap(),
            || scontrol_nba_governed(ra, &cache, &unlimited).unwrap(),
        );
        let (empt_direct, empt_cached) = measure_pair(
            SAMPLES,
            || check_emptiness(&w.ext, &opts).unwrap(),
            || check_emptiness_governed(&w.ext, &opts, &cache, &unlimited).unwrap(),
        );
        // The combined analysis pass every consumer of the symbolic layer
        // runs (verification, chase, monitoring startup): SControl
        // construction followed by the emptiness decision.
        let (comb_direct, comb_cached) = measure_pair(
            SAMPLES,
            || {
                let nba = scontrol_nba(ra).unwrap();
                (nba, check_emptiness(&w.ext, &opts).unwrap())
            },
            || {
                let nba = scontrol_nba_governed(ra, &cache, &unlimited).unwrap();
                (
                    nba,
                    check_emptiness_governed(&w.ext, &opts, &cache, &unlimited).unwrap(),
                )
            },
        );
        let stats = cache.stats();

        let s_sctl = speedup(&sctl_direct, &sctl_cached);
        let s_empt = speedup(&empt_direct, &empt_cached);
        let s_comb = speedup(&comb_direct, &comb_cached);
        scontrol_speedups.push(s_sctl);
        emptiness_speedups.push(s_empt);
        combined_speedups.push(s_comb);
        println!(
            "e15: {:<5} {:<27} {:>12} {:>12} {:>7.2}x   {:>12} {:>12} {:>7.2}x",
            w.group,
            w.name,
            fmt_secs(sctl_direct.median_secs),
            fmt_secs(sctl_cached.median_secs),
            s_sctl,
            fmt_secs(empt_direct.median_secs),
            fmt_secs(empt_cached.median_secs),
            s_empt,
        );
        println!(
            "e15:       combined sctl+empt: direct {} cached {} ({:.2}x); \
             cache: {} hits / {} misses (hit rate {:.1}%), {} distinct types",
            fmt_secs(comb_direct.median_secs),
            fmt_secs(comb_cached.median_secs),
            s_comb,
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.distinct_types
        );
        entries.push(json!({
            "group": w.group,
            "workload": w.name,
            "scontrol_nba": {
                "direct": sctl_direct.to_json(),
                "cached": sctl_cached.to_json(),
                "speedup": s_sctl,
            },
            "check_emptiness": {
                "direct": empt_direct.to_json(),
                "cached": empt_cached.to_json(),
                "speedup": s_empt,
            },
            "combined_scontrol_plus_emptiness": {
                "direct": comb_direct.to_json(),
                "cached": comb_cached.to_json(),
                "speedup": s_comb,
            },
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_rate": stats.hit_rate(),
                "distinct_types": stats.distinct_types,
            },
        }));
    }

    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    let med_sctl = median(&mut scontrol_speedups);
    let med_empt = median(&mut emptiness_speedups);
    let med_comb = median(&mut combined_speedups);
    println!(
        "e15: median speedup — scontrol_nba {med_sctl:.2}x, check_emptiness {med_empt:.2}x, \
         combined {med_comb:.2}x"
    );

    let payload = json!({
        "experiment": "e15_type_interning",
        "samples_per_measurement": SAMPLES,
        "note": "direct = fresh SatCache per call (pre-interning behaviour); \
                 cached = persistent warm SatCache shared across calls; \
                 single-core wall-clock medians, measured in alternating \
                 direct/cached order to cancel clock drift",
        "workloads": entries,
        "summary": {
            "median_speedup_scontrol_nba": med_sctl,
            "median_speedup_check_emptiness": med_empt,
            "median_speedup_combined": med_comb,
        },
    });
    let path = write_bench_json("BENCH_e15", &payload);
    println!("e15: wrote {}", path.display());
}
