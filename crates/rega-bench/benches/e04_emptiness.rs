//! E4 (Theorem 9 / Corollary 10): emptiness of extended automata — timing
//! on the paper's examples and on random automata of growing size; witness
//! database sizes. Also emits the machine-readable artifact
//! `BENCH_e04.json` at the repository root, in the repository benchmark's
//! result shape; its `correct` is false when a paper example's verdict
//! changes.

use criterion::{black_box, BenchmarkId, Criterion};
use rega_analysis::emptiness::{check_emptiness, EmptinessOptions, EmptinessVerdict};
use rega_bench::{measure, write_bench_json, BenchResult};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::{paper, ExtendedAutomaton};

fn main() {
    let mut c: Criterion = rega_bench::criterion();
    let opts = EmptinessOptions::default();
    let mut result = BenchResult::default();

    println!("e04: emptiness verdicts and witness sizes on the paper's examples");
    println!("e04: example   nonempty  periodic_run  witness_db_facts");
    let bit = |b: bool| if b { 1.0 } else { 0.0 };
    // Each example with the verdict EXPERIMENTS.md E4 records for it:
    // (non-empty, ultimately periodic run found).
    for (name, ext, want) in [
        (
            "example1",
            ExtendedAutomaton::new(paper::example1().0),
            (true, true),
        ),
        ("example5", paper::example5(), (true, true)),
        ("example7", paper::example7(), (true, false)),
        ("example8", paper::example8(), (true, true)),
        (
            "example23",
            ExtendedAutomaton::new(paper::example23()),
            (true, true),
        ),
    ] {
        result.attempted += 1;
        let Ok(v) = check_emptiness(&ext, &opts) else {
            println!("e04: {name:<9} error");
            result.failed += 1;
            continue;
        };
        let (nonempty, periodic, facts) = match &v {
            EmptinessVerdict::NonEmpty(w) => {
                (true, w.lasso_run.is_some(), w.database.total_facts())
            }
            EmptinessVerdict::Empty => (false, false, 0),
        };
        println!("e04: {name:<9} {nonempty:>8}  {periodic:>12}  {facts:>16}");
        result.correct &= (nonempty, periodic) == want;
        c.bench_function(format!("e04/{name}"), |b| {
            b.iter(|| check_emptiness(black_box(&ext), &opts).unwrap())
        });
        let ns = measure(10, || check_emptiness(&ext, &opts).unwrap());
        result.set(&format!("e04.check_emptiness_ns.{name}"), ns, "ns");
        result.set(&format!("e04.nonempty.{name}"), bit(nonempty), "bool");
        result.set(&format!("e04.periodic_run.{name}"), bit(periodic), "bool");
        result.set(
            &format!("e04.witness_db_facts.{name}"),
            facts as f64,
            "count",
        );
    }

    // Scaling with automaton size.
    for states in [2usize, 4, 6, 8] {
        let params = GenParams {
            states,
            k: 2,
            out_degree: 2,
            literals_per_type: 2,
            unary_relations: 1,
            relational_probability: 0.4,
        };
        let ext = ExtendedAutomaton::new(random_automaton(&params, 13));
        result.attempted += 1;
        if check_emptiness(&ext, &opts).is_err() {
            result.failed += 1;
            continue;
        }
        c.bench_with_input(
            BenchmarkId::new("e04/random_states", states),
            &ext,
            |b, ext| b.iter(|| check_emptiness(black_box(ext), &opts).unwrap()),
        );
        let ns = measure(10, || check_emptiness(&ext, &opts).unwrap());
        result.set(
            &format!("e04.check_emptiness_ns.random_states/{states}"),
            ns,
            "ns",
        );
    }
    c.final_summary();

    let path = write_bench_json("BENCH_e04", &result);
    println!("e04: wrote {}", path.display());
    if !result.correct || result.failed > 0 {
        eprintln!("e04: a paper example's verdict changed or a decision failed");
        std::process::exit(1);
    }
}
