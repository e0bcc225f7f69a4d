//! Randomized cross-crate tests of the projection pipeline: for generated
//! register automata, the Proposition 20 view must be trace-faithful and
//! LR-bounded, and the Theorem 13 pipeline must agree with it on plain
//! inputs.

use rega_core::generate::{random_automaton, GenParams};
use rega_core::simulate::{self, SearchLimits};
use rega_core::{Budget, ExtendedAutomaton};
use rega_data::{Database, SatCache, Schema, Value};
use rega_views::prop20::{project_register_automaton, project_register_automaton_governed};
use rega_views::thm13::{project_extended, project_extended_governed};

fn limits() -> SearchLimits {
    SearchLimits {
        max_nodes: 2_000_000,
        max_runs: 500_000,
    }
}

fn small_params() -> GenParams {
    GenParams {
        states: 2,
        k: 2,
        out_degree: 2,
        literals_per_type: 2,
        unary_relations: 0,
        relational_probability: 0.0,
    }
}

#[test]
fn random_projections_are_faithful() {
    let db = Database::new(Schema::empty());
    // The pool must be large enough for the *hidden* registers of the
    // original automaton to realize every projection: the view quantifies
    // hidden values over the whole (infinite) domain, while the original
    // enumeration draws them from the pool. Two values are not always
    // sufficient for k = 2 with one hidden register (seed 9 needs a third
    // value to keep the visible register constant), so give the original
    // side a pool with a spare value per hidden register.
    let pool = vec![Value(1), Value(2), Value(3)];
    for seed in 0..12 {
        let ra = random_automaton(&small_params(), seed);
        let Ok(proj) = project_register_automaton(&ra, 1) else {
            continue;
        };
        let original = ExtendedAutomaton::new(ra.clone());
        for len in 1..=3 {
            let want = simulate::projected_settled_traces(&original, &db, len, 1, &pool, limits());
            let got = simulate::projected_settled_traces(&proj.view, &db, len, 1, &pool, limits());
            assert_eq!(want, got, "seed {seed}, length {len}");
        }
    }
}

#[test]
fn random_projections_are_lr_bounded() {
    // Proposition 20: every projection of a register automaton is
    // LR-bounded.
    for seed in 0..8 {
        let ra = random_automaton(&small_params(), seed);
        let proj = project_register_automaton(&ra, 1).unwrap();
        let lr =
            rega_analysis::lr::is_lr_bounded(&proj.view, &rega_analysis::lr::LrOptions::default())
                .unwrap();
        assert!(lr.bounded, "seed {seed}: projections must be LR-bounded");
    }
}

#[test]
fn thm13_agrees_with_prop20_on_plain_inputs() {
    // On inputs without global constraints, Theorem 13's pipeline reduces
    // to Proposition 20's; their views must have identical settled traces.
    let db = Database::new(Schema::empty());
    let pool = vec![Value(1), Value(2)];
    for seed in 0..6 {
        let ra = random_automaton(&small_params(), seed);
        let p20 = project_register_automaton(&ra, 1).unwrap();
        let t13 = project_extended(&ExtendedAutomaton::new(ra), 1).unwrap();
        for len in 1..=3 {
            let a = simulate::projected_settled_traces(&p20.view, &db, len, 1, &pool, limits());
            let b = simulate::projected_settled_traces(&t13.view, &db, len, 1, &pool, limits());
            assert_eq!(a, b, "seed {seed}, length {len}");
        }
    }
}

#[test]
fn projecting_everything_changes_nothing() {
    // m = k must preserve the trace set exactly.
    let db = Database::new(Schema::empty());
    let pool = vec![Value(1), Value(2)];
    for seed in 0..6 {
        let ra = random_automaton(&small_params(), seed);
        let proj = project_register_automaton(&ra, 2).unwrap();
        let original = ExtendedAutomaton::new(ra);
        for len in 1..=3 {
            let want = simulate::projected_settled_traces(&original, &db, len, 2, &pool, limits());
            let got = simulate::projected_settled_traces(&proj.view, &db, len, 2, &pool, limits());
            assert_eq!(want, got, "seed {seed}, length {len}");
        }
    }
}

#[test]
fn projection_composes() {
    // Projecting 2 → 1 register directly equals projecting in two stages
    // through the Theorem 13 pipeline (closure under projection).
    let db = Database::new(Schema::empty());
    let pool = vec![Value(1), Value(2)];
    // One σ-type cache serves every stage of every seed: the automata all
    // share the empty schema, so the memo tables compound across stages
    // instead of being rebuilt per call.
    let cache = SatCache::new(Schema::empty());
    let budget = Budget::unlimited();
    for seed in [0, 3, 5] {
        let ra = random_automaton(&small_params(), seed);
        let direct = project_register_automaton_governed(&ra, 1, &cache, &budget).unwrap();
        let stage1 = project_register_automaton_governed(&ra, 2, &cache, &budget).unwrap(); // identity-ish
        let stage2 = project_extended_governed(&stage1.view, 1, &cache, &budget);
        let Ok(stage2) = stage2 else {
            continue; // outside thm13's supported fragment — skip
        };
        for len in 1..=2 {
            let a = simulate::projected_settled_traces(&direct.view, &db, len, 1, &pool, limits());
            let b = simulate::projected_settled_traces(&stage2.view, &db, len, 1, &pool, limits());
            assert_eq!(a, b, "seed {seed}, length {len}");
        }
    }
}
