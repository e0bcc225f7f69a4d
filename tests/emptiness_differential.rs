//! Differential pinning of the on-the-fly emptiness kernel.
//!
//! `check_emptiness` runs the fast path: lazy `SControl` expansion into an
//! edge arena, bitset σ-type joint-satisfiability, incremental stabilized
//! class structures, and witness construction interleaved with the lasso
//! search. `check_emptiness_reference_governed` is the retained pre-kernel
//! pipeline (materialized NBA, up-front enumeration, from-scratch class
//! builds).
//!
//! Over generated extended register automata the two must agree *exactly*:
//! same verdict, and on non-empty instances the same witness control lasso.
//! Every witness is additionally replayed through the run verifier — the
//! prefix run must validate over the witness database, and a full periodic
//! run, when produced, must pass `check_lasso_run` end-to-end.

use proptest::prelude::*;
use rega_analysis::emptiness::{
    check_emptiness, check_emptiness_reference_governed, EmptinessOptions, EmptinessVerdict,
    Witness,
};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::{Budget, ConstraintKind, ExtendedAutomaton};
use rega_data::{RegIdx, SatCache};

/// Replays a witness through the concrete run verifier.
fn verify_witness(ext: &ExtendedAutomaton, w: &Witness, label: &str) {
    w.prefix_run
        .validate(ext.ra(), &w.database)
        .unwrap_or_else(|e| panic!("{label}: witness prefix run invalid: {e:?}"));
    ext.check_finite_prefix(&w.database, &w.prefix_run)
        .unwrap_or_else(|e| panic!("{label}: witness prefix violates constraints: {e:?}"));
    if let Some(run) = &w.lasso_run {
        ext.check_lasso_run(&w.database, run)
            .unwrap_or_else(|e| panic!("{label}: witness lasso run invalid: {e:?}"));
    }
}

/// Runs both pipelines and asserts byte-identical outcomes.
fn assert_pipelines_agree(ext: &ExtendedAutomaton, label: &str) {
    let opts = EmptinessOptions::default();
    let fast = check_emptiness(ext, &opts)
        .unwrap_or_else(|e| panic!("{label}: fast pipeline errored: {e:?}"));
    let cache = SatCache::new(ext.ra().schema().clone());
    let refr = check_emptiness_reference_governed(ext, &opts, &cache, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("{label}: reference pipeline errored: {e:?}"));
    match (&fast, &refr) {
        (EmptinessVerdict::Empty, EmptinessVerdict::Empty) => {}
        (EmptinessVerdict::NonEmpty(wf), EmptinessVerdict::NonEmpty(wr)) => {
            assert_eq!(
                wf.control, wr.control,
                "{label}: pipelines accepted different witness lassos"
            );
            verify_witness(ext, wf, label);
            verify_witness(ext, wr, label);
        }
        _ => panic!(
            "{label}: verdict mismatch — fast={}, reference={}",
            fast.is_nonempty(),
            refr.is_nonempty()
        ),
    }
}

/// Builds an extended automaton from generator parameters, optionally with
/// a global constraint (only when the automaton has registers; a pattern
/// the automaton cannot parse is skipped, not an error).
fn build_case(
    params: &GenParams,
    seed: u64,
    constraint: Option<(ConstraintKind, &str)>,
) -> ExtendedAutomaton {
    let ra = random_automaton(params, seed);
    let mut ext = ExtendedAutomaton::new(ra);
    if let Some((kind, pattern)) = constraint {
        if params.k > 0 {
            let _ = ext.add_constraint_str(kind, RegIdx(0), RegIdx(0), pattern);
        }
    }
    ext
}

fn params_strategy() -> impl Strategy<Value = GenParams> {
    (
        (2usize..6, 0u16..3, 1usize..4),
        (0usize..4, 0usize..2, 0usize..7),
    )
        .prop_map(
            |((states, k, out_degree), (literals_per_type, unary_relations, rel_tenths))| {
                GenParams {
                    states,
                    k,
                    out_degree,
                    literals_per_type,
                    unary_relations,
                    relational_probability: rel_tenths as f64 / 10.0,
                }
            },
        )
}

fn constraint_strategy() -> impl Strategy<Value = Option<(ConstraintKind, &'static str)>> {
    prop_oneof![
        Just(None),
        Just(None),
        Just(None),
        Just(Some((ConstraintKind::Equal, "s0 s1* s0"))),
        Just(Some((ConstraintKind::NotEqual, "s0 s0* s0"))),
        Just(Some((ConstraintKind::Equal, "s1 s0* s1"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The differential property: on arbitrary generated extended register
    // automata, the on-the-fly kernel and the retained reference pipeline
    // return identical verdicts and witnesses.
    #[test]
    fn on_the_fly_agrees_with_reference(
        params in params_strategy(),
        seed in 0u64..1_000_000,
        constraint in constraint_strategy(),
    ) {
        let ext = build_case(&params, seed, constraint);
        assert_pipelines_agree(&ext, &format!("params={params:?} seed={seed}"));
    }
}

/// Pinned regression cases: previously-exercised corners of the generator
/// kept as exact replays so a future kernel change that breaks one of them
/// fails deterministically, independent of proptest's RNG.
#[test]
#[allow(clippy::type_complexity)]
fn pinned_regression_seeds() {
    let pins: [(GenParams, u64, Option<(ConstraintKind, &str)>); 4] = [
        // Register-free dense-ish control with a database: the search is
        // pure graph reachability, witness needs relational facts.
        (
            GenParams {
                states: 5,
                k: 0,
                out_degree: 3,
                literals_per_type: 0,
                unary_relations: 1,
                relational_probability: 0.6,
            },
            13,
            None,
        ),
        // Two registers, inequality-heavy types: exercises the bitset
        // joint-satisfiability fast path and per-class fresh values.
        (
            GenParams {
                states: 4,
                k: 2,
                out_degree: 2,
                literals_per_type: 3,
                unary_relations: 0,
                relational_probability: 0.0,
            },
            42,
            None,
        ),
        // A global Equal constraint forcing cross-position merges.
        (
            GenParams {
                states: 3,
                k: 1,
                out_degree: 2,
                literals_per_type: 2,
                unary_relations: 1,
                relational_probability: 0.4,
            },
            1001,
            Some((ConstraintKind::Equal, "s0 s1* s0")),
        ),
        // A NotEqual self-constraint: lassos revisiting s0 must keep the
        // register fresh, pushing witness construction to non-collapsed
        // values (or to emptiness).
        (
            GenParams {
                states: 4,
                k: 2,
                out_degree: 2,
                literals_per_type: 1,
                unary_relations: 1,
                relational_probability: 0.3,
            },
            7,
            Some((ConstraintKind::NotEqual, "s0 s0* s0")),
        ),
    ];
    for (i, (params, seed, constraint)) in pins.iter().enumerate() {
        let ext = build_case(params, *seed, *constraint);
        assert_pipelines_agree(&ext, &format!("pin #{i}"));
    }
}
