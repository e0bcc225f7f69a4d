//! Differential pinning of the TypeBits fast path through the projection
//! constructions and the chase against the retained `SigmaType` reference
//! path.
//!
//! Every `*_governed` projection entry point now routes its completion,
//! joint-satisfiability pruning and register restriction through the
//! word-level kernel when the type space fits the bit universe; the
//! `*_reference_governed` twins pin the memoized `SigmaType` path. Both
//! must produce *identical* automata — same states, names, markings, and
//! transition lists in order — and the chase must produce identical
//! witness databases. Each side runs over its own fresh [`SatCache`] so
//! the comparison is between the two compute paths, not between a cold
//! and a warm memo table.
//!
//! Budget behavior is pinned too: on adversarial inputs the fast path
//! must trip with a typed [`GovernError`] without expanding more than one
//! node past the ceiling, exactly like the reference path.

use proptest::prelude::*;
use rega_analysis::chase::{
    universal_witness_database_governed, universal_witness_database_reference_governed,
};
use rega_analysis::EmptinessOptions;
use rega_core::extended::GlobalConstraint;
use rega_core::generate::{random_automaton, GenParams};
use rega_core::symbolic::{scontrol_nba_governed, scontrol_nba_with};
use rega_core::typeops::{TypeOps, TypePath};
use rega_core::{
    paper, Budget, BudgetSpec, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId,
};
use rega_data::{SatCache, Schema, SigmaType, Term, Value};
use rega_views::thm24::Thm24Options;
use rega_views::{
    project_extended_governed, project_extended_reference_governed,
    project_hiding_database_governed, project_hiding_database_reference_governed,
    project_register_automaton_governed, project_register_automaton_reference_governed,
};

fn schema_free_params() -> GenParams {
    GenParams {
        states: 2,
        k: 2,
        out_degree: 2,
        literals_per_type: 2,
        unary_relations: 0,
        relational_probability: 0.0,
    }
}

fn relational_params() -> GenParams {
    GenParams {
        states: 2,
        k: 2,
        out_degree: 2,
        literals_per_type: 2,
        unary_relations: 1,
        relational_probability: 0.4,
    }
}

/// Structural equality of register automata: same registers, same states
/// (names, initial/accepting markings, in order), same transition list
/// (source, σ-type, target, in order). `RegisterAutomaton` deliberately
/// has no `PartialEq`; the projections guarantee this stronger,
/// order-sensitive identity, so pin exactly that.
fn assert_ra_eq(a: &RegisterAutomaton, b: &RegisterAutomaton, what: &str) {
    assert_eq!(a.k(), b.k(), "{what}: register counts differ");
    assert_eq!(
        a.num_states(),
        b.num_states(),
        "{what}: state counts differ"
    );
    for s in a.states() {
        assert_eq!(a.state_name(s), b.state_name(s), "{what}: state {s:?} name");
        assert_eq!(
            a.is_initial(s),
            b.is_initial(s),
            "{what}: state {s:?} initial marking"
        );
        assert_eq!(
            a.is_accepting(s),
            b.is_accepting(s),
            "{what}: state {s:?} accepting marking"
        );
    }
    assert_eq!(
        a.num_transitions(),
        b.num_transitions(),
        "{what}: transition counts differ"
    );
    for t in a.transition_ids() {
        let ta = a.transition(t);
        let tb = b.transition(t);
        assert_eq!(ta.from, tb.from, "{what}: transition {t:?} source");
        assert_eq!(ta.to, tb.to, "{what}: transition {t:?} target");
        assert_eq!(ta.ty, tb.ty, "{what}: transition {t:?} σ-type");
    }
}

/// The Lemma 21 constraint DFAs are built from the (identical) normalized
/// automata, so they must agree kind-for-kind and size-for-size.
fn assert_constraints_eq(a: &[GlobalConstraint], b: &[GlobalConstraint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: constraint counts differ");
    for (ca, cb) in a.iter().zip(b) {
        assert_eq!(ca.kind, cb.kind, "{what}: constraint kind");
        assert_eq!(ca.i, cb.i, "{what}: constraint source register");
        assert_eq!(ca.j, cb.j, "{what}: constraint target register");
        assert_eq!(
            ca.dfa().num_states(),
            cb.dfa().num_states(),
            "{what}: constraint DFA sizes differ"
        );
    }
}

fn assert_prop20_identical(ra: &RegisterAutomaton, m: u16, what: &str) {
    let fast_cache = SatCache::new(ra.schema().clone());
    let ref_cache = SatCache::new(ra.schema().clone());
    let budget = Budget::unlimited();
    let fast = project_register_automaton_governed(ra, m, &fast_cache, &budget);
    let reference = project_register_automaton_reference_governed(ra, m, &ref_cache, &budget);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.m, r.m, "{what}: kept-register counts differ");
            assert_ra_eq(&f.normalized, &r.normalized, &format!("{what} normalized"));
            assert_ra_eq(f.view.ra(), r.view.ra(), &format!("{what} view"));
            assert_constraints_eq(f.view.constraints(), r.view.constraints(), what);
        }
        (Err(f), Err(r)) => assert_eq!(
            format!("{f:?}"),
            format!("{r:?}"),
            "{what}: error values differ"
        ),
        (f, r) => panic!("{what}: paths disagree on success: {f:?} vs {r:?}"),
    }
}

fn assert_thm13_identical(ext: &ExtendedAutomaton, m: u16, what: &str) {
    let fast_cache = SatCache::new(ext.ra().schema().clone());
    let ref_cache = SatCache::new(ext.ra().schema().clone());
    let budget = Budget::unlimited();
    let fast = project_extended_governed(ext, m, &fast_cache, &budget);
    let reference = project_extended_reference_governed(ext, m, &ref_cache, &budget);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(
                f.intermediate_k, r.intermediate_k,
                "{what}: intermediate register counts differ"
            );
            assert_ra_eq(f.view.ra(), r.view.ra(), &format!("{what} view"));
            assert_constraints_eq(f.view.constraints(), r.view.constraints(), what);
        }
        (Err(f), Err(r)) => assert_eq!(
            format!("{f:?}"),
            format!("{r:?}"),
            "{what}: error values differ"
        ),
        (f, r) => panic!("{what}: paths disagree on success: {f:?} vs {r:?}"),
    }
}

fn assert_thm24_identical(ra: &RegisterAutomaton, m: u16, opts: &Thm24Options, what: &str) {
    let fast_cache = SatCache::new(ra.schema().clone());
    let ref_cache = SatCache::new(ra.schema().clone());
    let budget = Budget::unlimited();
    let fast = project_hiding_database_governed(ra, m, opts, &fast_cache, &budget);
    let reference = project_hiding_database_reference_governed(ra, m, opts, &ref_cache, &budget);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.m, r.m, "{what}: kept-register counts differ");
            assert_ra_eq(&f.normalized, &r.normalized, &format!("{what} normalized"));
            assert_ra_eq(
                f.view.ext().ra(),
                r.view.ext().ra(),
                &format!("{what} view"),
            );
            assert_constraints_eq(f.view.ext().constraints(), r.view.ext().constraints(), what);
            let (ff, rf) = (
                f.view.finiteness_constraints(),
                r.view.finiteness_constraints(),
            );
            assert_eq!(ff.len(), rf.len(), "{what}: finiteness constraint counts");
            for (ca, cb) in ff.iter().zip(rf) {
                assert_eq!(ca.register, cb.register, "{what}: finiteness register");
            }
            let (ft, rt) = (f.view.tuple_inequalities(), r.view.tuple_inequalities());
            assert_eq!(ft.len(), rt.len(), "{what}: tuple-inequality counts");
            for (ca, cb) in ft.iter().zip(rt) {
                assert_eq!(ca.i_regs, cb.i_regs, "{what}: tuple-inequality ᾱ registers");
                assert_eq!(ca.j_regs, cb.j_regs, "{what}: tuple-inequality β̄ registers");
            }
        }
        (Err(f), Err(r)) => assert_eq!(
            format!("{f:?}"),
            format!("{r:?}"),
            "{what}: error values differ"
        ),
        (f, r) => panic!("{what}: paths disagree on success: {f:?} vs {r:?}"),
    }
}

fn assert_chase_identical(ext: &ExtendedAutomaton, what: &str) {
    let fast_cache = SatCache::new(ext.ra().schema().clone());
    let ref_cache = SatCache::new(ext.ra().schema().clone());
    let budget = Budget::unlimited();
    let opts = EmptinessOptions::default();
    // The eager SControl builds of the two chase paths: the shared wiring
    // loop on the kernel versus the pure cache path.
    let ra = ext.ra();
    let ops = TypeOps::new(&fast_cache, ra.k(), TypePath::Fast);
    let fast_nba = scontrol_nba_with(ra, &ops, &budget).unwrap();
    let ref_nba = scontrol_nba_governed(ra, &ref_cache, &budget).unwrap();
    assert_eq!(
        fast_nba.num_states(),
        ref_nba.num_states(),
        "{what}: SControl state counts differ"
    );
    assert_eq!(
        fast_nba.alphabet(),
        ref_nba.alphabet(),
        "{what}: SControl alphabets"
    );
    assert_eq!(
        fast_nba.inits(),
        ref_nba.inits(),
        "{what}: SControl initial states"
    );
    for s in 0..ref_nba.num_states() {
        assert_eq!(
            fast_nba.is_accepting(s),
            ref_nba.is_accepting(s),
            "{what}: SControl acceptance of state {s}"
        );
    }
    assert_eq!(
        fast_nba.transitions().collect::<Vec<_>>(),
        ref_nba.transitions().collect::<Vec<_>>(),
        "{what}: SControl edges differ"
    );
    let fast = universal_witness_database_governed(ext, &opts, &fast_cache, &budget).unwrap();
    let reference =
        universal_witness_database_reference_governed(ext, &opts, &ref_cache, &budget).unwrap();
    assert_eq!(
        fast.witnesses.len(),
        reference.witnesses.len(),
        "{what}: witness counts differ"
    );
    for (wf, wr) in fast.witnesses.iter().zip(&reference.witnesses) {
        assert_eq!(wf.control, wr.control, "{what}: witness control lassos");
    }
    assert_eq!(
        fast.database.adom(),
        reference.database.adom(),
        "{what}: combined active domains differ"
    );
    assert_eq!(
        fast.database.total_facts(),
        reference.database.total_facts(),
        "{what}: combined fact counts differ"
    );
    for rel in ext.ra().schema().relations() {
        let mut ff: Vec<_> = fast.database.facts(rel).cloned().collect();
        let mut rf: Vec<_> = reference.database.facts(rel).cloned().collect();
        ff.sort();
        rf.sort();
        assert_eq!(ff, rf, "{what}: facts of {rel:?} differ");
    }
}

#[test]
fn prop20_fast_matches_reference_on_paper_inputs() {
    let (ra, _) = paper::example1();
    for m in 0..=ra.k() {
        assert_prop20_identical(&ra, m, &format!("example1 m={m}"));
    }
}

#[test]
fn prop20_fast_matches_reference_on_shuttle() {
    // The 2-register shuttle from the prop20 unit tests: carries both an
    // equality and an inequality between consecutive types, so the
    // joint-satisfiability pruning actually fires.
    let mut ra = RegisterAutomaton::new(2, Schema::empty());
    let p = ra.add_state("p");
    let q = ra.add_state("q");
    ra.set_initial(p);
    ra.set_accepting(q);
    ra.add_transition(
        p,
        SigmaType::new(2, [rega_data::Literal::eq(Term::x(0), Term::y(1))]),
        q,
    )
    .unwrap();
    ra.add_transition(
        q,
        SigmaType::new(2, [rega_data::Literal::neq(Term::x(0), Term::x(1))]),
        p,
    )
    .unwrap();
    assert_prop20_identical(&ra, 1, "shuttle m=1");
}

#[test]
fn thm13_fast_matches_reference_on_paper_inputs() {
    assert_thm13_identical(&paper::example5(), 1, "example5 m=1");
    // Example 7's inequality constraint is visible at m=1 (lifted) and
    // hidden at m=0 (rejected) — both paths must agree on both outcomes.
    assert_thm13_identical(&paper::example7(), 1, "example7 m=1");
    assert_thm13_identical(&paper::example7(), 0, "example7 m=0");
}

#[test]
fn thm24_fast_matches_reference_on_paper_inputs() {
    let opts = Thm24Options::default();
    let ra = paper::example23();
    for m in 0..=ra.k() {
        assert_thm24_identical(&ra, m, &opts, &format!("example23 m={m}"));
    }
    assert_thm24_identical(
        &paper::example23_ternary(),
        1,
        &opts,
        "example23_ternary m=1",
    );
}

#[test]
fn chase_fast_matches_reference_on_paper_inputs() {
    let (ra, _) = paper::example1();
    assert_chase_identical(&ExtendedAutomaton::new(ra), "example1");
    assert_chase_identical(&paper::example8(), "example8");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random schema-free automata through Proposition 20 and Theorem 13,
    // fast vs. reference, at every projection width.
    #[test]
    fn random_projections_identical_across_paths(seed in 0u64..2000) {
        let ra = random_automaton(&schema_free_params(), seed);
        for m in 0..=ra.k() {
            assert_prop20_identical(&ra, m, &format!("seed {seed} m={m}"));
        }
        assert_thm13_identical(
            &ExtendedAutomaton::new(ra),
            1,
            &format!("seed {seed} thm13 m=1"),
        );
    }

    // Random automata *with* a unary relation through Theorem 24: the
    // equality-only completion and the saturating restriction both hide
    // the database; fast and reference paths must still agree literally.
    #[test]
    fn random_database_hiding_identical_across_paths(seed in 0u64..2000) {
        let ra = random_automaton(&relational_params(), seed);
        assert_thm24_identical(
            &ra,
            1,
            &Thm24Options::default(),
            &format!("seed {seed} thm24 m=1"),
        );
    }
}

/// One state, one self-loop carrying the empty σ-type over `k` registers:
/// completion must enumerate Bell(2k) saturated completions, far past any
/// ceiling drawn below.
fn completion_bomb(k: u16) -> RegisterAutomaton {
    let mut ra = RegisterAutomaton::new(k, Schema::empty());
    let p = ra.add_state("p");
    ra.set_initial(p);
    ra.set_accepting(p);
    ra.add_transition(p, SigmaType::empty(k), p).unwrap();
    ra
}

/// A fully connected register-free automaton: the `SControl` wiring loop
/// visits `n⁴` ordered transition pairs.
fn dense_control(n: usize) -> RegisterAutomaton {
    let mut ra = RegisterAutomaton::new(0, Schema::empty());
    let states: Vec<StateId> = (0..n).map(|i| ra.add_state(&format!("s{i}"))).collect();
    ra.set_initial(states[0]);
    ra.set_accepting(states[n - 1]);
    for &u in &states {
        for &v in &states {
            ra.add_transition(u, SigmaType::empty(0), v).unwrap();
        }
    }
    ra
}

// Budget trips on the fast path stay typed and stay within one node of
// the ceiling — the kernel worklists honor the same governor contract as
// the reference path (tested in tests/govern.rs).
#[test]
fn fast_path_budget_trips_stay_typed_and_bounded() {
    let max_nodes = 500u64;
    type Entry = (&'static str, Box<dyn Fn(&Budget) -> Result<(), CoreError>>);
    let entries: Vec<Entry> = vec![
        (
            "views.prop20",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                project_register_automaton_governed(&completion_bomb(6), 2, &cache, b).map(|_| ())
            }),
        ),
        (
            "views.thm13",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let ext = ExtendedAutomaton::new(completion_bomb(6));
                project_extended_governed(&ext, 2, &cache, b).map(|_| ())
            }),
        ),
        (
            "views.thm24",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                project_hiding_database_governed(
                    &completion_bomb(5),
                    2,
                    &Thm24Options::default(),
                    &cache,
                    b,
                )
                .map(|_| ())
            }),
        ),
        (
            "chase.universal_witness",
            Box::new(|b| {
                let cache = SatCache::new(Schema::empty());
                let ext = ExtendedAutomaton::new(dense_control(51));
                universal_witness_database_governed(&ext, &EmptinessOptions::default(), &cache, b)
                    .map(|_| ())
            }),
        ),
    ];
    for (name, run) in entries {
        let budget = Budget::start(&BudgetSpec {
            deadline_ms: None,
            max_nodes: Some(max_nodes),
            max_types: None,
        });
        match run(&budget) {
            Err(CoreError::Govern(g)) => {
                assert!(!g.phase().is_empty(), "{name}: trip must name its phase");
                assert_eq!(g.kind(), "nodes", "{name}: unexpected trip kind");
            }
            other => panic!("{name}: expected a typed GovernError, got {other:?}"),
        }
        assert!(
            budget.nodes() <= max_nodes + 1,
            "{name}: expanded {} nodes against a ceiling of {max_nodes}",
            budget.nodes()
        );
    }
}

// Regression for the deduplicated joint-satisfiability loops (the repeated
// `(δ, δ′)` re-checks formerly at prop20.rs:96, thm13.rs:134, thm24.rs:185):
// repeated pairs must be answered from the per-projection memo without
// touching the cache again. Pinned via the cache-stats counters — ten
// lookups over two distinct pairs cost exactly two cache computations, and
// zero further cache traffic.
#[test]
fn repeated_joint_pairs_hit_cache_exactly_once() {
    let cache = SatCache::new(Schema::empty());
    let ops = TypeOps::new(&cache, 1, TypePath::Reference);
    let a = ops.intern(&SigmaType::new(
        1,
        [rega_data::Literal::eq(Term::x(0), Term::y(0))],
    ));
    let b = ops.intern(&SigmaType::new(
        1,
        [rega_data::Literal::neq(Term::x(0), Term::y(0))],
    ));
    let before = cache.stats();
    for _ in 0..5 {
        // The state-driven wiring pattern: every (q, δ) × (q′, δ′) pair,
        // most of them repeats of the same type pair.
        assert!(ops.jointly_satisfiable_ids(a, b));
        assert!(ops.jointly_satisfiable_ids(b, a));
    }
    let after = cache.stats();
    let (requests, computed) = ops.joint_stats();
    assert_eq!(requests, 10, "every loop iteration is counted");
    assert_eq!(computed, 2, "only the two distinct ordered pairs compute");
    assert_eq!(
        after.misses - before.misses,
        2,
        "cache computes each distinct pair once"
    );
    assert_eq!(
        after.hits - before.hits,
        0,
        "repeats are answered by the projection-local memo, not cache hits"
    );
}

// The fast path honors the same dedupe with the same counters.
#[test]
fn repeated_joint_pairs_dedupe_on_fast_path() {
    let cache = SatCache::new(Schema::empty());
    let ops = TypeOps::new(&cache, 1, TypePath::Fast);
    let a = ops.intern(&SigmaType::new(
        1,
        [rega_data::Literal::eq(Term::x(0), Term::y(0))],
    ));
    let b = ops.intern(&SigmaType::new(
        1,
        [rega_data::Literal::neq(Term::x(0), Term::y(0))],
    ));
    for _ in 0..5 {
        assert!(ops.jointly_satisfiable_ids(a, b));
        assert!(ops.jointly_satisfiable_ids(b, a));
    }
    let (requests, computed) = ops.joint_stats();
    assert_eq!(requests, 10);
    assert_eq!(computed, 2);
}

/// Sanity: the differential harness catches *dynamic* differences too —
/// the two paths agree on an input whose projection is trace-relevant (a
/// value must actually flow through the hidden register).
#[test]
fn value_flow_example_identical_and_nonempty() {
    let (ra, _) = paper::example1();
    let fast_cache = SatCache::new(ra.schema().clone());
    let proj =
        project_register_automaton_governed(&ra, 1, &fast_cache, &Budget::unlimited()).unwrap();
    assert!(proj.view.ra().num_transitions() > 0);
    // The projected automaton still admits runs over a small pool.
    let db = rega_data::Database::new(ra.schema().clone());
    let pool = vec![Value(1), Value(2)];
    let limits = rega_core::simulate::SearchLimits {
        max_nodes: 100_000,
        max_runs: 10_000,
    };
    let runs = rega_core::simulate::enumerate_prefixes(&proj.view, &db, 2, &pool, limits);
    assert!(!runs.is_empty(), "projection of example1 admits runs");
}
