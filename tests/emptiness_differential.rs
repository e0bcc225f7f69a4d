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

/// Runs `check_emptiness` under a memory trace. Returns the verdict, the
/// `settled` field of its `emptiness.verdict` event, and the names of the
/// spans the check opened on this thread (other tests of this binary may
/// trace concurrently, so records are filtered by thread).
fn traced_check(ext: &ExtendedAutomaton) -> (EmptinessVerdict, String, Vec<&'static str>) {
    use rega_obs::trace::FieldValue;
    use rega_obs::TraceEventKind;

    let (sink, guard) = rega_obs::install_memory();
    rega_obs::event!("emptiness_differential.marker");
    let verdict = check_emptiness(ext, &EmptinessOptions::default()).unwrap();
    drop(guard);
    let events = sink.events();
    let thread = events
        .iter()
        .find(|e| e.name == "emptiness_differential.marker")
        .expect("marker traced")
        .thread;
    let mine: Vec<_> = events.iter().filter(|e| e.thread == thread).collect();
    let settled = mine
        .iter()
        .filter(|e| e.name == "emptiness.verdict")
        .map(|e| match e.fields.iter().find(|(k, _)| *k == "settled") {
            Some((_, FieldValue::Str(s))) => s.clone(),
            other => panic!("emptiness.verdict without a settled field: {other:?}"),
        })
        .collect::<Vec<_>>();
    assert_eq!(settled.len(), 1, "one verdict event per check");
    let spans = mine
        .iter()
        .filter(|e| e.kind == TraceEventKind::SpanStart)
        .map(|e| e.name)
        .collect();
    (verdict, settled[0].clone(), spans)
}

/// Asserts that the component pre-pass settled `ext` as empty: the
/// verdict event says `"scc"`, the pass ran under `emptiness.scc`, and no
/// lasso search ran. Both pipelines must still agree, so the reference's
/// complete search checks every such verdict.
fn assert_settled_by_scc(ext: &ExtendedAutomaton, label: &str) {
    assert_pipelines_agree(ext, label);
    let (verdict, settled, spans) = traced_check(ext);
    assert!(!verdict.is_nonempty(), "{label}: must be empty");
    assert_eq!(settled, "scc", "{label}");
    assert!(spans.contains(&"emptiness.scc"), "{label}: {spans:?}");
    assert!(
        !spans.contains(&"emptiness.on_the_fly.search"),
        "{label}: the pre-pass must settle it without a search: {spans:?}"
    );
}

/// `ext`'s automaton with its accepting states made non-accepting, and a
/// fresh accepting dead-end state `done` entered from each of them (by a
/// transition that keeps every register): `done` lies on no cycle.
fn accepting_only_at_a_dead_end(ext: &ExtendedAutomaton) -> ExtendedAutomaton {
    use rega_core::{RegisterAutomaton, StateId};
    use rega_data::{Literal, SigmaType, Term};

    let ra = ext.ra();
    let mut out = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    for s in ra.states() {
        out.add_state(ra.state_name(s));
        if ra.is_initial(s) {
            out.set_initial(s);
        }
    }
    let done = out.add_state("done");
    out.set_accepting(done);
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        out.add_transition(tr.from, tr.ty.clone(), tr.to).unwrap();
    }
    let keep = SigmaType::new(
        ra.k(),
        (0..ra.k()).map(|i| Literal::eq(Term::x(i), Term::y(i))),
    );
    for f in ra.accepting_states() {
        out.add_transition(f, keep.clone(), done).unwrap();
    }
    let mut out = ExtendedAutomaton::new(out);
    for c in ext.constraints() {
        out.add_lifted_constraint(c, |s| if s == done { StateId(0) } else { s })
            .unwrap();
    }
    out
}

/// Automata whose accepting states lie on no cycle: a dead-end accepting
/// state, and acyclic control. The pre-pass settles all of them.
#[test]
fn accepting_states_off_every_cycle_are_settled_by_scc() {
    use rega_core::generate::random_extended;
    use rega_core::RegisterAutomaton;
    use rega_data::{Schema, SigmaType};

    for seed in 0..24u64 {
        let params = GenParams {
            states: 2 + (seed % 5) as usize,
            k: (seed % 3) as u16,
            out_degree: 1 + (seed % 3) as usize,
            literals_per_type: (seed % 4) as usize,
            unary_relations: (seed % 2) as usize,
            relational_probability: 0.3,
        };
        let ext = random_extended(&params, (seed % 3) as usize, seed);
        assert_settled_by_scc(
            &accepting_only_at_a_dead_end(&ext),
            &format!("dead end, seed {seed}"),
        );
    }
    // A chain s0 -> s1 -> ... -> s5, every state accepting, with shortcuts.
    let mut chain = RegisterAutomaton::new(1, Schema::empty());
    let states: Vec<_> = (0..6).map(|i| chain.add_state(&format!("s{i}"))).collect();
    chain.set_initial(states[0]);
    for (i, &s) in states.iter().enumerate() {
        chain.set_accepting(s);
        for &t in &states[i + 1..(i + 3).min(states.len())] {
            chain.add_transition(s, SigmaType::empty(1), t).unwrap();
        }
    }
    assert_settled_by_scc(&ExtendedAutomaton::new(chain), "acyclic chain");
}

/// `verify`'s product for `G stable` (`stable ≡ x_r = y_r`), rebuilt from
/// public pieces as in `tests/verification_pipeline.rs`: refine the types
/// for the atom, translate `¬G stable`, and take the product with the
/// tableau's acceptance counter, constraints lifted through it.
fn g_stable_product(ext: &ExtendedAutomaton, r: u16) -> ExtendedAutomaton {
    use rega_automata::Frontier;
    use rega_core::transform::complete_extended_for_atoms;
    use rega_core::{RegisterAutomaton, StateId};
    use rega_data::{Qf, QfTerm};
    use rega_logic::translate::ltl_to_automaton;
    use rega_logic::LtlFo;

    let phi = LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(r), QfTerm::y(r)))]).unwrap();
    let mut atoms: Vec<_> = phi.props.iter().flat_map(|q| q.atoms().unwrap()).collect();
    atoms.sort();
    atoms.dedup();
    let ext = complete_extended_for_atoms(ext, &atoms).unwrap();
    let neg = phi.negated();
    let auto = ltl_to_automaton(&neg.formula);
    let ra = ext.ra();
    let truth: Vec<Vec<bool>> = ra
        .transition_ids()
        .map(|t| {
            let ty = &ra.transition(t).ty;
            neg.props
                .iter()
                .map(|q| q.eval_under_type(ty, ra.schema()).unwrap())
                .collect()
        })
        .collect();
    let n_sets = 1 + auto.acc.len();
    let in_set = |q: StateId, a: usize, set: usize| {
        if set == 0 {
            ra.is_accepting(q)
        } else {
            auto.acc[set - 1][a]
        }
    };
    let mut product = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    type Key = (StateId, usize, usize);
    let intern = |states: &mut Frontier<Key>, product: &mut RegisterAutomaton, key: Key| {
        let (id, new) = states.intern(key);
        if new {
            product.add_state(ra.state_name(key.0));
        }
        StateId(id as u32)
    };
    let mut states: Frontier<Key> = Frontier::new();
    for q in ra.states().filter(|&q| ra.is_initial(q)) {
        for &a0 in &auto.inits {
            let id = intern(&mut states, &mut product, (q, a0, 0));
            product.set_initial(id);
        }
    }
    while let Some(id) = states.pop() {
        let (q, a, c) = states[id];
        let sid = StateId(id as u32);
        if c == 0 && in_set(q, a, 0) {
            product.set_accepting(sid);
        }
        let c2 = if in_set(q, a, c) { (c + 1) % n_sets } else { c };
        for &t in ra.outgoing(q) {
            let g = &auto.guards[a];
            if !(g.pos.iter().all(|&p| truth[t.idx()][p as usize])
                && g.neg.iter().all(|&p| !truth[t.idx()][p as usize]))
            {
                continue;
            }
            let tr = ra.transition(t);
            for &a2 in &auto.succ[a] {
                let tid = intern(&mut states, &mut product, (tr.to, a2, c2));
                product.add_transition(sid, tr.ty.clone(), tid).unwrap();
            }
        }
    }
    let state_of: Vec<StateId> = states.keys().iter().map(|&(q, _, _)| q).collect();
    let mut product_ext = ExtendedAutomaton::new(product);
    for con in ext.constraints() {
        product_ext
            .add_lifted_constraint(con, |s| state_of[s.idx()])
            .unwrap();
    }
    product_ext
}

/// The products of the benchmark's frozen `G stable` queries (every step
/// keeps register `r`, so the property holds): the formula automaton's
/// acceptance set is never visited again once the product is accepting,
/// so no accepting state lies on a cycle and the pre-pass settles them.
#[test]
fn frozen_g_stable_products_are_settled_by_scc() {
    use rega_core::generate::random_extended;
    use rega_core::RegisterAutomaton;
    use rega_data::{Literal, Term};

    for seed in 0..16u64 {
        let params = GenParams {
            states: 4 + (seed % 8) as usize,
            k: 2,
            out_degree: 2,
            literals_per_type: 2,
            unary_relations: 1,
            relational_probability: 0.3,
        };
        let r = (seed % 2) as u16;
        let ext = random_extended(&params, (seed % 4) as usize, seed);
        // Freeze register r: keep it on every step, dropping the
        // transitions that cannot.
        let ra = ext.ra();
        let mut frozen = RegisterAutomaton::new(ra.k(), ra.schema().clone());
        for s in ra.states() {
            frozen.add_state(ra.state_name(s));
            if ra.is_initial(s) {
                frozen.set_initial(s);
            }
            if ra.is_accepting(s) {
                frozen.set_accepting(s);
            }
        }
        for t in ra.transition_ids() {
            let tr = ra.transition(t);
            let ty = tr.ty.with(Literal::eq(Term::x(r), Term::y(r)));
            if ty.is_satisfiable(ra.schema()) {
                frozen.add_transition(tr.from, ty, tr.to).unwrap();
            }
        }
        let mut frozen = ExtendedAutomaton::new(frozen);
        for c in ext.constraints() {
            frozen.add_lifted_constraint(c, |s| s).unwrap();
        }
        assert_settled_by_scc(
            &g_stable_product(&frozen, r),
            &format!("frozen G stable, seed {seed}"),
        );
    }
}
