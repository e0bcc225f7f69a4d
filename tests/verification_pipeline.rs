//! Randomized cross-crate tests of the decision procedures: emptiness
//! witnesses re-validate, verification is coherent with emptiness, and the
//! universal witness database of the chase supports its runs.

use rega_analysis::chase::universal_witness_database;
use rega_analysis::emptiness::{check_emptiness, EmptinessOptions, EmptinessVerdict};
use rega_analysis::verify::{verify, VerifyOptions};
use rega_core::generate::{random_automaton, random_extended, GenParams};
use rega_core::ExtendedAutomaton;
use rega_data::{Qf, QfTerm};
use rega_logic::LtlFo;

fn params() -> GenParams {
    GenParams {
        states: 3,
        k: 2,
        out_degree: 2,
        literals_per_type: 2,
        unary_relations: 1,
        relational_probability: 0.4,
    }
}

#[test]
fn emptiness_witnesses_validate() {
    for seed in 0..15 {
        let ext = ExtendedAutomaton::new(random_automaton(&params(), seed));
        match check_emptiness(&ext, &EmptinessOptions::default()).unwrap() {
            EmptinessVerdict::NonEmpty(w) => {
                assert!(
                    w.prefix_run.validate(ext.ra(), &w.database).is_ok(),
                    "seed {seed}: prefix run must validate"
                );
                assert!(
                    ext.check_finite_prefix(&w.database, &w.prefix_run).is_ok(),
                    "seed {seed}: prefix run must satisfy the constraints"
                );
                if let Some(run) = &w.lasso_run {
                    assert!(
                        ext.check_lasso_run(&w.database, run).is_ok(),
                        "seed {seed}: lasso run must check end-to-end"
                    );
                }
            }
            EmptinessVerdict::Empty => { /* fine: some generated automata are empty */ }
        }
    }
}

#[test]
fn extended_emptiness_witnesses_validate() {
    for seed in 0..10 {
        let ext = random_extended(&params(), 2, seed);
        if let EmptinessVerdict::NonEmpty(w) =
            check_emptiness(&ext, &EmptinessOptions::default()).unwrap()
        {
            assert!(
                ext.check_finite_prefix(&w.database, &w.prefix_run).is_ok(),
                "seed {seed}"
            );
            if let Some(run) = &w.lasso_run {
                assert!(ext.check_lasso_run(&w.database, run).is_ok(), "seed {seed}");
            }
        }
    }
}

#[test]
fn universal_database_supports_all_witnesses() {
    for seed in [1u64, 4, 9] {
        let ext = ExtendedAutomaton::new(random_automaton(&params(), seed));
        let u = universal_witness_database(&ext, &EmptinessOptions::default()).unwrap();
        for w in &u.witnesses {
            assert!(
                w.prefix_run.validate(ext.ra(), &u.database).is_ok(),
                "seed {seed}: combined database must support every witness"
            );
        }
    }
}

#[test]
fn verification_coherent_with_emptiness() {
    // `G true` holds on every automaton; `F false` holds iff empty.
    let tautology = LtlFo::new("G t", [("t", Qf::True)]).unwrap();
    let absurdity = LtlFo::new("F f", [("f", Qf::False)]).unwrap();
    for seed in 0..8 {
        let ext = ExtendedAutomaton::new(random_automaton(&params(), seed));
        let empty = !check_emptiness(&ext, &EmptinessOptions::default())
            .unwrap()
            .is_nonempty();
        assert!(
            verify(&ext, &tautology, &VerifyOptions::default())
                .unwrap()
                .holds(),
            "seed {seed}: G true must hold"
        );
        let absurd_holds = verify(&ext, &absurdity, &VerifyOptions::default())
            .unwrap()
            .holds();
        assert_eq!(
            absurd_holds, empty,
            "seed {seed}: F false holds iff the automaton is empty"
        );
    }
}

#[test]
fn phi_and_not_phi_cannot_both_fail_on_deterministic_fact() {
    // For a proposition decided identically at every position of every run
    // (x1 = x1), both G p and its negation-counterpart behave coherently.
    let always = LtlFo::new("G p", [("p", Qf::Eq(QfTerm::x(0), QfTerm::x(0)))]).unwrap();
    let never = LtlFo::new("F q", [("q", Qf::neq(QfTerm::x(0), QfTerm::x(0)))]).unwrap();
    for seed in 0..6 {
        let ext = ExtendedAutomaton::new(random_automaton(&params(), seed));
        let empty = !check_emptiness(&ext, &EmptinessOptions::default())
            .unwrap()
            .is_nonempty();
        assert!(verify(&ext, &always, &VerifyOptions::default())
            .unwrap()
            .holds());
        assert_eq!(
            verify(&ext, &never, &VerifyOptions::default())
                .unwrap()
                .holds(),
            empty
        );
    }
}

#[test]
fn counterexamples_are_real_runs() {
    // When verification fails, the returned witness is a genuine run of the
    // product; its projection to the original registers is a run prefix of
    // the original automaton.
    let phi = LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(0), QfTerm::y(0)))]).unwrap();
    let mut found = 0;
    for seed in 0..10 {
        let ra = random_automaton(&params(), seed);
        let k = ra.k() as usize;
        let ext = ExtendedAutomaton::new(ra);
        if let rega_analysis::VerifyResult::CounterExample(w) =
            verify(&ext, &phi, &VerifyOptions::default()).unwrap()
        {
            found += 1;
            // The counterexample changes register 1 somewhere.
            assert!(w
                .prefix_run
                .configs
                .windows(2)
                .any(|p| p[0].regs[0] != p[1].regs[0]));
            assert_eq!(w.prefix_run.configs[0].regs.len(), k);
        }
    }
    assert!(found > 0, "some generated automaton must violate G (x1=y1)");
}

#[test]
fn simulation_lassos_imply_nonemptiness() {
    // Whenever the concrete simulator finds a lasso run over the empty
    // database, the symbolic emptiness check must agree the automaton is
    // non-empty (soundness cross-check between the two engines).
    use rega_core::simulate::{self, SearchLimits};
    use rega_data::{Database, Schema, Value};
    let db = Database::new(Schema::empty());
    let pool = vec![Value(1), Value(2)];
    let free_params = GenParams {
        unary_relations: 0,
        relational_probability: 0.0,
        ..params()
    };
    let mut agreed = 0;
    for seed in 0..10 {
        let ext = ExtendedAutomaton::new(random_automaton(&free_params, seed));
        let found = simulate::find_lasso_run(
            &ext,
            &db,
            5,
            &pool,
            SearchLimits {
                max_nodes: 200_000,
                max_runs: 1_000,
            },
        )
        .unwrap();
        if found.is_some() {
            let v = check_emptiness(&ext, &EmptinessOptions::default()).unwrap();
            assert!(
                v.is_nonempty(),
                "seed {seed}: simulator found a run but emptiness disagrees"
            );
            agreed += 1;
        }
    }
    assert!(agreed > 0, "some generated automaton must have lasso runs");
}

#[test]
fn emptiness_lasso_runs_admit_their_projection() {
    // The lasso run of an emptiness witness, projected to register 1, must
    // be re-admitted by the projected-trace membership search.
    use rega_core::simulate::{self, SearchLimits};
    for seed in 0..8 {
        let free_params = GenParams {
            unary_relations: 0,
            relational_probability: 0.0,
            ..params()
        };
        let ext = ExtendedAutomaton::new(random_automaton(&free_params, seed));
        let EmptinessVerdict::NonEmpty(w) =
            check_emptiness(&ext, &EmptinessOptions::default()).unwrap()
        else {
            continue;
        };
        let Some(run) = &w.lasso_run else { continue };
        let probe = run.projected_register_trace(1);
        let pool: Vec<rega_data::Value> = w.database.adom().into_iter().collect();
        let mut pool = pool;
        for c in &run.configs {
            for &v in &c.regs {
                if !pool.contains(&v) {
                    pool.push(v);
                }
            }
        }
        let admitted = simulate::find_lasso_with_projection(
            &ext,
            &w.database,
            &probe,
            &pool,
            run.configs.len() * 3 + 4,
            SearchLimits {
                max_nodes: 500_000,
                max_runs: 1_000,
            },
        )
        .unwrap();
        assert!(
            admitted.is_some(),
            "seed {seed}: the witness's own projection must be admitted"
        );
    }
}

/// Differential pin of the `SControl` NBA's accepting-state convention
/// (state `1 + t.idx()` accepting iff `from(t) ∈ F`) against ground-truth
/// run semantics ([`LassoRun::validate`]'s Büchi condition: an accepting
/// state inside the loop).
///
/// Over 0-register, database-free automata every control wiring is a real
/// run (all types are empty, hence trivially satisfied), so the NBA and
/// the run semantics must agree on *every* candidate lasso — exhaustively
/// enumerated below. The automata are chosen so that `{t : from(t) ∈ F}`
/// and `{t : to(t) ∈ F}` differ, i.e. the two plausible conventions mark
/// different NBA states accepting; a mis-marked construction (off-by-one
/// letter position, accepting start state, prefix-sensitive acceptance)
/// diverges from the oracle on some enumerated lasso.
#[test]
fn scontrol_nba_acceptance_agrees_with_run_semantics() {
    use rega_automata::Lasso;
    use rega_core::run::{Config, LassoRun};
    use rega_core::symbolic::scontrol_nba;
    use rega_core::{RegisterAutomaton, TransId};
    use rega_data::{Database, Schema, SigmaType};

    // Builds a 0-register automaton from (initials, accepting, edges).
    fn build(
        n: usize,
        inits: &[usize],
        accepting: &[usize],
        edges: &[(usize, usize)],
    ) -> RegisterAutomaton {
        let mut ra = RegisterAutomaton::new(0, Schema::empty());
        let states: Vec<_> = (0..n).map(|i| ra.add_state(&format!("s{i}"))).collect();
        for &i in inits {
            ra.set_initial(states[i]);
        }
        for &i in accepting {
            ra.set_accepting(states[i]);
        }
        for &(u, v) in edges {
            ra.add_transition(states[u], SigmaType::empty(0), states[v])
                .unwrap();
        }
        ra
    }

    // Run-semantics oracle: does (prefix, cycle) describe a valid
    // accepting lasso run? Wiring is reconstructed from the transitions;
    // any inconsistency means "no run", matching an NBA with no path.
    fn run_accepts(ra: &RegisterAutomaton, prefix: &[TransId], cycle: &[TransId]) -> bool {
        let word: Vec<TransId> = prefix.iter().chain(cycle).copied().collect();
        let mut configs = vec![Config::new(ra.transition(word[0]).from, vec![])];
        for (i, &t) in word.iter().enumerate() {
            if ra.transition(t).from != configs[i].state {
                return false; // broken wiring: not a run at all
            }
            configs.push(Config::new(ra.transition(t).to, vec![]));
        }
        // The wrap-around step must re-enter the cycle's first position.
        if configs.pop().unwrap().state != configs[prefix.len()].state {
            return false;
        }
        let run = LassoRun::new(configs, word, prefix.len());
        run.validate(ra, &Database::new(Schema::empty())).is_ok()
    }

    // Automata where from- and to-acceptance differ per transition:
    let cases = [
        // accepting init leads into a non-accepting 2-cycle; a second
        // accepting 2-cycle hangs off the start.
        build(4, &[0], &[0, 3], &[(0, 1), (1, 2), (2, 1), (0, 3), (3, 0)]),
        // accepting state reachable in the prefix only (never in a cycle).
        build(3, &[0], &[1], &[(0, 1), (1, 2), (2, 2)]),
        // self-loops on accepting and non-accepting states plus a bridge.
        build(2, &[0], &[1], &[(0, 0), (0, 1), (1, 1), (1, 0)]),
        // two initial states, only one of which reaches acceptance.
        build(4, &[0, 2], &[3], &[(0, 1), (1, 0), (2, 3), (3, 2)]),
    ];
    for (ci, ra) in cases.iter().enumerate() {
        let nba = scontrol_nba(ra).unwrap();
        let trans: Vec<TransId> = ra.transition_ids().collect();
        // All words prefix·cycle^ω with |prefix| ≤ 2, 1 ≤ |cycle| ≤ 3.
        let seqs = |len: usize| -> Vec<Vec<TransId>> {
            let mut out = vec![vec![]];
            for _ in 0..len {
                out = out
                    .into_iter()
                    .flat_map(|s| {
                        trans.iter().map(move |&t| {
                            let mut s2 = s.clone();
                            s2.push(t);
                            s2
                        })
                    })
                    .collect();
            }
            out
        };
        for plen in 0..=2 {
            for clen in 1..=3 {
                for prefix in seqs(plen) {
                    for cycle in seqs(clen) {
                        let nba_accepts =
                            nba.accepts_lasso(&Lasso::new(prefix.clone(), cycle.clone()));
                        let oracle = run_accepts(ra, &prefix, &cycle);
                        assert_eq!(
                            nba_accepts, oracle,
                            "case {ci}: SControl NBA and run semantics disagree on \
                             prefix {prefix:?}, cycle {cycle:?}"
                        );
                    }
                }
            }
        }
    }
}

/// Differential pin of `verify`'s single σ-type cache: the verdict, the
/// counterexample's control lasso and its witness (database and runs) must
/// be those of the pipeline `verify` ran before it shared one `SatCache`
/// across its stages. That pipeline is rebuilt here from public pieces,
/// each stage on a cache of its own: the refinement through
/// `complete_extended_for_atoms`, the truth table through
/// `Qf::eval_under_type`, the product through the validating
/// `RegisterAutomaton::add_transition`, and a fresh `check_emptiness`.
///
/// The queries cover the benchmark's `G stable` shapes (every step keeps
/// the register, so it holds; every step changes it, so it fails), random
/// automata with 0–3 global constraints under four properties, and a
/// global-variable property shaped like Example 7's "no value recurs".
#[test]
fn single_cache_verify_matches_three_cache_pipeline() {
    use rega_analysis::verify::{add_global_registers, VerifyResult};
    use rega_core::transform::complete_extended_for_atoms;
    use rega_core::{RegisterAutomaton, StateId, TransId};
    use rega_data::{Literal, Term};
    use rega_logic::translate::ltl_to_automaton;
    use std::collections::HashMap;

    type Key = (StateId, usize, usize);
    fn intern(
        ra: &RegisterAutomaton,
        index: &mut HashMap<Key, StateId>,
        states: &mut Vec<Key>,
        product: &mut RegisterAutomaton,
        key: Key,
    ) -> StateId {
        *index.entry(key).or_insert_with(|| {
            let (q, a, c) = key;
            states.push(key);
            product.add_state(&format!("{}|a{a}|c{c}", ra.state_name(q)))
        })
    }

    fn three_cache_verify(ext: &ExtendedAutomaton, phi: &LtlFo) -> EmptinessVerdict {
        let k = ext.ra().k();
        let nz = phi.num_globals();
        let (ext, phi) = if nz > 0 {
            (
                add_global_registers(ext, nz).unwrap(),
                phi.eliminate_globals(k),
            )
        } else {
            (ext.clone(), phi.clone())
        };
        let mut atoms: Vec<Literal> = phi.props.iter().flat_map(|q| q.atoms().unwrap()).collect();
        atoms.sort();
        atoms.dedup();
        let ext = complete_extended_for_atoms(&ext, &atoms).unwrap();
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
        let guard_ok = |a: usize, t: TransId| {
            let g = &auto.guards[a];
            g.pos.iter().all(|&p| truth[t.idx()][p as usize])
                && g.neg.iter().all(|&p| !truth[t.idx()][p as usize])
        };
        let n_sets = 1 + auto.acc.len();
        let in_set = |q: StateId, a: usize, set: usize| {
            if set == 0 {
                ra.is_accepting(q)
            } else {
                auto.acc[set - 1][a]
            }
        };
        let mut product = RegisterAutomaton::new(ra.k(), ra.schema().clone());
        let mut index = HashMap::new();
        let mut states = Vec::new();
        for q in ra.states().filter(|&q| ra.is_initial(q)) {
            for &a0 in &auto.inits {
                let id = intern(ra, &mut index, &mut states, &mut product, (q, a0, 0));
                product.set_initial(id);
            }
        }
        let mut done = 0;
        while done < states.len() {
            let (q, a, c) = states[done];
            let sid = index[&(q, a, c)];
            done += 1;
            if c == 0 && in_set(q, a, 0) {
                product.set_accepting(sid);
            }
            let c2 = if in_set(q, a, c) { (c + 1) % n_sets } else { c };
            for &t in ra.outgoing(q) {
                if !guard_ok(a, t) {
                    continue;
                }
                let tr = ra.transition(t);
                for &a2 in &auto.succ[a] {
                    let key = (tr.to, a2, c2);
                    let tid = intern(ra, &mut index, &mut states, &mut product, key);
                    product.add_transition(sid, tr.ty.clone(), tid).unwrap();
                }
            }
        }
        let state_of: Vec<StateId> = states.iter().map(|&(q, _, _)| q).collect();
        let mut product_ext = ExtendedAutomaton::new(product);
        for con in ext.constraints() {
            product_ext
                .add_lifted_constraint(con, |s| state_of[s.idx()])
                .unwrap();
        }
        check_emptiness(&product_ext, &EmptinessOptions::default()).unwrap()
    }

    /// The benchmark's frozen / thawed shapes: `lit` added to every type,
    /// the types it makes unsatisfiable dropped.
    fn on_every_step(ext: &ExtendedAutomaton, lit: Literal) -> ExtendedAutomaton {
        let ra = ext.ra();
        let mut out = RegisterAutomaton::new(ra.k(), ra.schema().clone());
        for s in ra.states() {
            out.add_state(ra.state_name(s));
            if ra.is_initial(s) {
                out.set_initial(s);
            }
            if ra.is_accepting(s) {
                out.set_accepting(s);
            }
        }
        for t in ra.transition_ids() {
            let tr = ra.transition(t);
            let ty = tr.ty.with(lit.clone());
            if ty.is_satisfiable(ra.schema()) {
                out.add_transition(tr.from, ty, tr.to).unwrap();
            }
        }
        let mut out = ExtendedAutomaton::new(out);
        for c in ext.constraints() {
            out.add_lifted_constraint(c, |s| s).unwrap();
        }
        out
    }

    let stable =
        |r: u16| LtlFo::new("G stable", [("stable", Qf::Eq(QfTerm::x(r), QfTerm::y(r)))]).unwrap();
    let no_recurrence = LtlFo::new(
        "G (hit -> X (G miss))",
        [
            ("hit", Qf::Eq(QfTerm::x(0), QfTerm::z(0))),
            ("miss", Qf::neq(QfTerm::x(0), QfTerm::z(0))),
        ],
    )
    .unwrap();
    let mut queries: Vec<(String, ExtendedAutomaton, LtlFo)> = Vec::new();
    for seed in 0..16u64 {
        let p = GenParams {
            states: 4 + (seed % 5) as usize,
            ..params()
        };
        let ext = random_extended(&p, (seed % 4) as usize, 7000 + seed);
        let r = (seed % 2) as u16;
        let frozen = on_every_step(&ext, Literal::eq(Term::x(r), Term::y(r)));
        let thawed = on_every_step(&ext, Literal::neq(Term::x(r), Term::y(r)));
        queries.push((format!("frozen {seed}"), frozen, stable(r)));
        queries.push((format!("thawed {seed}"), thawed, stable(r)));
    }
    let u0 = random_extended(&params(), 0, 0)
        .ra()
        .schema()
        .relation("U0")
        .unwrap();
    let properties = [
        stable(0),
        LtlFo::new(
            "G (same -> X differ)",
            [
                ("same", Qf::Eq(QfTerm::x(0), QfTerm::x(1))),
                ("differ", Qf::neq(QfTerm::x(0), QfTerm::x(1))),
            ],
        )
        .unwrap(),
        LtlFo::new("F inU", [("inU", Qf::Rel(u0, vec![QfTerm::x(1)]))]).unwrap(),
        LtlFo::new("G F keep", [("keep", Qf::Eq(QfTerm::x(1), QfTerm::y(1)))]).unwrap(),
    ];
    for seed in 0..32u64 {
        let ext = random_extended(&params(), (seed % 4) as usize, 9000 + seed);
        let phi = properties[(seed % 4) as usize].clone();
        queries.push((format!("random {seed}"), ext, phi));
    }
    queries.push((
        "example 7".into(),
        rega_core::paper::example7(),
        no_recurrence.clone(),
    ));
    for seed in 0..7u64 {
        let ext = random_extended(&params(), (seed % 4) as usize, 11000 + seed);
        queries.push((format!("globals {seed}"), ext, no_recurrence.clone()));
    }
    assert!(queries.len() >= 64);

    let (mut holds, mut fails) = (0, 0);
    for (name, ext, phi) in &queries {
        let got = verify(ext, phi, &VerifyOptions::default()).unwrap();
        match (got, three_cache_verify(ext, phi)) {
            (VerifyResult::Holds, EmptinessVerdict::Empty) => holds += 1,
            (VerifyResult::CounterExample(w), EmptinessVerdict::NonEmpty(want)) => {
                fails += 1;
                assert_eq!(w.control, want.control, "{name}: control lasso");
                assert!(
                    w.database.same_facts(&want.database),
                    "{name}: witness database"
                );
                assert_eq!(w.prefix_run.configs, want.prefix_run.configs, "{name}");
                assert_eq!(w.prefix_run.trans, want.prefix_run.trans, "{name}");
                assert_eq!(
                    format!("{:?}", w.lasso_run),
                    format!("{:?}", want.lasso_run),
                    "{name}: lasso run"
                );
            }
            (got, want) => panic!(
                "{name}: verify says holds = {}, the three-cache pipeline {}",
                got.holds(),
                if want.is_nonempty() { "fails" } else { "holds" }
            ),
        }
    }
    assert!(holds >= 16 && fails >= 16, "holds {holds}, fails {fails}");
}
