//! Differential pinning of the per-state view assembly.
//!
//! Proposition 20, Theorem 13 and Theorem 24 assemble their views in one
//! loop keyed by state type ids: each state's restriction is computed once,
//! joint satisfiability of a succession is read from a table over the
//! distinct state types, and duplicates are dropped by a
//! `(from, to, restricted type)` set. Both the fast and the reference
//! entry points run that loop, so the fast/reference suite cannot see a
//! bug in it. This suite keeps the per-transition loop it replaced as an
//! oracle — re-intern every normalized transition's type, check each
//! succession, restrict each transition, scan the out-list for an equal
//! transition and add it with a fresh analysis — runs it on the normalized
//! automaton the public `complete*` and `state_driven_governed` entry points
//! build, and asserts that every projection, on both paths, returns the
//! same view automaton (states, markings, transitions in order, types) and
//! the same constraints.
//!
//! The corpus is 420 seeded automata per construction, 140 at each width
//! `m ∈ {0, 1, 2}`, the paper's examples, and constructed automata with
//! two transitions `p → q` whose completions overlap, so the duplicate
//! path runs; the suite checks that it does.

use rega_automata::Dfa;
use rega_core::extended::{ConstraintKind, GlobalConstraint};
use rega_core::generate::{random_automaton, GenParams};
use rega_core::transform::{
    complete_for_atoms_governed, complete_for_atoms_reference_governed, complete_governed,
    state_driven_governed, StateDriven,
};
use rega_core::typeops::{TypeOps, TypePath};
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::{Literal, RegIdx, SatCache, Schema, SigmaType, Term, TypeId};
use rega_views::lemma21::{eq_dfa, neq_dfa};
use rega_views::thm24::Thm24Options;
use rega_views::{
    eliminate_global_equalities, project_extended_governed, project_extended_reference_governed,
    project_hiding_database_governed, project_hiding_database_reference_governed,
    project_register_automaton_governed, project_register_automaton_reference_governed,
};

const SEEDS: u64 = 420;
const PATHS: [TypePath; 2] = [TypePath::Fast, TypePath::Reference];

/// The per-transition assembly loop the per-state one replaced. Returns the
/// view and how many exact duplicates it skipped.
fn oracle_view(
    normalized: &RegisterAutomaton,
    m: u16,
    schema: Schema,
    eq_only: bool,
    ops: &TypeOps,
) -> Result<(RegisterAutomaton, usize), CoreError> {
    let tids: Vec<TypeId> = normalized
        .transition_ids()
        .map(|t| ops.intern(&normalized.transition(t).ty))
        .collect();
    let state_tid: Vec<Option<TypeId>> = normalized
        .states()
        .map(|s| normalized.state_type(s).map(|ty| ops.intern(ty)))
        .collect();
    let mut view = RegisterAutomaton::new(m, schema);
    for s in normalized.states() {
        view.add_state(normalized.state_name(s));
        if normalized.is_initial(s) {
            view.set_initial(s);
        }
        if normalized.is_accepting(s) {
            view.set_accepting(s);
        }
    }
    let mut duplicates = 0;
    for t in normalized.transition_ids() {
        let tr = normalized.transition(t);
        if let Some(next) = state_tid[tr.to.idx()] {
            if !ops.jointly_satisfiable_ids(tids[t.idx()], next) {
                continue;
            }
        }
        let rid = if eq_only {
            ops.restrict_eq_registers_id(tids[t.idx()], m)?
        } else {
            ops.restrict_registers_id(tids[t.idx()], m)?
        };
        let restricted = ops.resolve(rid);
        let dup = view
            .outgoing(tr.from)
            .iter()
            .any(|&u| view.transition(u).to == tr.to && view.transition(u).ty == *restricted);
        if dup {
            duplicates += 1;
        } else {
            view.add_transition(tr.from, (*restricted).clone(), tr.to)?;
        }
    }
    Ok((view, duplicates))
}

/// The Lemma 21 constraints of every visible register pair, in the order
/// the projections add them.
fn add_lemma21(
    view: &mut ExtendedAutomaton,
    normalized: &RegisterAutomaton,
    m: u16,
) -> Result<(), CoreError> {
    for i in 0..m {
        for j in 0..m {
            let (i, j) = (RegIdx(i), RegIdx(j));
            view.add_constraint_dfa(ConstraintKind::Equal, i, j, eq_dfa(normalized, i, j)?)?;
            view.add_constraint_dfa(ConstraintKind::NotEqual, i, j, neq_dfa(normalized, i, j)?)?;
        }
    }
    Ok(())
}

/// What an oracle projection returns: the normalized automaton, the view
/// and the duplicates its assembly skipped.
struct Oracle {
    normalized: RegisterAutomaton,
    view: ExtendedAutomaton,
    duplicates: usize,
}

fn normalize(ra: &RegisterAutomaton, cache: &SatCache) -> Result<StateDriven, CoreError> {
    let budget = Budget::unlimited();
    state_driven_governed(&complete_governed(ra, cache, &budget)?, cache, &budget)
}

fn prop20_oracle(ra: &RegisterAutomaton, m: u16, path: TypePath) -> Result<Oracle, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    let normalized = normalize(ra, &cache)?.automaton;
    let ops = TypeOps::new(&cache, ra.k(), path);
    let (view, duplicates) = oracle_view(&normalized, m, ra.schema().clone(), false, &ops)?;
    let mut view = ExtendedAutomaton::new(view);
    add_lemma21(&mut view, &normalized, m)?;
    Ok(Oracle {
        normalized,
        view,
        duplicates,
    })
}

/// `None` when the input is outside Theorem 13's fragment (a global
/// inequality on a hidden register), where the projection must refuse.
fn thm13_oracle(
    ext: &ExtendedAutomaton,
    m: u16,
    path: TypePath,
) -> Result<Option<Oracle>, CoreError> {
    let eliminated = eliminate_global_equalities(ext)?;
    let inter = &eliminated.automaton;
    if inter.constraints().iter().any(|c| c.i.0 >= m || c.j.0 >= m) {
        return Ok(None);
    }
    let cache = SatCache::new(inter.ra().schema().clone());
    let sd = normalize(inter.ra(), &cache)?;
    let ops = TypeOps::new(&cache, inter.k(), path);
    let (view, duplicates) = oracle_view(&sd.automaton, m, ext.ra().schema().clone(), false, &ops)?;
    let mut view = ExtendedAutomaton::new(view);
    add_lemma21(&mut view, &sd.automaton, m)?;
    for c in inter.constraints() {
        view.add_lifted_constraint(c, |s| sd.state_map[s.idx()])?;
    }
    Ok(Some(Oracle {
        normalized: sd.automaton,
        view,
        duplicates,
    }))
}

fn equality_atoms(k: u16) -> Vec<Literal> {
    let terms: Vec<Term> = (0..k).flat_map(|i| [Term::x(i), Term::y(i)]).collect();
    let mut atoms = Vec::new();
    for a in 0..terms.len() {
        for b in (a + 1)..terms.len() {
            atoms.push(Literal::eq(terms[a], terms[b]));
        }
    }
    atoms
}

fn thm24_oracle(ra: &RegisterAutomaton, m: u16, path: TypePath) -> Result<Oracle, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    let budget = Budget::unlimited();
    let atoms = equality_atoms(ra.k());
    let completed = match path {
        TypePath::Fast => complete_for_atoms_governed(ra, &atoms, &cache, &budget)?,
        TypePath::Reference => complete_for_atoms_reference_governed(ra, &atoms, &cache, &budget)?,
    };
    let normalized = state_driven_governed(&completed, &cache, &budget)?.automaton;
    let ops = TypeOps::new(&cache, ra.k(), path);
    let (view, duplicates) = oracle_view(&normalized, m, Schema::empty(), true, &ops)?;
    let mut view = ExtendedAutomaton::new(view);
    add_lemma21(&mut view, &normalized, m)?;
    Ok(Oracle {
        normalized,
        view,
        duplicates,
    })
}

/// Same registers, states (names, markings), and transitions in order.
fn assert_ra_eq(a: &RegisterAutomaton, b: &RegisterAutomaton, what: &str) {
    assert_eq!(a.k(), b.k(), "{what}: register counts");
    assert_eq!(a.num_states(), b.num_states(), "{what}: state counts");
    for s in a.states() {
        assert_eq!(a.state_name(s), b.state_name(s), "{what}: {s:?} name");
        assert_eq!(a.is_initial(s), b.is_initial(s), "{what}: {s:?} initial");
        assert_eq!(
            a.is_accepting(s),
            b.is_accepting(s),
            "{what}: {s:?} accepting"
        );
    }
    assert_eq!(
        a.num_transitions(),
        b.num_transitions(),
        "{what}: transition counts"
    );
    for t in a.transition_ids() {
        let (ta, tb) = (a.transition(t), b.transition(t));
        assert_eq!(
            (ta.from, ta.to, &ta.ty),
            (tb.from, tb.to, &tb.ty),
            "{what}: transition {t:?}"
        );
    }
}

fn assert_dfa_eq(a: &Dfa<StateId>, b: &Dfa<StateId>, what: &str) {
    assert_eq!(a.alphabet(), b.alphabet(), "{what}: alphabets");
    assert_eq!(a.num_states(), b.num_states(), "{what}: DFA sizes");
    assert_eq!(a.init(), b.init(), "{what}: initial DFA states");
    for s in 0..a.num_states() {
        assert_eq!(
            a.is_accepting(s),
            b.is_accepting(s),
            "{what}: DFA state {s}"
        );
        for l in 0..a.alphabet().len() {
            assert_eq!(a.step_idx(s, l), b.step_idx(s, l), "{what}: DFA row {s}");
        }
    }
}

fn assert_constraints_eq(a: &[GlobalConstraint], b: &[GlobalConstraint], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: constraint counts");
    for (n, (ca, cb)) in a.iter().zip(b).enumerate() {
        let what = format!("{what}: constraint {n}");
        assert_eq!((ca.kind, ca.i, ca.j), (cb.kind, cb.i, cb.j), "{what}");
        assert_eq!(ca.regex, cb.regex, "{what}: regex");
        assert_dfa_eq(ca.dfa(), cb.dfa(), &what);
    }
}

fn assert_view_eq(got: &ExtendedAutomaton, want: &ExtendedAutomaton, what: &str) {
    assert_ra_eq(got.ra(), want.ra(), &format!("{what} view"));
    assert_constraints_eq(got.constraints(), want.constraints(), what);
}

/// Prop 20 on both paths against the oracle; the duplicates the oracle
/// skipped on the fast path.
fn check_prop20(ra: &RegisterAutomaton, m: u16, what: &str) -> usize {
    let mut duplicates = 0;
    for path in PATHS {
        let what = format!("{what} prop20 m={m} {path:?}");
        let cache = SatCache::new(ra.schema().clone());
        let budget = Budget::unlimited();
        let got = match path {
            TypePath::Fast => project_register_automaton_governed(ra, m, &cache, &budget),
            TypePath::Reference => {
                project_register_automaton_reference_governed(ra, m, &cache, &budget)
            }
        }
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        let want = prop20_oracle(ra, m, path).unwrap();
        assert_ra_eq(
            &got.normalized,
            &want.normalized,
            &format!("{what} normalized"),
        );
        assert_view_eq(&got.view, &want.view, &what);
        if path == TypePath::Fast {
            duplicates = want.duplicates;
        }
    }
    duplicates
}

fn check_thm13(ext: &ExtendedAutomaton, m: u16, what: &str) -> usize {
    let mut duplicates = 0;
    for path in PATHS {
        let what = format!("{what} thm13 m={m} {path:?}");
        let cache = SatCache::new(ext.ra().schema().clone());
        let budget = Budget::unlimited();
        let got = match path {
            TypePath::Fast => project_extended_governed(ext, m, &cache, &budget),
            TypePath::Reference => project_extended_reference_governed(ext, m, &cache, &budget),
        };
        match (got, thm13_oracle(ext, m, path).unwrap()) {
            (Ok(got), Some(want)) => {
                assert_view_eq(&got.view, &want.view, &what);
                if path == TypePath::Fast {
                    duplicates = want.duplicates;
                }
            }
            (Err(CoreError::UnsupportedProjection(_)), None) => {}
            (got, want) => panic!(
                "{what}: projection {:?}, oracle supported: {}",
                got.err(),
                want.is_some()
            ),
        }
    }
    duplicates
}

fn check_thm24(ra: &RegisterAutomaton, m: u16, what: &str) -> usize {
    let mut duplicates = 0;
    let opts = Thm24Options::default();
    for path in PATHS {
        let what = format!("{what} thm24 m={m} {path:?}");
        let cache = SatCache::new(ra.schema().clone());
        let budget = Budget::unlimited();
        let got = match path {
            TypePath::Fast => project_hiding_database_governed(ra, m, &opts, &cache, &budget),
            TypePath::Reference => {
                project_hiding_database_reference_governed(ra, m, &opts, &cache, &budget)
            }
        }
        .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        let want = thm24_oracle(ra, m, path).unwrap();
        assert_ra_eq(
            &got.normalized,
            &want.normalized,
            &format!("{what} normalized"),
        );
        assert_view_eq(got.view.ext(), &want.view, &what);
        if path == TypePath::Fast {
            duplicates = want.duplicates;
        }
    }
    duplicates
}

fn params(seed: u64, unary_relations: usize) -> GenParams {
    GenParams {
        states: 2 + (seed % 2) as usize,
        k: 2,
        out_degree: 2 + usize::from(seed.is_multiple_of(3)),
        literals_per_type: 1 + (seed % 2) as usize,
        unary_relations,
        relational_probability: if unary_relations > 0 { 0.4 } else { 0.0 },
    }
}

/// Each seed runs at width `m = seed mod 3`, so the corpus holds 140
/// inputs per width.
#[test]
fn prop20_and_thm13_assembly_matches_the_per_transition_loop() {
    let mut duplicates = 0;
    for seed in 0..SEEDS {
        let m = (seed % 3) as u16;
        let ra = random_automaton(&params(seed, 0), seed);
        // Every fourth input carries a global inequality on register 0,
        // which Thm 13 lifts into the view when it is visible (m ≥ 1) and
        // refuses to project away (m = 0).
        let mut ext = ExtendedAutomaton::new(ra.clone());
        if seed.is_multiple_of(4) {
            ext.add_constraint_str(ConstraintKind::NotEqual, RegIdx(0), RegIdx(0), "s0 s1* s1")
                .unwrap();
        }
        let what = format!("seed {seed}");
        duplicates += check_prop20(&ra, m, &what);
        duplicates += check_thm13(&ext, m, &what);
    }
    assert!(duplicates > 0, "the corpus must run the duplicate path");
}

#[test]
fn thm24_assembly_matches_the_per_transition_loop() {
    let mut duplicates = 0;
    for seed in 0..SEEDS {
        // Two states: the selectors Thm 24 builds after the assembly grow
        // fast with the state count.
        let params = GenParams {
            states: 2,
            out_degree: 2,
            ..params(seed, 1)
        };
        let ra = random_automaton(&params, seed);
        duplicates += check_thm24(&ra, (seed % 3) as u16, &format!("seed {seed}"));
    }
    assert!(duplicates > 0, "the corpus must run the duplicate path");
}

/// The paper's inputs, Example 5's global equality included: Prop 6 adds
/// a register for it before Thm 13 normalizes.
#[test]
fn paper_inputs_match_the_per_transition_loop() {
    let (ex1, _) = rega_core::paper::example1();
    for m in 0..=2 {
        check_prop20(&ex1, m, "example1");
        check_thm13(&ExtendedAutomaton::new(ex1.clone()), m, "example1");
    }
    for m in 0..=1 {
        check_thm13(&rega_core::paper::example5(), m, "example5");
        check_thm13(&rega_core::paper::example7(), m, "example7");
        check_thm24(&rega_core::paper::example23(), m, "example23");
    }
}

/// Two transitions `p → q` whose types share complete extensions: the
/// completion adds the shared ones twice, so the normalized automaton holds
/// exact duplicates and every view must drop them as the loop did.
fn overlapping(schema: Schema) -> RegisterAutomaton {
    let mut ra = RegisterAutomaton::new(2, schema);
    let p = ra.add_state("p");
    let q = ra.add_state("q");
    ra.set_initial(p);
    ra.set_accepting(q);
    let keep = |r| SigmaType::new(2, [Literal::eq(Term::x(r), Term::y(r))]);
    ra.add_transition(p, keep(0), q).unwrap();
    ra.add_transition(p, keep(1), q).unwrap();
    ra.add_transition(q, SigmaType::empty(2), p).unwrap();
    ra.add_transition(q, keep(0), q).unwrap();
    ra
}

#[test]
fn overlapping_completions_are_deduplicated_like_the_loop() {
    let plain = overlapping(Schema::empty());
    let relational = overlapping(Schema::with(&[("U", 1)], &[]));
    for m in 0..=2 {
        assert!(check_prop20(&plain, m, "overlapping") > 0, "prop20 m={m}");
        assert!(
            check_thm13(&ExtendedAutomaton::new(plain.clone()), m, "overlapping") > 0,
            "thm13 m={m}"
        );
        assert!(
            check_thm24(&relational, m, "overlapping") > 0,
            "thm24 m={m}"
        );
    }
}
