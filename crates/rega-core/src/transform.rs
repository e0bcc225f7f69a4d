//! Normal forms of register automata (Section 2):
//!
//! * **Completion** — every transition type is replaced by its complete
//!   extensions (Example 2). Exponential in the worst case.
//! * **State-driven form** — each state determines its unique outgoing type
//!   (Example 3). Quadratic: states become `(q, δ)` pairs.
//!
//! Both preserve the register traces; the experiment suite E2 measures the
//! blow-ups.

use crate::automaton::{RegisterAutomaton, StateId};
use crate::error::CoreError;
use crate::extended::ExtendedAutomaton;
use crate::typeops::{TypeOps, TypePath};
use rega_data::{Budget, SatCache, TypeId};

/// Replaces every transition type by all of its complete extensions.
/// Register traces are preserved (each original step is refined into the
/// nondeterministic choice of a completion).
pub fn complete(ra: &RegisterAutomaton) -> Result<RegisterAutomaton, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    complete_governed(ra, &cache, &Budget::unlimited())
}

/// [`complete`] with every completion enumeration and satisfiability check
/// memoized in `cache`, under a [`Budget`]. Transitions sharing a type
/// enumerate its completions once. The completion enumeration of each
/// transition type (the exponential step) and the per-completion insertion
/// loop both tick, and the interned-type ceiling is enforced against
/// `cache`.
pub fn complete_governed(
    ra: &RegisterAutomaton,
    cache: &SatCache,
    budget: &Budget,
) -> Result<RegisterAutomaton, CoreError> {
    complete_impl(ra, &TypeOps::new(cache, ra.k(), TypePath::Fast), budget).map(|(out, _)| out)
}

/// The completion, with the interned type of every transition it added (in
/// transition order), so the state-driven step need not hash them again.
fn complete_impl(
    ra: &RegisterAutomaton,
    ops: &TypeOps,
    budget: &Budget,
) -> Result<(RegisterAutomaton, Vec<TypeId>), CoreError> {
    let _span = rega_obs::span!("transform.complete", states = ra.num_states());
    let cache = ops.cache();
    let mut out = RegisterAutomaton::with_states_of(ra, ra.k(), ra.schema().clone());
    let mut tids = Vec::new();
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        let id = ops.intern(&tr.ty);
        for cid in ops.completions_id_governed(id, budget)? {
            budget.tick_mem("transform.complete", || cache.stats().distinct_types)?;
            out.add_transition_interned_id(tr.from, cid, tr.to, cache)?;
            tids.push(cid);
        }
    }
    rega_obs::event!(
        "transform.completed",
        transitions_in = ra.num_transitions(),
        transitions_out = out.num_transitions()
    );
    Ok((out, tids))
}

/// The result of the state-driven construction: the new automaton plus the
/// surjection `α : Q′ → Q` onto the original states.
#[derive(Clone, Debug)]
pub struct StateDriven {
    /// The state-driven automaton.
    pub automaton: RegisterAutomaton,
    /// `state_map[s′] = α(s′)` — the original state of each new state.
    pub state_map: Vec<StateId>,
    /// `state_types[s′]` — the interned [`RegisterAutomaton::state_type`]
    /// of each new state: the type of all its outgoing transitions, `None`
    /// when it has none.
    pub state_types: Vec<Option<TypeId>>,
}

/// Converts to state-driven form: new states are the pairs `(q, δ)` where
/// `δ` is an outgoing type of `q`; the pair's unique outgoing type is `δ`.
///
/// States of the original automaton without outgoing transitions disappear
/// (they cannot occur in an infinite run).
pub fn state_driven(ra: &RegisterAutomaton) -> StateDriven {
    let cache = SatCache::new(ra.schema().clone());
    state_driven_governed(ra, &cache, &Budget::unlimited())
        .expect("ungoverned state-driven cannot fail: every type is already validated")
}

/// [`state_driven`] with transition validation memoized in `cache`, under
/// a [`Budget`]. The construction duplicates each type once per successor
/// pair; each distinct source type is validated once, and the wiring ticks
/// per pair, so a hostile automaton with a dense successor structure is
/// interruptible.
pub fn state_driven_governed(
    ra: &RegisterAutomaton,
    cache: &SatCache,
    budget: &Budget,
) -> Result<StateDriven, CoreError> {
    state_driven_impl(ra, None, cache, budget)
}

/// How [`normalize_with`] completes the transition types.
#[derive(Clone, Copy, Debug)]
pub enum Completion<'a> {
    /// Full completion ([`complete_governed`]).
    Full,
    /// Completion on the given atoms only ([`complete_for_atoms_governed`]).
    Atoms(&'a [rega_data::Literal]),
}

/// The complete (or atom-complete), state-driven normal form the
/// projections start from, with every σ-type operation served by `ops`.
/// The completion hands the interned type of each transition it adds to
/// the state-driven step, which therefore hashes no type again, and the
/// result carries each new state's type id. The automaton is the one
/// [`state_driven_governed`] builds from the completion.
pub fn normalize_with(
    ra: &RegisterAutomaton,
    completion: Completion<'_>,
    ops: &TypeOps,
    budget: &Budget,
) -> Result<StateDriven, CoreError> {
    let (completed, tids) = match completion {
        Completion::Full => complete_impl(ra, ops, budget)?,
        Completion::Atoms(atoms) => complete_for_atoms_impl(ra, atoms, ops, budget)?,
    };
    state_driven_impl(&completed, Some(&tids), ops.cache(), budget)
}

/// The state-driven construction. `known[t]`, when given, is the interned
/// type of transition `t`; otherwise each type is interned here.
fn state_driven_impl(
    ra: &RegisterAutomaton,
    known: Option<&[TypeId]>,
    cache: &SatCache,
    budget: &Budget,
) -> Result<StateDriven, CoreError> {
    let _span = rega_obs::span!("transform.state_driven", states = ra.num_states());
    // Distinct outgoing types per state, deduplicated by interned handle so
    // the quadratic wiring below compares `u32`s instead of literal sets.
    let mut tid: Vec<TypeId> = Vec::with_capacity(ra.num_transitions());
    let mut types_of: Vec<Vec<TypeId>> = vec![Vec::new(); ra.num_states()];
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        budget.tick("transform.state_driven")?;
        let id = match known {
            Some(ids) => ids[t.idx()],
            None => cache.intern(&tr.ty),
        };
        tid.push(id);
        if !types_of[tr.from.idx()].contains(&id) {
            types_of[tr.from.idx()].push(id);
        }
    }
    let mut out = RegisterAutomaton::new(ra.k(), ra.schema().clone());
    let mut state_map = Vec::new();
    let mut pair_type = Vec::new();
    // pair_id[q][type_index] = new state
    let mut pair_id: Vec<Vec<StateId>> = vec![Vec::new(); ra.num_states()];
    for q in ra.states() {
        for (xi, &ty) in types_of[q.idx()].iter().enumerate() {
            let name = format!("{}_{}", ra.state_name(q), xi);
            let id = out.add_state(&name);
            pair_id[q.idx()].push(id);
            state_map.push(q);
            pair_type.push(ty);
            if ra.is_initial(q) {
                out.set_initial(id);
            }
            if ra.is_accepting(q) {
                out.set_accepting(id);
            }
        }
    }
    // Transitions: ((p,δ), δ, (q,δ′)) for (p,δ,q) ∈ Δ and δ′ outgoing at q.
    // Every pair `(p, δ)` wires only `δ`, so its type is validated once,
    // before its first pair.
    let mut validated = vec![false; out.num_states()];
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        let xi = types_of[tr.from.idx()]
            .iter()
            .position(|&ty| ty == tid[t.idx()])
            .expect("type recorded");
        let from2 = pair_id[tr.from.idx()][xi];
        for &to2 in &pair_id[tr.to.idx()] {
            budget.tick("transform.state_driven")?;
            if !validated[from2.idx()] {
                cache.analyze_id(tid[t.idx()])?;
                validated[from2.idx()] = true;
            }
            out.add_validated_transition(from2, tr.ty.clone(), to2)?;
        }
    }
    let state_types = out
        .states()
        .zip(pair_type)
        .map(|(s, ty)| (!out.outgoing(s).is_empty()).then_some(ty))
        .collect();
    Ok(StateDriven {
        automaton: out,
        state_map,
        state_types,
    })
}

/// *Partial* completion: every transition type is refined just enough to
/// decide each of the given atoms (each atom is conjoined either positively
/// or negatively, keeping only satisfiable combinations). Exponential only
/// in the number of atoms actually needed — the verifier uses this instead
/// of full completion, which blows up in the number of registers.
pub fn complete_for_atoms(
    ra: &RegisterAutomaton,
    atoms: &[rega_data::Literal],
) -> Result<RegisterAutomaton, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    complete_for_atoms_governed(ra, atoms, &cache, &Budget::unlimited())
}

/// [`complete_for_atoms`] with the per-variant satisfiability checks
/// memoized in `cache`, under a [`Budget`]. Transitions sharing a type (and
/// the shared intermediate refinements they generate) are checked once. The
/// variant set can double per atom, so the refinement loop ticks per
/// candidate variant and enforces the interned-type ceiling against
/// `cache`.
pub fn complete_for_atoms_governed(
    ra: &RegisterAutomaton,
    atoms: &[rega_data::Literal],
    cache: &SatCache,
    budget: &Budget,
) -> Result<RegisterAutomaton, CoreError> {
    complete_for_atoms_impl(
        ra,
        atoms,
        &TypeOps::new(cache, ra.k(), TypePath::Fast),
        budget,
    )
    .map(|(out, _)| out)
}

/// [`complete_for_atoms_governed`] pinned to the memoized `SigmaType`
/// reference path. The fast kernel path is differentially tested against
/// this; both produce identical automata.
pub fn complete_for_atoms_reference_governed(
    ra: &RegisterAutomaton,
    atoms: &[rega_data::Literal],
    cache: &SatCache,
    budget: &Budget,
) -> Result<RegisterAutomaton, CoreError> {
    complete_for_atoms_impl(
        ra,
        atoms,
        &TypeOps::new(cache, ra.k(), TypePath::Reference),
        budget,
    )
    .map(|(out, _)| out)
}

/// The atom completion, with the interned type of every transition it
/// added (see [`complete_impl`]).
fn complete_for_atoms_impl(
    ra: &RegisterAutomaton,
    atoms: &[rega_data::Literal],
    ops: &TypeOps,
    budget: &Budget,
) -> Result<(RegisterAutomaton, Vec<TypeId>), CoreError> {
    let cache = ops.cache();
    let mut out = RegisterAutomaton::with_states_of(ra, ra.k(), ra.schema().clone());
    let mut tids = Vec::new();
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        for id in ops.refine_by_atoms(&tr.ty, atoms, budget)? {
            out.add_transition_interned_id(tr.from, id, tr.to, cache)?;
            tids.push(id);
        }
    }
    Ok((out, tids))
}

/// [`complete_for_atoms`] for extended automata (constraints carry over).
pub fn complete_extended_for_atoms(
    ext: &ExtendedAutomaton,
    atoms: &[rega_data::Literal],
) -> Result<ExtendedAutomaton, CoreError> {
    let cache = SatCache::new(ext.ra().schema().clone());
    complete_extended_for_atoms_governed(ext, atoms, &cache, &Budget::unlimited())
}

/// [`complete_extended_for_atoms`] with a shared [`SatCache`], under a
/// [`Budget`].
pub fn complete_extended_for_atoms_governed(
    ext: &ExtendedAutomaton,
    atoms: &[rega_data::Literal],
    cache: &SatCache,
    budget: &Budget,
) -> Result<ExtendedAutomaton, CoreError> {
    let completed = complete_for_atoms_governed(ext.ra(), atoms, cache, budget)?;
    let mut out = ExtendedAutomaton::new(completed);
    for c in ext.constraints() {
        out.add_lifted_constraint(c, |s| s)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::run::{Config, LassoRun};
    use rega_data::{Database, Literal, Schema, SigmaType, Term, Value};

    #[test]
    fn completion_of_example1() {
        let (a, _) = paper::example1();
        let c = complete(&a).unwrap();
        assert!(c.is_complete().unwrap());
        // Example 2: each of δ1, δ2, δ3 has exactly 2 completions... δ2 has
        // more (x2=y2 leaves x1, y1 free). Just check growth and validity.
        assert!(c.num_transitions() > a.num_transitions());
        assert_eq!(c.num_states(), a.num_states());
    }

    #[test]
    fn completion_of_delta1_has_two_variants() {
        // δ1 alone: x1=x2 ∧ x2=y2 completes into exactly 2 types (settle y1).
        let (a, _) = paper::example1();
        let q1 = a.state_by_name("q1").unwrap();
        let c = complete(&a).unwrap();
        assert_eq!(c.outgoing(q1).len(), 2);
    }

    #[test]
    fn state_driven_of_example1_matches_example3() {
        // Example 3: A' has three states q1(δ1), q2(δ2), q2(δ3) and five
        // transitions.
        let (a, _) = paper::example1();
        let sd = state_driven(&a);
        assert!(sd.automaton.is_state_driven());
        assert_eq!(sd.automaton.num_states(), 3);
        assert_eq!(sd.automaton.num_transitions(), 5);
    }

    #[test]
    fn state_driven_preserves_a_run() {
        let (a, _) = paper::example1();
        let sd = state_driven(&a);
        let a2 = &sd.automaton;
        let db = Database::new(Schema::empty());
        // Find the run (q1,δ1)(q2,δ2)(q2,δ3) looping, with register values.
        // State names: q1_0, q2_0 (δ2), q2_1 (δ3).
        let q1d1 = a2.state_by_name("q1_0").unwrap();
        // Identify which q2 pair has δ2 (self-loop capable) vs δ3.
        let q2a = a2.state_by_name("q2_0").unwrap();
        let q2b = a2.state_by_name("q2_1").unwrap();
        let ty_a = a2.state_type(q2a).unwrap().clone();
        let (q2_d2, q2_d3) = if ty_a.contains(&Literal::eq(Term::y(0), Term::y(1))) {
            (q2b, q2a)
        } else {
            (q2a, q2b)
        };
        let find = |from: StateId, to: StateId| {
            a2.outgoing(from)
                .iter()
                .copied()
                .find(|&t| a2.transition(t).to == to)
                .unwrap()
        };
        let run = LassoRun::new(
            vec![
                Config::new(q1d1, vec![Value(1), Value(1)]),
                Config::new(q2_d2, vec![Value(2), Value(1)]),
                Config::new(q2_d3, vec![Value(3), Value(1)]),
            ],
            vec![find(q1d1, q2_d2), find(q2_d2, q2_d3), find(q2_d3, q1d1)],
            0,
        );
        assert!(run.validate(a2, &db).is_ok());
    }

    #[test]
    fn constraints_lift_through_the_state_driven_map() {
        let ext = paper::example5();
        let sd = state_driven(ext.ra());
        let mut lifted = ExtendedAutomaton::new(sd.automaton);
        for c in ext.constraints() {
            lifted
                .add_lifted_constraint(c, |s| sd.state_map[s.idx()])
                .unwrap();
        }
        assert!(lifted.ra().is_state_driven());
        assert_eq!(lifted.constraints().len(), 1);
        // The lifted constraint DFA still matches p1 p2* p1 factors over
        // the refined states.
        let p1 = lifted.ra().state_by_name("p1_0").unwrap();
        let p2a = lifted.ra().state_by_name("p2_0").unwrap();
        let dfa = lifted.constraints()[0].dfa();
        assert!(dfa.accepts(&[p1, p2a, p2a, p1]));
        assert!(!dfa.accepts(&[p2a, p1]));
    }

    #[test]
    fn state_driven_drops_dead_states() {
        let mut a = RegisterAutomaton::new(0, Schema::empty());
        let p = a.add_state("p");
        let dead = a.add_state("dead");
        a.set_initial(p);
        a.set_accepting(p);
        a.add_transition(p, SigmaType::empty(0), p).unwrap();
        let _ = dead; // no outgoing transitions
        let sd = state_driven(&a);
        assert_eq!(sd.automaton.num_states(), 1);
    }
}

/// Permutes the registers of an automaton: register `i` of the result is
/// register `perm[i]` of the input. Used to move the registers a view
/// should keep into the leading positions before projecting (the projection
/// constructions keep the first `m` registers).
pub fn permute_registers(ra: &RegisterAutomaton, perm: &[u16]) -> RegisterAutomaton {
    assert_eq!(perm.len(), ra.k() as usize, "permutation arity mismatch");
    let mut inverse = vec![0u16; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inverse[old as usize] = new as u16;
    }
    let mut out = RegisterAutomaton::with_states_of(ra, ra.k(), ra.schema().clone());
    for t in ra.transition_ids() {
        let tr = ra.transition(t);
        let ty = tr
            .ty
            .map_terms(|tm| tm.map_register(|r| rega_data::RegIdx(inverse[r.idx()])));
        out.add_transition(tr.from, ty, tr.to)
            .expect("permutation preserves validity");
    }
    out
}

#[cfg(test)]
mod permute_tests {
    use super::*;
    use crate::paper;
    use rega_data::{Literal, Term};

    #[test]
    fn permutation_swaps_literals() {
        let (ra, _) = paper::example1();
        let swapped = permute_registers(&ra, &[1, 0]);
        // δ1 was x1=x2 ∧ x2=y2; after the swap it is x2=x1 ∧ x1=y1.
        let t0 = &swapped.transition(crate::TransId(0)).ty;
        assert!(t0.contains(&Literal::eq(Term::x(0), Term::x(1))));
        assert!(t0.contains(&Literal::eq(Term::x(0), Term::y(0))));
    }

    #[test]
    fn double_permutation_is_identity() {
        let (ra, _) = paper::example1();
        let twice = permute_registers(&permute_registers(&ra, &[1, 0]), &[1, 0]);
        for t in ra.transition_ids() {
            assert_eq!(ra.transition(t).ty, twice.transition(t).ty);
        }
    }
}
