//! Theorem 13: closure of extended register automata under projection
//! (no database).
//!
//! Pipeline, following the paper's proof structure:
//!
//! 1. **Proposition 6** eliminates the global equality constraints, adding
//!    registers. All equalities are now *local*, so the derived equivalence
//!    `∼_w` is forward-trackable (each class spans a contiguous interval of
//!    positions) and the Lemma 21 subset automata characterize it.
//! 2. The automaton is completed and made state-driven (the paper's
//!    standing assumptions; completeness confines every derived inequality
//!    witness to a common live position inside the factor).
//! 3. Visible-register types are restricted; the Lemma 21 automata
//!    `e=ᵢⱼ` / `e≠ᵢⱼ` over the kept registers become the constraints of the
//!    view; the remaining global inequality constraints are lifted.
//!
//! ## Supported fragment
//!
//! Global *inequality* constraints whose registers are projected away are
//! not supported: the derived inequalities they induce between visible
//! positions can require witnesses outside the factor, which only the
//! paper's full Lemma 14 refinement (annotating states with global flow
//! information) can internalize. The construction returns
//! [`CoreError::UnsupportedProjection`] in that case. Equality constraints
//! are unrestricted (Proposition 6 removes them first), which in particular
//! covers every projection of a plain register automaton — the case the
//! paper's Theorem 19 revolves around.

use crate::lemma21;
use crate::prop6::eliminate_global_equalities;
use rega_core::extended::ConstraintKind;
use rega_core::transform::{complete_governed, complete_reference_governed, state_driven_governed};
use rega_core::typeops::{TypeOps, TypePath};
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::{RegIdx, SatCache, TypeId};

/// The result of projecting an extended automaton.
#[derive(Clone, Debug)]
pub struct ExtendedProjection {
    /// The view: an extended automaton with `m` registers.
    pub view: ExtendedAutomaton,
    /// Registers of the intermediate (equality-eliminated) automaton; the
    /// hidden ones comprise `m..intermediate_k`.
    pub intermediate_k: u16,
}

/// Projects an extended automaton without a database onto its first `m`
/// registers (Theorem 13; see the module docs for the supported fragment).
pub fn project_extended(ext: &ExtendedAutomaton, m: u16) -> Result<ExtendedProjection, CoreError> {
    let cache = SatCache::new(ext.ra().schema().clone());
    project_extended_governed(ext, m, &cache, &Budget::unlimited())
}

/// [`project_extended`] sharing a caller-supplied σ-type cache — the
/// completion, state-driven wiring, joint-satisfiability pruning and
/// register restriction below all hit the same memo tables — under a
/// [`Budget`]: the (exponential) completion after Proposition 6, the
/// state-driven wiring, the per-transition restriction loop and the `m²`
/// Lemma 21 builds all check the deadline/ceilings at loop granularity.
pub fn project_extended_governed(
    ext: &ExtendedAutomaton,
    m: u16,
    cache: &SatCache,
    budget: &Budget,
) -> Result<ExtendedProjection, CoreError> {
    project_impl(ext, m, cache, budget, TypePath::Fast)
}

/// [`project_extended_governed`] pinned to the memoized `SigmaType`
/// reference path throughout (completion, joint-satisfiability pruning,
/// restriction). The fast kernel path is differentially tested against
/// this; both produce identical projections.
pub fn project_extended_reference_governed(
    ext: &ExtendedAutomaton,
    m: u16,
    cache: &SatCache,
    budget: &Budget,
) -> Result<ExtendedProjection, CoreError> {
    project_impl(ext, m, cache, budget, TypePath::Reference)
}

fn project_impl(
    ext: &ExtendedAutomaton,
    m: u16,
    cache: &SatCache,
    budget: &Budget,
    path: TypePath,
) -> Result<ExtendedProjection, CoreError> {
    if !ext.ra().has_no_database() {
        return Err(CoreError::SchemaNotEmpty);
    }
    if m > ext.k() {
        return Err(CoreError::UnsupportedProjection(format!(
            "cannot keep {m} registers: the automaton has only {}",
            ext.k()
        )));
    }
    let _span = rega_obs::span!("views.thm13", keep = m, states = ext.ra().num_states());

    // 1. Remove global equalities.
    let eliminated = eliminate_global_equalities(ext)?;
    let inter = &eliminated.automaton;
    let intermediate_k = inter.k();

    // Check the supported fragment: remaining (inequality) constraints must
    // involve only visible registers.
    for c in inter.constraints() {
        if c.i.0 >= m || c.j.0 >= m {
            return Err(CoreError::UnsupportedProjection(format!(
                "global inequality constraint on hidden register {} or {} \
                 (visible registers are 1..={m})",
                c.i.0 + 1,
                c.j.0 + 1,
            )));
        }
    }

    // 2. Normalize. (Completion is exponential in the register count; the
    // k added by Proposition 6 is the price of generality here.)
    let completed = match path {
        TypePath::Fast => complete_governed(inter.ra(), cache, budget)?,
        TypePath::Reference => complete_reference_governed(inter.ra(), cache, budget)?,
    };
    let sd = state_driven_governed(&completed, cache, budget)?;
    let normalized = sd.automaton;
    let norm_map: Vec<StateId> = sd.state_map; // normalized -> intermediate states
    let ops = TypeOps::new(cache, intermediate_k, path);
    // One interned handle per transition / per successor state type, so the
    // joint-satisfiability pruning below dedupes repeated (δ, δ′) pairs.
    let tids: Vec<TypeId> = normalized
        .transition_ids()
        .map(|t| ops.intern(&normalized.transition(t).ty))
        .collect();
    let state_tid: Vec<Option<TypeId>> = normalized
        .states()
        .map(|s| normalized.state_type(s).map(|ty| ops.intern(ty)))
        .collect();

    // 3. Assemble the view.
    let mut view = RegisterAutomaton::new(m, ext.ra().schema().clone());
    for s in normalized.states() {
        let s2 = view.add_state(normalized.state_name(s));
        debug_assert_eq!(s, s2);
        if normalized.is_initial(s) {
            view.set_initial(s);
        }
        if normalized.is_accepting(s) {
            view.set_accepting(s);
        }
    }
    for t in normalized.transition_ids() {
        budget.tick("views.thm13.restrict")?;
        let tr = normalized.transition(t);
        // Drop successions whose types conflict on *hidden* registers: the
        // restriction would hide the conflict and admit traces the original
        // automaton cannot produce. (The state-driven construction wires
        // every (q, δ) to every (q', δ'); only jointly satisfiable pairs
        // occur in real runs.)
        if let Some(next_tid) = state_tid[tr.to.idx()] {
            if !ops.jointly_satisfiable_ids(tids[t.idx()], next_tid) {
                continue;
            }
        }
        let restricted = ops.resolve(ops.restrict_registers_id(tids[t.idx()], m)?);
        let dup = view
            .outgoing(tr.from)
            .iter()
            .any(|&u| view.transition(u).to == tr.to && view.transition(u).ty == *restricted);
        if !dup {
            view.add_transition(tr.from, (*restricted).clone(), tr.to)?;
        }
    }
    let mut view = ExtendedAutomaton::new(view);
    for i in 0..m {
        for j in 0..m {
            budget.tick("views.thm13.lemma21")?;
            let eq = lemma21::eq_dfa(&normalized, RegIdx(i), RegIdx(j))?;
            view.add_constraint_dfa(ConstraintKind::Equal, RegIdx(i), RegIdx(j), eq)?;
            let neq = lemma21::neq_dfa(&normalized, RegIdx(i), RegIdx(j))?;
            view.add_constraint_dfa(ConstraintKind::NotEqual, RegIdx(i), RegIdx(j), neq)?;
        }
    }
    // Lift the surviving inequality constraints from the intermediate
    // automaton through the normalization map.
    for c in inter.constraints() {
        view.add_lifted_constraint(c, |s| norm_map[s.idx()])?;
    }
    rega_obs::event!(
        "views.thm13_built",
        view_states = view.ra().num_states(),
        view_transitions = view.ra().num_transitions(),
        intermediate_k = intermediate_k,
        types_interned = cache.stats().distinct_types
    );
    Ok(ExtendedProjection {
        view,
        intermediate_k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;
    use rega_core::simulate::{self, SearchLimits};
    use rega_data::{Database, Schema, Value};

    fn limits() -> SearchLimits {
        SearchLimits {
            max_nodes: 4_000_000,
            max_runs: 1_000_000,
        }
    }

    fn assert_faithful(ext: &ExtendedAutomaton, m: u16, len: usize, pool: &[Value]) {
        let db = Database::new(Schema::empty());
        let proj = project_extended(ext, m).unwrap();
        let want = simulate::projected_settled_traces(ext, &db, len, m as usize, pool, limits());
        let got =
            simulate::projected_settled_traces(&proj.view, &db, len, m as usize, pool, limits());
        assert_eq!(want, got, "length {len}");
    }

    #[test]
    fn example5_projects_to_itself_semantically() {
        // Projecting Example 5 (1 register, one equality constraint) onto
        // its single register: the view must have the same traces.
        let ext = paper::example5();
        for len in 1..=4 {
            assert_faithful(&ext, 1, len, &[Value(1), Value(2)]);
        }
    }

    #[test]
    fn hidden_inequality_constraint_rejected() {
        // Example 7's constraint is on register 1; projecting it away (m=0)
        // is outside the supported fragment.
        let ext = paper::example7();
        assert!(matches!(
            project_extended(&ext, 0),
            Err(CoreError::UnsupportedProjection(_))
        ));
    }

    #[test]
    fn visible_inequality_constraint_lifted() {
        // Example 7 projected onto its (only) register: the all-distinct
        // constraint survives the round trip.
        let ext = paper::example7();
        let proj = project_extended(&ext, 1).unwrap();
        let db = Database::new(Schema::empty());
        let pool = vec![Value(1), Value(2), Value(3)];
        let runs = simulate::enumerate_prefixes(&proj.view, &db, 3, &pool, limits());
        assert!(!runs.is_empty());
        for run in &runs {
            let mut vals: Vec<Value> = run.configs.iter().map(|c| c.regs[0]).collect();
            vals.sort();
            vals.dedup();
            assert_eq!(vals.len(), run.configs.len(), "values pairwise distinct");
        }
    }

    #[test]
    fn equality_through_hidden_register() {
        // Hide register 2 of Example 1 but with an *extended* input: add a
        // (redundant) equality constraint and check the pipeline end to end.
        let (ra, _) = paper::example1();
        let mut ext = ExtendedAutomaton::new(ra);
        // Redundant constraint: single-position factors with i = j = 2 are
        // trivially equal; exercises Prop 6 plumbing without changing the
        // semantics.
        ext.add_constraint_str(ConstraintKind::Equal, RegIdx(1), RegIdx(1), "q1 | q2")
            .unwrap();
        for len in 1..=3 {
            assert_faithful(&ext, 1, len, &[Value(1), Value(2)]);
        }
    }

    #[test]
    fn database_input_rejected() {
        let ext = paper::example8();
        assert!(matches!(
            project_extended(&ext, 1),
            Err(CoreError::SchemaNotEmpty)
        ));
    }
}
