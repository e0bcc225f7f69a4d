//! The view skeleton shared by Proposition 20, Theorem 13 and Theorem 24.
//!
//! Each projection normalizes its input to a complete (or equality-
//! complete), state-driven automaton and keeps its states, restricting
//! every transition type to the visible registers. In that form a state
//! `q` determines its one outgoing type `δ_q`, so everything the assembly
//! asks of a transition is a question about its two states:
//!
//! * the restriction `δ_q|m` is computed once per distinct state type;
//! * the joint-satisfiability pruning of a succession `q → q′` depends on
//!   `(δ_q, δ_q′)` only, and `TypeOps` answers each ordered pair once;
//! * duplicates — two transitions `p → q` of the input whose completions
//!   overlap put the same normalized transition in twice — are dropped by
//!   a `(from, to, restricted type)` set.
//!
//! Everything is keyed by the [`TypeId`]s the normalization returns, so no
//! σ-type is hashed here, and each transition is added by id, analyzed once
//! per distinct restricted type through the cache. The view keeps the
//! normalized automaton's states and transition order;
//! `tests/view_assembly_differential.rs` pins it against a per-transition
//! oracle.

use rega_core::transform::StateDriven;
use rega_core::typeops::TypeOps;
use rega_core::{Budget, CoreError, RegisterAutomaton, StateId};
use rega_data::fxhash::{FxMap, FxSeed};
use rega_data::{DataError, Schema, TypeId};
use std::collections::HashSet;

/// The view automaton of `normalized` over the first `m` registers and the
/// view's `schema`, each state type restricted by `restrict` (`δ|m` for
/// Prop 20 and Thm 13, the equality restriction for Thm 24). Every
/// restricted type is validated against `schema` once per state type
/// (Thm 24's view has the empty schema, while the cache analyzes against
/// the input's), then added through the cache. The loop ticks `budget`
/// under `phase` once per normalized transition.
pub(crate) fn assemble_view(
    normalized: &StateDriven,
    m: u16,
    schema: Schema,
    restrict: impl Fn(TypeId) -> Result<TypeId, DataError>,
    ops: &TypeOps,
    budget: &Budget,
    phase: &'static str,
) -> Result<RegisterAutomaton, CoreError> {
    let norm = &normalized.automaton;
    let _span = rega_obs::span!(
        "views.assemble",
        keep = m,
        states = norm.num_states(),
        candidates = norm.num_transitions()
    );
    let mut view = RegisterAutomaton::with_states_of(norm, m, schema);

    // The restricted id of each distinct state type, computed when a
    // state of that type first keeps a transition.
    let mut restricted: FxMap<TypeId, TypeId> = FxMap::default();
    let mut added: HashSet<(StateId, StateId, TypeId), FxSeed> = HashSet::default();
    for t in norm.transition_ids() {
        budget.tick(phase)?;
        let tr = norm.transition(t);
        let src =
            normalized.state_types[tr.from.idx()].expect("a transition's source has a state type");
        // Drop successions whose types conflict on *hidden* registers: the
        // restriction would hide the conflict and admit traces the original
        // automaton cannot produce. (The state-driven construction wires
        // every (q, δ) to every (q′, δ′); only jointly satisfiable pairs
        // occur in real runs.)
        if let Some(dst) = normalized.state_types[tr.to.idx()] {
            if !ops.jointly_satisfiable_ids(src, dst) {
                continue;
            }
        }
        let rid = match restricted.get(&src) {
            Some(&rid) => rid,
            None => {
                let rid = restrict(src)?;
                ops.resolve(rid).validate(view.schema())?;
                restricted.insert(src, rid);
                rid
            }
        };
        if added.insert((tr.from, tr.to, rid)) {
            view.add_transition_interned_id(tr.from, rid, tr.to, ops.cache())?;
        }
    }
    rega_obs::event!("views.assembled", transitions = view.num_transitions());
    Ok(view)
}
