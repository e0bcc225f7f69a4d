//! The register automaton model (Section 2).
//!
//! A register automaton is a tuple `A = (k, σ, Q, I, F, Δ)`: `k` registers,
//! a relational signature `σ`, states `Q` with initial states `I` and Büchi
//! (final) states `F`, and transitions `Δ` — triples `(p, δ, q)` whose
//! σ-type `δ` constrains the registers before (`x̄`) and after (`ȳ`) the
//! transition fires, possibly querying the database.

use crate::error::CoreError;
use rega_data::{Schema, SigmaType, TypeId};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a state of a [`RegisterAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a transition of a [`RegisterAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransId(pub u32);

impl TransId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A transition `(p, δ, q)`.
#[derive(Clone, Debug)]
pub struct Transition {
    /// Source state `p`.
    pub from: StateId,
    /// The σ-type `δ` over `x̄ ∪ ȳ` (and constants).
    pub ty: SigmaType,
    /// Target state `q`.
    pub to: StateId,
}

/// A register automaton `(k, σ, Q, I, F, Δ)` with Büchi acceptance.
#[derive(Clone, Debug)]
pub struct RegisterAutomaton {
    k: u16,
    schema: Schema,
    state_names: Vec<String>,
    initial: BTreeSet<StateId>,
    accepting: BTreeSet<StateId>,
    transitions: Vec<Transition>,
    /// Outgoing transitions per state.
    out: Vec<Vec<TransId>>,
}

impl RegisterAutomaton {
    /// Creates an automaton with `k` registers over `schema`, initially with
    /// no states.
    pub fn new(k: u16, schema: Schema) -> Self {
        RegisterAutomaton {
            k,
            schema,
            state_names: Vec::new(),
            initial: BTreeSet::new(),
            accepting: BTreeSet::new(),
            transitions: Vec::new(),
            out: Vec::new(),
        }
    }

    /// An automaton with `k` registers over `schema` and the states of
    /// `other` (same ids, names, initial and accepting marks), with no
    /// transitions: the start of every construction that keeps the states
    /// and rewrites the transitions.
    pub fn with_states_of(other: &RegisterAutomaton, k: u16, schema: Schema) -> Self {
        RegisterAutomaton {
            k,
            schema,
            state_names: other.state_names.clone(),
            initial: other.initial.clone(),
            accepting: other.accepting.clone(),
            transitions: Vec::new(),
            out: vec![Vec::new(); other.num_states()],
        }
    }

    /// Number of registers `k`.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// The database schema `σ`.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether the automaton has no database (empty schema).
    pub fn has_no_database(&self) -> bool {
        self.schema.is_empty()
    }

    /// Adds a state with a display name, returning its id.
    pub fn add_state(&mut self, name: &str) -> StateId {
        self.state_names.push(name.to_string());
        self.out.push(Vec::new());
        StateId(self.state_names.len() as u32 - 1)
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// All states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.state_names.len() as u32).map(StateId)
    }

    /// The display name of a state.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.idx()]
    }

    /// Looks up a state by name (first match).
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId(i as u32))
    }

    /// Marks a state initial.
    pub fn set_initial(&mut self, s: StateId) {
        self.initial.insert(s);
    }

    /// Marks a state accepting (member of the Büchi set `F`).
    pub fn set_accepting(&mut self, s: StateId) {
        self.accepting.insert(s);
    }

    /// The initial states `I`.
    pub fn initial_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.initial.iter().copied()
    }

    /// The accepting states `F`.
    pub fn accepting_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.accepting.iter().copied()
    }

    /// Whether `s` is initial.
    pub fn is_initial(&self, s: StateId) -> bool {
        self.initial.contains(&s)
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting.contains(&s)
    }

    /// Adds a transition `(from, δ, to)`. The type is validated (register
    /// ranges, arities, satisfiability).
    pub fn add_transition(
        &mut self,
        from: StateId,
        ty: SigmaType,
        to: StateId,
    ) -> Result<TransId, CoreError> {
        self.check_transition(from, &ty, to)?;
        ty.validate(&self.schema)?;
        ty.analyze(&self.schema)?; // must be satisfiable
        Ok(self.push_transition(from, ty, to))
    }

    /// Adds a transition like [`RegisterAutomaton::add_transition`] for a
    /// type a shared [`SatCache`](rega_data::SatCache) (tied to this
    /// automaton's schema) has interned as `ty`. The satisfiability check
    /// runs through the cache, so constructions that duplicate the same
    /// type across many transitions — completion, the state-driven normal
    /// form, the projection skeletons — analyze each distinct type once
    /// (`analyze` re-validates term ranges and arities internally, so the
    /// cached result covers both checks of the direct path). The type is
    /// not hashed again, and the transition shares its literals with the
    /// interned type instead of copying them.
    pub fn add_transition_interned_id(
        &mut self,
        from: StateId,
        ty: TypeId,
        to: StateId,
        cache: &rega_data::SatCache,
    ) -> Result<TransId, CoreError> {
        let sigma = SigmaType::clone(&cache.resolve(ty));
        self.check_transition(from, &sigma, to)?;
        cache.analyze_id(ty)?; // must be satisfiable
        Ok(self.push_transition(from, sigma, to))
    }

    /// Adds a transition whose type the caller has already validated
    /// against this automaton's schema (a construction wiring one validated
    /// type to many successors checks it once, not per pair).
    pub(crate) fn add_validated_transition(
        &mut self,
        from: StateId,
        ty: SigmaType,
        to: StateId,
    ) -> Result<TransId, CoreError> {
        self.check_transition(from, &ty, to)?;
        Ok(self.push_transition(from, ty, to))
    }

    /// The checks every transition passes before its type is analyzed:
    /// both ends exist and the type speaks about `k` registers.
    fn check_transition(
        &self,
        from: StateId,
        ty: &SigmaType,
        to: StateId,
    ) -> Result<(), CoreError> {
        if from.idx() >= self.num_states() {
            return Err(CoreError::UnknownState(from.0));
        }
        if to.idx() >= self.num_states() {
            return Err(CoreError::UnknownState(to.0));
        }
        if ty.k() != self.k {
            return Err(CoreError::RegisterCountMismatch {
                expected: self.k,
                got: ty.k(),
            });
        }
        Ok(())
    }

    fn push_transition(&mut self, from: StateId, ty: SigmaType, to: StateId) -> TransId {
        let id = TransId(self.transitions.len() as u32);
        self.out[from.idx()].push(id);
        self.transitions.push(Transition { from, ty, to });
        id
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// All transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransId> {
        (0..self.transitions.len() as u32).map(TransId)
    }

    /// The transition with the given id.
    pub fn transition(&self, t: TransId) -> &Transition {
        &self.transitions[t.idx()]
    }

    /// Outgoing transitions of a state.
    pub fn outgoing(&self, s: StateId) -> &[TransId] {
        &self.out[s.idx()]
    }

    /// Whether the automaton is *state-driven*: each state has at most one
    /// outgoing type (possibly used by several transitions).
    pub fn is_state_driven(&self) -> bool {
        self.out.iter().all(|ts| {
            let mut ty: Option<&SigmaType> = None;
            ts.iter().all(|t| {
                let this = &self.transitions[t.idx()].ty;
                match ty {
                    None => {
                        ty = Some(this);
                        true
                    }
                    Some(prev) => prev == this,
                }
            })
        })
    }

    /// The unique outgoing type of a state of a state-driven automaton.
    pub fn state_type(&self, s: StateId) -> Option<&SigmaType> {
        self.out[s.idx()]
            .first()
            .map(|t| &self.transitions[t.idx()].ty)
    }

    /// Whether every transition type is complete.
    pub fn is_complete(&self) -> Result<bool, CoreError> {
        for t in &self.transitions {
            if !t.ty.is_complete(&self.schema)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Total size measure: states + transitions + literals (used by the
    /// blow-up experiments of E2).
    pub fn size(&self) -> usize {
        self.num_states()
            + self.num_transitions()
            + self.transitions.iter().map(|t| t.ty.len()).sum::<usize>()
    }
}

impl fmt::Display for RegisterAutomaton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "register automaton: k={}, {} states, {} transitions",
            self.k,
            self.num_states(),
            self.num_transitions()
        )?;
        for s in self.states() {
            let mut flags = String::new();
            if self.is_initial(s) {
                flags.push_str(" [init]");
            }
            if self.is_accepting(s) {
                flags.push_str(" [acc]");
            }
            writeln!(f, "  state {}{}", self.state_name(s), flags)?;
            for &t in self.outgoing(s) {
                let tr = self.transition(t);
                writeln!(f, "    --[{}]--> {}", tr.ty, self.state_name(tr.to))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_data::{Literal, Term};

    fn two_state() -> RegisterAutomaton {
        let mut a = RegisterAutomaton::new(1, Schema::empty());
        let p = a.add_state("p");
        let q = a.add_state("q");
        a.set_initial(p);
        a.set_accepting(p);
        a.add_transition(p, SigmaType::empty(1), q).unwrap();
        a.add_transition(q, SigmaType::empty(1), p).unwrap();
        a
    }

    #[test]
    fn build_and_query() {
        let a = two_state();
        assert_eq!(a.num_states(), 2);
        assert_eq!(a.num_transitions(), 2);
        let p = a.state_by_name("p").unwrap();
        assert!(a.is_initial(p));
        assert!(a.is_accepting(p));
        assert_eq!(a.outgoing(p).len(), 1);
    }

    #[test]
    fn rejects_unsatisfiable_type() {
        let mut a = RegisterAutomaton::new(1, Schema::empty());
        let p = a.add_state("p");
        let bad = SigmaType::new(
            1,
            [
                Literal::eq(Term::x(0), Term::y(0)),
                Literal::neq(Term::x(0), Term::y(0)),
            ],
        );
        assert!(a.add_transition(p, bad, p).is_err());
    }

    #[test]
    fn rejects_wrong_register_count() {
        let mut a = RegisterAutomaton::new(1, Schema::empty());
        let p = a.add_state("p");
        assert!(matches!(
            a.add_transition(p, SigmaType::empty(2), p),
            Err(CoreError::RegisterCountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_unknown_state() {
        let mut a = RegisterAutomaton::new(1, Schema::empty());
        let p = a.add_state("p");
        assert!(a
            .add_transition(p, SigmaType::empty(1), StateId(7))
            .is_err());
    }

    #[test]
    fn state_driven_detection() {
        let a = two_state();
        assert!(a.is_state_driven());
        let mut b = two_state();
        let p = b.state_by_name("p").unwrap();
        let t = SigmaType::new(1, [Literal::eq(Term::x(0), Term::y(0))]);
        b.add_transition(p, t, p).unwrap();
        assert!(!b.is_state_driven());
    }

    #[test]
    fn completeness_detection() {
        let a = two_state();
        assert!(!a.is_complete().unwrap()); // empty type is not complete
        let mut b = RegisterAutomaton::new(1, Schema::empty());
        let p = b.add_state("p");
        b.set_initial(p);
        b.set_accepting(p);
        let t = SigmaType::new(1, [Literal::eq(Term::x(0), Term::y(0))]);
        b.add_transition(p, t, p).unwrap();
        assert!(b.is_complete().unwrap());
    }

    #[test]
    fn display_contains_names() {
        let a = two_state();
        let s = a.to_string();
        assert!(s.contains("state p"));
        assert!(s.contains("[init]"));
    }
}
