//! The value-flow automata of Lemma 21.
//!
//! For a *complete, state-driven* register automaton `A` (so a state `q`
//! determines its outgoing type `δ_q`), Lemma 21 gives regular languages
//! over the state alphabet characterizing the derived (in)equalities of a
//! run by factors of the state trace:
//!
//! * `e=ᵢⱼ`: the factor `q_a … q_b` is accepted iff `(a,i) ∼ (b,j)` — the
//!   value of register `i` at the factor's start provably flows to register
//!   `j` at its end. The automaton tracks the *set* of registers currently
//!   holding the tracked value (a subset construction).
//! * `e≠ᵢⱼ`: accepted iff `(a,i) ≠ (b,j)` — some position `c` of the factor
//!   carries an inequality literal connecting the class of `(a,i)` to a
//!   class that flows on to `(b,j)`. (Completeness of the types makes every
//!   semantically-forced inequality locally visible at a common live
//!   position, which is what confines the witness to the factor.)
//!
//! The output DFAs plug directly into
//! [`ExtendedAutomaton::add_constraint_dfa`](rega_core::ExtendedAutomaton::add_constraint_dfa).

use rega_automata::{Dfa, Nfa};
use rega_core::{CoreError, RegisterAutomaton, StateId};
use rega_data::{types::TypeAnalysis, RegIdx, Term};
use std::collections::{BTreeSet, HashMap};

/// Precomputed per-state type analyses for a state-driven automaton.
pub struct FlowContext<'a> {
    ra: &'a RegisterAutomaton,
    /// `analysis[q]` — the analysis of state `q`'s unique outgoing type.
    analysis: Vec<Option<TypeAnalysis>>,
}

impl<'a> FlowContext<'a> {
    /// Builds the context; the automaton must be state-driven (each state
    /// one outgoing type). Completeness is the caller's responsibility (the
    /// `e≠` characterization needs it; `e=` is correct regardless).
    pub fn new(ra: &'a RegisterAutomaton) -> Result<Self, CoreError> {
        if !ra.is_state_driven() {
            return Err(CoreError::NotStateDriven);
        }
        let mut analysis = Vec::with_capacity(ra.num_states());
        for q in ra.states() {
            analysis.push(match ra.state_type(q) {
                Some(ty) => Some(ty.analyze(ra.schema())?),
                None => None,
            });
        }
        Ok(FlowContext { ra, analysis })
    }

    fn a(&self, q: StateId) -> Option<&TypeAnalysis> {
        self.analysis[q.idx()].as_ref()
    }

    /// Closure of register set `base` under the x-side equalities of `q`'s
    /// type: all registers `l` with `x_l = x_m` forced for some `m ∈ base`.
    pub(crate) fn close_x(&self, q: StateId, base: &BTreeSet<u16>) -> BTreeSet<u16> {
        let Some(a) = self.a(q) else {
            return base.clone();
        };
        let k = self.ra.k();
        (0..k)
            .filter(|&l| base.iter().any(|&m| a.forced_eq(Term::x(l), Term::x(m))))
            .collect()
    }

    /// Pushes a register set across `q`'s transition: registers `m` with
    /// `x_s = y_m` forced for some `s` in the set.
    pub(crate) fn push_y(&self, q: StateId, set: &BTreeSet<u16>) -> BTreeSet<u16> {
        let Some(a) = self.a(q) else {
            return BTreeSet::new();
        };
        let k = self.ra.k();
        (0..k)
            .filter(|&m| set.iter().any(|&s| a.forced_eq(Term::x(s), Term::y(m))))
            .collect()
    }

    /// The initial tracked set when the factor starts at a `q`-position:
    /// registers x-equal to register `i`.
    pub(crate) fn start_set(&self, q: StateId, i: RegIdx) -> BTreeSet<u16> {
        self.close_x(q, &BTreeSet::from([i.0]))
    }

    /// One flow step: the set at the next position, given the set at a
    /// `q`-position and the next position's state `q'`.
    pub(crate) fn flow(&self, q: StateId, set: &BTreeSet<u16>, q2: StateId) -> BTreeSet<u16> {
        self.close_x(q2, &self.push_y(q, set))
    }
}

/// Builds the `e=ᵢⱼ` DFA of Lemma 21 over the automaton's state alphabet.
pub fn eq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
    let ctx = FlowContext::new(ra)?;
    let alphabet: Vec<StateId> = ra.states().collect();
    // Deterministic lazy construction. States: Start, Dead, Track(q, S).
    #[derive(Clone, PartialEq, Eq, Hash)]
    enum St {
        Start,
        Dead,
        Track(StateId, BTreeSet<u16>),
    }
    let mut index: HashMap<St, usize> = HashMap::new();
    let mut states: Vec<St> = Vec::new();
    fn intern<St: Clone + Eq + std::hash::Hash>(
        s: St,
        index: &mut HashMap<St, usize>,
        states: &mut Vec<St>,
    ) -> usize {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = states.len();
        index.insert(s.clone(), id);
        states.push(s);
        id
    }
    let start = intern(St::Start, &mut index, &mut states);
    debug_assert_eq!(start, 0);
    let mut trans: Vec<Vec<usize>> = Vec::new();
    let mut done = 0usize;
    while done < states.len() {
        let st = states[done].clone();
        done += 1;
        let mut row = Vec::with_capacity(alphabet.len());
        for &q in &alphabet {
            let next = match &st {
                St::Start => {
                    let s0 = ctx.start_set(q, i);
                    if s0.is_empty() {
                        St::Dead
                    } else {
                        St::Track(q, s0)
                    }
                }
                St::Dead => St::Dead,
                St::Track(prev, set) => {
                    let s2 = ctx.flow(*prev, set, q);
                    if s2.is_empty() {
                        St::Dead
                    } else {
                        St::Track(q, s2)
                    }
                }
            };
            row.push(intern(next, &mut index, &mut states));
        }
        trans.push(row);
    }
    let accepting: Vec<bool> = states
        .iter()
        .map(|s| matches!(s, St::Track(_, set) if set.contains(&j.0)))
        .collect();
    Ok(Dfa::from_parts(alphabet, 0, accepting, trans).minimize())
}

/// Builds the `e≠ᵢⱼ` DFA of Lemma 21 (via an NFA with a nondeterministic
/// switch over an inequality literal, then the subset construction).
pub fn neq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
    let ctx = FlowContext::new(ra)?;
    let alphabet: Vec<StateId> = ra.states().collect();
    let k = ra.k();

    // NFA states: Start, P1(q, S) — tracking the source class,
    // P2(q, T) — tracking a class known-unequal to the source.
    #[derive(Clone, PartialEq, Eq, Hash)]
    enum St {
        Start,
        P1(StateId, BTreeSet<u16>),
        P2(StateId, BTreeSet<u16>),
    }
    let mut index: HashMap<St, usize> = HashMap::new();
    let mut states: Vec<St> = Vec::new();
    let mut nfa = Nfa::new(0);
    fn intern<St: Clone + Eq + std::hash::Hash>(
        s: St,
        index: &mut HashMap<St, usize>,
        states: &mut Vec<St>,
        nfa: &mut Nfa<StateId>,
    ) -> usize {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = nfa.add_state();
        index.insert(s.clone(), id);
        states.push(s);
        id
    }
    let start = intern(St::Start, &mut index, &mut states, &mut nfa);
    nfa.set_init(start);

    // Switch targets from a P1-set at a `q`-position: classes forced apart
    // from the tracked class by an x-x inequality at `q`.
    let xx_switch = |q: StateId, set: &BTreeSet<u16>| -> Vec<BTreeSet<u16>> {
        let Some(a) = ctx.a(q) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for m in 0..k {
            let hit = set.iter().any(|&l| a.forced_neq(Term::x(l), Term::x(m)));
            if hit {
                let t = ctx.close_x(q, &BTreeSet::from([m]));
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    };
    // x-y switch: at a `q`-position with tracked set `set`, registers `m`
    // with `x_l ≠ y_m` forced start an unequal class at the *next* position.
    let xy_switch = |q: StateId, set: &BTreeSet<u16>| -> BTreeSet<u16> {
        let Some(a) = ctx.a(q) else {
            return BTreeSet::new();
        };
        (0..k)
            .filter(|&m| set.iter().any(|&l| a.forced_neq(Term::x(l), Term::y(m))))
            .collect()
    };

    let mut done = 0usize;
    while done < states.len() {
        let st = states[done].clone();
        let sid = index[&st];
        done += 1;
        for &q in &alphabet {
            match &st {
                St::Start => {
                    let s0 = ctx.start_set(q, i);
                    if !s0.is_empty() {
                        let t = intern(St::P1(q, s0.clone()), &mut index, &mut states, &mut nfa);
                        nfa.add_transition(sid, q, t);
                    }
                    // Immediate x-x switch at the first position.
                    for tset in xx_switch(q, &s0) {
                        let t = intern(St::P2(q, tset), &mut index, &mut states, &mut nfa);
                        nfa.add_transition(sid, q, t);
                    }
                }
                St::P1(prev, set) => {
                    let s2 = ctx.flow(*prev, set, q);
                    if !s2.is_empty() {
                        let t = intern(St::P1(q, s2.clone()), &mut index, &mut states, &mut nfa);
                        nfa.add_transition(sid, q, t);
                    }
                    // x-x switch at the new position.
                    for tset in xx_switch(q, &s2) {
                        let t = intern(St::P2(q, tset), &mut index, &mut states, &mut nfa);
                        nfa.add_transition(sid, q, t);
                    }
                    // x-y switch across the transition from `prev`.
                    let ym = xy_switch(*prev, set);
                    if !ym.is_empty() {
                        let tset = ctx.close_x(q, &ym);
                        if !tset.is_empty() {
                            let t = intern(St::P2(q, tset), &mut index, &mut states, &mut nfa);
                            nfa.add_transition(sid, q, t);
                        }
                    }
                }
                St::P2(prev, set) => {
                    let s2 = ctx.flow(*prev, set, q);
                    if !s2.is_empty() {
                        let t = intern(St::P2(q, s2), &mut index, &mut states, &mut nfa);
                        nfa.add_transition(sid, q, t);
                    }
                }
            }
        }
    }
    for (s, id) in index.iter() {
        if let St::P2(_, set) = s {
            if set.contains(&j.0) {
                nfa.set_accepting(*id, true);
            }
        }
    }
    Ok(nfa.determinize(&alphabet).minimize())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rega_core::paper;
    use rega_core::transform::{complete, state_driven};

    /// Example 1 normalized (complete + state-driven) with names resolved.
    fn example1_normalized() -> RegisterAutomaton {
        let (ra, _) = paper::example1();
        state_driven(&complete(&ra).unwrap()).automaton
    }

    /// The state at a given position of the canonical Example 1 trace
    /// (q1 q2 q2 q2)^ω realized in the normalized automaton: find states by
    /// their origin prefix in the display name.
    fn states_with_prefix(ra: &RegisterAutomaton, prefix: &str) -> Vec<StateId> {
        ra.states()
            .filter(|&s| ra.state_name(s).starts_with(prefix))
            .collect()
    }

    #[test]
    fn eq_dfa_register2_flows_everywhere() {
        // In Example 1, register 2 carries one value forever: e=22 accepts
        // every legal factor (on the states of real traces).
        let ra = example1_normalized();
        let dfa = eq_dfa(&ra, RegIdx(1), RegIdx(1)).unwrap();
        // Pick any states and a plausible trace factor: since every type
        // forces x2 = y2, the set {2} persists along *any* state word.
        let qs: Vec<StateId> = ra.states().collect();
        assert!(dfa.accepts(&[qs[0]]));
        assert!(dfa.accepts(&[qs[0], qs[1 % qs.len()]]));
        assert!(dfa.accepts(&qs.clone()));
    }

    #[test]
    fn eq_dfa_register1_at_q1_positions() {
        // e=11 over Example 1: register 1 flows from a q1-position through
        // register 2 back to register 1 at the next q1-position, because δ1
        // forces x1 = x2 and δ3 copies back (y1 = y2).
        let ra = example1_normalized();
        let dfa = eq_dfa(&ra, RegIdx(0), RegIdx(0)).unwrap();
        let q1s = states_with_prefix(&ra, "q1");
        let q2s = states_with_prefix(&ra, "q2");
        assert!(!q1s.is_empty() && !q2s.is_empty());
        // Factor q1 … q1: need the intermediate q2-states whose types are
        // δ2-like until a δ3-like state returns to q1. Try all 2-step and
        // 3-step factors from q1 to q1 and require at least one accepted.
        let mut found = false;
        for &a in &q1s {
            for &b in &q2s {
                for &c in &q2s {
                    for &d in &q1s {
                        if dfa.accepts(&[a, b, c, d]) {
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(
            found,
            "some q1 → q2 → q2 → q1 factor must preserve register 1"
        );
    }

    #[test]
    fn eq_dfa_register1_not_preserved_one_step() {
        // Register 1 is freshly nondeterministic at q2-positions: a factor
        // q1 q2 cannot force (a,1) ∼ (a+1,1) … except through completions
        // that happen to force y1 = x1-class. Check that at least one
        // q1 → q2 factor does *not* preserve register 1.
        let ra = example1_normalized();
        let dfa = eq_dfa(&ra, RegIdx(0), RegIdx(0)).unwrap();
        let q1s = states_with_prefix(&ra, "q1");
        let q2s = states_with_prefix(&ra, "q2");
        let mut some_rejected = false;
        for &a in &q1s {
            for &b in &q2s {
                if !dfa.accepts(&[a, b]) {
                    some_rejected = true;
                }
            }
        }
        assert!(some_rejected);
    }

    #[test]
    fn neq_dfa_on_all_distinct_automaton() {
        // Example 16's 𝒜: single state, x1 ≠ y1. Complete+state-driven.
        let ext = paper::example16_a();
        let norm = state_driven(&complete(ext.ra()).unwrap()).automaton;
        let dfa = neq_dfa(&norm, RegIdx(0), RegIdx(0)).unwrap();
        let qs: Vec<StateId> = norm.states().collect();
        // Consecutive positions differ: factor of length 2 accepted for the
        // state whose type is x1 ≠ y1 ∧ x1 ≠ ... some completion. The
        // completion splits into y1-related variants; all start q-states
        // force x1 ≠ y1, so any 2-letter factor is accepted.
        for &a in &qs {
            for &b in &qs {
                assert!(dfa.accepts(&[a, b]), "consecutive positions differ");
            }
        }
        // Single positions: x1 ≠ x1 never: rejected.
        for &a in &qs {
            assert!(!dfa.accepts(&[a]));
        }
    }

    #[test]
    fn neq_dfa_distance_two_through_completion() {
        // In the all-distinct automaton completed, one completion forces
        // y1 ≠ x1 only (distance 1). At distance 2 the inequality is NOT
        // forced (values may return), so some factor of length 3 must be
        // rejected.
        let ext = paper::example16_a();
        let norm = state_driven(&complete(ext.ra()).unwrap()).automaton;
        let dfa = neq_dfa(&norm, RegIdx(0), RegIdx(0)).unwrap();
        let qs: Vec<StateId> = norm.states().collect();
        let mut some_rejected = false;
        for &a in &qs {
            for &b in &qs {
                for &c in &qs {
                    if !dfa.accepts(&[a, b, c]) {
                        some_rejected = true;
                    }
                }
            }
        }
        assert!(some_rejected, "distance-2 inequality is not always forced");
    }

    #[test]
    fn flow_context_requires_state_driven() {
        let (ra, _) = paper::example1();
        assert!(matches!(
            FlowContext::new(&ra),
            Err(CoreError::NotStateDriven)
        ));
    }
}
