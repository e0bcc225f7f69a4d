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
//! ## Representation
//!
//! A register set is a `RegMask`, one bit per register — a finite exact
//! representation of "which registers hold the tracked value". A
//! `FlowTable` is built once per projection: for every state it holds
//! four tables from a register to the registers its type forces equal or
//! unequal to it (`x=x`, `x=y`, `x≠x`, `x≠y`), so every flow step is an OR
//! over the set bits of a mask. Prop 20, Thm 13 and Thm 24 share one table
//! across all their register pairs and selectors.
//!
//! `e≠ᵢⱼ` is the subset construction of an NFA that tracks the source class
//! (`P1`) and guesses a switch to a class forced unequal to it (`P2`).
//! Every NFA successor on letter `q` is a `q`-state, so a subset is just `q`
//! plus the tracked `P1` mask and a sorted set of `P2` masks; the
//! construction determinizes on the fly, without building the NFA. Both
//! constructions discover states breadth-first in alphabet order and intern
//! the dead state lazily, which is exactly the order the generic
//! `Nfa::determinize` uses, so [`Dfa::minimize`] returns the same DFA
//! (init, acceptance and every transition row) as determinizing the NFA.
//!
//! The output DFAs plug directly into
//! [`ExtendedAutomaton::add_constraint_dfa`](rega_core::ExtendedAutomaton::add_constraint_dfa).

use rega_automata::Dfa;
use rega_core::extended::ConstraintKind;
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::fxhash::FxSeed;
use rega_data::{RegIdx, SatCache, Term, TypeId};

/// A set of registers: bit `r` is set iff register `r` is in the set.
pub(crate) type RegMask = u64;

/// The exploration frontier of this crate's constructions, keyed by small
/// integer runs and hashed with the seeded Fx hasher.
pub(crate) type Frontier<K> = rega_automata::Frontier<K, FxSeed>;

/// The most registers a `FlowTable` tracks, one bit each in a
/// `RegMask`. Completion enumerates Bell(2k) saturated types per
/// transition, so no projection reaches Lemma 21 anywhere near this bound.
const MAX_FLOW_REGISTERS: u16 = RegMask::BITS as u16;

/// The value-flow tables of a state-driven automaton: for every state `q`
/// and register `r`, the registers `q`'s type forces equal or unequal to
/// `r`.
pub(crate) struct FlowTable {
    k: usize,
    alphabet: Vec<StateId>,
    /// `x_eq[q·k + r]`: registers `l` with `x_l = x_r` forced at `q` (just
    /// `r` when `q` has no outgoing type).
    x_eq: Vec<RegMask>,
    /// `x_y_eq[q·k + s]`: registers `m` with `x_s = y_m` forced at `q`.
    x_y_eq: Vec<RegMask>,
    /// `x_neq[q·k + l]`: registers `m` with `x_l ≠ x_m` forced at `q`.
    x_neq: Vec<RegMask>,
    /// `x_y_neq[q·k + l]`: registers `m` with `x_l ≠ y_m` forced at `q`.
    x_y_neq: Vec<RegMask>,
}

/// The OR of `row[r]` over the registers `r` of `set`.
#[inline]
fn or_rows(row: &[RegMask], mut set: RegMask) -> RegMask {
    let mut out = 0;
    while set != 0 {
        out |= row[set.trailing_zeros() as usize];
        set &= set - 1;
    }
    out
}

impl FlowTable {
    /// Builds the table over a fresh σ-type cache. The automaton must be
    /// state-driven (each state one outgoing type) and have at most
    /// 64 registers (one bit each in a mask). Completeness is the caller's
    /// responsibility (the `e≠` characterization needs it; `e=` is correct
    /// regardless).
    pub(crate) fn new(ra: &RegisterAutomaton) -> Result<Self, CoreError> {
        if !ra.is_state_driven() {
            return Err(CoreError::NotStateDriven);
        }
        let cache = SatCache::new(ra.schema().clone());
        let state_types: Vec<Option<TypeId>> = ra
            .states()
            .map(|q| ra.state_type(q).map(|ty| cache.intern(ty)))
            .collect();
        Self::from_state_types(ra, &state_types, &cache)
    }

    /// [`FlowTable::new`] for a state-driven automaton whose state types
    /// `cache` has already interned (`state_types[q]` is
    /// [`RegisterAutomaton::state_type`] of `q`, as the normalization
    /// returns it): each state's analysis is read by id.
    pub(crate) fn from_state_types(
        ra: &RegisterAutomaton,
        state_types: &[Option<TypeId>],
        cache: &SatCache,
    ) -> Result<Self, CoreError> {
        if ra.k() > MAX_FLOW_REGISTERS {
            return Err(CoreError::UnsupportedProjection(format!(
                "value-flow tables track at most {MAX_FLOW_REGISTERS} registers, \
                 the automaton has {}",
                ra.k()
            )));
        }
        let k = usize::from(ra.k());
        let n = ra.num_states();
        let mut table = FlowTable {
            k,
            alphabet: ra.states().collect(),
            x_eq: (0..n).flat_map(|_| (0..k).map(|r| 1 << r)).collect(),
            x_y_eq: vec![0; n * k],
            x_neq: vec![0; n * k],
            x_y_neq: vec![0; n * k],
        };
        for q in ra.states() {
            let Some(ty) = state_types[q.idx()] else {
                continue;
            };
            let a = cache.analyze_id(ty)?;
            let x: Vec<usize> = (0..ra.k()).map(|r| a.class_of(Term::x(r))).collect();
            let y: Vec<usize> = (0..ra.k()).map(|r| a.class_of(Term::y(r))).collect();
            let base = q.idx() * k;
            for r in 0..k {
                let (mut eq, mut xy, mut nx, mut ny) = (0, 0, 0, 0);
                for m in 0..k {
                    let bit: RegMask = 1 << m;
                    if x[m] == x[r] {
                        eq |= bit;
                    }
                    if y[m] == x[r] {
                        xy |= bit;
                    }
                    if a.forced_neq(Term::x(r as u16), Term::x(m as u16)) {
                        nx |= bit;
                    }
                    if a.forced_neq(Term::x(r as u16), Term::y(m as u16)) {
                        ny |= bit;
                    }
                }
                table.x_eq[base + r] = eq;
                table.x_y_eq[base + r] = xy;
                table.x_neq[base + r] = nx;
                table.x_y_neq[base + r] = ny;
            }
        }
        Ok(table)
    }

    /// The automaton's states, in order: the alphabet of every DFA built
    /// from this table.
    pub(crate) fn alphabet(&self) -> &[StateId] {
        &self.alphabet
    }

    #[inline]
    fn row<'t>(&self, table: &'t [RegMask], q: usize) -> &'t [RegMask] {
        &table[q * self.k..(q + 1) * self.k]
    }

    /// Closure of register set `set` under the x-side equalities of `q`'s
    /// type: all registers `l` with `x_l = x_m` forced for some `m ∈ set`.
    #[inline]
    pub(crate) fn close_x(&self, q: StateId, set: RegMask) -> RegMask {
        or_rows(self.row(&self.x_eq, q.idx()), set)
    }

    /// Pushes a register set across `q`'s transition: registers `m` with
    /// `x_s = y_m` forced for some `s` in the set.
    #[inline]
    pub(crate) fn push_y(&self, q: StateId, set: RegMask) -> RegMask {
        or_rows(self.row(&self.x_y_eq, q.idx()), set)
    }

    /// The initial tracked set when the factor starts at a `q`-position:
    /// registers x-equal to register `i`.
    #[inline]
    pub(crate) fn start_set(&self, q: StateId, i: RegIdx) -> RegMask {
        self.x_eq[q.idx() * self.k + usize::from(i.0)]
    }

    /// One flow step: the set at the next position, given the set at a
    /// `q`-position and the next position's state `q2`.
    #[inline]
    pub(crate) fn flow(&self, q: StateId, set: RegMask, q2: StateId) -> RegMask {
        self.close_x(q2, self.push_y(q, set))
    }

    /// Registers `m` with `x_l ≠ x_m` forced at `q` for some `l ∈ set`.
    #[inline]
    fn neq_x(&self, q: StateId, set: RegMask) -> RegMask {
        or_rows(self.row(&self.x_neq, q.idx()), set)
    }

    /// Registers `m` with `x_l ≠ y_m` forced at `q` for some `l ∈ set`.
    #[inline]
    fn neq_y(&self, q: StateId, set: RegMask) -> RegMask {
        or_rows(self.row(&self.x_y_neq, q.idx()), set)
    }

    /// Builds the `e=ᵢⱼ` DFA of Lemma 21 over the automaton's state
    /// alphabet, ticking `budget` once per DFA state discovered.
    pub(crate) fn eq_dfa(
        &self,
        i: RegIdx,
        j: RegIdx,
        budget: &Budget,
    ) -> Result<Dfa<StateId>, CoreError> {
        const PHASE: &str = "views.lemma21.eq";
        let _span = rega_obs::span!(PHASE, i = i.0, j = j.0);
        // DFA states: the factor's start (id 0, never a target), then
        // `(q, S)` — the last letter and the non-empty set holding the
        // tracked value — or `DEAD`, in discovery order.
        const START: (u32, RegMask) = (u32::MAX - 1, 0);
        const DEAD: (u32, RegMask) = (u32::MAX, 0);
        let mut states: Frontier<(u32, RegMask)> = Frontier::new();
        states.intern(START);
        budget.tick(PHASE)?;
        let mut trans: Vec<Vec<usize>> = Vec::new();
        while let Some(id) = states.pop() {
            let (prev, set) = states[id];
            // The set pushed across `prev`'s transition is the same for
            // every next letter.
            let pushed = match (prev, set) {
                START | DEAD => 0,
                _ => self.push_y(StateId(prev), set),
            };
            let mut row = Vec::with_capacity(self.alphabet.len());
            for &q in &self.alphabet {
                let next = match (prev, set) {
                    START => self.start_set(q, i),
                    DEAD => 0,
                    _ => self.close_x(q, pushed),
                };
                let (target, new) = states.intern(if next == 0 { DEAD } else { (q.0, next) });
                if new {
                    budget.tick(PHASE)?;
                }
                row.push(target);
            }
            trans.push(row);
        }
        let accepting: Vec<bool> = states
            .keys()
            .iter()
            .map(|&(_, set)| (set >> j.0) & 1 == 1)
            .collect();
        Ok(Dfa::from_parts(self.alphabet.clone(), 0, accepting, trans).minimize())
    }

    /// Builds the `e≠ᵢⱼ` DFA of Lemma 21 over the automaton's state
    /// alphabet (a fused subset construction of the switch NFA, see the
    /// module docs), ticking `budget` once per DFA state discovered.
    pub(crate) fn neq_dfa(
        &self,
        i: RegIdx,
        j: RegIdx,
        budget: &Budget,
    ) -> Result<Dfa<StateId>, CoreError> {
        const PHASE: &str = "views.lemma21.neq";
        let _span = rega_obs::span!(PHASE, i = i.0, j = j.0);
        // A subset of the NFA `{Start} ∪ P1(q, S) ∪ P2(q, T)` is keyed
        // `[q, S, T₁ < T₂ < …]` (`S = 0` when no `P1` state is in it); the
        // empty subset — the dead state — is `[]`. The start subset `{Start}`
        // is id 0, keyed `[0]`, the one key of length 1: no letter leads
        // back to it.
        let mut states: Frontier<Box<[RegMask]>> = Frontier::new();
        states.intern(Box::new([0]));
        budget.tick(PHASE)?;
        let mut trans: Vec<Vec<usize>> = Vec::new();
        let mut pushed_p2: Vec<RegMask> = Vec::new();
        let mut p2: Vec<RegMask> = Vec::new();
        let mut next: Vec<RegMask> = Vec::new();
        while let Some(id) = states.pop() {
            // Everything that crosses the previous letter's transition is
            // independent of the next letter: the pushed P1 set, the x-y
            // switch targets, and each pushed P2 set.
            let (prev, p1) = match *states[id] {
                [prev, p1, ..] => (Some(StateId(prev as u32)), p1),
                _ => (None, 0),
            };
            let (pushed_p1, switch_y) = match prev {
                Some(prev) if p1 != 0 => (self.push_y(prev, p1), self.neq_y(prev, p1)),
                _ => (0, 0),
            };
            pushed_p2.clear();
            if let Some(prev) = prev {
                pushed_p2.extend(states[id][2..].iter().map(|&t| self.push_y(prev, t)));
            }
            let mut row = Vec::with_capacity(self.alphabet.len());
            for &q in &self.alphabet {
                let s1 = if id == 0 {
                    self.start_set(q, i)
                } else {
                    self.close_x(q, pushed_p1)
                };
                p2.clear();
                // x-x switch at this position: classes forced apart from
                // the tracked one.
                let mut hits = self.neq_x(q, s1);
                while hits != 0 {
                    p2.push(self.start_set(q, RegIdx(hits.trailing_zeros() as u16)));
                    hits &= hits - 1;
                }
                // x-y switch across the transition from `prev`.
                if switch_y != 0 {
                    p2.push(self.close_x(q, switch_y));
                }
                p2.extend(
                    pushed_p2
                        .iter()
                        .map(|&t| self.close_x(q, t))
                        .filter(|&t| t != 0),
                );
                p2.sort_unstable();
                p2.dedup();
                next.clear();
                if s1 != 0 || !p2.is_empty() {
                    next.extend([RegMask::from(q.0), s1]);
                    next.extend_from_slice(&p2);
                }
                let (target, new) = states.intern_ref(next.as_slice());
                if new {
                    budget.tick(PHASE)?;
                }
                row.push(target);
            }
            trans.push(row);
        }
        let accepting: Vec<bool> = states
            .keys()
            .iter()
            .map(|key| key.iter().skip(2).any(|&t| (t >> j.0) & 1 == 1))
            .collect();
        Ok(Dfa::from_parts(self.alphabet.clone(), 0, accepting, trans).minimize())
    }
}

/// Builds the `e=ᵢⱼ` DFA of Lemma 21 over the automaton's state alphabet.
pub fn eq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
    FlowTable::new(ra)?.eq_dfa(i, j, &Budget::unlimited())
}

/// Builds the `e≠ᵢⱼ` DFA of Lemma 21 over the automaton's state alphabet.
pub fn neq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
    FlowTable::new(ra)?.neq_dfa(i, j, &Budget::unlimited())
}

/// Attaches the `e=ᵢⱼ` and `e≠ᵢⱼ` constraints for every pair of the view's
/// `m` visible registers, all from one flow table. `phase` is the caller's
/// per-pair budget phase; each DFA build ticks its own.
pub(crate) fn add_view_constraints(
    view: &mut ExtendedAutomaton,
    flow: &FlowTable,
    m: u16,
    budget: &Budget,
    phase: &'static str,
) -> Result<(), CoreError> {
    for i in 0..m {
        for j in 0..m {
            budget.tick(phase)?;
            let (i, j) = (RegIdx(i), RegIdx(j));
            view.add_constraint_dfa(ConstraintKind::Equal, i, j, flow.eq_dfa(i, j, budget)?)?;
            view.add_constraint_dfa(ConstraintKind::NotEqual, i, j, flow.neq_dfa(i, j, budget)?)?;
        }
    }
    Ok(())
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
            FlowTable::new(&ra),
            Err(CoreError::NotStateDriven)
        ));
    }

    #[test]
    fn more_registers_than_mask_bits_is_a_typed_error() {
        // A one-state, state-driven automaton over 65 registers: the flow
        // table cannot track it, and says so instead of panicking.
        let mut ra = RegisterAutomaton::new(65, rega_data::Schema::empty());
        let p = ra.add_state("p");
        ra.set_initial(p);
        ra.set_accepting(p);
        ra.add_transition(p, rega_data::SigmaType::empty(65), p)
            .unwrap();
        assert!(ra.is_state_driven());
        assert!(matches!(
            eq_dfa(&ra, RegIdx(0), RegIdx(0)),
            Err(CoreError::UnsupportedProjection(_))
        ));
    }
}
