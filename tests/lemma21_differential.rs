//! Differential pinning of the Lemma 21 bitmask kernel, and of the
//! Theorem 24 selectors built on it, against the set-based construction it
//! replaced.
//!
//! The oracle below is that construction as test-only code, unchanged but
//! for its entry points' `old_` names: register sets are `BTreeSet<u16>`,
//! `e=ᵢⱼ` interns `(state, set)` keys, and `e≠ᵢⱼ` builds an explicit NFA
//! and runs the generic `Nfa::determinize`. The production kernel (`FlowTable`, one bitmask
//! table per projection and a fused subset construction) must return
//! *identical* minimized DFAs — the same initial state, acceptance and
//! every transition row, not merely the same language — because
//! constraint monitors, snapshots and observers index DFA states directly.
//! The Theorem 24 adom and tuple selectors must be identical Büchi
//! automata, state for state.
//!
//! Inputs: the paper's examples (1, 16, 23 and ternary 23, normalized as
//! the projections normalize them); 256 generated state-driven automata
//! with one to three registers, out-degree one to three, and types that
//! are sometimes complete and sometimes partial; and, for the selectors,
//! 32 generated two-register automata over a unary relation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_automata::{Dfa, Letter, Nba, Nfa};
use rega_core::enhanced::PositionSelector;
use rega_core::generate::{random_automaton, GenParams};
use rega_core::transform::{complete, complete_for_atoms, state_driven};
use rega_core::{paper, Budget, CoreError, RegisterAutomaton, StateId};
use rega_data::types::TypeAnalysis;
use rega_data::{Literal, RegIdx, Schema, SigmaType, Term};
use rega_views::lemma21::{eq_dfa, neq_dfa};
use rega_views::thm24::{project_hiding_database, Thm24Options};
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------
// The oracle: the set-based Lemma 21 construction and the Theorem 24
// selectors on top of it, as they were before the bitmask kernel.
// ---------------------------------------------------------------------

/// Precomputed per-state type analyses for a state-driven automaton.
struct FlowContext<'a> {
    ra: &'a RegisterAutomaton,
    /// `analysis[q]` — the analysis of state `q`'s unique outgoing type.
    analysis: Vec<Option<TypeAnalysis>>,
}

impl<'a> FlowContext<'a> {
    /// Builds the context; the automaton must be state-driven (each state
    /// one outgoing type). Completeness is the caller's responsibility (the
    /// `e≠` characterization needs it; `e=` is correct regardless).
    fn new(ra: &'a RegisterAutomaton) -> Result<Self, CoreError> {
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
    fn close_x(&self, q: StateId, base: &BTreeSet<u16>) -> BTreeSet<u16> {
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
    fn push_y(&self, q: StateId, set: &BTreeSet<u16>) -> BTreeSet<u16> {
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
    fn start_set(&self, q: StateId, i: RegIdx) -> BTreeSet<u16> {
        self.close_x(q, &BTreeSet::from([i.0]))
    }

    /// One flow step: the set at the next position, given the set at a
    /// `q`-position and the next position's state `q'`.
    fn flow(&self, q: StateId, set: &BTreeSet<u16>, q2: StateId) -> BTreeSet<u16> {
        self.close_x(q2, &self.push_y(q, set))
    }
}

/// Builds the `e=ᵢⱼ` DFA of Lemma 21 over the automaton's state alphabet.
fn old_eq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
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
fn old_neq_dfa(ra: &RegisterAutomaton, i: RegIdx, j: RegIdx) -> Result<Dfa<StateId>, CoreError> {
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

/// Builds the position selector for "`(h, i)` is an active-domain
/// position": the class of `(h, i)` touches a positive relational literal.
///
/// Components (see module docs): forward flow from `(h, i)` hitting a
/// positive literal, plus — per register `r` — past-tainted values arriving
/// at `h` in register `r` whose flow merges with `(h, i)`'s flow at or
/// after `h`.
fn old_adom_selector(
    normalized: &RegisterAutomaton,
    i: RegIdx,
    budget: &Budget,
) -> Result<PositionSelector, CoreError> {
    let ctx = FlowContext::new(normalized)?;
    let states: Vec<StateId> = normalized.states().collect();
    let k = normalized.k();

    // Positive-literal register sets per state: x-side and y-side.
    let mut xpos: Vec<BTreeSet<u16>> = Vec::with_capacity(states.len());
    let mut ypos: Vec<BTreeSet<u16>> = Vec::with_capacity(states.len());
    for &q in &states {
        let mut xs = BTreeSet::new();
        let mut ys = BTreeSet::new();
        if let Some(ty) = normalized.state_type(q) {
            for lit in ty.literals() {
                if lit.is_positive_rel() {
                    for t in lit.terms() {
                        match t {
                            Term::X(r) => {
                                xs.insert(r.0);
                            }
                            Term::Y(r) => {
                                ys.insert(r.0);
                            }
                            Term::Const(_) => {}
                        }
                    }
                }
            }
        }
        xpos.push(xs);
        ypos.push(ys);
    }

    // `hit(q, set)`: the tracked flow touches a positive literal at a
    // `q`-position — via an x-slot now, or a y-slot while pushing.
    let hit = |q: StateId, set: &BTreeSet<u16>| -> bool {
        if set.iter().any(|r| xpos[q.idx()].contains(r)) {
            return true;
        }
        let pushed = ctx.push_y(q, set);
        pushed.iter().any(|r| ypos[q.idx()].contains(r))
    };

    let trivial_before = {
        let n = states.len();
        Dfa::from_parts(states.clone(), 0, vec![true], vec![vec![0; n]])
    };

    // Component 1: forward tracker from {i}, accepting once a positive
    // literal is hit.
    let comp1_nba = {
        #[derive(Clone, PartialEq, Eq, Hash)]
        enum St {
            Start,
            Track(StateId, BTreeSet<u16>),
            Found,
        }
        let mut nba = Nba::new(states.clone(), 0);
        let mut index: HashMap<St, usize> = HashMap::new();
        let mut work: Vec<St> = Vec::new();
        let intern = |s: St,
                      nba: &mut Nba<StateId>,
                      work: &mut Vec<St>,
                      index: &mut HashMap<St, usize>|
         -> usize {
            if let Some(&id) = index.get(&s) {
                return id;
            }
            let id = nba.add_state();
            index.insert(s.clone(), id);
            work.push(s);
            id
        };
        let start = intern(St::Start, &mut nba, &mut work, &mut index);
        nba.set_init(start);
        let mut done = 0;
        while done < work.len() {
            budget.tick("views.thm24.adom_selector")?;
            let st = work[done].clone();
            let sid = index[&st];
            done += 1;
            match &st {
                St::Found => {
                    nba.set_accepting(sid, true);
                    for &q in &states {
                        let t = intern(St::Found, &mut nba, &mut work, &mut index);
                        nba.add_transition(sid, &q, t);
                    }
                }
                St::Start => {
                    for &q in &states {
                        let s0 = ctx.start_set(q, i);
                        let next = if hit(q, &s0) {
                            St::Found
                        } else if s0.is_empty() {
                            continue;
                        } else {
                            St::Track(q, s0)
                        };
                        let t = intern(next, &mut nba, &mut work, &mut index);
                        nba.add_transition(sid, &q, t);
                    }
                }
                St::Track(prev, set) => {
                    for &q in &states {
                        let s2 = ctx.flow(*prev, set, q);
                        let next = if hit(q, &s2) {
                            St::Found
                        } else if s2.is_empty() {
                            continue;
                        } else {
                            St::Track(q, s2)
                        };
                        let t = intern(next, &mut nba, &mut work, &mut index);
                        nba.add_transition(sid, &q, t);
                    }
                }
            }
        }
        nba
    };

    let mut components = vec![(trivial_before.clone(), comp1_nba)];

    // Component 2 (per register r): prefix DFA accepting iff `r` is tainted
    // at the position; suffix NBA tracking the {i}-flow and the {r}-flow,
    // accepting when they merge.
    for r in 0..k {
        // Prefix taint DFA: state (q_last or none, raw taint set).
        let before = {
            #[derive(Clone, PartialEq, Eq, Hash)]
            struct St(BTreeSet<u16>);
            let mut index: HashMap<St, usize> = HashMap::new();
            let mut sts: Vec<St> = Vec::new();
            let mut trans: Vec<Vec<usize>> = Vec::new();
            let init = St(BTreeSet::new());
            index.insert(init.clone(), 0);
            sts.push(init);
            let mut done = 0;
            while done < sts.len() {
                budget.tick("views.thm24.adom_selector")?;
                let st = sts[done].clone();
                done += 1;
                let mut row = Vec::with_capacity(states.len());
                for &q in &states {
                    // Arriving taint closed at q, plus q's x-positives.
                    let mut cur = ctx.close_x(q, &st.0);
                    cur.extend(ctx.close_x(q, &xpos[q.idx()]));
                    let mut next = ctx.push_y(q, &cur);
                    next.extend(ypos[q.idx()].iter().copied());
                    let key = St(next);
                    let id = match index.get(&key) {
                        Some(&id) => id,
                        None => {
                            let id = sts.len();
                            index.insert(key.clone(), id);
                            sts.push(key);
                            id
                        }
                    };
                    row.push(id);
                }
                trans.push(row);
            }
            let accepting: Vec<bool> = sts.iter().map(|s| s.0.contains(&r)).collect();
            Dfa::from_parts(states.clone(), 0, accepting, trans).minimize()
        };

        // Suffix NBA: double tracker; accept when the two flows merge.
        let from_here = {
            #[derive(Clone, PartialEq, Eq, Hash)]
            enum St {
                Start,
                Track(StateId, BTreeSet<u16>, BTreeSet<u16>),
                Found,
            }
            let mut nba = Nba::new(states.clone(), 0);
            let mut index: HashMap<St, usize> = HashMap::new();
            let mut work: Vec<St> = Vec::new();
            let intern = |s: St,
                          nba: &mut Nba<StateId>,
                          work: &mut Vec<St>,
                          index: &mut HashMap<St, usize>|
             -> usize {
                if let Some(&id) = index.get(&s) {
                    return id;
                }
                let id = nba.add_state();
                index.insert(s.clone(), id);
                work.push(s);
                id
            };
            let start = intern(St::Start, &mut nba, &mut work, &mut index);
            nba.set_init(start);
            let mut done = 0;
            while done < work.len() {
                budget.tick("views.thm24.adom_selector")?;
                let st = work[done].clone();
                let sid = index[&st];
                done += 1;
                match &st {
                    St::Found => {
                        nba.set_accepting(sid, true);
                        for &q in &states {
                            let t = intern(St::Found, &mut nba, &mut work, &mut index);
                            nba.add_transition(sid, &q, t);
                        }
                    }
                    St::Start => {
                        for &q in &states {
                            let s1 = ctx.start_set(q, i);
                            let s2 = ctx.start_set(q, RegIdx(r));
                            if s1.is_empty() || s2.is_empty() {
                                continue;
                            }
                            let next = if s1.intersection(&s2).next().is_some() {
                                St::Found
                            } else {
                                St::Track(q, s1, s2)
                            };
                            let t = intern(next, &mut nba, &mut work, &mut index);
                            nba.add_transition(sid, &q, t);
                        }
                    }
                    St::Track(prev, a, b) => {
                        for &q in &states {
                            let a2 = ctx.flow(*prev, a, q);
                            let b2 = ctx.flow(*prev, b, q);
                            if a2.is_empty() || b2.is_empty() {
                                continue;
                            }
                            let next = if a2.intersection(&b2).next().is_some() {
                                St::Found
                            } else {
                                St::Track(q, a2, b2)
                            };
                            let t = intern(next, &mut nba, &mut work, &mut index);
                            nba.add_transition(sid, &q, t);
                        }
                    }
                }
            }
            nba
        };
        components.push((before, from_here));
    }

    Ok(PositionSelector { components })
}

/// Connection endpoint roles for the tuple selector construction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum ConnState {
    Waiting,
    /// Tracking the value from the first endpoint; fields: previous state
    /// and the register set.
    Tracking,
    Done,
}

/// Builds the marked-word Büchi selector for `ψ^R_{E,F}` with the given
/// visible register tuples. Returns `None` when no transition carries a
/// matching pair of literals (the constraint would be vacuous).
fn old_tuple_selector(
    normalized: &RegisterAutomaton,
    rel: rega_data::RelSym,
    f_slots: &[usize],
    i_regs: &[RegIdx],
    j_regs: &[RegIdx],
    opts: &Thm24Options,
    budget: &Budget,
) -> Result<Option<Nba<(StateId, u32)>>, CoreError> {
    let ctx = FlowContext::new(normalized)?;
    let states: Vec<StateId> = normalized.states().collect();
    // Flow steps recur constantly across selector states; memoize them.
    let mut flow_cache: HashMap<(StateId, Vec<u16>, StateId), BTreeSet<u16>> = HashMap::new();
    let mut flow = |prev: StateId, set: &BTreeSet<u16>, q: StateId| -> BTreeSet<u16> {
        let key = (prev, set.iter().copied().collect::<Vec<u16>>(), q);
        if let Some(hit) = flow_cache.get(&key) {
            return hit.clone();
        }
        let result = ctx.flow(prev, set, q);
        flow_cache.insert(key, result.clone());
        result
    };
    let arity = normalized.schema().arity(rel);
    let l = f_slots.len();
    let e_slots: Vec<usize> = (0..arity).filter(|s| !f_slots.contains(s)).collect();

    // Literal instances per state: negative and positive R-literals with
    // their term vectors (registers; constants unsupported upstream).
    let mut neg_lits: Vec<Vec<Vec<Term>>> = Vec::with_capacity(states.len());
    let mut pos_lits: Vec<Vec<Vec<Term>>> = Vec::with_capacity(states.len());
    for &q in &states {
        let mut negs = Vec::new();
        let mut poss = Vec::new();
        if let Some(ty) = normalized.state_type(q) {
            for lit in ty.literals() {
                if let Literal::Rel {
                    rel: r2,
                    args,
                    positive,
                } = lit
                {
                    if *r2 == rel {
                        if *positive {
                            poss.push(args.clone());
                        } else {
                            negs.push(args.clone());
                        }
                    }
                }
            }
        }
        neg_lits.push(negs);
        pos_lits.push(poss);
    }
    if neg_lits.iter().all(|v| v.is_empty()) || pos_lits.iter().all(|v| v.is_empty()) {
        return Ok(None);
    }

    // Connections: ids 0..|E| connect the n-side and n'-side E-terms;
    // ids |E| + 2t (t-th F slot) connect α_t ↔ n-side term; |E| + 2t + 1
    // connect β_t ↔ n'-side term.
    let n_conns = e_slots.len() + 2 * l;

    // Marked alphabet.
    let mut alphabet: Vec<(StateId, u32)> = Vec::new();
    for &q in &states {
        for mark in 0..(1u32 << (2 * l)) {
            alphabet.push((q, mark));
        }
    }

    /// Per-connection tracking payload: simulated state plus marked regs.
    type Tracker = Option<(StateId, BTreeSet<u16>)>;

    /// Full NBA state.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct Sel {
        n_done: bool,
        np_done: bool,
        marks: u32,
        /// Pending y-term events for the next position: (conn, register).
        pending: Vec<(u8, u16)>,
        /// Per connection: state plus tracker data when Tracking.
        conns: Vec<(ConnState, Tracker)>,
        accept: bool,
    }

    let init = Sel {
        n_done: false,
        np_done: false,
        marks: 0,
        pending: Vec::new(),
        conns: vec![(ConnState::Waiting, None); n_conns],
        accept: false,
    };

    let mut nba = Nba::new(alphabet.clone(), 0);
    let mut index: HashMap<Sel, usize> = HashMap::new();
    let mut work: Vec<Sel> = Vec::new();
    let intern = |s: Sel,
                  nba: &mut Nba<(StateId, u32)>,
                  work: &mut Vec<Sel>,
                  index: &mut HashMap<Sel, usize>|
     -> usize {
        if let Some(&id) = index.get(&s) {
            return id;
        }
        let id = nba.add_state();
        index.insert(s.clone(), id);
        work.push(s);
        id
    };
    let start = intern(init, &mut nba, &mut work, &mut index);
    nba.set_init(start);

    let full_marks = (1u32 << (2 * l)) - 1;

    let mut done = 0usize;
    while done < work.len() {
        budget.tick("views.thm24.tuple_selector")?;
        if work.len() > opts.max_selector_states {
            return Err(CoreError::BudgetExceeded(format!(
                "tuple selector exceeded {} states",
                opts.max_selector_states
            )));
        }
        let st = work[done].clone();
        let sid = index[&st];
        done += 1;

        if st.accept {
            nba.set_accepting(sid, true);
            // Sink: loop on unmarked letters only.
            for &q in &states {
                let t = intern(st.clone(), &mut nba, &mut work, &mut index);
                nba.add_transition(sid, &(q, 0), t);
            }
            continue;
        }

        for &q in &states {
            // Events at this position: (conn, register) pairs.
            // 1. Pending y-events from the previous position.
            let base_events: Vec<(u8, u16)> = st.pending.clone();
            // 2. Anchor guesses: none / n here / n' here / both here —
            // independent of the mark, so computed once per state letter.
            // Enumerate literal choices for the guessed anchors.
            // (n guessed here, n' guessed here, n-events, n'-events)
            type Variant = (bool, bool, Vec<(u8, u16)>, Vec<(u8, u16)>);
            let mut variants: Vec<Variant> = vec![(false, false, Vec::new(), Vec::new())];
            {
                if !st.n_done {
                    let mut more = Vec::new();
                    for lit in &neg_lits[q.idx()] {
                        // events from the n-side terms.
                        let mut evs = Vec::new();
                        let mut pend = Vec::new();
                        let mut good = true;
                        for (ci, &slot) in e_slots.iter().enumerate() {
                            match lit[slot] {
                                Term::X(r2) => evs.push((ci as u8, r2.0)),
                                Term::Y(r2) => pend.push((ci as u8, r2.0)),
                                Term::Const(_) => good = false,
                            }
                        }
                        for (t, &slot) in f_slots.iter().enumerate() {
                            let ci = (e_slots.len() + 2 * t) as u8;
                            match lit[slot] {
                                Term::X(r2) => evs.push((ci, r2.0)),
                                Term::Y(r2) => pend.push((ci, r2.0)),
                                Term::Const(_) => good = false,
                            }
                        }
                        if good {
                            more.push((true, false, evs, pend));
                        }
                    }
                    let base = variants.clone();
                    for (n_here, _, evs, pend) in more {
                        for (_, np0, e0, p0) in &base {
                            let mut e = e0.clone();
                            e.extend(evs.iter().copied());
                            let mut p = p0.clone();
                            p.extend(pend.iter().copied());
                            variants.push((n_here, *np0, e, p));
                        }
                    }
                }
                if !st.np_done {
                    let mut more = Vec::new();
                    for lit in &pos_lits[q.idx()] {
                        let mut evs = Vec::new();
                        let mut pend = Vec::new();
                        let mut good = true;
                        for (ci, &slot) in e_slots.iter().enumerate() {
                            match lit[slot] {
                                Term::X(r2) => evs.push((ci as u8, r2.0)),
                                Term::Y(r2) => pend.push((ci as u8, r2.0)),
                                Term::Const(_) => good = false,
                            }
                        }
                        for (t, &slot) in f_slots.iter().enumerate() {
                            let ci = (e_slots.len() + 2 * t + 1) as u8;
                            match lit[slot] {
                                Term::X(r2) => evs.push((ci, r2.0)),
                                Term::Y(r2) => pend.push((ci, r2.0)),
                                Term::Const(_) => good = false,
                            }
                        }
                        if good {
                            more.push((false, true, evs, pend));
                        }
                    }
                    let base = variants.clone();
                    for (_, np_here, evs, pend) in more {
                        for (n0, _, e0, p0) in &base {
                            let mut e = e0.clone();
                            e.extend(evs.iter().copied());
                            let mut p = p0.clone();
                            p.extend(pend.iter().copied());
                            variants.push((*n0, np_here, e, p));
                        }
                    }
                }
            }

            // 3. Mark-driven events, per mark value.
            for mark in 0..(1u32 << (2 * l)) {
                if mark & st.marks != 0 {
                    continue; // a mark may appear only once
                }
                let mut events = base_events.clone();
                for t in 0..l {
                    if mark & (1 << t) != 0 {
                        events.push(((e_slots.len() + 2 * t) as u8, i_regs[t].0));
                    }
                    if mark & (1 << (l + t)) != 0 {
                        events.push(((e_slots.len() + 2 * t + 1) as u8, j_regs[t].0));
                    }
                }

                for (n_here, np_here, anchor_events, anchor_pending) in variants.clone() {
                    // Advance all trackers by q, then fire events.
                    let mut conns = st.conns.clone();
                    let mut reject = false;
                    for c in conns.iter_mut() {
                        if c.0 == ConnState::Tracking {
                            let (prev, set) = c.1.clone().expect("tracking has data");
                            let s2 = flow(prev, &set, q);
                            if s2.is_empty() {
                                reject = true;
                                break;
                            }
                            c.1 = Some((q, s2));
                        }
                    }
                    if reject {
                        continue;
                    }
                    let mut all_events = events.clone();
                    all_events.extend(anchor_events.iter().copied());
                    // Group events per connection (two endpoints may fire
                    // at the same position).
                    let mut per_conn: HashMap<u8, Vec<u16>> = HashMap::new();
                    for &(c, r2) in &all_events {
                        per_conn.entry(c).or_default().push(r2);
                    }
                    for (&c, regs2) in &per_conn {
                        let conn = &mut conns[c as usize];
                        match (conn.0, regs2.len()) {
                            (ConnState::Waiting, 1) => {
                                let s0 = ctx.close_x(q, &BTreeSet::from([regs2[0]]));
                                if s0.is_empty() {
                                    reject = true;
                                    break;
                                }
                                *conn = (ConnState::Tracking, Some((q, s0)));
                            }
                            (ConnState::Waiting, 2) => {
                                // Both endpoints now: connected iff x-equal.
                                let s0 = ctx.close_x(q, &BTreeSet::from([regs2[0]]));
                                if s0.contains(&regs2[1]) {
                                    *conn = (ConnState::Done, None);
                                } else {
                                    reject = true;
                                    break;
                                }
                            }
                            (ConnState::Tracking, 1) => {
                                let (_, set) = conn.1.as_ref().expect("tracking");
                                if set.contains(&regs2[0]) {
                                    *conn = (ConnState::Done, None);
                                } else {
                                    reject = true;
                                    break;
                                }
                            }
                            _ => {
                                // A third endpoint event or an event on a
                                // completed connection: not this pattern.
                                reject = true;
                                break;
                            }
                        }
                    }
                    if reject {
                        continue;
                    }
                    let mut pending = anchor_pending.clone();
                    pending.sort();
                    let n_done = st.n_done || n_here;
                    let np_done = st.np_done || np_here;
                    let marks = st.marks | mark;
                    let complete = n_done
                        && np_done
                        && marks == full_marks
                        && pending.is_empty()
                        && conns.iter().all(|c| c.0 == ConnState::Done);
                    let next = Sel {
                        n_done,
                        np_done,
                        marks,
                        pending,
                        conns: if complete {
                            vec![(ConnState::Done, None); n_conns]
                        } else {
                            conns
                        },
                        accept: complete,
                    };
                    let t = intern(next, &mut nba, &mut work, &mut index);
                    nba.add_transition(sid, &(q, mark), t);
                }
            }
        }
    }
    Ok(Some(nba))
}

/// The Theorem 24 selector loop (steps 4 and 5 of the construction) over
/// the oracle, in the production order.
fn old_selectors(
    normalized: &RegisterAutomaton,
    m: u16,
    opts: &Thm24Options,
) -> (Vec<PositionSelector>, Vec<Nba<(StateId, u32)>>) {
    let budget = Budget::unlimited();
    let finiteness = (0..m)
        .map(|i| old_adom_selector(normalized, RegIdx(i), &budget).unwrap())
        .collect();
    let schema = normalized.schema();
    let mut tuples = Vec::new();
    for rel in schema.relations() {
        let arity = schema.arity(rel);
        for f_mask in 0..(1u32 << arity) {
            let f_slots: Vec<usize> = (0..arity).filter(|&l| f_mask & (1 << l) != 0).collect();
            let l = f_slots.len();
            let total = (m as usize).pow(l as u32).max(1);
            if m == 0 && l > 0 {
                continue;
            }
            for flat in 0..total * total {
                let mut rest = flat;
                let mut i_regs = Vec::with_capacity(l);
                let mut j_regs = Vec::with_capacity(l);
                for _ in 0..l {
                    i_regs.push(RegIdx((rest % m.max(1) as usize) as u16));
                    rest /= m.max(1) as usize;
                }
                for _ in 0..l {
                    j_regs.push(RegIdx((rest % m.max(1) as usize) as u16));
                    rest /= m.max(1) as usize;
                }
                if let Some(nba) =
                    old_tuple_selector(normalized, rel, &f_slots, &i_regs, &j_regs, opts, &budget)
                        .unwrap()
                {
                    tuples.push(nba);
                }
            }
        }
    }
    (finiteness, tuples)
}

// ---------------------------------------------------------------------
// Identity checks.
// ---------------------------------------------------------------------

fn assert_dfa_identical(new: &Dfa<StateId>, old: &Dfa<StateId>, what: &str) {
    assert_eq!(new.alphabet(), old.alphabet(), "{what}: alphabet");
    assert_eq!(new.num_states(), old.num_states(), "{what}: state count");
    assert_eq!(new.init(), old.init(), "{what}: initial state");
    for s in 0..old.num_states() {
        assert_eq!(
            new.is_accepting(s),
            old.is_accepting(s),
            "{what}: acceptance of state {s}"
        );
        for li in 0..old.alphabet().len() {
            assert_eq!(
                new.step_idx(s, li),
                old.step_idx(s, li),
                "{what}: transition of state {s} on letter {li}"
            );
        }
    }
}

fn assert_nba_identical<L: Letter>(new: &Nba<L>, old: &Nba<L>, what: &str) {
    assert_eq!(new.alphabet(), old.alphabet(), "{what}: alphabet");
    assert_eq!(new.num_states(), old.num_states(), "{what}: state count");
    assert_eq!(new.inits(), old.inits(), "{what}: initial states");
    for s in 0..old.num_states() {
        assert_eq!(
            new.is_accepting(s),
            old.is_accepting(s),
            "{what}: acceptance of state {s}"
        );
        for li in 0..old.alphabet().len() {
            assert_eq!(
                new.successors_idx(s, li),
                old.successors_idx(s, li),
                "{what}: successors of state {s} on letter {li}"
            );
        }
    }
}

/// Every `(i, j)` pair's `e=` and `e≠` DFAs, kernel against oracle.
fn assert_lemma21_identical(ra: &RegisterAutomaton, what: &str) {
    for i in 0..ra.k() {
        for j in 0..ra.k() {
            let (ri, rj) = (RegIdx(i), RegIdx(j));
            assert_dfa_identical(
                &eq_dfa(ra, ri, rj).unwrap(),
                &old_eq_dfa(ra, ri, rj).unwrap(),
                &format!("{what}: e= ({i}, {j})"),
            );
            assert_dfa_identical(
                &neq_dfa(ra, ri, rj).unwrap(),
                &old_neq_dfa(ra, ri, rj).unwrap(),
                &format!("{what}: e≠ ({i}, {j})"),
            );
        }
    }
}

/// Returns the number of tuple selectors compared.
fn assert_thm24_selectors_identical(ra: &RegisterAutomaton, m: u16, what: &str) -> usize {
    let opts = Thm24Options::default();
    let proj = project_hiding_database(ra, m, &opts).unwrap();
    let (finiteness, tuples) = old_selectors(&proj.normalized, m, &opts);
    let got = proj.view.finiteness_constraints();
    assert_eq!(
        got.len(),
        finiteness.len(),
        "{what}: finiteness constraints"
    );
    for (n, (new, old)) in got.iter().zip(&finiteness).enumerate() {
        let (new, old) = (&new.selector.components, &old.components);
        assert_eq!(new.len(), old.len(), "{what}: adom selector {n} components");
        for (c, ((nb, nf), (ob, of))) in new.iter().zip(old).enumerate() {
            assert_dfa_identical(nb, ob, &format!("{what}: adom {n} component {c} prefix"));
            assert_nba_identical(nf, of, &format!("{what}: adom {n} component {c} suffix"));
        }
    }
    let got = proj.view.tuple_inequalities();
    assert_eq!(got.len(), tuples.len(), "{what}: tuple inequalities");
    for (n, (new, old)) in got.iter().zip(&tuples).enumerate() {
        assert_nba_identical(&new.selector, old, &format!("{what}: tuple selector {n}"));
    }
    got.len()
}

/// Example 23 and its ternary variant, equality-completed and made
/// state-driven as Theorem 24 does.
fn example23_normalized(ra: &RegisterAutomaton) -> RegisterAutomaton {
    let mut terms = Vec::new();
    for i in 0..ra.k() {
        terms.push(Term::x(i));
        terms.push(Term::y(i));
    }
    let mut atoms = Vec::new();
    for a in 0..terms.len() {
        for b in (a + 1)..terms.len() {
            atoms.push(Literal::eq(terms[a], terms[b]));
        }
    }
    state_driven(&complete_for_atoms(ra, &atoms).unwrap()).automaton
}

#[test]
fn paper_examples_identical_dfas() {
    let (ex1, _) = paper::example1();
    assert_lemma21_identical(
        &state_driven(&complete(&ex1).unwrap()).automaton,
        "Example 1",
    );
    let ex16 = paper::example16_a();
    assert_lemma21_identical(
        &state_driven(&complete(ex16.ra()).unwrap()).automaton,
        "Example 16",
    );
    assert_lemma21_identical(&example23_normalized(&paper::example23()), "Example 23");
    assert_lemma21_identical(
        &example23_normalized(&paper::example23_ternary()),
        "Example 23 (ternary)",
    );
}

#[test]
fn thm24_selectors_identical_on_example23() {
    for (ra, what) in [
        (paper::example23(), "Example 23"),
        (paper::example23_ternary(), "Example 23 (ternary)"),
    ] {
        assert!(
            assert_thm24_selectors_identical(&ra, 1, what) > 0,
            "{what}: the example must yield tuple selectors"
        );
    }
}

/// A random satisfiable type over `k` registers: either complete (a random
/// partition of the `2k` terms, every cross-class pair unequal) or partial
/// (a few random literals).
fn random_type(rng: &mut StdRng, k: u16) -> SigmaType {
    let schema = Schema::empty();
    let terms: Vec<Term> = (0..k).flat_map(|r| [Term::x(r), Term::y(r)]).collect();
    if rng.gen_bool(0.5) {
        let blocks = rng.gen_range(1..terms.len() + 1);
        let label: Vec<usize> = terms.iter().map(|_| rng.gen_range(0..blocks)).collect();
        let mut lits = Vec::new();
        for a in 0..terms.len() {
            for b in (a + 1)..terms.len() {
                lits.push(if label[a] == label[b] {
                    Literal::eq(terms[a], terms[b])
                } else {
                    Literal::neq(terms[a], terms[b])
                });
            }
        }
        SigmaType::new(k, lits)
    } else {
        let mut ty = SigmaType::empty(k);
        for _ in 0..rng.gen_range(0..2 * k as usize + 1) {
            let s = terms[rng.gen_range(0..terms.len())];
            let t = terms[rng.gen_range(0..terms.len())];
            let lit = if rng.gen_bool(0.6) {
                Literal::eq(s, t)
            } else {
                Literal::neq(s, t)
            };
            let candidate = ty.with(lit);
            if candidate.is_satisfiable(&schema) {
                ty = candidate;
            }
        }
        ty
    }
}

/// A random state-driven automaton: every state carries one random type
/// on all its `out_degree` outgoing transitions, except that a state may
/// have no outgoing transition at all.
fn random_state_driven(k: u16, out_degree: usize, seed: u64) -> RegisterAutomaton {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..6);
    let mut ra = RegisterAutomaton::new(k, Schema::empty());
    let states: Vec<StateId> = (0..n).map(|s| ra.add_state(&format!("s{s}"))).collect();
    ra.set_initial(states[0]);
    ra.set_accepting(states[n - 1]);
    for &from in &states {
        if rng.gen_bool(0.1) {
            continue;
        }
        let ty = random_type(&mut rng, k);
        for _ in 0..out_degree {
            let to = states[rng.gen_range(0..n)];
            ra.add_transition(from, ty.clone(), to).unwrap();
        }
    }
    assert!(ra.is_state_driven());
    ra
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_automata_identical_dfas(
        k in 1u16..4,
        out_degree in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let ra = random_state_driven(k, out_degree, seed);
        assert_lemma21_identical(&ra, &format!("k={k} out={out_degree} seed={seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Random automata over one unary relation, whose literals sit on
    // either side of a transition: the adom selectors' x- and y-side hits
    // and the tuple selectors' pending y-events all occur.
    #[test]
    fn generated_thm24_selectors_identical(seed in 0u64..1_000_000) {
        let params = GenParams {
            states: 3,
            k: 2,
            out_degree: 2,
            literals_per_type: 2,
            unary_relations: 1,
            relational_probability: 0.6,
        };
        let ra = random_automaton(&params, seed);
        assert_thm24_selectors_identical(&ra, 1, &format!("seed={seed}"));
    }
}
