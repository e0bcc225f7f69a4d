//! Theorem 24: projections that hide some registers **and the entire
//! database**, expressed as enhanced automata.
//!
//! Given a register automaton `A` over schema `σ` with `k` registers, and
//! `m ≤ k`, the construction produces an enhanced automaton `ℬ` with `m`
//! registers and *no database* such that
//! `Reg(ℬ) = ⋃_D Π_m(Reg(D, A))` — the traces a user sees who observes
//! only the first `m` registers and knows nothing about the database.
//!
//! Following the paper's proof, `ℬ` consists of:
//!
//! * the transition skeleton of (the equality-completed, state-driven) `A`
//!   with types restricted to the visible registers' equality literals;
//! * the global equality and inequality constraints of Lemma 21 on the
//!   visible registers (value flow and equality-type-derived inequalities
//!   through the hidden registers);
//! * **finiteness constraints** `φ^i_fin`: the values of register `i` at
//!   positions whose `∼`-class touches a positive relational literal (the
//!   active-domain positions) must form a finite set — mirroring the
//!   finiteness of the hidden database;
//! * **tuple inequality constraints** `ψ^R_{E,F}`: whenever a negative
//!   literal `¬R(s̄)` at some position `n` and a positive literal `R(r̄)` at
//!   some `n′` agree (via `∼`) on the argument positions in `E`, the value
//!   tuples flowing out of the remaining positions `F` to visible registers
//!   must differ — otherwise the hidden database would have to both contain
//!   and omit one fact.
//!
//! ## Implementation notes and supported fragment
//!
//! * Types are completed *on equality atoms only* — full completion is
//!   doubly exponential in the presence of relations; the relational atoms
//!   are precisely what the tuple-inequality constraints re-express, so
//!   equality completion is what the Lemma 21 machinery needs.
//! * Constants in the schema are not supported (the paper handles them by
//!   extending the trace alphabet with the constants' isomorphism type);
//!   [`CoreError::UnsupportedProjection`] is returned.
//! * The tuple-constraint selectors are Büchi automata over marked letters,
//!   built as lazy products of value-flow trackers; a state budget guards
//!   against blow-up for large arities.
//! * The active-domain position selectors cover flows through positive
//!   literals reachable forward from the position and past-tainted values
//!   merging at or after it; adom classes connected only through paths that
//!   dip strictly before the position *and* re-merge later are beyond the
//!   two-component normal form used here (they do not arise in the paper's
//!   examples). Finiteness constraints are vacuous on ultimately periodic
//!   runs either way — see `rega_core::enhanced`.

use crate::lemma21::{self, FlowContext};
use rega_automata::{Dfa, Nba};
use rega_core::enhanced::{
    EnhancedAutomaton, FinitenessConstraint, PositionSelector, TupleInequality,
};
use rega_core::extended::ConstraintKind;
use rega_core::transform::{
    complete_for_atoms_governed, complete_for_atoms_reference_governed, state_driven_governed,
};
use rega_core::typeops::{TypeOps, TypePath};
use rega_core::{Budget, CoreError, ExtendedAutomaton, RegisterAutomaton, StateId};
use rega_data::{Literal, RegIdx, SatCache, Term, TypeId};
use std::collections::{BTreeSet, HashMap};

/// Budgets and limits for the construction.
#[derive(Clone, Copy, Debug)]
pub struct Thm24Options {
    /// Maximum number of states per tuple-constraint selector automaton.
    pub max_selector_states: usize,
    /// Maximum relation arity supported.
    pub max_arity: usize,
}

impl Default for Thm24Options {
    fn default() -> Self {
        Thm24Options {
            max_selector_states: 200_000,
            max_arity: 3,
        }
    }
}

/// The result of the database-hiding projection.
#[derive(Clone, Debug)]
pub struct DatabaseHidingProjection {
    /// The enhanced automaton `ℬ` over `m` registers, empty schema.
    pub view: EnhancedAutomaton,
    /// The equality-completed, state-driven version of the input whose
    /// states the view shares.
    pub normalized: RegisterAutomaton,
    /// Number of visible registers.
    pub m: u16,
}

/// All equality atoms over the term universe (used for equality-only
/// completion).
fn equality_atoms(k: u16) -> Vec<Literal> {
    let mut terms = Vec::new();
    for i in 0..k {
        terms.push(Term::x(i));
        terms.push(Term::y(i));
    }
    let mut atoms = Vec::new();
    for a in 0..terms.len() {
        for b in (a + 1)..terms.len() {
            atoms.push(Literal::eq(terms[a], terms[b]));
        }
    }
    atoms
}

/// Projects a register automaton onto its first `m` registers, hiding the
/// database entirely (Theorem 24).
pub fn project_hiding_database(
    ra: &RegisterAutomaton,
    m: u16,
    opts: &Thm24Options,
) -> Result<DatabaseHidingProjection, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    project_hiding_database_governed(ra, m, opts, &cache, &Budget::unlimited())
}

/// [`project_hiding_database`] sharing a caller-supplied σ-type cache
/// across the equality completion, state-driven wiring,
/// joint-satisfiability pruning and saturation, under a [`Budget`]: the
/// equality completion, state-driven wiring, saturation/restriction loop,
/// Lemma 21 builds, and the selector worklists (which can blow up
/// combinatorially) all check the deadline/ceilings at loop granularity.
pub fn project_hiding_database_governed(
    ra: &RegisterAutomaton,
    m: u16,
    opts: &Thm24Options,
    cache: &SatCache,
    budget: &Budget,
) -> Result<DatabaseHidingProjection, CoreError> {
    project_impl(ra, m, opts, cache, budget, TypePath::Fast)
}

/// [`project_hiding_database_governed`] pinned to the memoized `SigmaType`
/// reference path throughout (equality completion, joint-satisfiability
/// pruning, equality restriction). The fast kernel path is differentially
/// tested against this; both produce identical projections.
pub fn project_hiding_database_reference_governed(
    ra: &RegisterAutomaton,
    m: u16,
    opts: &Thm24Options,
    cache: &SatCache,
    budget: &Budget,
) -> Result<DatabaseHidingProjection, CoreError> {
    project_impl(ra, m, opts, cache, budget, TypePath::Reference)
}

fn project_impl(
    ra: &RegisterAutomaton,
    m: u16,
    opts: &Thm24Options,
    cache: &SatCache,
    budget: &Budget,
    path: TypePath,
) -> Result<DatabaseHidingProjection, CoreError> {
    if m > ra.k() {
        return Err(CoreError::UnsupportedProjection(format!(
            "cannot keep {m} registers: the automaton has only {}",
            ra.k()
        )));
    }
    let schema = ra.schema().clone();
    if schema.num_constants() > 0 {
        return Err(CoreError::UnsupportedProjection(
            "schemas with constants are not supported by the Theorem 24 construction".into(),
        ));
    }
    for rel in schema.relations() {
        if schema.arity(rel) > opts.max_arity {
            return Err(CoreError::UnsupportedProjection(format!(
                "relation arity {} exceeds the configured maximum {}",
                schema.arity(rel),
                opts.max_arity
            )));
        }
    }
    let _span = rega_obs::span!("views.thm24", keep = m, states = ra.num_states());

    // 1. Equality completion + state-driven normal form.
    let atoms = equality_atoms(ra.k());
    let completed = match path {
        TypePath::Fast => complete_for_atoms_governed(ra, &atoms, cache, budget)?,
        TypePath::Reference => complete_for_atoms_reference_governed(ra, &atoms, cache, budget)?,
    };
    let normalized = state_driven_governed(&completed, cache, budget)?.automaton;
    let ops = TypeOps::new(cache, ra.k(), path);
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

    // 2. The view skeleton: empty schema, equality literals on visible
    // registers, wiring filtered by joint satisfiability.
    let empty = rega_data::Schema::empty();
    let mut view = RegisterAutomaton::new(m, empty.clone());
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
        budget.tick("views.thm24.restrict")?;
        let tr = normalized.transition(t);
        if let Some(next_tid) = state_tid[tr.to.idx()] {
            if !ops.jointly_satisfiable_ids(tids[t.idx()], next_tid) {
                continue;
            }
        }
        let restricted = ops.resolve(ops.restrict_eq_registers_id(tids[t.idx()], m)?);
        let dup = view
            .outgoing(tr.from)
            .iter()
            .any(|&u| view.transition(u).to == tr.to && view.transition(u).ty == *restricted);
        if !dup {
            view.add_transition(tr.from, (*restricted).clone(), tr.to)?;
        }
    }

    // 3. Lemma 21 constraints on the visible registers.
    let mut ext = ExtendedAutomaton::new(view);
    for i in 0..m {
        for j in 0..m {
            budget.tick("views.thm24.lemma21")?;
            let eq = lemma21::eq_dfa(&normalized, RegIdx(i), RegIdx(j))?;
            ext.add_constraint_dfa(ConstraintKind::Equal, RegIdx(i), RegIdx(j), eq)?;
            let neq = lemma21::neq_dfa(&normalized, RegIdx(i), RegIdx(j))?;
            ext.add_constraint_dfa(ConstraintKind::NotEqual, RegIdx(i), RegIdx(j), neq)?;
        }
    }
    let mut enhanced = EnhancedAutomaton::new(ext);

    // 4. Finiteness constraints per visible register.
    for i in 0..m {
        enhanced.add_finiteness(FinitenessConstraint {
            register: RegIdx(i),
            selector: adom_selector(&normalized, RegIdx(i), budget)?,
        });
    }

    // 5. Tuple inequality constraints per relation, partition, and visible
    // register tuples.
    for rel in schema.relations() {
        let arity = schema.arity(rel);
        // Partitions of [arity]: F-membership bitmask (E = complement).
        for f_mask in 0..(1u32 << arity) {
            let f_slots: Vec<usize> = (0..arity).filter(|&l| f_mask & (1 << l) != 0).collect();
            let l = f_slots.len();
            // Visible register tuples ī, j̄ ∈ [m]^l.
            let total = (m as usize).pow(l as u32).max(1);
            if m == 0 && l > 0 {
                continue; // no visible registers to read the F-values from
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
                budget.check("views.thm24.tuple_constraints")?;
                if let Some(selector) =
                    tuple_selector(&normalized, rel, &f_slots, &i_regs, &j_regs, opts, budget)?
                {
                    enhanced.add_tuple_inequality(TupleInequality {
                        i_regs: i_regs.clone(),
                        j_regs: j_regs.clone(),
                        selector,
                    });
                }
            }
        }
    }

    rega_obs::event!(
        "views.thm24_built",
        view_states = enhanced.ext().ra().num_states(),
        finiteness = enhanced.finiteness_constraints().len(),
        tuple_inequalities = enhanced.tuple_inequalities().len(),
        types_interned = cache.stats().distinct_types
    );
    Ok(DatabaseHidingProjection {
        view: enhanced,
        normalized,
        m,
    })
}

/// Builds the position selector for "`(h, i)` is an active-domain
/// position": the class of `(h, i)` touches a positive relational literal.
///
/// Components (see module docs): forward flow from `(h, i)` hitting a
/// positive literal, plus — per register `r` — past-tainted values arriving
/// at `h` in register `r` whose flow merges with `(h, i)`'s flow at or
/// after `h`.
fn adom_selector(
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
fn tuple_selector(
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

    #[test]
    fn example23_construction_shape() {
        let ra = paper::example23();
        let proj = project_hiding_database(&ra, 1, &Thm24Options::default()).unwrap();
        assert_eq!(proj.view.ext().k(), 1);
        assert!(proj.view.ext().ra().has_no_database());
        assert_eq!(proj.view.finiteness_constraints().len(), 1);
        assert!(
            !proj.view.tuple_inequalities().is_empty(),
            "E/U clashes must generate tuple constraints"
        );
    }

    /// The view's traces must include every Π₁ trace of the original over a
    /// concrete database (soundness direction of Theorem 24).
    #[test]
    fn example23_view_covers_concrete_database_traces() {
        let ra = paper::example23();
        let schema = ra.schema().clone();
        let e = schema.relation("E").unwrap();
        let u = schema.relation("U").unwrap();
        let mut db = Database::new(schema);
        let (c, d0, d1) = (Value(100), Value(0), Value(1));
        db.insert(e, vec![c, d0]).unwrap();
        db.insert(u, vec![d0]).unwrap();
        db.insert(u, vec![d1]).unwrap();
        let original = rega_core::ExtendedAutomaton::new(ra.clone());
        let pool = vec![c, d0, d1];
        // Settled traces: the view's equality completion propagates one step
        // of lookahead (e.g. consecutive visible values must differ because
        // E(c,d) and ¬E(c,d) clash), so the dangling last prefix position
        // is excluded from the comparison.
        let want = simulate::projected_settled_traces(&original, &db, 4, 1, &pool, limits());
        assert!(!want.is_empty());

        let proj = project_hiding_database(&ra, 1, &Thm24Options::default()).unwrap();
        let empty_db = Database::new(Schema::empty());
        let got =
            simulate::projected_settled_traces(proj.view.ext(), &empty_db, 4, 1, &pool, limits());
        for trace in &want {
            assert!(
                got.contains(trace),
                "view must allow trace {trace:?} (it is realizable over a database)"
            );
        }
    }

    /// The view must force consecutive visible values apart: `E(c, d)` at
    /// one position and `¬E(c, d′)` at the next, with the hidden `c`
    /// constant, clash when `d = d′`. This is lookahead the equality
    /// completion internalizes.
    #[test]
    fn example23_view_forces_alternation() {
        let ra = paper::example23();
        let proj = project_hiding_database(&ra, 1, &Thm24Options::default()).unwrap();
        let ra2 = proj.view.ext().ra();
        for t in ra2.transition_ids() {
            let ty = &ra2.transition(t).ty;
            assert!(
                ty.contains(&rega_data::Literal::neq(Term::x(0), Term::y(0))),
                "every surviving transition must force x1 ≠ y1"
            );
        }
    }

    /// The tuple constraints must reject the clash pattern: with the binary
    /// `E`, a value cannot appear at both an "edge" (p) and "non-edge" (q)
    /// position when the hidden register is forced constant (register 2
    /// never changes), since `E(c, d)` and `¬E(c, d)` cannot both hold.
    #[test]
    fn example23_view_rejects_clash() {
        let ra = paper::example23();
        let proj = project_hiding_database(&ra, 1, &Thm24Options::default()).unwrap();
        // A 6-cycle p q p q p q with values 7 8 9 7 10 11: adjacent values
        // differ (so the extended layer accepts), but the value 7 appears
        // both at an even (E-required) position and an odd (E-forbidden)
        // one — the hidden database would need both `E(c,7)` and `¬E(c,7)`.
        // The tuple-inequality layer must reject.
        let view = &proj.view;
        let ra2 = view.ext().ra();
        let vals = [7u64, 8, 9, 7, 10, 11].map(Value);
        let empty_db = Database::new(Schema::empty());
        let mut exercised = false;
        // Follow any wired 6-cycle from an initial state.
        'outer: for p0 in ra2.states().filter(|&s| ra2.is_initial(s)) {
            let mut paths: Vec<Vec<rega_core::TransId>> =
                ra2.outgoing(p0).iter().map(|&t| vec![t]).collect();
            for _ in 1..6 {
                let mut next = Vec::new();
                for path in paths {
                    let cur = ra2.transition(*path.last().unwrap()).to;
                    for &t in ra2.outgoing(cur) {
                        let mut p2 = path.clone();
                        p2.push(t);
                        next.push(p2);
                    }
                }
                paths = next;
            }
            for path in paths {
                if ra2.transition(*path.last().unwrap()).to != p0 {
                    continue;
                }
                let mut configs = vec![rega_core::run::Config::new(p0, vec![vals[0]])];
                for (idx, &t) in path.iter().take(5).enumerate() {
                    configs.push(rega_core::run::Config::new(
                        ra2.transition(t).to,
                        vec![vals[idx + 1]],
                    ));
                }
                let run = rega_core::run::LassoRun::new(configs, path.clone(), 0);
                if view.ext().check_lasso_run(&empty_db, &run).is_ok() {
                    exercised = true;
                    let verdict = view.check_lasso_run(&empty_db, &run, Some(12));
                    assert!(
                        verdict.is_err(),
                        "value 7 at both an edge and a non-edge position must clash"
                    );
                    break 'outer;
                }
            }
        }
        assert!(
            exercised,
            "need at least one candidate run to exercise the clash"
        );
    }

    /// Differential test of the adom position selector against the class
    /// structure oracle: on sampled symbolic traces of Example 23's
    /// normalized automaton, `is_selected(h)` must match "the class of
    /// `(h, 0)` is an active-domain class".
    #[test]
    fn adom_selector_matches_class_structure() {
        use rega_analysis::classes::ClassStructure;
        use rega_core::transform::{complete_for_atoms, state_driven};
        let ra = paper::example23();
        let completed = complete_for_atoms(&ra, &equality_atoms(ra.k())).unwrap();
        let normalized = state_driven(&completed).automaton;
        let selector = adom_selector(&normalized, RegIdx(0), &Budget::unlimited()).unwrap();

        let ext = ExtendedAutomaton::new(normalized.clone());
        let nba = rega_core::symbolic::scontrol_nba(&normalized).unwrap();
        let lassos = rega_automata::emptiness::enumerate_accepting_lassos(&nba, 6, 6);
        assert!(!lassos.is_empty());
        let mut positives = 0usize;
        for control in &lassos {
            let horizon = control.prefix_len() + 6 * control.period();
            let s = ClassStructure::build(&ext, control, horizon).unwrap();
            if !s.consistent {
                continue;
            }
            let states = control.map(|&t| normalized.transition(t).from);
            // Stay away from the horizon boundary (classes there may still
            // grow and gain adom-ness from truncated futures).
            for h in 0..horizon.saturating_sub(2 * control.period()) {
                let oracle = s.classes[s.class_of(h, 0)].adom;
                let got = selector.is_selected(&states, h);
                assert_eq!(
                    got, oracle,
                    "trace {control}, position {h}: selector vs oracle"
                );
                if oracle {
                    positives += 1;
                }
            }
        }
        assert!(positives > 0, "the test must exercise adom positions");
    }

    #[test]
    fn constants_unsupported() {
        let schema = Schema::with(&[("R", 1)], &["c"]);
        let mut ra = RegisterAutomaton::new(1, schema);
        let p = ra.add_state("p");
        ra.set_initial(p);
        ra.set_accepting(p);
        ra.add_transition(p, rega_data::SigmaType::empty(1), p)
            .unwrap();
        assert!(matches!(
            project_hiding_database(&ra, 1, &Thm24Options::default()),
            Err(CoreError::UnsupportedProjection(_))
        ));
    }
}

#[cfg(test)]
mod ternary_tests {
    use super::*;
    use rega_core::paper;
    use rega_core::run::{Config, LassoRun};
    use rega_data::{Database, Schema, Value};

    /// The ternary Example 23: the database-hiding view must generate
    /// arity-2 tuple constraints, and reject a run in which the pair of
    /// consecutive visible values at an even position recurs at an odd one.
    #[test]
    fn ternary_example23_pair_clash() {
        let ra = paper::example23_ternary();
        let proj = project_hiding_database(&ra, 1, &Thm24Options::default()).unwrap();
        assert!(
            proj.view
                .tuple_inequalities()
                .iter()
                .any(|c| c.arity() == 2),
            "ternary E must induce arity-2 tuple constraints"
        );

        // Candidate: 8-cycle where the pair (7, 8) appears starting at an
        // even position and again at an odd one. Adjacent values may repeat
        // (the binary alternation argument does not apply here), but the
        // pair clash must be caught by the arity-2 constraint.
        let view = &proj.view;
        let ra2 = view.ext().ra();
        let empty_db = Database::new(Schema::empty());
        let vals = [7u64, 8, 11, 7, 8, 12, 13, 14].map(Value);
        let mut exercised = false;
        'outer: for p0 in ra2.states().filter(|&s| ra2.is_initial(s)) {
            let mut paths: Vec<Vec<rega_core::TransId>> =
                ra2.outgoing(p0).iter().map(|&t| vec![t]).collect();
            for _ in 1..8 {
                let mut next = Vec::new();
                for path in paths {
                    let cur = ra2.transition(*path.last().unwrap()).to;
                    for &t in ra2.outgoing(cur) {
                        let mut p2 = path.clone();
                        p2.push(t);
                        next.push(p2);
                    }
                }
                paths = next;
            }
            for path in paths {
                if ra2.transition(*path.last().unwrap()).to != p0 {
                    continue;
                }
                let mut configs = vec![Config::new(p0, vec![vals[0]])];
                for (idx, &t) in path.iter().take(7).enumerate() {
                    configs.push(Config::new(ra2.transition(t).to, vec![vals[idx + 1]]));
                }
                let run = LassoRun::new(configs, path.clone(), 0);
                if view.ext().check_lasso_run(&empty_db, &run).is_ok() {
                    exercised = true;
                    let verdict = view.check_lasso_run(&empty_db, &run, Some(16));
                    assert!(
                        verdict.is_err(),
                        "the pair (7,8) at even and odd parity must clash"
                    );
                    break 'outer;
                }
            }
        }
        assert!(
            exercised,
            "need a candidate run passing the plain constraints"
        );
    }
}
