//! Symbolic control traces and `SControl(A)` (Section 2).
//!
//! An ω-word `((q_n, δ_n))` is a *symbolic control trace* of `A` if
//! (i) `q_0 ∈ I` and some state of `F` occurs infinitely often,
//! (ii) every `(q_n, δ_n, q_{n+1})` is a transition of `A`, and
//! (iii) consecutive types agree on the shared registers:
//! `δ_n|ȳ ≅ δ_{n+1}|x̄` under `y_i ↦ x_i`.
//!
//! `SControl(A)` is ω-regular; this module builds its Büchi automaton over
//! the alphabet of transition ids. The paper's Theorem 9 (stage 1) re-proves
//! the result of Koutsos–Vianu that `Control(A) = SControl(A)` for register
//! automata; the executable counterpart (turning a symbolic lasso into a
//! concrete database and run) lives in `rega-analysis`.
//!
//! Both builders — the eager [`scontrol_nba_with`] and the lazy
//! [`SControlSource`] — answer condition (iii) through a
//! [`TypeOps`], which picks the kernel or the reference per type pair,
//! answers each distinct ordered pair once, and counts the split.

use crate::automaton::{RegisterAutomaton, TransId};
use crate::error::CoreError;
use crate::typeops::{TypeOps, TypePath};
use rega_automata::{EdgeArena, Lasso, Nba, SuccessorSource};
use rega_data::{Budget, GovernError, SatCache, TypeId};
use std::cell::RefCell;
use std::rc::Rc;

/// Builds the Büchi automaton recognizing `SControl(A)` over the alphabet of
/// transition ids, with a private, throwaway [`SatCache`]. Prefer
/// [`scontrol_nba_governed`] when a shared cache is available (repeated
/// builds, or a surrounding analysis that reuses the same types).
pub fn scontrol_nba(ra: &RegisterAutomaton) -> Result<Nba<TransId>, CoreError> {
    let cache = SatCache::new(ra.schema().clone());
    scontrol_nba_governed(ra, &cache, &Budget::unlimited())
}

/// Builds the Büchi automaton recognizing `SControl(A)` over the alphabet of
/// transition ids, memoizing every σ-type operation in `cache` (which must
/// be tied to `ra`'s schema), under a [`Budget`]. The quadratic wiring loop
/// (one joint-satisfiability check per ordered transition pair, each over a
/// `2k`-register encoding) ticks per pair, and the interned-type ceiling is
/// enforced against `cache`.
///
/// Every pair is answered on the reference path (a [`TypePath::Reference`]
/// [`TypeOps`], so by [`SatCache::jointly_satisfiable_ids`] once per
/// distinct type pair); this is the retained reference the differential
/// suites compare the kernel-backed build ([`scontrol_nba_with`] over a
/// fast [`TypeOps`]) against.
///
/// NBA states: a fresh start state, plus one state per transition meaning
/// "this transition just fired". A letter `t` can follow `u` iff
/// `to(u) = from(t)` and the types of `u` and `t` agree on the shared
/// registers.
///
/// ## Accepting-state convention
///
/// State `1 + t.idx()` is Büchi-accepting iff `from(t) ∈ F`. This is the
/// correct orientation: after reading the letter at position `n` the NBA
/// sits in state `1 + t_n.idx()`, and condition (i) of symbolic control
/// traces asks that the control states `q_n = from(t_n)` visit `F`
/// infinitely often — exactly when letters whose *source* state is
/// accepting fire infinitely often. (A `to(t) ∈ F` convention would accept
/// the same lassos, since within a cycle the source and target states
/// coincide as sets, but it would misalign the state sequence by one
/// position relative to the paper's trace `((q_n, δ_n))`.) The run-based
/// oracle `LassoRun::validate` checks `F` against the looping
/// configurations `configs[loop_start..]` — the *sources* of the cycle's
/// transitions — and the differential test in `tests/verification_pipeline.rs`
/// pins the two against each other on automata where `from`/`to`
/// acceptance differ.
pub fn scontrol_nba_governed(
    ra: &RegisterAutomaton,
    cache: &SatCache,
    budget: &Budget,
) -> Result<Nba<TransId>, CoreError> {
    let ops = TypeOps::new(cache, ra.k(), TypePath::Reference);
    scontrol_nba_with(ra, &ops, budget)
}

/// The `SControl(A)` wiring loop of [`scontrol_nba_governed`], with each
/// pair's joint satisfiability answered by `ops` over the interned
/// transition types (interned in `ops`' cache). The chase passes a
/// [`TypePath::Fast`] dispatcher; since only the satisfiability backend
/// changes, the NBA is identical — same states, acceptance, edges in the
/// same order.
pub fn scontrol_nba_with(
    ra: &RegisterAutomaton,
    ops: &TypeOps,
    budget: &Budget,
) -> Result<Nba<TransId>, CoreError> {
    let _span = rega_obs::span!("scontrol.nba_build");
    let cache = ops.cache();
    let alphabet: Vec<TransId> = ra.transition_ids().collect();
    let n = alphabet.len();
    // Compatibility of consecutive transitions: `t` can follow `u` iff
    // `to(u) = from(t)` and the types are *jointly satisfiable* on the
    // shared registers: `exists d_n d_{n+1} d_{n+2}` with `delta_u(d_n, d_{n+1})`
    // and `delta_t(d_{n+1}, d_{n+2})`. For complete types this coincides with
    // the paper's condition (iii) (`delta_u|y = delta_t|x` -- maximal restrictions
    // are jointly satisfiable iff equal); for incomplete types syntactic
    // equality would wrongly reject, e.g., `P(x1)` followed by `P(x1)`.
    // Computed once per distinct *pair of types* by `ops`.
    let type_of: Vec<TypeId> = alphabet
        .iter()
        .map(|&t| ops.intern(&ra.transition(t).ty))
        .collect();
    // State 0 = start; state 1 + t.idx() = "transition t just fired".
    let mut nba = Nba::new(alphabet.clone(), n + 1);
    nba.set_init(0);
    for &t in &alphabet {
        if ra.is_initial(ra.transition(t).from) {
            nba.add_transition(0, &t, 1 + t.idx());
        }
        nba.set_accepting(1 + t.idx(), ra.is_accepting(ra.transition(t).from));
    }
    let mut edges = 0u64;
    for &u in &alphabet {
        for &t in &alphabet {
            budget.tick_mem("scontrol.nba_build", || cache.stats().distinct_types)?;
            if ra.transition(u).to == ra.transition(t).from
                && ops.jointly_satisfiable_ids(type_of[u.idx()], type_of[t.idx()])
            {
                nba.add_transition(1 + u.idx(), &t, 1 + t.idx());
                edges += 1;
            }
        }
    }
    rega_obs::event!(
        "scontrol.nba_built",
        states = n + 1,
        edges = edges,
        types_interned = cache.stats().distinct_types
    );
    Ok(nba)
}

/// A lazy [`SuccessorSource`] revealing the `SControl(A)` Büchi automaton
/// on demand, without materializing it.
///
/// States and acceptance follow [`scontrol_nba_governed`] exactly (state 0 =
/// start, state `1 + t.idx()` = "transition `t` just fired", accepting iff
/// `from(t) ∈ F`), and edges are produced in ascending letter order — so the
/// generic emptiness engine traverses precisely the automaton the eager
/// builder would produce, but only wires the states reachable from the
/// start. The engine's breadth-first search expands every reachable state
/// (its component pass reuses those edges) before the first lasso is handed
/// over, so what stays unwired is the unreachable part, satisfiable
/// instances included.
///
/// Joint satisfiability of consecutive types — the per-edge test — goes
/// through a [`TypePath::Fast`] [`TypeOps`]: the `TypeBits` word-level
/// kernel when the schema/register fragment supports it
/// (`3k + |consts| ≤ 16` terms), the memoized [`SatCache`] path otherwise,
/// once per distinct type pair. Its `typebits.stats` event lands in the
/// span the source is dropped in.
///
/// ## Governance
///
/// Expansion ticks the [`Budget`] once per candidate letter (phase
/// `emptiness.on_the_fly.expand`) — the same per-pair granularity as the
/// eager wiring loop. The search engine in `rega-automata` cannot carry a
/// `Result` through its traversal, so a trip is *stashed* in a shared cell
/// ([`SControlSource::trip_handle`]) and the source thereafter reports no
/// edges, which drains the search promptly; callers poll the cell from
/// their abort hook and re-raise the stashed [`GovernError`]. A tripped
/// expansion is **not** recorded in the arena and memoizes nothing.
pub struct SControlSource<'a> {
    ra: &'a RegisterAutomaton,
    ops: TypeOps<'a>,
    budget: &'a Budget,
    alphabet: Vec<TransId>,
    inits: [usize; 1],
    type_of: Vec<TypeId>,
    arena: EdgeArena,
    scratch: Vec<(u32, u32)>,
    trip: Rc<RefCell<Option<GovernError>>>,
    nodes_ctr: rega_obs::Counter,
    edges_ctr: rega_obs::Counter,
}

impl<'a> SControlSource<'a> {
    /// Prepares a lazy source over `ra`'s symbolic control automaton.
    ///
    /// Interns every transition type into `cache` up front (linear, exactly
    /// what the eager builder does).
    pub fn new(ra: &'a RegisterAutomaton, cache: &'a SatCache, budget: &'a Budget) -> Self {
        let alphabet: Vec<TransId> = ra.transition_ids().collect();
        let type_of: Vec<TypeId> = alphabet
            .iter()
            .map(|&t| cache.intern(&ra.transition(t).ty))
            .collect();
        let n = alphabet.len();
        let registry = rega_obs::global();
        SControlSource {
            ra,
            ops: TypeOps::new(cache, ra.k(), TypePath::Fast),
            budget,
            inits: [0],
            type_of,
            arena: EdgeArena::new(n + 1),
            scratch: Vec::new(),
            trip: Rc::new(RefCell::new(None)),
            nodes_ctr: registry.counter("emptiness.on_the_fly.nodes_expanded"),
            edges_ctr: registry.counter("emptiness.on_the_fly.edges_wired"),
            alphabet,
        }
    }

    /// Shared cell a budget trip is stashed in. Abort hooks poll it (the
    /// engine's traversal cannot return `Result`); the caller re-raises the
    /// error after the search drains.
    pub fn trip_handle(&self) -> Rc<RefCell<Option<GovernError>>> {
        Rc::clone(&self.trip)
    }

    /// Takes the stashed budget trip, if any.
    pub fn take_trip(&self) -> Option<GovernError> {
        self.trip.borrow_mut().take()
    }

    /// The arena backing expanded states (partial-progress diagnostics).
    pub fn arena(&self) -> &EdgeArena {
        &self.arena
    }

    /// Computes the out-edges of `s` into `scratch`, ticking the budget once
    /// per candidate letter. `Err` means the budget tripped mid-expansion.
    fn expand_into_scratch(&mut self, s: usize) -> Result<(), GovernError> {
        self.scratch.clear();
        let cache = self.ops.cache();
        if s == 0 {
            for (ti, &t) in self.alphabet.iter().enumerate() {
                self.budget.tick_mem("emptiness.on_the_fly.expand", || {
                    cache.stats().distinct_types
                })?;
                if self.ra.is_initial(self.ra.transition(t).from) {
                    self.scratch.push((ti as u32, (1 + ti) as u32));
                }
            }
        } else {
            let u = s - 1;
            let u_to = self.ra.transition(self.alphabet[u]).to;
            for (ti, &t) in self.alphabet.iter().enumerate() {
                self.budget.tick_mem("emptiness.on_the_fly.expand", || {
                    cache.stats().distinct_types
                })?;
                if self.ra.transition(t).from == u_to
                    && self
                        .ops
                        .jointly_satisfiable_ids(self.type_of[u], self.type_of[ti])
                {
                    self.scratch.push((ti as u32, (1 + ti) as u32));
                }
            }
        }
        Ok(())
    }
}

impl SuccessorSource for SControlSource<'_> {
    type L = TransId;

    fn num_states(&self) -> usize {
        self.alphabet.len() + 1
    }

    fn alphabet(&self) -> &[TransId] {
        &self.alphabet
    }

    fn inits(&self) -> &[usize] {
        &self.inits
    }

    fn is_accepting(&self, s: usize) -> bool {
        // Matches scontrol_nba_governed: state 1 + t.idx() accepts iff
        // from(t) ∈ F; the start state never does.
        s > 0 && {
            let t = self.alphabet[s - 1];
            self.ra.is_accepting(self.ra.transition(t).from)
        }
    }

    fn edges(&mut self, s: usize) -> &[(u32, u32)] {
        const EMPTY: &[(u32, u32)] = &[];
        if self.trip.borrow().is_some() {
            return EMPTY;
        }
        if !self.arena.is_expanded(s) {
            if let Err(g) = self.expand_into_scratch(s) {
                *self.trip.borrow_mut() = Some(g);
                return EMPTY;
            }
            self.nodes_ctr.inc();
            self.edges_ctr.add(self.scratch.len() as u64);
            let scratch = std::mem::take(&mut self.scratch);
            self.arena.expand(s, scratch.iter().copied());
            self.scratch = scratch;
        }
        self.arena.get(s).expect("just expanded")
    }
}

/// Whether a lasso of transition ids is a symbolic control trace of `A`.
pub fn is_symbolic_control_trace(
    ra: &RegisterAutomaton,
    w: &Lasso<TransId>,
) -> Result<bool, CoreError> {
    Ok(scontrol_nba(ra)?.accepts_lasso(w))
}

/// Finds some symbolic control trace of `A` (a lasso), or `None` if there is
/// none. This is the (database-free) skeleton of the emptiness check; the
/// full emptiness procedure for *extended* automata additionally enforces
/// the global constraints (see `rega-analysis::emptiness`).
pub fn find_symbolic_control_trace(
    ra: &RegisterAutomaton,
) -> Result<Option<Lasso<TransId>>, CoreError> {
    Ok(rega_automata::emptiness::find_accepting_lasso(
        &scontrol_nba(ra)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use rega_data::{Literal, Schema, SigmaType, Term};

    #[test]
    fn example1_control_trace_is_symbolic() {
        let (ra, _) = paper::example1();
        // Control(A) = ((q1,δ1)(q2,δ2)*(q2,δ3))^ω — check one instance.
        let w = Lasso::periodic(vec![TransId(0), TransId(1), TransId(1), TransId(2)]);
        assert!(is_symbolic_control_trace(&ra, &w).unwrap());
    }

    #[test]
    fn example1_wrong_wiring_rejected() {
        let (ra, _) = paper::example1();
        // δ3 must be followed by δ1 (back at q1): repeating δ3 is not wired.
        let w = Lasso::periodic(vec![TransId(2)]);
        assert!(!is_symbolic_control_trace(&ra, &w).unwrap());
    }

    #[test]
    fn type_agreement_enforced() {
        // p --(y1=y1... empty)--> p with two types disagreeing on x1=y1 vs
        // the next type's pre-side.
        let mut ra = RegisterAutomaton::new(1, Schema::empty());
        let p = ra.add_state("p");
        let q = ra.add_state("q");
        ra.set_initial(p);
        ra.set_accepting(p);
        // δa: y-side says nothing; post restricted to y is empty: x side of
        // δb says x1 ≠ x1? cannot — use relation-free disagreement:
        // δa: y1 = x1 (post side: nothing about y alone) — need types whose
        // post/pre restrictions differ. Use k=2:
        let _ = (p, q);
        let mut ra = RegisterAutomaton::new(2, Schema::empty());
        let p = ra.add_state("p");
        let q = ra.add_state("q");
        ra.set_initial(p);
        ra.set_accepting(p);
        // δa forces y1 = y2; δb's pre side forces x1 ≠ x2: incompatible.
        let da = SigmaType::new(2, [Literal::eq(Term::y(0), Term::y(1))]);
        let db = SigmaType::new(2, [Literal::neq(Term::x(0), Term::x(1))]);
        let ta = ra.add_transition(p, da, q).unwrap();
        let tb = ra.add_transition(q, db, p).unwrap();
        let w = Lasso::periodic(vec![ta, tb]);
        assert!(!is_symbolic_control_trace(&ra, &w).unwrap());
    }

    #[test]
    fn buchi_condition_on_traces() {
        // q1 initial+accepting, q2 not accepting; loop at q2 forever after
        // leaving q1 is not accepting.
        let mut ra = RegisterAutomaton::new(0, Schema::empty());
        let q1 = ra.add_state("q1");
        let q2 = ra.add_state("q2");
        ra.set_initial(q1);
        ra.set_accepting(q1);
        let t1 = ra.add_transition(q1, SigmaType::empty(0), q2).unwrap();
        let t2 = ra.add_transition(q2, SigmaType::empty(0), q2).unwrap();
        let w = Lasso::new(vec![t1], vec![t2]);
        assert!(!is_symbolic_control_trace(&ra, &w).unwrap());
    }

    #[test]
    fn find_trace_in_nonempty_automaton() {
        let (ra, _) = paper::example1();
        let w = find_symbolic_control_trace(&ra).unwrap().unwrap();
        assert!(is_symbolic_control_trace(&ra, &w).unwrap());
    }

    #[test]
    fn lazy_source_matches_eager_nba() {
        // Edge-for-edge agreement between the lazy source and the
        // materialized SControl NBA on the paper's automata.
        for ext in [
            paper::example1().0,
            paper::example5().ra().clone(),
            paper::example7().ra().clone(),
            paper::example8().ra().clone(),
        ] {
            let cache = SatCache::new(ext.schema().clone());
            let budget = Budget::unlimited();
            let nba = scontrol_nba_governed(&ext, &cache, &budget).unwrap();
            let mut src = SControlSource::new(&ext, &cache, &budget);
            assert_eq!(src.num_states(), nba.num_states());
            assert_eq!(src.alphabet(), nba.alphabet());
            assert_eq!(src.inits(), nba.inits());
            for s in 0..nba.num_states() {
                assert_eq!(src.is_accepting(s), nba.is_accepting(s), "state {s}");
                let eager: Vec<(u32, u32)> = (0..nba.alphabet().len())
                    .flat_map(|li| {
                        nba.successors_idx(s, li)
                            .iter()
                            .map(move |&t| (li as u32, t as u32))
                    })
                    .collect();
                assert_eq!(src.edges(s), &eager[..], "state {s}");
            }
            assert!(src.take_trip().is_none());
        }
    }

    #[test]
    fn lazy_source_same_lasso_as_eager() {
        let (ra, _) = paper::example1();
        let cache = SatCache::new(ra.schema().clone());
        let budget = Budget::unlimited();
        let eager = find_symbolic_control_trace(&ra).unwrap().unwrap();
        let mut src = SControlSource::new(&ra, &cache, &budget);
        let lazy = rega_automata::emptiness::find_accepting_lasso_in(&mut src).unwrap();
        assert_eq!(eager, lazy);
    }

    #[test]
    fn lazy_source_stashes_budget_trip() {
        let (ra, _) = paper::example1();
        let cache = SatCache::new(ra.schema().clone());
        let budget = rega_data::Budget::start(&rega_data::BudgetSpec {
            max_nodes: Some(2),
            ..rega_data::BudgetSpec::default()
        });
        let mut src = SControlSource::new(&ra, &cache, &budget);
        let trip = src.trip_handle();
        // State 0 expansion ticks once per transition (3 > 2): trips.
        assert_eq!(src.edges(0), &[] as &[(u32, u32)]);
        let g = trip.borrow().clone().expect("budget tripped");
        assert_eq!(g.phase(), "emptiness.on_the_fly.expand");
        // Nothing was recorded; subsequent queries stay empty and cheap.
        assert_eq!(src.arena().nodes_expanded(), 0);
        assert_eq!(src.edges(1), &[] as &[(u32, u32)]);
        assert!(src.take_trip().is_some());
    }

    #[test]
    fn find_trace_empty_automaton() {
        // No accepting state reachable on a cycle.
        let mut ra = RegisterAutomaton::new(0, Schema::empty());
        let p = ra.add_state("p");
        let q = ra.add_state("q");
        ra.set_initial(p);
        ra.set_accepting(q); // q has no outgoing transitions
        ra.add_transition(p, SigmaType::empty(0), q).unwrap();
        assert!(find_symbolic_control_trace(&ra).unwrap().is_none());
    }
}
