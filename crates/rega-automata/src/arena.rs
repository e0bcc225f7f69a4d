//! Arena-backed successor storage for Büchi emptiness search.
//!
//! The materialized [`Nba`] stores each state's successors as a sparse row
//! of `(letter index, successors)` pairs — one heap allocation per
//! non-empty (state, letter) cell. That layout is convenient for
//! incremental construction (unions, products, degeneralization) but
//! wasteful for *search*, where each visited state's out-edges are scanned
//! as a unit: the per-letter vectors scatter tiny allocations across the
//! heap and cost a pointer chase per letter the state reads.
//!
//! This module provides the search-side storage instead:
//!
//! * [`EdgeArena`] — a flat pool of `(letter_index, target)` edges with one
//!   contiguous span per *expanded* state. States are expanded at most once;
//!   the number of expanded nodes is exposed so governed searches can bound
//!   partial progress.
//! * [`SuccessorSource`] — the interface the emptiness engine searches over.
//!   A source reveals a state's out-edges on demand, which lets lazy
//!   implementations (e.g. the symbolic-control NBA of a register automaton)
//!   wire transitions *on the fly* instead of materializing the full
//!   automaton up front.
//! * [`NbaSource`] — the adapter giving a materialized [`Nba`] the same
//!   interface, flattening each state's successor lists into the arena the
//!   first time the search touches it.
//!
//! The flattened edge order is fixed by contract: ascending letter index,
//! then per-letter successor insertion order — exactly the order of the
//! NBA's sparse rows, and of the nested loops over [`Nba::successors_idx`].
//! The emptiness engine's traversal (and therefore every extracted lasso)
//! is identical whichever source backs it.

use crate::buchi::Nba;
use crate::Letter;

/// Sentinel span start marking a state as not yet expanded.
const UNEXPANDED: u32 = u32::MAX;

/// A flat arena of NBA out-edges, one contiguous `(letter_index, target)`
/// span per expanded state.
///
/// The arena is append-only: a state's edges are recorded once via
/// [`EdgeArena::expand`] and immutable afterwards. [`nodes_expanded`]
/// reports how many states hold a span — the partial-progress measure
/// surfaced by governed on-the-fly searches.
///
/// [`nodes_expanded`]: EdgeArena::nodes_expanded
#[derive(Clone, Debug)]
pub struct EdgeArena {
    /// Flat edge pool; each expanded state owns a contiguous range.
    edges: Vec<(u32, u32)>,
    /// `span[s] = (start, len)` into `edges`, or `start == UNEXPANDED`.
    span: Vec<(u32, u32)>,
    /// Number of expanded states (`O(1)` for diagnostics).
    expanded: usize,
}

impl EdgeArena {
    /// An empty arena for an automaton with `num_states` states.
    pub fn new(num_states: usize) -> Self {
        EdgeArena {
            edges: Vec::new(),
            span: vec![(UNEXPANDED, 0); num_states],
            expanded: 0,
        }
    }

    /// Number of states the arena was sized for.
    pub fn num_states(&self) -> usize {
        self.span.len()
    }

    /// Whether state `s` has been expanded.
    pub fn is_expanded(&self, s: usize) -> bool {
        self.span[s].0 != UNEXPANDED
    }

    /// Number of states expanded so far.
    pub fn nodes_expanded(&self) -> usize {
        self.expanded
    }

    /// Total number of edges stored.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edges of `s`, if expanded.
    pub fn get(&self, s: usize) -> Option<&[(u32, u32)]> {
        let (start, len) = self.span[s];
        if start == UNEXPANDED {
            return None;
        }
        Some(&self.edges[start as usize..start as usize + len as usize])
    }

    /// Records the out-edges of `s` (must not already be expanded) and
    /// returns the stored slice.
    pub fn expand(
        &mut self,
        s: usize,
        edges: impl IntoIterator<Item = (u32, u32)>,
    ) -> &[(u32, u32)] {
        debug_assert!(!self.is_expanded(s), "state {s} expanded twice");
        let start = self.edges.len();
        self.edges.extend(edges);
        let len = self.edges.len() - start;
        assert!(
            start < UNEXPANDED as usize && len <= u32::MAX as usize,
            "edge arena overflow"
        );
        self.span[s] = (start as u32, len as u32);
        self.expanded += 1;
        &self.edges[start..start + len]
    }
}

/// A supplier of NBA structure for the emptiness engine.
///
/// `edges` takes `&mut self` so lazy implementations can compute and cache
/// successor lists on first demand; repeated calls for the same state must
/// return the same edges. Edge order is part of the contract: ascending
/// letter index, then per-letter successor order, matching the nested
/// iteration over a materialized [`Nba`]. This pins the engine's traversal —
/// and every lasso it extracts — independently of which source backs it.
pub trait SuccessorSource {
    /// The letter type labelling transitions.
    type L: Letter;

    /// Number of states (known up front even for lazy sources).
    fn num_states(&self) -> usize;

    /// The alphabet, indexed by the letter indices appearing in edges.
    fn alphabet(&self) -> &[Self::L];

    /// The initial states.
    fn inits(&self) -> &[usize];

    /// Whether `s` is accepting.
    fn is_accepting(&self, s: usize) -> bool;

    /// All out-edges of `s` as `(letter_index, target)`, in ascending
    /// letter-index order then per-letter successor order.
    fn edges(&mut self, s: usize) -> &[(u32, u32)];
}

/// [`SuccessorSource`] over a materialized [`Nba`], flattening each state's
/// nested successor lists into an [`EdgeArena`] on first visit.
pub struct NbaSource<'a, L> {
    nba: &'a Nba<L>,
    arena: EdgeArena,
}

impl<'a, L: Letter> NbaSource<'a, L> {
    /// Wraps a materialized NBA.
    pub fn new(nba: &'a Nba<L>) -> Self {
        NbaSource {
            arena: EdgeArena::new(nba.num_states()),
            nba,
        }
    }

    /// The underlying arena (e.g. to inspect how much the search touched).
    pub fn arena(&self) -> &EdgeArena {
        &self.arena
    }
}

impl<L: Letter> SuccessorSource for NbaSource<'_, L> {
    type L = L;

    fn num_states(&self) -> usize {
        self.nba.num_states()
    }

    fn alphabet(&self) -> &[L] {
        self.nba.alphabet()
    }

    fn inits(&self) -> &[usize] {
        self.nba.inits()
    }

    fn is_accepting(&self, s: usize) -> bool {
        self.nba.is_accepting(s)
    }

    fn edges(&mut self, s: usize) -> &[(u32, u32)] {
        if !self.arena.is_expanded(s) {
            let nba = self.nba;
            self.arena.expand(
                s,
                nba.row(s)
                    .flat_map(|(li, succs)| succs.iter().map(move |&t| (li as u32, t as u32))),
            );
        }
        self.arena.get(s).expect("just expanded")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Nba<u8> {
        // 0 -a-> 1, 0 -b-> 2, 1 -a-> 3, 2 -b-> 3, 3 -a-> 0.
        let mut a = Nba::new(vec![0, 1], 4);
        a.set_init(0);
        a.set_accepting(3, true);
        a.add_transition(0, &0, 1);
        a.add_transition(0, &1, 2);
        a.add_transition(1, &0, 3);
        a.add_transition(2, &1, 3);
        a.add_transition(3, &0, 0);
        a
    }

    #[test]
    fn arena_expands_once_and_counts() {
        let mut arena = EdgeArena::new(3);
        assert_eq!(arena.nodes_expanded(), 0);
        assert!(arena.get(1).is_none());
        let e = arena.expand(1, vec![(0, 2), (1, 0)]);
        assert_eq!(e, &[(0, 2), (1, 0)]);
        assert_eq!(arena.nodes_expanded(), 1);
        assert!(arena.is_expanded(1));
        assert_eq!(arena.get(1).unwrap(), &[(0, 2), (1, 0)]);
        arena.expand(0, std::iter::empty());
        assert_eq!(arena.nodes_expanded(), 2);
        assert_eq!(arena.get(0).unwrap(), &[] as &[(u32, u32)]);
        assert_eq!(arena.edge_count(), 2);
    }

    #[test]
    fn nba_source_flattens_in_letter_order() {
        let nba = diamond();
        let mut src = NbaSource::new(&nba);
        assert_eq!(src.edges(0), &[(0, 1), (1, 2)]);
        assert_eq!(src.edges(3), &[(0, 0)]);
        // Second call returns the cached span; no further expansion.
        assert_eq!(src.edges(0), &[(0, 1), (1, 2)]);
        assert_eq!(src.arena().nodes_expanded(), 2);
        assert_eq!(src.inits(), &[0]);
        assert!(src.is_accepting(3) && !src.is_accepting(0));

        // A sparse NBA over a large alphabet, its transitions added out of
        // letter order: each span must match the dense walk over every
        // letter index.
        let mut sparse = Nba::new((0..5_000u32).collect(), 3);
        sparse.set_init(0);
        for (from, letter, to) in [
            (0, 4_321, 2),
            (0, 7, 1),
            (0, 4_321, 0),
            (0, 7, 2),
            (1, 4_999, 0),
            (1, 0, 1),
            (0, 1_000, 1),
        ] {
            sparse.add_transition(from, &letter, to);
        }
        let mut src = NbaSource::new(&sparse);
        for s in 0..sparse.num_states() {
            let dense: Vec<(u32, u32)> = (0..sparse.alphabet().len())
                .flat_map(|li| {
                    let succs = sparse.successors_idx(s, li);
                    succs.iter().map(move |&t| (li as u32, t as u32))
                })
                .collect();
            assert_eq!(src.edges(s), dense.as_slice(), "state {s}");
        }
        assert_eq!(
            src.edges(0),
            &[(7, 1), (7, 2), (1_000, 1), (4_321, 2), (4_321, 0)]
        );
    }
}
