//! Emptiness checking for Büchi automata, with accepting-lasso extraction.
//!
//! Nonemptiness of an NBA is witnessed by an ultimately periodic word: a
//! path from an initial state to an accepting state that lies on a cycle.
//! The decision procedures of Corollary 10 and Theorem 12 reduce to this.
//!
//! The search engine is generic over a [`SuccessorSource`], so it runs
//! identically over a materialized [`Nba`] (via [`NbaSource`]) and over lazy
//! sources that wire transitions on demand — the on-the-fly symbolic-control
//! search of `rega-analysis` never materializes the full automaton on
//! satisfiable instances. The source contract fixes edge order, so the
//! traversal, the dedup decisions, and every extracted lasso are the same
//! whichever backing is used.

use crate::arena::{NbaSource, SuccessorSource};
use crate::buchi::Nba;
use crate::lasso::Lasso;
use crate::scc::Sccs;
use crate::Letter;
use std::collections::VecDeque;

/// What every search needs before its first pivot: the breadth-first tree
/// from the initial states, recording `(parent_state, letter_index)` for
/// prefix reconstruction, and the strongly connected components of the
/// reachable states.
///
/// The components are computed over the edges the breadth-first search
/// has just expanded, so they expand no state anew. A pivot is *live* when
/// it is accepting and on a cycle ([`Sccs::on_cycle`]); a cycle through it
/// never leaves its component, because a state outside it cannot return.
struct Reach {
    parent: Vec<Option<(usize, usize)>>,
    sccs: Sccs,
}

impl Reach {
    fn new<S: SuccessorSource>(src: &mut S) -> Reach {
        let inits = src.inits().to_vec();
        let parent = bfs(src, &inits);
        let sccs = Sccs::new(src.num_states(), inits, |u, i| {
            src.edges(u).get(i).map(|&(_, t)| t as usize)
        });
        Reach { parent, sccs }
    }

    fn is_live<S: SuccessorSource>(&self, src: &S, f: usize) -> bool {
        src.is_accepting(f) && self.sccs.on_cycle(f)
    }
}

/// Breadth-first search from `sources` over the automaton's transition
/// graph, recording `(parent_state, letter_index)` for path reconstruction.
fn bfs<S: SuccessorSource>(src: &mut S, sources: &[usize]) -> Vec<Option<(usize, usize)>> {
    // parent[s] = Some((p, li)) if s reached from p via letter li;
    // sources are marked with a sentinel parent (s, usize::MAX).
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; src.num_states()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if parent[s].is_none() {
            parent[s] = Some((s, usize::MAX));
            queue.push_back(s);
        }
    }
    while let Some(s) = queue.pop_front() {
        for &(li, t) in src.edges(s) {
            let t = t as usize;
            if parent[t].is_none() {
                parent[t] = Some((s, li as usize));
                queue.push_back(t);
            }
        }
    }
    parent
}

/// Reconstructs the letter sequence of the BFS path ending at `target`.
fn path_letters<L: Letter>(
    letters: &[L],
    parent: &[Option<(usize, usize)>],
    mut target: usize,
) -> Vec<L> {
    let mut out = Vec::new();
    while let Some((p, li)) = parent[target] {
        if li == usize::MAX {
            break;
        }
        out.push(letters[li].clone());
        target = p;
    }
    out.reverse();
    out
}

/// The shortest cycle through the live pivot `pivot`, as letters. The
/// breadth-first search from its successors enqueues only states of its
/// component: every state that can return to `pivot` is one, and each of
/// them is discovered from one, so the cycle found is the one an
/// unrestricted search finds. `None` only when a lazy source stopped
/// revealing edges (a budget trip, which the caller's abort hook reports).
fn cycle_through<S: SuccessorSource>(
    src: &mut S,
    letters: &[S::L],
    sccs: &Sccs,
    pivot: usize,
) -> Option<Vec<S::L>> {
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; src.num_states()];
    let mut queue = VecDeque::new();
    for &(li, t) in src.edges(pivot) {
        let (li, t) = (li as usize, t as usize);
        if t == pivot {
            return Some(vec![letters[li].clone()]);
        }
        if parent[t].is_none() && sccs.same_component(t, pivot) {
            parent[t] = Some((pivot, li));
            queue.push_back(t);
        }
    }
    while let Some(s) = queue.pop_front() {
        for &(li, t) in src.edges(s) {
            let (li, t) = (li as usize, t as usize);
            if t == pivot {
                // Reconstruct pivot -> ... -> s, then s -> pivot.
                let mut out = vec![letters[li].clone()];
                let mut cur = s;
                while let Some((p, pli)) = parent[cur] {
                    out.push(letters[pli].clone());
                    if p == pivot {
                        break;
                    }
                    cur = p;
                }
                out.reverse();
                return Some(out);
            }
            if parent[t].is_none() && sccs.same_component(t, pivot) {
                parent[t] = Some((s, li));
                queue.push_back(t);
            }
        }
    }
    None
}

/// [`find_accepting_lasso`] over any [`SuccessorSource`]: the shortest
/// cycle through the first live pivot, after the shortest prefix to it.
/// Lazy sources are only expanded along the frontier the search reaches.
pub fn find_accepting_lasso_in<S: SuccessorSource>(src: &mut S) -> Option<Lasso<S::L>> {
    let letters = src.alphabet().to_vec();
    let reach = Reach::new(src);
    let f = (0..src.num_states()).find(|&f| reach.is_live(src, f))?;
    let cycle = cycle_through(src, &letters, &reach.sccs, f)?;
    Some(Lasso::new(path_letters(&letters, &reach.parent, f), cycle))
}

/// Decides emptiness of the NBA. Returns an accepting lasso if the language
/// is non-empty, `None` otherwise.
pub fn find_accepting_lasso<L: Letter>(nba: &Nba<L>) -> Option<Lasso<L>> {
    find_accepting_lasso_in(&mut NbaSource::new(nba))
}

/// Whether the NBA's language is empty.
pub fn is_empty<L: Letter>(nba: &Nba<L>) -> bool {
    find_accepting_lasso(nba).is_none()
}

/// Enumerates up to `max_lassos` *distinct* accepting lassos: for each
/// reachable accepting state on a cycle, simple cycles through it (length
/// ≤ `max_cycle_len`) are enumerated by DFS, each paired with a shortest
/// prefix from the initial states.
///
/// The decision procedures of `rega-analysis` search this family (plus
/// pumped variants) for a lasso whose induced constraint structure is
/// consistent; enumerating *simple* cycles is the right granularity because
/// any accepted ω-word is a shuffle of simple cycles.
pub fn enumerate_accepting_lassos<L: Letter>(
    nba: &Nba<L>,
    max_lassos: usize,
    max_cycle_len: usize,
) -> Vec<Lasso<L>> {
    enumerate_accepting_lassos_budgeted(nba, max_lassos, max_cycle_len, 500_000)
}

/// [`enumerate_accepting_lassos`] with an explicit bound on the number of
/// DFS expansions — large or dense automata (e.g. verification products)
/// would otherwise explode combinatorially. When the budget is hit, the
/// lassos found so far are returned; shortest cycles are explored first, so
/// small witnesses are found even under tight budgets.
pub fn enumerate_accepting_lassos_budgeted<L: Letter>(
    nba: &Nba<L>,
    max_lassos: usize,
    max_cycle_len: usize,
    max_steps: usize,
) -> Vec<Lasso<L>> {
    enumerate_accepting_lassos_abortable(nba, max_lassos, max_cycle_len, max_steps, &mut || false)
}

/// [`enumerate_accepting_lassos_budgeted`] with an external abort hook,
/// polled once per state in each pivot loop and once per DFS expansion.
/// When `abort` returns `true` the search stops immediately and the lassos
/// found so far are returned. This is how higher layers (which this crate
/// cannot see) plug deadline/cancellation governance into the search: the
/// hook calls their budget's tick and reports whether it tripped.
pub fn enumerate_accepting_lassos_abortable<L: Letter>(
    nba: &Nba<L>,
    max_lassos: usize,
    max_cycle_len: usize,
    max_steps: usize,
    abort: &mut dyn FnMut() -> bool,
) -> Vec<Lasso<L>> {
    for_each_accepting_lasso(
        &mut NbaSource::new(nba),
        max_lassos,
        max_cycle_len,
        max_steps,
        abort,
        &mut |_| false,
    )
}

/// The enumeration engine behind [`enumerate_accepting_lassos_abortable`],
/// generic over the source and streaming each lasso to `sink` as it is
/// found.
///
/// Lassos are produced in the same order, with the same `same_word` dedup
/// and the same budget accounting, as the materialized enumeration — the
/// sink cannot influence *which* lassos appear, only when to stop. `sink`
/// is called once per newly-found lasso; returning `true` stops the search
/// immediately (the triggering lasso is still included in the result). This
/// is the hook for on-the-fly interleaving: try an expensive per-lasso
/// check (e.g. a witness-run construction) as soon as a candidate appears
/// and stop on first success, instead of materializing the automaton and
/// the full candidate list first.
///
/// Only live pivots (accepting states in a cyclic component, see
/// [`Sccs`]) are searched, and no search leaves the pivot's component.
/// What that prunes could never close a cycle, so the lassos and their
/// order are those of an unpruned search; only its wasted DFS steps are
/// gone, so `max_steps` is reached later, never sooner. Phase 1 yields a
/// lasso for every live pivot, so with `max_lassos > 0` and no abort an
/// empty result proves that no accepting cycle is reachable.
pub fn for_each_accepting_lasso<S: SuccessorSource>(
    src: &mut S,
    max_lassos: usize,
    max_cycle_len: usize,
    max_steps: usize,
    abort: &mut dyn FnMut() -> bool,
    sink: &mut dyn FnMut(&Lasso<S::L>) -> bool,
) -> Vec<Lasso<S::L>> {
    let letters = src.alphabet().to_vec();
    let reach = Reach::new(src);
    let mut out: Vec<Lasso<S::L>> = Vec::new();
    // Phase 1: the shortest cycle through each live pivot. Cheap (one BFS
    // per pivot) and diverse, this guarantees dense automata still yield
    // candidates before the budget is consumed.
    for f in 0..src.num_states() {
        if out.len() >= max_lassos || abort() {
            return out;
        }
        if !reach.is_live(src, f) {
            continue;
        }
        let Some(cycle) = cycle_through(src, &letters, &reach.sccs, f) else {
            continue;
        };
        let lasso = Lasso::new(path_letters(&letters, &reach.parent, f), cycle);
        if !out.iter().any(|l| l.same_word(&lasso)) {
            let stop = sink(&lasso);
            out.push(lasso);
            if stop {
                return out;
            }
        }
    }
    // Phase 2: exhaustive simple-cycle enumeration under the step budget
    // (complete for small automata, best-effort for large ones). A path
    // that leaves the pivot's component never returns, so none is queued.
    let mut steps = 0usize;
    for f in 0..src.num_states() {
        if out.len() >= max_lassos || steps >= max_steps || abort() {
            break;
        }
        if !reach.is_live(src, f) {
            continue;
        }
        let prefix = path_letters(&letters, &reach.parent, f);
        // BFS (shortest-first) over simple paths from f back to f.
        // Queue entries: (current state, letters so far, visited set).
        let mut stack: VecDeque<(usize, Vec<S::L>, Vec<bool>)> = VecDeque::new();
        let mut visited0 = vec![false; src.num_states()];
        visited0[f] = true;
        stack.push_back((f, Vec::new(), visited0));
        while let Some((s, cur, visited)) = stack.pop_front() {
            if out.len() >= max_lassos || steps >= max_steps || abort() {
                break;
            }
            steps += 1;
            for &(li, t) in src.edges(s) {
                let (li, t) = (li as usize, t as usize);
                let extend = || {
                    let mut cycle = Vec::with_capacity(cur.len() + 1);
                    cycle.extend_from_slice(&cur);
                    cycle.push(letters[li].clone());
                    cycle
                };
                if t == f {
                    if out.len() >= max_lassos {
                        continue;
                    }
                    let lasso = Lasso::new(prefix.clone(), extend());
                    if !out.iter().any(|l| l.same_word(&lasso)) {
                        let stop = sink(&lasso);
                        out.push(lasso);
                        if stop {
                            return out;
                        }
                    }
                } else if !visited[t]
                    && cur.len() + 1 < max_cycle_len
                    && reach.sccs.same_component(t, f)
                {
                    let mut v2 = visited.clone();
                    v2[t] = true;
                    stack.push_back((t, extend(), v2));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inf_ones() -> Nba<u8> {
        let mut a = Nba::new(vec![0, 1], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 0);
        a.add_transition(0, &1, 1);
        a.add_transition(1, &0, 0);
        a.add_transition(1, &1, 1);
        a
    }

    #[test]
    fn nonempty_produces_valid_lasso() {
        let a = inf_ones();
        let lasso = find_accepting_lasso(&a).expect("non-empty");
        assert!(a.accepts_lasso(&lasso));
    }

    #[test]
    fn empty_when_accepting_unreachable() {
        let mut a = Nba::new(vec![0u8], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 0);
        // state 1 unreachable
        a.add_transition(1, &0, 1);
        assert!(is_empty(&a));
    }

    #[test]
    fn empty_when_accepting_not_on_cycle() {
        let mut a = Nba::new(vec![0u8], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 1);
        // state 1 is a dead end
        assert!(is_empty(&a));
    }

    #[test]
    fn self_loop_lasso() {
        let mut a = Nba::new(vec![0u8, 1], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 1);
        a.add_transition(1, &1, 1);
        let lasso = find_accepting_lasso(&a).unwrap();
        assert_eq!(lasso.prefix, vec![0]);
        assert_eq!(lasso.cycle, vec![1]);
        assert!(a.accepts_lasso(&lasso));
    }

    #[test]
    fn intersection_emptiness() {
        // inf-ones ∩ only-zeros = empty
        let mut zeros = Nba::new(vec![0u8, 1], 1);
        zeros.set_init(0);
        zeros.set_accepting(0, true);
        zeros.add_transition(0, &0, 0);
        let product = inf_ones().intersect(&zeros);
        assert!(is_empty(&product));
    }

    #[test]
    fn longer_cycle_extraction() {
        // accepting state on a 3-cycle: 0 ->a 1 ->b 2 ->c 0, accept at 2,
        // init 0. Lasso: prefix "ab", cycle "cab" (or rotation).
        let mut a = Nba::new(vec![0u8, 1, 2], 3);
        a.set_init(0);
        a.set_accepting(2, true);
        a.add_transition(0, &0, 1);
        a.add_transition(1, &1, 2);
        a.add_transition(2, &2, 0);
        let lasso = find_accepting_lasso(&a).unwrap();
        assert!(a.accepts_lasso(&lasso));
        assert_eq!(lasso.cycle.len(), 3);
    }
}

#[cfg(test)]
mod enumerate_tests {
    use super::*;
    use crate::arena::NbaSource;

    #[test]
    fn enumerates_multiple_cycles() {
        // 0 -a-> 0, 0 -b-> 1 -c-> 0; accept 0. Cycles through 0: "a", "bc".
        let mut a = Nba::new(vec![0u8, 1, 2], 2);
        a.set_init(0);
        a.set_accepting(0, true);
        a.add_transition(0, &0, 0);
        a.add_transition(0, &1, 1);
        a.add_transition(1, &2, 0);
        let lassos = enumerate_accepting_lassos(&a, 10, 5);
        assert_eq!(lassos.len(), 2);
        for l in &lassos {
            assert!(a.accepts_lasso(l), "lasso {l} must be accepted");
        }
    }

    #[test]
    fn respects_limits() {
        let mut a = Nba::new(vec![0u8, 1], 1);
        a.set_init(0);
        a.set_accepting(0, true);
        a.add_transition(0, &0, 0);
        a.add_transition(0, &1, 0);
        // Many simple cycles of length 1 and... only 2 (letters a and b).
        let lassos = enumerate_accepting_lassos(&a, 1, 5);
        assert_eq!(lassos.len(), 1);
    }

    #[test]
    fn empty_automaton_enumerates_nothing() {
        let mut a = Nba::new(vec![0u8], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 0);
        assert!(enumerate_accepting_lassos(&a, 10, 10).is_empty());
    }

    #[test]
    fn sink_streams_in_enumeration_order_and_stops_early() {
        // 0 -a-> 0, 0 -b-> 1 -c-> 0; accept 0: lassos "a", "bc".
        let mut a = Nba::new(vec![0u8, 1, 2], 2);
        a.set_init(0);
        a.set_accepting(0, true);
        a.add_transition(0, &0, 0);
        a.add_transition(0, &1, 1);
        a.add_transition(1, &2, 0);
        let full = enumerate_accepting_lassos(&a, 10, 5);
        // Streaming without stopping yields the full list in order.
        let mut seen = Vec::new();
        let streamed = for_each_accepting_lasso(
            &mut NbaSource::new(&a),
            10,
            5,
            500_000,
            &mut || false,
            &mut |l| {
                seen.push(l.clone());
                false
            },
        );
        assert_eq!(streamed, full);
        assert_eq!(seen, full);
        // Stopping at the first lasso returns a prefix of the full list,
        // including the triggering lasso.
        let stopped = for_each_accepting_lasso(
            &mut NbaSource::new(&a),
            10,
            5,
            500_000,
            &mut || false,
            &mut |_| true,
        );
        assert_eq!(stopped, full[..1]);
    }

    #[test]
    fn lazy_source_expands_only_reachable_frontier() {
        // 0 -a-> 1 (accept, self-loop) plus unreachable tail 2 -a-> 3.
        let mut a = Nba::new(vec![0u8, 1], 4);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 1);
        a.add_transition(1, &1, 1);
        a.add_transition(2, &0, 3);
        let mut src = NbaSource::new(&a);
        let lasso = find_accepting_lasso_in(&mut src).unwrap();
        assert!(a.accepts_lasso(&lasso));
        // States 2 and 3 were never expanded.
        assert!(!src.arena().is_expanded(2));
        assert!(!src.arena().is_expanded(3));
        assert!(src.arena().nodes_expanded() <= 2);
    }
}
