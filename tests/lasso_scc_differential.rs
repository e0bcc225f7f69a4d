//! Differential pinning of the component-pruned lasso engine.
//!
//! `for_each_accepting_lasso` searches only live pivots (accepting states
//! in a cyclic strongly connected component) and never queues a state
//! outside the pivot's component. This suite keeps a copy of the engine
//! without that pruning, which tries every reachable accepting state and
//! follows every simple path, and asserts on seeded random NBAs — each
//! with accepting states that lie on no cycle — that both return the same
//! lassos in the same order, that `find_accepting_lasso` returns the same
//! lasso, and that `Nba::accepts_lasso` gives the same answers as a copy
//! of its former private Tarjan pass.
//!
//! Two constructed NBAs then show what the pruning buys: an accepting
//! pivot placed before a later live one opens more than 500 000 simple
//! paths that never return to it (it is dead, or the paths leave its
//! component), which use up the unpruned engine's whole step budget, while
//! the pruned engine finds every lasso of the later pivot within a few
//! hundred steps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rega_automata::emptiness::{find_accepting_lasso, for_each_accepting_lasso};
use rega_automata::{Lasso, Letter, Nba, NbaSource, Sccs, SuccessorSource};
use std::collections::VecDeque;

/// The step cap `enumerate_accepting_lassos` uses.
const MAX_STEPS: usize = 500_000;

/// The engine before component pruning: every reachable accepting state is
/// a pivot, and phase 2 follows every simple path up to `max_cycle_len`.
mod unpruned {
    use super::*;

    fn bfs<S: SuccessorSource>(src: &mut S, sources: &[usize]) -> Vec<Option<(usize, usize)>> {
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

    fn cycle_through<S: SuccessorSource>(
        src: &mut S,
        letters: &[S::L],
        pivot: usize,
    ) -> Option<Vec<S::L>> {
        let mut parent: Vec<Option<(usize, usize)>> = vec![None; src.num_states()];
        let mut queue = VecDeque::new();
        for &(li, t) in src.edges(pivot) {
            let (li, t) = (li as usize, t as usize);
            if t == pivot {
                return Some(vec![letters[li].clone()]);
            }
            if parent[t].is_none() {
                parent[t] = Some((pivot, li));
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            for &(li, t) in src.edges(s) {
                let (li, t) = (li as usize, t as usize);
                if t == pivot {
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
                if parent[t].is_none() {
                    parent[t] = Some((s, li));
                    queue.push_back(t);
                }
            }
        }
        None
    }

    pub fn find_accepting_lasso<L: Letter>(nba: &Nba<L>) -> Option<Lasso<L>> {
        let src = &mut NbaSource::new(nba);
        let letters = src.alphabet().to_vec();
        let inits = src.inits().to_vec();
        let from_init = bfs(src, &inits);
        for f in 0..src.num_states() {
            if !src.is_accepting(f) || from_init[f].is_none() {
                continue;
            }
            if let Some(cycle) = cycle_through(src, &letters, f) {
                return Some(Lasso::new(path_letters(&letters, &from_init, f), cycle));
            }
        }
        None
    }

    pub fn for_each_accepting_lasso<S: SuccessorSource>(
        src: &mut S,
        max_lassos: usize,
        max_cycle_len: usize,
        max_steps: usize,
        abort: &mut dyn FnMut() -> bool,
    ) -> Vec<Lasso<S::L>> {
        let letters = src.alphabet().to_vec();
        let inits = src.inits().to_vec();
        let from_init = bfs(src, &inits);
        let mut out: Vec<Lasso<S::L>> = Vec::new();
        for f in 0..src.num_states() {
            if out.len() >= max_lassos || abort() {
                return out;
            }
            if !src.is_accepting(f) || from_init[f].is_none() {
                continue;
            }
            if let Some(cycle) = cycle_through(src, &letters, f) {
                let lasso = Lasso::new(path_letters(&letters, &from_init, f), cycle);
                if !out.iter().any(|l| l.same_word(&lasso)) {
                    out.push(lasso);
                }
            }
        }
        let mut steps = 0usize;
        for f in 0..src.num_states() {
            if out.len() >= max_lassos || steps >= max_steps || abort() {
                break;
            }
            if !src.is_accepting(f) || from_init[f].is_none() {
                continue;
            }
            let prefix = path_letters(&letters, &from_init, f);
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
                    let mut cycle = cur.clone();
                    cycle.push(letters[li].clone());
                    if t == f {
                        if out.len() >= max_lassos {
                            continue;
                        }
                        let lasso = Lasso::new(prefix.clone(), cycle);
                        if !out.iter().any(|l| l.same_word(&lasso)) {
                            out.push(lasso);
                        }
                    } else if !visited[t] && cycle.len() < max_cycle_len {
                        let mut v2 = visited.clone();
                        v2[t] = true;
                        stack.push_back((t, cycle, v2));
                    }
                }
            }
        }
        out
    }

    /// `Nba::accepts_lasso` with its former private Tarjan pass over the
    /// `(state, cycle phase)` graph.
    pub fn accepts_lasso<L: Letter>(nba: &Nba<L>, word: &Lasso<L>) -> bool {
        let n = nba.num_states();
        let mut cur = vec![false; n];
        for &i in nba.inits() {
            cur[i] = true;
        }
        for letter in &word.prefix {
            let Some(li) = nba.letter_index(letter) else {
                return false;
            };
            let mut next = vec![false; n];
            for s in (0..n).filter(|&s| cur[s]) {
                for &t in nba.successors_idx(s, li) {
                    next[t] = true;
                }
            }
            cur = next;
        }
        let c = word.cycle.len();
        let Some(lis) = word
            .cycle
            .iter()
            .map(|l| nba.letter_index(l))
            .collect::<Option<Vec<usize>>>()
        else {
            return false;
        };
        let succ = |u: usize| -> Vec<usize> {
            let (s, ph) = (u / c, u % c);
            nba.successors_idx(s, lis[ph])
                .iter()
                .map(|&t| t * c + (ph + 1) % c)
                .collect()
        };
        let n_nodes = n * c;
        let mut reach = vec![false; n_nodes];
        let mut stack: Vec<usize> = (0..n).filter(|&s| cur[s]).map(|s| s * c).collect();
        for &u in &stack {
            reach[u] = true;
        }
        while let Some(u) = stack.pop() {
            for v in succ(u) {
                if !reach[v] {
                    reach[v] = true;
                    stack.push(v);
                }
            }
        }
        let mut index_of = vec![usize::MAX; n_nodes];
        let mut lowlink = vec![0usize; n_nodes];
        let mut on_stack = vec![false; n_nodes];
        let mut scc_stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        for root in 0..n_nodes {
            if !reach[root] || index_of[root] != usize::MAX {
                continue;
            }
            let mut call: Vec<(usize, Vec<usize>, usize)> = vec![(root, succ(root), 0)];
            while let Some(&mut (u, ref children, ref mut ci)) = call.last_mut() {
                if *ci == 0 {
                    index_of[u] = next_index;
                    lowlink[u] = next_index;
                    next_index += 1;
                    scc_stack.push(u);
                    on_stack[u] = true;
                }
                if *ci < children.len() {
                    let v = children[*ci];
                    *ci += 1;
                    if index_of[v] == usize::MAX {
                        call.push((v, succ(v), 0));
                    } else if on_stack[v] {
                        lowlink[u] = lowlink[u].min(index_of[v]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _, _)) = call.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[u]);
                    }
                    if lowlink[u] == index_of[u] {
                        let mut comp = Vec::new();
                        loop {
                            let v = scc_stack.pop().expect("non-empty");
                            on_stack[v] = false;
                            comp.push(v);
                            if v == u {
                                break;
                            }
                        }
                        let nontrivial =
                            comp.len() > 1 || comp.iter().any(|&v| succ(v).contains(&v));
                        if nontrivial && comp.iter().any(|&v| nba.is_accepting(v / c)) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }
}

/// A random NBA whose states `split..n` only lead to higher-numbered
/// states, so every accepting state among them lies on no cycle. The
/// states below `split` are wired at random, self-loops included.
fn random_nba(rng: &mut StdRng) -> Nba<u8> {
    let n = rng.gen_range(2..11);
    let split = rng.gen_range(1..n);
    let letters = rng.gen_range(1..4u8);
    let mut nba = Nba::new((0..letters).collect(), n);
    nba.set_init(0);
    if rng.gen_bool(0.3) {
        nba.set_init(rng.gen_range(0..n));
    }
    for s in 0..n {
        nba.set_accepting(s, rng.gen_bool(0.4));
        for t in 0..n {
            let p = if s < split && t < split {
                0.25
            } else if t > s {
                0.3
            } else {
                0.0
            };
            for l in 0..letters {
                if rng.gen_bool(p) {
                    nba.add_transition(s, &l, t);
                }
            }
        }
    }
    nba
}

/// Every lasso over `letters` with a prefix of at most 2 and a cycle of 1
/// to 3 letters.
fn small_lassos(letters: u8) -> Vec<Lasso<u8>> {
    let words = |len: usize| -> Vec<Vec<u8>> {
        let mut out = vec![Vec::new()];
        for _ in 0..len {
            out = out
                .into_iter()
                .flat_map(|w: Vec<u8>| {
                    (0..letters).map(move |l| {
                        let mut w = w.clone();
                        w.push(l);
                        w
                    })
                })
                .collect();
        }
        out
    };
    let mut out = Vec::new();
    for prefix in (0..=2).flat_map(words) {
        for cycle in (1..=3).flat_map(words) {
            out.push(Lasso::new(prefix.clone(), cycle));
        }
    }
    out
}

/// Runs `engine` with an abort hook that never fires and counts its polls
/// (one per state in each pivot loop, one per DFS step).
fn counting<T>(engine: impl FnOnce(&mut dyn FnMut() -> bool) -> T) -> (T, usize) {
    let mut polls = 0usize;
    let out = engine(&mut || {
        polls += 1;
        false
    });
    (out, polls)
}

#[test]
fn pruned_engine_matches_unpruned_on_random_nbas() {
    let mut rng = StdRng::seed_from_u64(0x5cc_1a55);
    let (mut dead_pivots, mut live_pivots, mut lassos_seen) = (0usize, 0usize, 0usize);
    for case in 0..400 {
        let nba = random_nba(&mut rng);
        let max_lassos = rng.gen_range(1..13);
        let max_cycle_len = rng.gen_range(1..7);
        let (old, old_polls) = counting(|abort| {
            unpruned::for_each_accepting_lasso(
                &mut NbaSource::new(&nba),
                max_lassos,
                max_cycle_len,
                MAX_STEPS,
                abort,
            )
        });
        assert!(
            old_polls < MAX_STEPS / 10,
            "case {case}: the unpruned run came near the step cap"
        );
        let mut streamed = Vec::new();
        let (new, new_polls) = counting(|abort| {
            for_each_accepting_lasso(
                &mut NbaSource::new(&nba),
                max_lassos,
                max_cycle_len,
                MAX_STEPS,
                abort,
                &mut |l| {
                    streamed.push(l.clone());
                    false
                },
            )
        });
        assert_eq!(new, old, "case {case}: lasso sequences differ");
        assert_eq!(streamed, new, "case {case}: sink saw another sequence");
        assert!(new_polls <= old_polls, "case {case}: pruning added steps");
        lassos_seen += new.len();

        assert_eq!(
            find_accepting_lasso(&nba),
            unpruned::find_accepting_lasso(&nba),
            "case {case}: find_accepting_lasso differs"
        );
        for w in small_lassos(nba.alphabet().len() as u8) {
            assert_eq!(
                nba.accepts_lasso(&w),
                unpruned::accepts_lasso(&nba, &w),
                "case {case}: accepts_lasso differs on {w:?}"
            );
        }

        let sccs = Sccs::new(nba.num_states(), nba.inits().iter().copied(), |u, i| {
            let mut succs = (0..nba.alphabet().len()).flat_map(|li| nba.successors_idx(u, li));
            succs.nth(i).copied()
        });
        for f in (0..nba.num_states()).filter(|&f| nba.is_accepting(f) && sccs.is_reached(f)) {
            if sccs.on_cycle(f) {
                live_pivots += 1;
            } else {
                dead_pivots += 1;
            }
        }
    }
    // The corpus exercises what the pruning skips and what it keeps.
    assert!(dead_pivots >= 100, "only {dead_pivots} dead pivots");
    assert!(live_pivots >= 100, "only {live_pivots} live pivots");
    assert!(lassos_seen >= 400, "only {lassos_seen} lassos");
}

/// 0 -a-> 1 (accepting) -a-> a complete digraph on the nine states
/// 2..=10, which never lead back to 1: over 500 000 simple paths from 1 of
/// at most nine edges. 0 -b-> 11 (accepting) with cycles "b" and "ab"
/// through 12. With `loop_at_1`, 1 also has a "b" self-loop: it is live,
/// and the digraph lies outside its component.
fn fan_out_nba(loop_at_1: bool) -> Nba<u8> {
    let (a, b) = (0u8, 1u8);
    let mut nba = Nba::new(vec![a, b], 13);
    nba.set_init(0);
    nba.set_accepting(1, true);
    nba.set_accepting(11, true);
    nba.add_transition(0, &a, 1);
    if loop_at_1 {
        nba.add_transition(1, &b, 1);
    }
    for s in 2..=10 {
        nba.add_transition(1, &a, s);
        for t in (2..=10).filter(|&t| t != s) {
            nba.add_transition(s, &a, t);
        }
    }
    nba.add_transition(0, &b, 11);
    nba.add_transition(11, &b, 11);
    nba.add_transition(11, &a, 12);
    nba.add_transition(12, &b, 11);
    nba
}

/// The unpruned engine spends its whole step budget on the simple paths
/// from state 1 that never return to it, whether 1 is a dead pivot or a
/// live one whose component they leave, so the second cycle of the later
/// pivot 11 is never found. The pruned engine finds it within a few
/// hundred steps.
#[test]
fn huge_fan_out_off_the_cycles_no_longer_starves_a_later_pivot() {
    let (a, b) = (0u8, 1u8);
    for loop_at_1 in [false, true] {
        let nba = fan_out_nba(loop_at_1);
        let mut live = Vec::new();
        if loop_at_1 {
            live.push(Lasso::new(vec![a], vec![b]));
        }
        live.push(Lasso::new(vec![b], vec![b]));

        let (old, old_polls) = counting(|abort| {
            unpruned::for_each_accepting_lasso(&mut NbaSource::new(&nba), 64, 10, MAX_STEPS, abort)
        });
        assert!(
            old_polls > MAX_STEPS,
            "loop_at_1 = {loop_at_1}: state 1 must exhaust the unpruned step budget \
             ({old_polls} polls)"
        );
        assert_eq!(
            old, live,
            "loop_at_1 = {loop_at_1}: the cycle \"ab\" is starved"
        );

        let (new, new_polls) = counting(|abort| {
            for_each_accepting_lasso(
                &mut NbaSource::new(&nba),
                64,
                10,
                MAX_STEPS,
                abort,
                &mut |_| false,
            )
        });
        live.push(Lasso::new(vec![b], vec![a, b]));
        assert_eq!(new, live, "loop_at_1 = {loop_at_1}");
        assert!(
            new_polls < 300,
            "loop_at_1 = {loop_at_1}: pruned search took {new_polls} steps"
        );
        for l in &new {
            assert!(nba.accepts_lasso(l));
        }
    }
}
