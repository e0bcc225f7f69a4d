//! Rank-based Büchi complementation (Kupferman–Vardi), and the ω-language
//! containment and equivalence tests built on it.
//!
//! Complementation is used by the test and experiment suites to check that
//! constructed automata (e.g. the state-trace automata of projections)
//! recognize exactly the intended ω-languages. The construction is
//! exponential (`2^O(n log n)`); it is intended for the small automata of
//! the paper's examples.

use crate::buchi::Nba;
use crate::emptiness;
use crate::frontier::Frontier;
use crate::Letter;

/// A level ranking: `rank[q] = Some(r)` with `r <= 2n`, or `None` (⊥).
type Ranking = Vec<Option<u8>>;

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct KvState {
    rank: Ranking,
    owe: Vec<bool>,
}

/// Complements an NBA using the rank-based (Kupferman–Vardi) construction.
///
/// The resulting NBA accepts exactly the ω-words over the same alphabet that
/// `nba` rejects.
pub fn complement<L: Letter>(nba: &Nba<L>) -> Nba<L> {
    let n = nba.num_states();
    let max_rank = (2 * n) as u8;
    let alphabet: Vec<L> = nba.alphabet().to_vec();

    let mut states: Frontier<KvState> = Frontier::new();
    let mut out = Nba::new(alphabet.clone(), 0);

    // Initial state: rank 2n on initial states of A, ⊥ elsewhere; O = ∅.
    let mut init_rank: Ranking = vec![None; n];
    for &q in nba.inits() {
        init_rank[q] = Some(max_rank);
    }
    let init = KvState {
        rank: init_rank,
        owe: vec![false; n],
    };
    out.set_init(states.intern(init).0);

    while let Some(sid) = states.pop() {
        let st = states[sid].clone();
        out.add_state(); // state `sid`: ids pop in order
        out.set_accepting(sid, st.owe.iter().all(|&o| !o));

        for (li, letter) in alphabet.iter().enumerate() {
            // Upper bound on the rank of each successor state.
            let mut bound: Vec<Option<u8>> = vec![None; n];
            for q in 0..n {
                let Some(fq) = st.rank[q] else { continue };
                for &t in nba.successors_idx(q, li) {
                    bound[t] = Some(match bound[t] {
                        None => fq,
                        Some(b) => b.min(fq),
                    });
                }
            }
            let dom: Vec<usize> = (0..n).filter(|&q| bound[q].is_some()).collect();

            // Enumerate all legal rankings g with g(q) <= bound(q), g(q)
            // even for accepting q.
            let mut rankings: Vec<Ranking> = vec![vec![None; n]];
            for &q in &dom {
                let b = bound[q].expect("in dom");
                let mut next = Vec::new();
                for g in &rankings {
                    for r in 0..=b {
                        if nba.is_accepting(q) && r % 2 == 1 {
                            continue;
                        }
                        let mut g2 = g.clone();
                        g2[q] = Some(r);
                        next.push(g2);
                    }
                }
                rankings = next;
            }

            let owe_empty = st.owe.iter().all(|&o| !o);
            for g in rankings {
                // O' per the construction.
                let mut owe = vec![false; n];
                if owe_empty {
                    for &q in &dom {
                        if g[q].map(|r| r % 2 == 0) == Some(true) {
                            owe[q] = true;
                        }
                    }
                } else {
                    for q in 0..n {
                        if !st.owe[q] {
                            continue;
                        }
                        for &t in nba.successors_idx(q, li) {
                            if g[t].map(|r| r % 2 == 0) == Some(true) {
                                owe[t] = true;
                            }
                        }
                    }
                }
                let tid = states.intern(KvState { rank: g, owe }).0;
                out.add_transition(sid, letter, tid);
            }
        }
    }
    out
}

/// Whether `L(a) ⊆ L(b)` as ω-languages (over the same alphabet).
pub fn is_subset<L: Letter>(a: &Nba<L>, b: &Nba<L>) -> bool {
    let not_b = complement(b);
    emptiness::is_empty(&a.intersect(&not_b))
}

/// Whether `L(a) = L(b)` as ω-languages (over the same alphabet).
pub fn omega_equivalent<L: Letter>(a: &Nba<L>, b: &Nba<L>) -> bool {
    is_subset(a, b) && is_subset(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lasso::Lasso;

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

    /// NBA accepting words with finitely many 1s (eventually only 0s).
    fn fin_ones() -> Nba<u8> {
        let mut a = Nba::new(vec![0, 1], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &0, 0);
        a.add_transition(0, &1, 0);
        a.add_transition(0, &0, 1); // guess the last 1 has passed
        a.add_transition(1, &0, 1);
        a
    }

    #[test]
    fn complement_of_inf_ones_is_fin_ones() {
        let c = complement(&inf_ones());
        // finitely many ones => accepted by complement
        assert!(c.accepts_lasso(&Lasso::new(vec![1, 1, 1], vec![0])));
        assert!(c.accepts_lasso(&Lasso::periodic(vec![0])));
        // infinitely many ones => rejected
        assert!(!c.accepts_lasso(&Lasso::periodic(vec![1])));
        assert!(!c.accepts_lasso(&Lasso::periodic(vec![0, 1])));
    }

    #[test]
    fn complement_agrees_with_manual() {
        // c = ¬inf_ones should equal fin_ones. Checking `fin ⊆ c` as
        // `fin ∩ inf = ∅` avoids complementing the (large) KV output.
        let c = complement(&inf_ones());
        assert!(is_subset(&c, &fin_ones()));
        assert!(emptiness::is_empty(&fin_ones().intersect(&inf_ones())));
    }

    #[test]
    fn subset_checks() {
        // only-zeros ⊆ fin-ones
        let mut zeros = Nba::new(vec![0u8, 1], 1);
        zeros.set_init(0);
        zeros.set_accepting(0, true);
        zeros.add_transition(0, &0, 0);
        assert!(is_subset(&zeros, &fin_ones()));
        assert!(!is_subset(&fin_ones(), &zeros));
        assert!(!is_subset(&zeros, &inf_ones()));
    }

    #[test]
    fn complement_of_empty_is_universal() {
        // Automaton with no accepting state: empty language.
        let mut a = Nba::new(vec![0u8], 1);
        a.set_init(0);
        a.add_transition(0, &0, 0);
        let c = complement(&a);
        assert!(c.accepts_lasso(&Lasso::periodic(vec![0])));
    }

    #[test]
    fn equivalence_is_reflexive() {
        assert!(omega_equivalent(&inf_ones(), &inf_ones()));
        assert!(!omega_equivalent(&inf_ones(), &fin_ones()));
    }

    /// Pins the rank construction's exact output on a one-state NBA
    /// (`0^ω` over {0, 1}): level rankings numbered in discovery order,
    /// with every transition in row order.
    #[test]
    fn complement_shape_is_pinned() {
        let mut a = Nba::new(vec![0u8, 1], 1);
        a.set_init(0);
        a.set_accepting(0, true);
        a.add_transition(0, &0, 0);
        let c = complement(&a);
        assert_eq!(c.num_states(), 4);
        assert_eq!(c.inits(), [0]);
        let acc: Vec<bool> = (0..4).map(|s| c.is_accepting(s)).collect();
        assert_eq!(acc, [true, false, false, true]);
        let trans: Vec<(usize, usize, usize)> = c.transitions().collect();
        assert_eq!(
            trans,
            [
                (0, 0, 1),
                (0, 0, 2),
                (0, 1, 3),
                (1, 0, 1),
                (1, 1, 3),
                (2, 0, 1),
                (2, 0, 2),
                (2, 1, 3),
                (3, 0, 3),
                (3, 1, 3)
            ]
        );
    }
}
