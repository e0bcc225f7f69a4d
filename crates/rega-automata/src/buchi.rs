//! Nondeterministic Büchi automata over ω-words, and their generalized
//! variant.
//!
//! `SControl(A)` — the symbolic control traces of a register automaton — is
//! an ω-regular language (Section 2), and the verification pipeline of
//! Theorem 12 manipulates Büchi automata for control traces and for LTL
//! formulas.

use crate::frontier::Frontier;
use crate::lasso::Lasso;
use crate::scc::Sccs;
use crate::Letter;
use std::collections::HashMap;

/// A nondeterministic Büchi automaton over the explicit alphabet `alphabet`,
/// with state-based acceptance: a run is accepting iff it visits an
/// accepting state infinitely often.
#[derive(Clone, Debug)]
pub struct Nba<L> {
    alphabet: Vec<L>,
    letter_index: HashMap<L, usize>,
    inits: Vec<usize>,
    accepting: Vec<bool>,
    trans: Rows,
}

/// The successor lists of every state of an [`Nba`] or [`Ngba`], stored
/// sparsely: a state's row holds `(letter index, successors)` pairs sorted
/// by letter index, so a letter a state never reads costs nothing. (A dense
/// `states × letters` table of `Vec` headers made the 28 682-state Thm 24
/// selector over 640 letters of ternary Example 23 peak at ~550 MiB.)
#[derive(Clone, Debug)]
struct Rows(Vec<Vec<(usize, Vec<usize>)>>);

impl Rows {
    fn new(n: usize) -> Self {
        Rows(vec![Vec::new(); n])
    }

    fn add_state(&mut self) -> usize {
        self.0.push(Vec::new());
        self.0.len() - 1
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Successors of `s` on letter index `li` (empty when there are none).
    fn get(&self, s: usize, li: usize) -> &[usize] {
        let row = &self.0[s];
        match row.binary_search_by_key(&li, |&(l, _)| l) {
            Ok(i) => &row[i].1,
            Err(_) => &[],
        }
    }

    /// Adds `to` to the successors of `from` on `li`, once.
    fn add(&mut self, from: usize, li: usize, to: usize) {
        let row = &mut self.0[from];
        match row.binary_search_by_key(&li, |&(l, _)| l) {
            Ok(i) => {
                if !row[i].1.contains(&to) {
                    row[i].1.push(to);
                }
            }
            Err(i) => row.insert(i, (li, vec![to])),
        }
    }

    /// The non-empty successor lists of `s`, by ascending letter index.
    fn row(&self, s: usize) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        self.0[s].iter().map(|(li, succs)| (*li, succs.as_slice()))
    }
}

impl<L: Letter> Nba<L> {
    /// An NBA with `n` states and no transitions over the given alphabet.
    pub fn new(alphabet: Vec<L>, n: usize) -> Self {
        let letter_index = alphabet
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();
        Nba {
            trans: Rows::new(n),
            alphabet,
            letter_index,
            inits: Vec::new(),
            accepting: vec![false; n],
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> usize {
        self.accepting.push(false);
        self.trans.add_state()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &[L] {
        &self.alphabet
    }

    /// The index of a letter, if in the alphabet.
    pub fn letter_index(&self, l: &L) -> Option<usize> {
        self.letter_index.get(l).copied()
    }

    /// Marks a state initial.
    pub fn set_init(&mut self, s: usize) {
        if !self.inits.contains(&s) {
            self.inits.push(s);
        }
    }

    /// The initial states.
    pub fn inits(&self) -> &[usize] {
        &self.inits
    }

    /// Marks a state accepting.
    pub fn set_accepting(&mut self, s: usize, acc: bool) {
        self.accepting[s] = acc;
    }

    /// Whether a state is accepting.
    pub fn is_accepting(&self, s: usize) -> bool {
        self.accepting[s]
    }

    /// Adds a transition.
    pub fn add_transition(&mut self, from: usize, letter: &L, to: usize) {
        let li = self.letter_index[letter];
        self.trans.add(from, li, to);
    }

    /// Successors of `s` on `letter`.
    pub fn successors(&self, s: usize, letter: &L) -> &[usize] {
        self.trans.get(s, self.letter_index[letter])
    }

    /// Successors of `s` by letter index.
    pub fn successors_idx(&self, s: usize, li: usize) -> &[usize] {
        self.trans.get(s, li)
    }

    /// The non-empty successor lists of `s` as `(letter index, successors)`
    /// pairs, by ascending letter index; each list in insertion order.
    pub(crate) fn row(&self, s: usize) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        self.trans.row(s)
    }

    /// All transitions as `(from, letter_index, to)` triples, by state,
    /// then letter index, then insertion order.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        (0..self.trans.len()).flat_map(move |s| {
            self.trans
                .row(s)
                .flat_map(move |(li, succs)| succs.iter().map(move |&t| (s, li, t)))
        })
    }

    /// Disjoint union: accepts `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nba<L>) -> Nba<L> {
        assert_eq!(self.alphabet, other.alphabet, "alphabet mismatch");
        let off = self.num_states();
        let mut out = self.clone();
        for _ in 0..other.num_states() {
            out.add_state();
        }
        for (s, li, t) in other.transitions() {
            let letter = out.alphabet[li].clone();
            out.add_transition(s + off, &letter, t + off);
        }
        for s in 0..other.num_states() {
            out.accepting[s + off] = other.accepting[s];
        }
        for &i in &other.inits {
            out.set_init(i + off);
        }
        out
    }

    /// Büchi intersection via the generalized product: the plain product
    /// with two acceptance sets (one per operand), then degeneralized.
    pub fn intersect(&self, other: &Nba<L>) -> Nba<L> {
        assert_eq!(self.alphabet, other.alphabet, "alphabet mismatch");
        let mut pairs: Frontier<(usize, usize)> = Frontier::new();
        let mut ngba = Ngba::new(self.alphabet.clone(), 0, 2);
        for &a in &self.inits {
            for &b in &other.inits {
                ngba.set_init(pairs.intern((a, b)).0);
            }
        }
        while let Some(s) = pairs.pop() {
            let (a, b) = pairs[s];
            ngba.add_state(); // state `s`: ids pop in order
            ngba.set_in_acc_set(s, 0, self.accepting[a]);
            ngba.set_in_acc_set(s, 1, other.accepting[b]);
            for (li, succs) in self.trans.row(a) {
                for &ta in succs {
                    for &tb in other.trans.get(b, li) {
                        ngba.add_transition_idx(s, li, pairs.intern((ta, tb)).0);
                    }
                }
            }
        }
        ngba.degeneralize()
    }

    /// Whether the NBA accepts the ultimately periodic word.
    pub fn accepts_lasso(&self, word: &Lasso<L>) -> bool {
        // States reachable after reading the prefix.
        let mut cur: Vec<bool> = vec![false; self.num_states()];
        for &i in &self.inits {
            cur[i] = true;
        }
        for letter in &word.prefix {
            let Some(li) = self.letter_index(letter) else {
                return false;
            };
            let mut next = vec![false; self.num_states()];
            for (s, &live) in cur.iter().enumerate() {
                if live {
                    for &t in self.trans.get(s, li) {
                        next[t] = true;
                    }
                }
            }
            cur = next;
        }
        // Graph over (state, phase) nodes for the cycle.
        let c = word.cycle.len();
        let lis: Option<Vec<usize>> = word.cycle.iter().map(|l| self.letter_index(l)).collect();
        let Some(lis) = lis else {
            return false;
        };
        // Accepting run exists iff some accepting node reachable from the
        // post-prefix states at phase 0 lies on a (phase-respecting) cycle.
        let roots = (0..self.num_states()).filter(|&s| cur[s]).map(|s| s * c);
        let sccs = Sccs::new(self.num_states() * c, roots, |u, i| {
            let (s, ph) = (u / c, u % c);
            let t = *self.trans.get(s, lis[ph]).get(i)?;
            Some(t * c + (ph + 1) % c)
        });
        (0..self.num_states() * c).any(|u| self.accepting[u / c] && sccs.on_cycle(u))
    }
}

/// A generalized Büchi automaton: like [`Nba`] but with `m` acceptance sets;
/// a run is accepting iff it visits *every* set infinitely often.
#[derive(Clone, Debug)]
pub struct Ngba<L> {
    alphabet: Vec<L>,
    letter_index: HashMap<L, usize>,
    inits: Vec<usize>,
    /// `acc[i][s]` — state `s` belongs to acceptance set `i`.
    acc: Vec<Vec<bool>>,
    trans: Rows,
}

impl<L: Letter> Ngba<L> {
    /// An NGBA with `n` states, no transitions, and `m` acceptance sets.
    pub fn new(alphabet: Vec<L>, n: usize, m: usize) -> Self {
        let letter_index = alphabet
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();
        Ngba {
            trans: Rows::new(n),
            acc: vec![vec![false; n]; m],
            alphabet,
            letter_index,
            inits: Vec::new(),
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> usize {
        for set in &mut self.acc {
            set.push(false);
        }
        self.trans.add_state()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// Marks a state initial.
    pub fn set_init(&mut self, s: usize) {
        if !self.inits.contains(&s) {
            self.inits.push(s);
        }
    }

    /// Sets membership of `s` in acceptance set `i`.
    pub fn set_in_acc_set(&mut self, s: usize, i: usize, member: bool) {
        self.acc[i][s] = member;
    }

    /// Adds a transition by letter.
    pub fn add_transition(&mut self, from: usize, letter: &L, to: usize) {
        let li = self.letter_index[letter];
        self.add_transition_idx(from, li, to);
    }

    /// Adds a transition by letter index.
    pub fn add_transition_idx(&mut self, from: usize, li: usize, to: usize) {
        self.trans.add(from, li, to);
    }

    /// Degeneralization: the classic counter construction. State `(s, i)`
    /// waits for acceptance set `i`; when `s ∈ Acc_i` the counter advances
    /// (mod `m`). Accepting states are `(s, 0)` with `s ∈ Acc_0`.
    pub fn degeneralize(&self) -> Nba<L> {
        let m = self.acc.len().max(1);
        if self.acc.is_empty() {
            // No acceptance sets: every run accepting; make all states
            // accepting in a single-copy NBA.
            let mut nba = Nba::new(self.alphabet.clone(), self.num_states());
            for s in 0..self.num_states() {
                nba.set_accepting(s, true);
            }
            for &i in &self.inits {
                nba.set_init(i);
            }
            for s in 0..self.num_states() {
                for (li, succs) in self.trans.row(s) {
                    for &t in succs {
                        let letter = self.alphabet[li].clone();
                        nba.add_transition(s, &letter, t);
                    }
                }
            }
            return nba;
        }
        let n = self.num_states();
        let mut nba = Nba::new(self.alphabet.clone(), n * m);
        let id = |s: usize, i: usize| s * m + i;
        for &s in &self.inits {
            nba.set_init(id(s, 0));
        }
        for s in 0..n {
            for i in 0..m {
                nba.set_accepting(id(s, i), i == 0 && self.acc[0][s]);
                let j = if self.acc[i][s] { (i + 1) % m } else { i };
                for (li, succs) in self.trans.row(s) {
                    for &t in succs {
                        let letter = self.alphabet[li].clone();
                        nba.add_transition(id(s, i), &letter, id(t, j));
                    }
                }
            }
        }
        nba
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NBA over {0,1} accepting words with infinitely many 1s.
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

    /// NBA over {0,1} accepting words with infinitely many 0s.
    fn inf_zeros() -> Nba<u8> {
        let mut a = Nba::new(vec![0, 1], 2);
        a.set_init(0);
        a.set_accepting(1, true);
        a.add_transition(0, &1, 0);
        a.add_transition(0, &0, 1);
        a.add_transition(1, &1, 0);
        a.add_transition(1, &0, 1);
        a
    }

    #[test]
    fn accepts_lasso_inf_ones() {
        let a = inf_ones();
        assert!(a.accepts_lasso(&Lasso::periodic(vec![1])));
        assert!(a.accepts_lasso(&Lasso::new(vec![0, 0, 0], vec![0, 1])));
        assert!(!a.accepts_lasso(&Lasso::new(vec![1, 1], vec![0])));
    }

    #[test]
    fn union_accepts_either() {
        let u = inf_ones().union(&inf_zeros());
        assert!(u.accepts_lasso(&Lasso::periodic(vec![1])));
        assert!(u.accepts_lasso(&Lasso::periodic(vec![0])));
        assert!(u.accepts_lasso(&Lasso::periodic(vec![0, 1])));
    }

    #[test]
    fn intersection_needs_both() {
        let i = inf_ones().intersect(&inf_zeros());
        assert!(i.accepts_lasso(&Lasso::periodic(vec![0, 1])));
        assert!(!i.accepts_lasso(&Lasso::periodic(vec![1])));
        assert!(!i.accepts_lasso(&Lasso::periodic(vec![0])));
        assert!(i.accepts_lasso(&Lasso::new(vec![1, 1, 1], vec![1, 0])));
    }

    #[test]
    fn degeneralize_two_sets() {
        // NGBA over {a=0, b=1}: one state, self loops; set 0 = {after a},
        // set 1 = {after b}: encode with two states tracking last letter.
        let mut g = Ngba::new(vec![0u8, 1], 2, 2);
        g.set_init(0);
        // state 0 = last was 'a' (letter 0), state 1 = last was 'b'.
        g.set_in_acc_set(0, 0, true);
        g.set_in_acc_set(1, 1, true);
        for s in 0..2 {
            g.add_transition(s, &0, 0);
            g.add_transition(s, &1, 1);
        }
        let nba = g.degeneralize();
        // Both letters infinitely often.
        assert!(nba.accepts_lasso(&Lasso::periodic(vec![0, 1])));
        assert!(!nba.accepts_lasso(&Lasso::periodic(vec![0])));
        assert!(!nba.accepts_lasso(&Lasso::periodic(vec![1])));
    }

    #[test]
    fn lasso_with_unknown_letter_rejected() {
        let a = inf_ones();
        assert!(!a.accepts_lasso(&Lasso::periodic(vec![7])));
    }

    #[test]
    fn no_acceptance_sets_accepts_all_runs() {
        let mut g = Ngba::new(vec![0u8], 1, 0);
        g.set_init(0);
        g.add_transition(0, &0, 0);
        let nba = g.degeneralize();
        assert!(nba.accepts_lasso(&Lasso::periodic(vec![0])));
    }

    /// Pins `intersect` by language and size: every lasso over {0, 1}
    /// with a prefix of at most 2 letters and a cycle of 1 to 3 letters is
    /// accepted iff both operands accept it. (State ids follow the
    /// exploration order, which the language does not see.)
    #[test]
    fn intersect_language_is_pinned() {
        // Finitely many 1s, with a nondeterministic guess of the last one.
        let mut fin_ones = Nba::new(vec![0u8, 1], 2);
        fin_ones.set_init(0);
        fin_ones.set_accepting(1, true);
        fin_ones.add_transition(0, &0, 0);
        fin_ones.add_transition(0, &1, 0);
        fin_ones.add_transition(0, &0, 1);
        fin_ones.add_transition(1, &0, 1);
        let words = |len: usize| -> Vec<Vec<u8>> {
            (0..1u32 << len)
                .map(|bits| (0..len).map(|i| (bits >> i & 1) as u8).collect())
                .collect()
        };
        for (a, b) in [
            (inf_ones(), inf_zeros()),
            (inf_zeros(), fin_ones.clone()),
            (fin_ones.clone(), inf_ones()),
        ] {
            let i = a.intersect(&b);
            assert_eq!(i.num_states(), 6);
            for prefix in (0..=2).flat_map(words) {
                for cycle in (1..=3).flat_map(words) {
                    let w = Lasso::new(prefix.clone(), cycle);
                    assert_eq!(
                        i.accepts_lasso(&w),
                        a.accepts_lasso(&w) && b.accepts_lasso(&w),
                        "{w:?}"
                    );
                }
            }
        }
    }
}
