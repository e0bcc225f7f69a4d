//! Nondeterministic finite automata with ε-transitions, built from regular
//! expressions by the Thompson construction and determinized by the subset
//! construction.

use crate::dfa::Dfa;
use crate::frontier::Frontier;
use crate::regex::Regex;
use crate::Letter;
use std::collections::BTreeSet;

/// A nondeterministic finite automaton over letters `L` with ε-transitions.
#[derive(Clone, Debug)]
pub struct Nfa<L> {
    /// Number of states (`0..n`).
    n: usize,
    inits: BTreeSet<usize>,
    accepting: Vec<bool>,
    /// `trans[s]` lists `(label, target)`; `None` labels are ε-transitions.
    trans: Vec<Vec<(Option<L>, usize)>>,
}

impl<L: Letter> Nfa<L> {
    /// An NFA with `n` states and no transitions.
    pub fn new(n: usize) -> Self {
        Nfa {
            n,
            inits: BTreeSet::new(),
            accepting: vec![false; n],
            trans: vec![Vec::new(); n],
        }
    }

    /// Adds a fresh state and returns its index.
    pub fn add_state(&mut self) -> usize {
        self.n += 1;
        self.accepting.push(false);
        self.trans.push(Vec::new());
        self.n - 1
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Marks a state initial.
    pub fn set_init(&mut self, s: usize) {
        self.inits.insert(s);
    }

    /// Marks a state accepting.
    pub fn set_accepting(&mut self, s: usize, acc: bool) {
        self.accepting[s] = acc;
    }

    /// Whether a state is accepting.
    pub fn is_accepting(&self, s: usize) -> bool {
        self.accepting[s]
    }

    /// Adds a labeled transition.
    pub fn add_transition(&mut self, from: usize, label: L, to: usize) {
        self.trans[from].push((Some(label), to));
    }

    /// Adds an ε-transition.
    pub fn add_epsilon(&mut self, from: usize, to: usize) {
        self.trans[from].push((None, to));
    }

    /// Builds an NFA for a regular expression (Thompson construction).
    pub fn from_regex(regex: &Regex<L>) -> Self {
        let mut nfa = Nfa::new(0);
        let start = nfa.add_state();
        let end = nfa.add_state();
        nfa.set_init(start);
        nfa.set_accepting(end, true);
        nfa.build(regex, start, end);
        nfa
    }

    fn build(&mut self, regex: &Regex<L>, from: usize, to: usize) {
        match regex {
            Regex::Empty => {}
            Regex::Epsilon => self.add_epsilon(from, to),
            Regex::Sym(l) => self.add_transition(from, l.clone(), to),
            Regex::Concat(parts) => {
                if parts.is_empty() {
                    self.add_epsilon(from, to);
                    return;
                }
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() {
                        to
                    } else {
                        self.add_state()
                    };
                    self.build(p, cur, next);
                    cur = next;
                }
            }
            Regex::Alt(parts) => {
                for p in parts {
                    self.build(p, from, to);
                }
            }
            Regex::Star(inner) => {
                let hub = self.add_state();
                self.add_epsilon(from, hub);
                self.add_epsilon(hub, to);
                self.build(inner, hub, hub);
            }
        }
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, set: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = set.clone();
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for (label, t) in &self.trans[s] {
                if label.is_none() && closure.insert(*t) {
                    stack.push(*t);
                }
            }
        }
        closure
    }

    /// One step of the subset construction: ε-closure of the `letter`
    /// successors of `set` (which must itself be ε-closed).
    pub fn step(&self, set: &BTreeSet<usize>, letter: &L) -> BTreeSet<usize> {
        let mut next = BTreeSet::new();
        for &s in set {
            for (label, t) in &self.trans[s] {
                if label.as_ref() == Some(letter) {
                    next.insert(*t);
                }
            }
        }
        self.epsilon_closure(&next)
    }

    /// Whether the NFA accepts the finite word.
    pub fn accepts(&self, word: &[L]) -> bool {
        let mut cur = self.epsilon_closure(&self.inits);
        for letter in word {
            cur = self.step(&cur, letter);
            if cur.is_empty() {
                return false;
            }
        }
        cur.iter().any(|&s| self.accepting[s])
    }

    /// Subset construction: a total DFA over the given alphabet. Letters of
    /// the NFA outside the alphabet are ignored; letters of the alphabet not
    /// used by the NFA lead towards the (implicit) dead state.
    pub fn determinize(&self, alphabet: &[L]) -> Dfa<L> {
        let mut subsets: Frontier<BTreeSet<usize>> = Frontier::new();
        subsets.intern(self.epsilon_closure(&self.inits));
        let mut trans: Vec<Vec<usize>> = Vec::new();
        while let Some(s) = subsets.pop() {
            let subset = subsets[s].clone();
            let row = alphabet
                .iter()
                .map(|letter| subsets.intern(self.step(&subset, letter)).0)
                .collect();
            trans.push(row);
        }
        let accepting: Vec<bool> = subsets
            .keys()
            .iter()
            .map(|sub| sub.iter().any(|&s| self.accepting[s]))
            .collect();
        Dfa::from_parts(alphabet.to_vec(), 0, accepting, trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(s: &str) -> Option<u32> {
        s.strip_prefix('p').and_then(|n| n.parse().ok())
    }

    #[test]
    fn thompson_accepts_example5() {
        let r = Regex::parse("p1 p2* p1", resolve).unwrap();
        let nfa = Nfa::from_regex(&r);
        assert!(nfa.accepts(&[1, 1]));
        assert!(nfa.accepts(&[1, 2, 2, 2, 1]));
        assert!(!nfa.accepts(&[1, 2]));
        assert!(!nfa.accepts(&[2, 1]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn empty_regex_accepts_nothing() {
        let nfa = Nfa::from_regex(&Regex::<u32>::Empty);
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[1]));
    }

    #[test]
    fn epsilon_accepts_empty_word() {
        let nfa = Nfa::from_regex(&Regex::<u32>::Epsilon);
        assert!(nfa.accepts(&[]));
        assert!(!nfa.accepts(&[1]));
    }

    #[test]
    fn alternation() {
        let r = Regex::parse("p1 | p2 p2", resolve).unwrap();
        let nfa = Nfa::from_regex(&r);
        assert!(nfa.accepts(&[1]));
        assert!(nfa.accepts(&[2, 2]));
        assert!(!nfa.accepts(&[2]));
    }

    #[test]
    fn plus_and_opt() {
        let r = Regex::parse("p1+ p2?", resolve).unwrap();
        let nfa = Nfa::from_regex(&r);
        assert!(nfa.accepts(&[1]));
        assert!(nfa.accepts(&[1, 1, 1, 2]));
        assert!(!nfa.accepts(&[2]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn determinize_agrees_with_nfa() {
        let r = Regex::parse("(p1|p2)* p1 p2", resolve).unwrap();
        let nfa = Nfa::from_regex(&r);
        let dfa = nfa.determinize(&[1, 2]);
        for word in [
            vec![],
            vec![1],
            vec![1, 2],
            vec![2, 1, 2],
            vec![1, 1, 2, 1, 2],
            vec![2, 2],
        ] {
            assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn star_of_alternation() {
        let r = Regex::parse("(p1 p2)*", resolve).unwrap();
        let nfa = Nfa::from_regex(&r);
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[1, 2, 1, 2]));
        assert!(!nfa.accepts(&[1, 2, 1]));
    }

    /// Pins the subset construction's exact output: states numbered in
    /// discovery order (breadth-first, alphabet order), the dead subset
    /// included, one row per state.
    #[test]
    fn determinize_shape_is_pinned() {
        let r = Regex::parse("(p1|p2)* p1 p2", resolve).unwrap();
        let dfa = Nfa::from_regex(&r).determinize(&[1, 2, 3]);
        assert_eq!(dfa.num_states(), 5);
        assert_eq!(dfa.init(), 0);
        let rows: Vec<Vec<usize>> = (0..5)
            .map(|s| (0..3).map(|li| dfa.step_idx(s, li)).collect())
            .collect();
        assert_eq!(
            rows,
            [[1, 2, 3], [1, 4, 3], [1, 2, 3], [3, 3, 3], [1, 2, 3]]
        );
        let acc: Vec<bool> = (0..5).map(|s| dfa.is_accepting(s)).collect();
        assert_eq!(acc, [false, false, false, false, true]);
    }
}
