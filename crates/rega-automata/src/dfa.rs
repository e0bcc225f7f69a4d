//! Total deterministic finite automata over explicit finite alphabets.
//!
//! DFAs are used throughout the library as compiled *constraint monitors*:
//! the regular expressions of an extended automaton's global constraints are
//! compiled to DFAs over the automaton's state set, and run incrementally
//! along symbolic and concrete traces.

use crate::frontier::Frontier;
use crate::nfa::Nfa;
use crate::regex::Regex;
use crate::Letter;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// A total DFA over the explicit alphabet `alphabet`. Transitions are stored
/// densely: `trans[state][letter_index]`.
#[derive(Clone, Debug)]
pub struct Dfa<L> {
    alphabet: Vec<L>,
    letter_index: HashMap<L, usize>,
    init: usize,
    accepting: Vec<bool>,
    trans: Vec<Vec<usize>>,
}

impl<L: Letter> Dfa<L> {
    /// Builds a DFA from raw parts. `trans` must be total: one row per
    /// state, one entry per alphabet letter.
    pub fn from_parts(
        alphabet: Vec<L>,
        init: usize,
        accepting: Vec<bool>,
        trans: Vec<Vec<usize>>,
    ) -> Self {
        debug_assert_eq!(accepting.len(), trans.len());
        debug_assert!(trans.iter().all(|row| row.len() == alphabet.len()));
        let letter_index = alphabet
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();
        Dfa {
            alphabet,
            letter_index,
            init,
            accepting,
            trans,
        }
    }

    /// Compiles a regular expression to a minimal total DFA over `alphabet`.
    pub fn from_regex(regex: &Regex<L>, alphabet: &[L]) -> Self {
        Nfa::from_regex(regex).determinize(alphabet).minimize()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The alphabet.
    pub fn alphabet(&self) -> &[L] {
        &self.alphabet
    }

    /// The initial state.
    pub fn init(&self) -> usize {
        self.init
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: usize) -> bool {
        self.accepting[s]
    }

    /// The index of a letter in the alphabet, if present.
    pub fn letter_index(&self, letter: &L) -> Option<usize> {
        self.letter_index.get(letter).copied()
    }

    /// One transition step. Panics if the letter is not in the alphabet.
    pub fn step(&self, s: usize, letter: &L) -> usize {
        let li = self.letter_index[letter];
        self.trans[s][li]
    }

    /// One transition step by letter index.
    pub fn step_idx(&self, s: usize, letter_idx: usize) -> usize {
        self.trans[s][letter_idx]
    }

    /// Runs the DFA on a word from a state.
    pub fn run_from(&self, mut s: usize, word: &[L]) -> usize {
        for letter in word {
            s = self.step(s, letter);
        }
        s
    }

    /// Whether the DFA accepts the word.
    pub fn accepts(&self, word: &[L]) -> bool {
        self.accepting[self.run_from(self.init, word)]
    }

    /// Whether the accepted language is empty.
    pub fn is_empty(&self) -> bool {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![self.init];
        seen[self.init] = true;
        while let Some(s) = stack.pop() {
            if self.accepting[s] {
                return false;
            }
            for &t in &self.trans[s] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        true
    }

    /// Complement (flips acceptance; the DFA is total).
    pub fn complement(&self) -> Dfa<L> {
        let mut c = self.clone();
        for a in &mut c.accepting {
            *a = !*a;
        }
        c
    }

    /// Product of two DFAs over the same alphabet, combining acceptance with
    /// `combine` (e.g. `&&` for intersection, `||` for union).
    pub fn product(&self, other: &Dfa<L>, combine: impl Fn(bool, bool) -> bool) -> Dfa<L> {
        assert_eq!(self.alphabet, other.alphabet, "alphabet mismatch");
        let mut pairs: Frontier<(usize, usize)> = Frontier::new();
        pairs.intern((self.init, other.init));
        let mut trans: Vec<Vec<usize>> = Vec::new();
        while let Some(s) = pairs.pop() {
            let (a, b) = pairs[s];
            let row = (0..self.alphabet.len())
                .map(|li| pairs.intern((self.trans[a][li], other.trans[b][li])).0)
                .collect();
            trans.push(row);
        }
        let accepting = pairs
            .keys()
            .iter()
            .map(|&(a, b)| combine(self.accepting[a], other.accepting[b]))
            .collect();
        Dfa::from_parts(self.alphabet.clone(), 0, accepting, trans)
    }

    /// Intersection.
    pub fn intersect(&self, other: &Dfa<L>) -> Dfa<L> {
        self.product(other, |a, b| a && b)
    }

    /// Union.
    pub fn union(&self, other: &Dfa<L>) -> Dfa<L> {
        self.product(other, |a, b| a || b)
    }

    /// Language equivalence test (via minimization-free product check).
    pub fn equivalent(&self, other: &Dfa<L>) -> bool {
        self.product(other, |a, b| a != b).is_empty()
    }

    /// Moore's partition-refinement minimization (also removes unreachable
    /// states).
    pub fn minimize(&self) -> Dfa<L> {
        // Restrict to reachable states first.
        let mut reach = vec![false; self.num_states()];
        let mut stack = vec![self.init];
        reach[self.init] = true;
        while let Some(s) = stack.pop() {
            for &t in &self.trans[s] {
                if !reach[t] {
                    reach[t] = true;
                    stack.push(t);
                }
            }
        }
        let reachable: Vec<usize> = (0..self.num_states()).filter(|&s| reach[s]).collect();
        let mut old_to_new: Vec<usize> = vec![usize::MAX; self.num_states()];
        for (i, &s) in reachable.iter().enumerate() {
            old_to_new[s] = i;
        }

        // Initial partition: accepting vs non-accepting.
        let mut class: Vec<usize> = reachable
            .iter()
            .map(|&s| usize::from(self.accepting[s]))
            .collect();
        // Signature of a state: its class, then its successors' classes.
        // Each round numbers the distinct signatures in order of first
        // occurrence. Only distinct ones are kept, one row each in a flat
        // buffer, found again through their hash; every buffer is reused
        // by the next round.
        let width = 1 + self.alphabet.len();
        let hasher = RandomState::new();
        let mut sig: Vec<usize> = Vec::with_capacity(width);
        let mut rows: Vec<usize> = Vec::new();
        // Hash → newest class with that hash; class → the previous one.
        let mut by_hash: HashMap<u64, usize> = HashMap::new();
        let mut chain: Vec<Option<usize>> = Vec::new();
        let mut new_class = vec![0usize; reachable.len()];
        loop {
            rows.clear();
            by_hash.clear();
            chain.clear();
            for (i, &s) in reachable.iter().enumerate() {
                sig.clear();
                sig.push(class[i]);
                sig.extend(self.trans[s].iter().map(|&t| class[old_to_new[t]]));
                let h = hasher.hash_one(&sig);
                let mut probe = by_hash.get(&h).copied();
                while let Some(id) = probe {
                    if rows[id * width..][..width] == sig[..] {
                        break;
                    }
                    probe = chain[id];
                }
                new_class[i] = probe.unwrap_or_else(|| {
                    chain.push(by_hash.insert(h, chain.len()));
                    rows.extend_from_slice(&sig);
                    chain.len() - 1
                });
            }
            let stable = new_class == class;
            std::mem::swap(&mut class, &mut new_class);
            if stable {
                break;
            }
        }

        let num_classes = class.iter().copied().max().map_or(0, |m| m + 1);
        let mut trans = vec![Vec::new(); num_classes];
        let mut accepting = vec![false; num_classes];
        let mut done = vec![false; num_classes];
        for (i, &s) in reachable.iter().enumerate() {
            let c = class[i];
            if done[c] {
                continue;
            }
            done[c] = true;
            accepting[c] = self.accepting[s];
            trans[c] = self.trans[s]
                .iter()
                .map(|&t| class[old_to_new[t]])
                .collect();
        }
        let init = class[old_to_new[self.init]];
        Dfa::from_parts(self.alphabet.clone(), init, accepting, trans)
    }

    /// Re-bases the DFA onto a new alphabet: each new letter `m` behaves
    /// like the old letter `f(m)`. Used when automaton states are refined
    /// (e.g. the state-driven construction maps `Q × X → Q`).
    pub fn rebase_alphabet<M: Letter>(&self, new_alphabet: Vec<M>, f: impl Fn(&M) -> L) -> Dfa<M> {
        let trans = self
            .trans
            .iter()
            .map(|_| Vec::with_capacity(new_alphabet.len()))
            .collect::<Vec<_>>();
        let mut dfa = Dfa {
            letter_index: new_alphabet
                .iter()
                .enumerate()
                .map(|(i, l)| (l.clone(), i))
                .collect(),
            alphabet: new_alphabet,
            init: self.init,
            accepting: self.accepting.clone(),
            trans,
        };
        for s in 0..self.trans.len() {
            for m in dfa.alphabet.clone() {
                let old = f(&m);
                let li = self.letter_index[&old];
                let t = self.trans[s][li];
                dfa.trans[s].push(t);
            }
        }
        dfa
    }

    /// Whether some accepting state is reachable from `s`.
    pub fn can_accept_from(&self, s: usize) -> bool {
        let mut seen = vec![false; self.num_states()];
        let mut stack = vec![s];
        seen[s] = true;
        while let Some(u) = stack.pop() {
            if self.accepting[u] {
                return true;
            }
            for &t in &self.trans[u] {
                if !seen[t] {
                    seen[t] = true;
                    stack.push(t);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(s: &str) -> Option<u32> {
        s.strip_prefix('p').and_then(|n| n.parse().ok())
    }

    fn dfa(expr: &str) -> Dfa<u32> {
        let r = Regex::parse(expr, resolve).unwrap();
        Dfa::from_regex(&r, &[1, 2, 3])
    }

    #[test]
    fn from_regex_accepts() {
        let d = dfa("p1 p2* p1");
        assert!(d.accepts(&[1, 1]));
        assert!(d.accepts(&[1, 2, 2, 1]));
        assert!(!d.accepts(&[1, 2]));
        assert!(!d.accepts(&[1, 3, 1]));
    }

    #[test]
    fn complement_flips() {
        let d = dfa("p1*");
        let c = d.complement();
        assert!(d.accepts(&[1, 1]));
        assert!(!c.accepts(&[1, 1]));
        assert!(!d.accepts(&[2]));
        assert!(c.accepts(&[2]));
    }

    #[test]
    fn intersection_and_union() {
        let a = dfa("p1* p2");
        let b = dfa("(p1 p1)* p2");
        let i = a.intersect(&b);
        assert!(i.accepts(&[1, 1, 2]));
        assert!(!i.accepts(&[1, 2]));
        let u = a.union(&b);
        assert!(u.accepts(&[1, 2]));
        assert!(u.accepts(&[1, 1, 2]));
        assert!(!u.accepts(&[3]));
    }

    #[test]
    fn equivalence() {
        let a = dfa("p1 p1*");
        let b = dfa("p1* p1");
        assert!(a.equivalent(&b));
        let c = dfa("p1*");
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn minimize_reduces() {
        // (p1|p2|p3)* has a 1-state minimal DFA.
        let d = dfa("(p1|p2|p3)*");
        assert_eq!(d.minimize().num_states(), 1);
    }

    #[test]
    fn minimize_preserves_language() {
        let d = dfa("p1 (p2 p1)* p3");
        let m = d.minimize();
        for word in [
            vec![1, 3],
            vec![1, 2, 1, 3],
            vec![1, 2, 3],
            vec![3],
            vec![],
            vec![1, 2, 1, 2, 1, 3],
        ] {
            assert_eq!(d.accepts(&word), m.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn emptiness() {
        let d = dfa("p1");
        assert!(!d.is_empty());
        // p1 ∩ p2 is empty
        let e = dfa("p1").intersect(&dfa("p2"));
        assert!(e.is_empty());
    }

    #[test]
    fn rebase_alphabet() {
        // Over {1,2}: language p1 p2. Rebase to pairs (letter, flag).
        let r = Regex::parse("p1 p2", resolve).unwrap();
        let d = Dfa::from_regex(&r, &[1, 2]);
        let new_alpha: Vec<(u32, bool)> = vec![(1, false), (1, true), (2, false), (2, true)];
        let d2 = d.rebase_alphabet(new_alpha, |&(l, _)| l);
        assert!(d2.accepts(&[(1, true), (2, false)]));
        assert!(!d2.accepts(&[(2, true), (1, false)]));
    }

    #[test]
    fn can_accept_from_states() {
        let d = dfa("p1 p2");
        assert!(d.can_accept_from(d.init()));
        let dead = d.step(d.init(), &3);
        assert!(!d.can_accept_from(dead));
    }

    /// Pins the product's exact output: pairs numbered in discovery order
    /// (breadth-first, alphabet order), one row per pair.
    #[test]
    fn product_shape_is_pinned() {
        let p = dfa("p1* p2").product(&dfa("(p1 p1)* p2"), |a, b| a && !b);
        assert_eq!(p.num_states(), 5);
        assert_eq!(p.init(), 0);
        let rows: Vec<Vec<usize>> = (0..5)
            .map(|s| (0..3).map(|li| p.step_idx(s, li)).collect())
            .collect();
        assert_eq!(
            rows,
            [[1, 2, 3], [0, 4, 3], [3, 3, 3], [3, 3, 3], [3, 3, 3]]
        );
        let acc: Vec<bool> = (0..5).map(|s| p.is_accepting(s)).collect();
        assert_eq!(acc, [false, false, false, false, true]);
    }
}
