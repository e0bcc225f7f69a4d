//! The exploration frontier shared by every on-the-fly construction.
//!
//! Subset constructions, products and the paper's selector automata all
//! build a finite automaton by exploring it from its initial states: each
//! state is a finite key, numbered the first time it is reached and
//! expanded once. [`Frontier`] owns that numbering. Ids are dense and
//! assigned in discovery order, and [`Frontier::pop`] hands them out for
//! expansion in id order (breadth-first), so a builder that pushes one
//! transition row per popped id has row `s` belong to state `s`. Every
//! construction's state numbering is decided here.

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::ops::Index;

/// Discovered keys with dense ids, and the queue of those not yet
/// expanded. `S` is the hasher of the key index.
#[derive(Debug)]
pub struct Frontier<K, S = RandomState> {
    index: HashMap<K, usize, S>,
    keys: Vec<K>,
    expanded: usize,
}

impl<K: Clone + Eq + Hash, S: BuildHasher + Default> Default for Frontier<K, S> {
    fn default() -> Self {
        Frontier {
            index: HashMap::default(),
            keys: Vec::new(),
            expanded: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, S: BuildHasher + Default> Frontier<K, S> {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `key`, numbering it next if it is new; the flag says
    /// whether it was.
    pub fn intern(&mut self, key: K) -> (usize, bool) {
        match self.index.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let id = self.keys.len();
                self.keys.push(e.key().clone());
                e.insert(id);
                (id, true)
            }
        }
    }

    /// [`intern`](Self::intern) by a borrowed key, which is converted to
    /// an owned one only when it is new.
    pub fn intern_ref<Q>(&mut self, key: &Q) -> (usize, bool)
    where
        K: Borrow<Q> + for<'q> From<&'q Q>,
        Q: Eq + Hash + ?Sized,
    {
        match self.index.get(key) {
            Some(&id) => (id, false),
            None => self.intern(K::from(key)),
        }
    }

    /// The next discovered id not yet expanded, in id order.
    pub fn pop(&mut self) -> Option<usize> {
        let id = self.expanded;
        (id < self.keys.len()).then(|| {
            self.expanded += 1;
            id
        })
    }

    /// Number of keys discovered so far.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no key has been discovered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Every discovered key, indexed by id.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }
}

impl<K, S> Index<usize> for Frontier<K, S> {
    type Output = K;

    fn index(&self, id: usize) -> &K {
        &self.keys[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_discovery_order_expanded_in_id_order() {
        let mut f: Frontier<Box<[u64]>> = Frontier::new();
        assert!(f.is_empty());
        assert_eq!(f.intern(vec![5, 5].into()), (0, true));
        assert_eq!(f.intern(vec![1].into()), (1, true));
        assert_eq!(f.intern(vec![5, 5].into()), (0, false));
        assert_eq!(f.pop(), Some(0));
        // A borrowed key finds its owned twin, and is owned once new.
        assert_eq!(f.intern_ref(&[1][..]), (1, false));
        assert_eq!(f.intern_ref(&[][..]), (2, true));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
        assert_eq!(f.intern_ref(&[5, 5][..]), (0, false));
        assert_eq!(f.pop(), None);
        assert_eq!(f.len(), 3);
        assert_eq!(&*f[1], [1]);
        assert_eq!(
            f.keys(),
            [vec![5, 5].into(), vec![1].into(), Box::<[u64]>::from([])]
        );
    }
}
