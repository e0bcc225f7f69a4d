//! A fast, seeded hash for the constructions' small keys.
//!
//! The keys every hot table of the stack looks up are short runs of small
//! integers: σ-types (a register count and a few literals over register
//! indices), [`TypeId`](crate::TypeId) handles and pairs of them, observer
//! configurations, register masks, selector states. On such keys SipHash
//! costs as much as the step that looks them up.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The multiply-rotate hash of the Fx scheme, with a final avalanche so
/// a table can index by the low bits. The field is the seed: a random one
/// per table keeps the keys an input automaton determines from being
/// crafted to collide.
pub struct FxHasher(u64);

/// Builds [`FxHasher`]s from one random seed. A clone keeps the seed, as a
/// cloned table must.
#[derive(Clone, Debug)]
pub struct FxSeed(u64);

impl Default for FxSeed {
    fn default() -> Self {
        FxSeed(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for FxSeed {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.0)
    }
}

/// A `HashMap` hashed by [`FxHasher`] under a random seed.
pub type FxMap<K, V> = HashMap<K, V, FxSeed>;

impl FxHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Integer slices (a subset key's masks) arrive here as one byte
        // run: take them a word at a time.
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.add(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        z ^ (z >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Literal, SigmaType, Term};

    /// Two tables never share a seed, and within one table equal keys
    /// hash equal while the σ-types a construction interns spread out.
    #[test]
    fn seeded_per_table_and_spreads_types() {
        let (a, b) = (FxSeed::default(), FxSeed::default());
        assert_ne!(a.hash_one(7u32), b.hash_one(7u32));
        let types: Vec<SigmaType> = (0..4u16)
            .flat_map(|i| {
                (0..4u16).map(move |j| SigmaType::new(4, [Literal::eq(Term::x(i), Term::y(j))]))
            })
            .collect();
        let mut hashes: Vec<u64> = types.iter().map(|t| a.hash_one(t)).collect();
        assert_eq!(hashes[5], a.hash_one(types[5].clone()));
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), types.len());
    }
}
