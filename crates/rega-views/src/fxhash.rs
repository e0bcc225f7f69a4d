//! A fast, seeded hash for the constructions' small integer keys.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The multiply-rotate hash of the Fx scheme, with a final avalanche so
/// a table can index by the low bits. The keys are short integer
/// sequences (observer configurations, register masks, selector states),
/// on which SipHash would cost as much as the step that looks them up.
/// The field is the seed: a random one per table keeps the keys an input
/// automaton determines from being crafted to collide.
pub(crate) struct FxHasher(u64);

/// Builds [`FxHasher`]s from one random seed.
#[derive(Debug)]
pub(crate) struct FxSeed(u64);

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
pub(crate) type FxMap<K, V> = HashMap<K, V, FxSeed>;

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
