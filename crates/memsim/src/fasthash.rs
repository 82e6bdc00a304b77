//! A fast, deterministic hasher for the simulator's hot-path tables.
//!
//! The miss history's block-group bitmaps, the AGT's region index, the
//! unbounded PHT and the generation probes hash a `u64` key on every miss
//! (or every access);
//! `std`'s default SipHash is hardening against adversarial keys the
//! simulator does not need, and its per-lookup cost is measurable at trace
//! scale.  [`FxHasher`] is the multiply-xor hash used by rustc's
//! `FxHashMap`: one rotate, one xor and one multiply per word, with solid
//! dispersion on block/region addresses (whose low bits are zero).
//!
//! Swapping hashers is behavior-preserving for every table in this workspace:
//! none of them depends on iteration order (the AGT's index only maps a
//! region to its slot, and its LRU victim scans pick a unique minimum tick),
//! so simulated results stay bit-identical — pinned by the golden hashes in
//! `tests/deterministic_replay.rs`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier from Fx hashing (derived from the golden ratio, as in
/// Firefox's and rustc's FxHash).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-xor hasher for trusted keys (addresses, PCs).
///
/// Deterministic across runs and platforms — there is no random seed — which
/// also keeps hash-table layout reproducible for debugging.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The bare multiply leaves the low output bits weak for keys sharing
        // a power-of-two factor (block and region addresses all do), and the
        // low bits are exactly what the hash table's bucket index uses.  One
        // xor-shift folds the well-mixed high bits down; measurably cheaper
        // than SipHash by a wide margin, and the dispersion test below keeps
        // it honest.
        self.hash ^ (self.hash >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// The `BuildHasher` for [`FxHasher`]-backed tables.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_dispersed() {
        let mut seen: HashSet<u64, FxBuildHasher> = HashSet::default();
        // Block-aligned addresses (low 6 bits zero) must not collide in the
        // low bits the table indexes with.
        let mut low_bits = HashSet::new();
        for i in 0..4096u64 {
            let key = i * 64;
            let mut a = FxHasher::default();
            a.write_u64(key);
            let mut b = FxHasher::default();
            b.write_u64(key);
            assert_eq!(a.finish(), b.finish(), "hashing must be deterministic");
            low_bits.insert(a.finish() & 0xfff);
            seen.insert(key);
        }
        assert_eq!(seen.len(), 4096);
        // A perfect hash throws 4096 balls into 4096 low-12-bit bins and
        // expects ~2590 distinct (1 - 1/e); the bare Fx multiply manages
        // only 64 on block-aligned keys.  Anything above 2300 means the
        // finalizer is doing its job.
        assert!(
            low_bits.len() > 2300,
            "low 12 bits too collision-prone: {} distinct of 4096",
            low_bits.len()
        );
    }

    #[test]
    fn write_matches_write_u64_for_whole_words() {
        let mut a = FxHasher::default();
        a.write_u64(0xdead_beef_1234_5678);
        let mut b = FxHasher::default();
        b.write(&0xdead_beef_1234_5678u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn maps_and_sets_behave_normally() {
        let mut map: FastMap<u64, u32> = FastMap::default();
        map.insert(0x1000, 1);
        map.insert(0x2000, 2);
        assert_eq!(map.get(&0x1000), Some(&1));
        assert_eq!(map.remove(&0x2000), Some(2));
        assert!(!map.contains_key(&0x2000));
    }
}
