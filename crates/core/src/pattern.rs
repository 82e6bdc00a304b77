//! Spatial pattern bit vectors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A spatial pattern: one bit per cache block in a spatial region, set when
/// the block was (or is predicted to be) accessed during a generation.
///
/// Regions of up to 8 kB with 64 B blocks need 128 bits; the pattern stores
/// its bits in two 64-bit words and carries its logical length so that
/// patterns from differently-sized regions cannot be confused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpatialPattern {
    bits: [u64; 2],
    len: u32,
}

impl SpatialPattern {
    /// Maximum number of blocks a pattern can describe.
    pub const MAX_BLOCKS: u32 = 128;

    /// Creates an empty pattern over `len` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or greater than [`Self::MAX_BLOCKS`].
    pub fn new(len: u32) -> Self {
        assert!(
            len > 0 && len <= Self::MAX_BLOCKS,
            "pattern length out of range"
        );
        Self { bits: [0; 2], len }
    }

    /// Creates a pattern over `len` blocks with the given offsets set.
    ///
    /// # Panics
    ///
    /// Panics if any offset is out of range.
    pub fn from_offsets(len: u32, offsets: &[u32]) -> Self {
        let mut p = Self::new(len);
        for &o in offsets {
            p.set(o);
        }
        p
    }

    /// Creates a pattern over `len` blocks from its two words of bits, as
    /// [`words`](Self::words) returns them.
    ///
    /// # Panics
    ///
    /// Panics if `len` is out of range or a bit at or beyond `len` is set.
    pub fn from_words(len: u32, bits: [u64; 2]) -> Self {
        let mut p = Self::new(len);
        // One past the highest set bit (0 when none is set).
        let end = match bits {
            [low, 0] => 64 - low.leading_zeros(),
            [_, high] => 128 - high.leading_zeros(),
        };
        assert!(end <= len, "pattern bits beyond its length {len}");
        p.bits = bits;
        p
    }

    /// The pattern's bits: offset `o` is bit `o % 64` of word `o / 64`.
    pub fn words(&self) -> [u64; 2] {
        self.bits
    }

    /// Number of blocks the pattern covers.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits == [0, 0]
    }

    /// Sets the bit for block `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len`.
    pub fn set(&mut self, offset: u32) {
        assert!(
            offset < self.len,
            "offset {offset} out of range (len {})",
            self.len
        );
        self.bits[(offset / 64) as usize] |= 1u64 << (offset % 64);
    }

    /// Clears the bit for block `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len`.
    pub fn clear(&mut self, offset: u32) {
        assert!(
            offset < self.len,
            "offset {offset} out of range (len {})",
            self.len
        );
        self.bits[(offset / 64) as usize] &= !(1u64 << (offset % 64));
    }

    /// Returns whether the bit for block `offset` is set.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= len`.
    pub fn get(&self, offset: u32) -> bool {
        assert!(
            offset < self.len,
            "offset {offset} out of range (len {})",
            self.len
        );
        self.bits[(offset / 64) as usize] & (1u64 << (offset % 64)) != 0
    }

    /// Number of set bits (blocks accessed / predicted).
    pub fn count(&self) -> u32 {
        self.bits[0].count_ones() + self.bits[1].count_ones()
    }

    /// Iterates over the offsets of set bits in ascending order.
    ///
    /// Scans word by word with `trailing_zeros`, so cost is proportional to
    /// the number of set bits, not the pattern length. This is the single
    /// bit-scan implementation; `for_each_set`, `first_set` and `Display`
    /// all share its word-walk.
    pub fn iter_set(&self) -> SetBits {
        SetBits {
            words: self.bits,
            word_index: 0,
        }
    }

    /// Calls `f` with each set offset in ascending order.
    ///
    /// Equivalent to `iter_set().for_each(f)`; kept as a named entry point
    /// for hot loops that want the closure form.
    pub fn for_each_set(&self, mut f: impl FnMut(u32)) {
        self.iter_set().for_each(&mut f);
    }

    /// Offset of the lowest set bit, if any.
    pub fn first_set(&self) -> Option<u32> {
        if self.bits[0] != 0 {
            Some(self.bits[0].trailing_zeros())
        } else if self.bits[1] != 0 {
            Some(64 + self.bits[1].trailing_zeros())
        } else {
            None
        }
    }
}

/// Iterator over the set offsets of a [`SpatialPattern`], ascending.
///
/// Holds a copy of the pattern words and clears the lowest set bit on each
/// step (`w & (w - 1)`), yielding its position via `trailing_zeros`.
#[derive(Debug, Clone)]
pub struct SetBits {
    words: [u64; 2],
    word_index: u32,
}

impl Iterator for SetBits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while (self.word_index as usize) < 2 {
            let w = self.words[self.word_index as usize];
            if w != 0 {
                self.words[self.word_index as usize] = w & (w - 1);
                return Some(self.word_index * 64 + w.trailing_zeros());
            }
            self.word_index += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.words[self.word_index.min(1) as usize..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetBits {}
impl std::iter::FusedIterator for SetBits {}

impl fmt::Display for SpatialPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = vec![b'0'; self.len as usize];
        self.for_each_set(|o| buf[o as usize] = b'1');
        f.write_str(std::str::from_utf8(&buf).expect("ASCII digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut p = SpatialPattern::new(32);
        assert!(p.is_empty());
        p.set(0);
        p.set(31);
        assert!(p.get(0) && p.get(31) && !p.get(15));
        assert_eq!(p.count(), 2);
        p.clear(0);
        assert!(!p.get(0));
        assert_eq!(p.count(), 1);
    }

    #[test]
    fn wide_patterns_use_both_words() {
        let mut p = SpatialPattern::new(128);
        p.set(5);
        p.set(64);
        p.set(127);
        assert_eq!(p.count(), 3);
        assert_eq!(p.iter_set().collect::<Vec<_>>(), vec![5, 64, 127]);
    }

    #[test]
    fn from_offsets_and_display() {
        let p = SpatialPattern::from_offsets(4, &[1, 3]);
        assert_eq!(p.to_string(), "0101");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_offset_panics() {
        let mut p = SpatialPattern::new(32);
        p.set(32);
    }

    #[test]
    fn first_set_finds_lowest_bit_in_either_word() {
        assert_eq!(SpatialPattern::new(128).first_set(), None);
        let mut p = SpatialPattern::new(128);
        p.set(127);
        assert_eq!(p.first_set(), Some(127));
        p.set(3);
        assert_eq!(p.first_set(), Some(3));
    }

    #[test]
    fn iter_set_is_exact_size_and_fused() {
        let p = SpatialPattern::from_offsets(128, &[0, 63, 64, 100]);
        let mut it = p.iter_set();
        assert_eq!(it.len(), 4);
        assert_eq!(it.next(), Some(0));
        assert_eq!(it.len(), 3);
        assert!(it.by_ref().count() == 3 && it.next().is_none() && it.next().is_none());
    }

    #[test]
    fn words_round_trip_and_refuse_bits_beyond_the_length() {
        for (len, offsets) in [
            (1, &[0][..]),
            (32, &[0, 31]),
            (64, &[63]),
            (100, &[5, 99]),
            (128, &[127]),
        ] {
            let p = SpatialPattern::from_offsets(len, offsets);
            assert_eq!(SpatialPattern::from_words(len, p.words()), p);
        }
        for (len, bits) in [(32, [1 << 32, 0]), (64, [0, 1]), (100, [0, 1 << 36])] {
            let refused = std::panic::catch_unwind(|| SpatialPattern::from_words(len, bits));
            assert!(refused.is_err(), "len {len}, bits {bits:?}");
        }
    }

    proptest! {
        // Satellite: the word-scan iterator must agree exactly with the
        // per-bit reference scan it replaced, for every derived entry point.
        #[test]
        fn word_scan_matches_per_bit_scan(offsets in proptest::collection::vec(0u32..128, 0..80)) {
            let p = SpatialPattern::from_offsets(128, &offsets);
            let per_bit: Vec<u32> = (0..p.len()).filter(|&o| p.get(o)).collect();
            prop_assert_eq!(p.iter_set().collect::<Vec<_>>(), per_bit.clone());
            let mut via_closure = Vec::new();
            p.for_each_set(|o| via_closure.push(o));
            prop_assert_eq!(via_closure, per_bit.clone());
            prop_assert_eq!(p.first_set(), per_bit.first().copied());
            let per_bit_display: String =
                (0..p.len()).map(|o| if p.get(o) { '1' } else { '0' }).collect();
            prop_assert_eq!(p.to_string(), per_bit_display);
        }

        #[test]
        fn count_matches_iter_set(offsets in proptest::collection::vec(0u32..64, 0..40)) {
            let p = SpatialPattern::from_offsets(64, &offsets);
            prop_assert_eq!(p.count() as usize, p.iter_set().count());
            // every offset we set is reported set
            for &o in &offsets {
                prop_assert!(p.get(o));
            }
        }
    }
}
