//! The Pattern History Table (PHT).
//!
//! The PHT provides long-term storage of spatial patterns.  It is organized
//! like a set-associative cache indexed by the prediction key (Section 3.2);
//! the practical configuration in the paper is 16 k entries, 16-way
//! set-associative — about the same storage as a 64 kB L1 data array.  An
//! unbounded variant supports the paper's limit studies (Figures 6, 8, 10).
//!
//! Storage is hot-path tuned: the bounded table is flat columns of slots (a
//! set is a fixed run of ways, found by mask and scanned linearly — no
//! per-set vector indirection or insert-time allocation), 32 bytes per
//! entry, and the unbounded map uses the simulator's fast deterministic
//! hasher.  Both store a pattern's bits only; its length is the table's.
//! Lookup, LRU refresh and LRU eviction are those of a set-associative
//! cache (ticks are unique, so the LRU victim is unambiguous), which the
//! eviction-order tests below and the workspace golden hashes pin.

use crate::pattern::SpatialPattern;
use memsim::FastMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Storage capacity of the PHT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhtCapacity {
    /// Unlimited storage (limit studies).
    Unbounded,
    /// A set-associative table with `entries` total entries organized in
    /// `associativity`-way sets.
    Bounded {
        /// Total number of entries.
        entries: usize,
        /// Ways per set.
        associativity: usize,
    },
}

impl PhtCapacity {
    /// The paper's practical configuration: 16 k entries, 16-way.
    pub fn paper_default() -> Self {
        PhtCapacity::Bounded {
            entries: 16 * 1024,
            associativity: 16,
        }
    }

    /// Checks that a bounded table has entries and ways, whole sets, and a
    /// power-of-two number of sets (a key finds its set by mask).
    ///
    /// # Errors
    ///
    /// The first invariant the geometry breaks.
    pub fn validate(&self) -> Result<(), PhtError> {
        match *self {
            PhtCapacity::Unbounded => Ok(()),
            PhtCapacity::Bounded {
                entries,
                associativity,
            } => {
                if entries == 0 || associativity == 0 {
                    Err(PhtError::Empty)
                } else if !entries.is_multiple_of(associativity) {
                    Err(PhtError::PartialSet)
                } else if !(entries / associativity).is_power_of_two() {
                    Err(PhtError::SetsNotPowerOfTwo)
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// An invariant a [`PhtCapacity`] breaks (see [`PhtCapacity::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhtError {
    /// The entry count or the associativity is zero.
    Empty,
    /// The entry count is not a multiple of the associativity.
    PartialSet,
    /// The number of sets is not a power of two.
    SetsNotPowerOfTwo,
}

impl fmt::Display for PhtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PhtError::Empty => "PHT capacity must be positive",
            PhtError::PartialSet => "entries must be a multiple of associativity",
            PhtError::SetsNotPowerOfTwo => "number of sets must be a power of two",
        })
    }
}

impl std::error::Error for PhtError {}

impl Default for PhtCapacity {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// `lru` value marking a free way (live entries carry a tick of at least 1).
const FREE: u64 = 0;

#[derive(Debug, Clone)]
enum Storage {
    Unbounded(FastMap<u64, [u64; 2]>),
    Bounded {
        /// Struct-of-arrays slot storage, 32 bytes per entry: a key, a
        /// pattern's two words and an LRU tick.  Set `s` owns the
        /// contiguous run `s*associativity .. (s+1)*associativity` of every
        /// column.  The probe scans only `keys` and `lru` (16 ways x 8 B
        /// each — two cache lines per column) and touches `bits` only on a
        /// hit.  An all-zero slot is free, so a new table is zeroed memory.
        keys: Vec<u64>,
        bits: Vec<[u64; 2]>,
        lru: Vec<u64>,
        /// `num_sets - 1`: a key masked by it is its set.
        set_mask: usize,
        associativity: usize,
        tick: u64,
        /// Occupied slots, maintained so [`PatternHistoryTable::len`] is O(1).
        occupied: usize,
    },
}

/// Long-term storage of spatial patterns, keyed by the prediction index.
///
/// Every pattern in one table covers the same region, so the table keeps
/// the pattern length once and stores only each pattern's bits.
#[derive(Debug, Clone)]
pub struct PatternHistoryTable {
    storage: Storage,
    /// The length of every pattern stored: the region's block count.
    blocks: u32,
}

impl PatternHistoryTable {
    /// Creates an empty PHT with the given capacity, for patterns over
    /// `blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if [`PhtCapacity::validate`] rejects the capacity.
    pub fn new(capacity: PhtCapacity, blocks: u32) -> Self {
        if let Err(error) = capacity.validate() {
            panic!("{error}");
        }
        let storage = match capacity {
            PhtCapacity::Unbounded => Storage::Unbounded(FastMap::default()),
            PhtCapacity::Bounded {
                entries,
                associativity,
            } => Storage::Bounded {
                // Zeroed allocations: every slot starts free, and the pages
                // are mapped only when first written.
                keys: vec![0; entries],
                bits: vec![[0; 2]; entries],
                lru: vec![FREE; entries],
                set_mask: entries / associativity - 1,
                associativity,
                tick: 0,
                occupied: 0,
            },
        };
        Self { storage, blocks }
    }

    /// Stores (or overwrites) the pattern for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern's length is not the table's block count.
    pub fn insert(&mut self, key: u64, pattern: SpatialPattern) {
        assert_eq!(
            pattern.len(),
            self.blocks,
            "pattern length differs from the PHT's"
        );
        match &mut self.storage {
            Storage::Unbounded(map) => {
                map.insert(key, pattern.words());
            }
            Storage::Bounded {
                keys,
                bits,
                lru,
                set_mask,
                associativity,
                tick,
                occupied,
            } => {
                *tick += 1;
                let start = (key as usize & *set_mask) * *associativity;
                // One linear scan over the dense key/lru columns resolves the
                // whole insert: a key match wins outright; otherwise the
                // first free way is preferred (FREE = 0 always loses the lru
                // minimum to live ticks >= 1), and the LRU way (ticks are
                // unique, so the minimum is unambiguous) is the fallback
                // victim.
                let mut victim = 0;
                let mut victim_lru = u64::MAX;
                let mut matched = false;
                for i in 0..*associativity {
                    let slot = start + i;
                    if lru[slot] != FREE && keys[slot] == key {
                        victim = i;
                        matched = true;
                        break;
                    }
                    if lru[slot] < victim_lru {
                        victim_lru = lru[slot];
                        victim = i;
                    }
                }
                let slot = start + victim;
                if !matched && lru[slot] == FREE {
                    *occupied += 1;
                }
                keys[slot] = key;
                bits[slot] = pattern.words();
                lru[slot] = *tick;
            }
        }
    }

    /// Looks up the pattern for `key`, refreshing its recency.
    pub fn lookup(&mut self, key: u64) -> Option<SpatialPattern> {
        let words = match &mut self.storage {
            Storage::Unbounded(map) => *map.get(&key)?,
            Storage::Bounded {
                keys,
                bits,
                lru,
                set_mask,
                associativity,
                tick,
                ..
            } => {
                *tick += 1;
                let start = (key as usize & *set_mask) * *associativity;
                let hit = (start..start + *associativity)
                    .find(|&slot| lru[slot] != FREE && keys[slot] == key)?;
                lru[hit] = *tick;
                bits[hit]
            }
        };
        Some(SpatialPattern::from_words(self.blocks, words))
    }

    /// Number of patterns currently stored.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Unbounded(map) => map.len(),
            Storage::Bounded { occupied, .. } => *occupied,
        }
    }

    /// Whether the table holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(offsets: &[u32]) -> SpatialPattern {
        SpatialPattern::from_offsets(32, offsets)
    }

    #[test]
    fn unbounded_insert_lookup_overwrite() {
        let mut pht = PatternHistoryTable::new(PhtCapacity::Unbounded, 32);
        assert!(pht.is_empty());
        pht.insert(1, pat(&[0, 1]));
        pht.insert(1, pat(&[2]));
        assert_eq!(pht.len(), 1);
        assert_eq!(
            pht.lookup(1).unwrap().iter_set().collect::<Vec<_>>(),
            vec![2]
        );
        assert!(pht.lookup(2).is_none());
    }

    #[test]
    fn bounded_capacity_evicts_lru() {
        // 1 set x 2 ways.
        let mut pht = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 2,
                associativity: 2,
            },
            32,
        );
        pht.insert(10, pat(&[1]));
        pht.insert(20, pat(&[2]));
        // Touch key 10 so key 20 becomes LRU.
        assert!(pht.lookup(10).is_some());
        pht.insert(30, pat(&[3]));
        assert!(pht.lookup(10).is_some());
        assert!(pht.lookup(20).is_none(), "LRU entry must have been evicted");
        assert!(pht.lookup(30).is_some());
        assert_eq!(pht.len(), 2);
    }

    #[test]
    fn bounded_reinsert_updates_in_place() {
        let mut pht = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 4,
                associativity: 2,
            },
            32,
        );
        pht.insert(7, pat(&[1]));
        pht.insert(7, pat(&[1, 2]));
        assert_eq!(pht.len(), 1);
        assert_eq!(pht.lookup(7).unwrap().count(), 2);
    }

    #[test]
    fn keys_map_to_distinct_sets() {
        let mut pht = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 8,
                associativity: 2,
            },
            32,
        );
        for key in 0..8u64 {
            pht.insert(key, pat(&[(key % 32) as u32]));
        }
        // 4 sets x 2 ways can hold exactly these 8 keys (0..8 map uniformly).
        assert_eq!(pht.len(), 8);
    }

    #[test]
    fn set_associative_eviction_follows_lru_order() {
        // 2 sets x 4 ways; even keys map to set 0.
        let mut pht = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 8,
                associativity: 4,
            },
            32,
        );
        for key in [10u64, 20, 30, 40] {
            pht.insert(key, pat(&[1]));
        }
        // Refresh recency in a scrambled order: LRU order is now 20, 40, 10, 30.
        assert!(pht.lookup(20).is_some());
        assert!(pht.lookup(40).is_some());
        assert!(pht.lookup(10).is_some());
        assert!(pht.lookup(30).is_some());
        // Re-touch 20 again: LRU order becomes 40, 10, 30, 20.
        assert!(pht.lookup(20).is_some());

        // Each insertion of a fresh even key must evict exactly the current
        // LRU way, in order.
        let expected_evictions = [40u64, 10, 30, 20];
        for (i, fresh) in [100u64, 102, 104, 106].into_iter().enumerate() {
            pht.insert(fresh, pat(&[2]));
            let victim = expected_evictions[i];
            assert!(
                pht.lookup(victim).is_none(),
                "inserting {fresh} must evict LRU key {victim}"
            );
            // All later-ranked original keys are still resident (lookups here
            // would disturb recency, so check via a clone).
            let mut snapshot = pht.clone();
            for &survivor in &expected_evictions[i + 1..] {
                assert!(
                    snapshot.lookup(survivor).is_some(),
                    "key {survivor} must survive insertion {fresh}"
                );
            }
        }
        assert_eq!(pht.len(), 4);
    }

    #[test]
    fn eviction_is_per_set_not_global() {
        // 2 sets x 2 ways: filling set 0 (even keys) never evicts set 1's
        // entries, however stale they are.
        let mut pht = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 4,
                associativity: 2,
            },
            32,
        );
        pht.insert(1, pat(&[7])); // set 1, never refreshed
        for key in [0u64, 2, 4, 6, 8] {
            pht.insert(key, pat(&[1]));
        }
        assert!(
            pht.lookup(1).is_some(),
            "set-0 pressure must not evict set-1 entries"
        );
    }

    #[test]
    fn paper_default_is_16k_16way() {
        match PhtCapacity::paper_default() {
            PhtCapacity::Bounded {
                entries,
                associativity,
            } => {
                assert_eq!(entries, 16 * 1024);
                assert_eq!(associativity, 16);
            }
            PhtCapacity::Unbounded => panic!("default must be bounded"),
        }
    }

    #[test]
    fn a_bounded_entry_is_32_bytes() {
        let pht = PatternHistoryTable::new(PhtCapacity::paper_default(), 32);
        let Storage::Bounded {
            keys, bits, lru, ..
        } = &pht.storage
        else {
            panic!("the paper's PHT is bounded");
        };
        let bytes = std::mem::size_of_val(&keys[..])
            + std::mem::size_of_val(&bits[..])
            + std::mem::size_of_val(&lru[..]);
        assert_eq!(bytes, 32 * 16 * 1024);
    }

    #[test]
    fn the_set_count_must_be_a_power_of_two() {
        let bounded = |entries, associativity| PhtCapacity::Bounded {
            entries,
            associativity,
        };
        for entries in [256, 1024, 4096, 16384] {
            assert_eq!(bounded(entries, 16).validate(), Ok(()));
        }
        assert_eq!(bounded(3, 1).validate(), Err(PhtError::SetsNotPowerOfTwo));
        assert_eq!(bounded(48, 16).validate(), Err(PhtError::SetsNotPowerOfTwo));
        assert_eq!(bounded(12, 3).validate(), Ok(()), "4 sets of 3 ways");
    }

    #[test]
    #[should_panic(expected = "pattern length differs")]
    fn a_pattern_of_another_length_is_refused() {
        let mut pht = PatternHistoryTable::new(PhtCapacity::Unbounded, 32);
        pht.insert(1, SpatialPattern::new(64));
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn bad_capacity_rejected() {
        let _ = PatternHistoryTable::new(
            PhtCapacity::Bounded {
                entries: 10,
                associativity: 16,
            },
            32,
        );
    }
}
