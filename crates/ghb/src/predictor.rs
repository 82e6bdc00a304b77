//! The per-processor GHB PC/DC predictor.

use serde::{Deserialize, Serialize};
use trace::Pc;

/// Configuration of one GHB predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GhbConfig {
    /// Number of entries in the global history buffer (the paper evaluates
    /// 256 and 16 k).
    pub history_entries: usize,
    /// Number of index-table entries (PCs tracked); the original proposal
    /// sizes it like the history buffer.
    pub index_entries: usize,
    /// Cache-block size used to express deltas.
    pub block_bytes: u64,
    /// Maximum prefetches issued per miss (prefetch degree).
    pub degree: usize,
    /// Maximum per-PC history walked when looking for a delta correlation.
    pub max_chain: usize,
}

impl GhbConfig {
    /// A configuration with `entries` history-buffer entries and the paper's
    /// other defaults (degree 4).
    pub fn with_entries(entries: usize) -> Self {
        Self {
            history_entries: entries,
            index_entries: entries,
            block_bytes: 64,
            degree: 4,
            max_chain: 64,
        }
    }

    /// The small configuration evaluated in the paper: 256 entries.
    pub fn paper_small() -> Self {
        Self::with_entries(256)
    }

    /// The large configuration evaluated in the paper: 16 k entries (roughly
    /// the storage of the SMS PHT).
    pub fn paper_large() -> Self {
        Self::with_entries(16 * 1024)
    }
}

impl Default for GhbConfig {
    fn default() -> Self {
        Self::paper_small()
    }
}

/// Sentinel for "no previous entry by this PC" in the `prevs` column.
/// Absolute sequence numbers count up from 0 and never reach it.
const NO_PREV: u64 = u64::MAX;

/// Sentinel marking a free probe slot in [`PcIndex`] (a live mapping's value
/// is an absolute sequence number, which never reaches `u64::MAX`).
const EMPTY_SEQ: u64 = u64::MAX;

/// Open-addressed struct-of-arrays index table: PC -> absolute sequence
/// number of that PC's most recent history entry.
///
/// Replaces a hash map with two dense parallel columns (`pcs`, `seqs`)
/// probed linearly from the Fx hash of the PC; the table is sized to at
/// most half full so probe runs stay short, and removal uses the standard
/// backward-shift so no tombstones accumulate.  Behaviorally this is still
/// exactly a map: same lookups, same contents — FIFO capacity eviction is
/// driven by the caller as before.
#[derive(Debug, Clone)]
struct PcIndex {
    pcs: Vec<Pc>,
    seqs: Vec<u64>,
    mask: usize,
    len: usize,
}

impl PcIndex {
    fn with_capacity(entries: usize) -> Self {
        // At most half full: probe table twice the bounded entry count.
        let slots = (entries.max(1) * 2).next_power_of_two();
        Self {
            pcs: vec![0; slots],
            seqs: vec![EMPTY_SEQ; slots],
            mask: slots - 1,
            len: 0,
        }
    }

    fn home(&self, pc: Pc) -> usize {
        use std::hash::Hasher;
        let mut h = memsim::FxHasher::default();
        h.write_u64(pc);
        (h.finish() as usize) & self.mask
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Probe slot holding `pc`, if present.
    fn find(&self, pc: Pc) -> Option<usize> {
        let mut slot = self.home(pc);
        while self.seqs[slot] != EMPTY_SEQ {
            if self.pcs[slot] == pc {
                return Some(slot);
            }
            slot = (slot + 1) & self.mask;
        }
        None
    }

    fn get(&self, pc: Pc) -> Option<u64> {
        self.find(pc).map(|slot| self.seqs[slot])
    }

    fn contains(&self, pc: Pc) -> bool {
        self.find(pc).is_some()
    }

    /// Inserts or overwrites the mapping for `pc`.
    fn insert(&mut self, pc: Pc, seq: u64) {
        debug_assert!(seq != EMPTY_SEQ);
        let mut slot = self.home(pc);
        while self.seqs[slot] != EMPTY_SEQ {
            if self.pcs[slot] == pc {
                self.seqs[slot] = seq;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
        debug_assert!(self.len < self.pcs.len() / 2, "PcIndex over-filled");
        self.pcs[slot] = pc;
        self.seqs[slot] = seq;
        self.len += 1;
    }

    /// Removes the mapping for `pc` with backward-shift deletion, keeping
    /// every remaining element reachable from its home slot.
    fn remove(&mut self, pc: Pc) {
        let Some(mut hole) = self.find(pc) else {
            return;
        };
        self.len -= 1;
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            if self.seqs[probe] == EMPTY_SEQ {
                break;
            }
            // An element probing from `home` can fill the hole only if the
            // hole lies cyclically within its probe run [home, probe).
            let home = self.home(self.pcs[probe]);
            if (probe.wrapping_sub(home) & self.mask) >= (probe.wrapping_sub(hole) & self.mask) {
                self.pcs[hole] = self.pcs[probe];
                self.seqs[hole] = self.seqs[probe];
                hole = probe;
            }
        }
        self.seqs[hole] = EMPTY_SEQ;
    }
}

/// One processor's GHB PC/DC predictor.
///
/// The history buffer is stored struct-of-arrays: block addresses and
/// previous-entry links in separate dense columns instead of a
/// `Vec<Option<Entry>>`.  Residency of an absolute sequence number is
/// decided purely by the `next_seq` window (a slot inside the window was
/// written at exactly that sequence number), so no per-slot occupancy tag
/// is needed.
#[derive(Debug, Clone)]
pub struct GhbPredictor {
    config: GhbConfig,
    /// Block-aligned miss addresses, indexed by `seq % history_entries`.
    block_addrs: Vec<u64>,
    /// Absolute sequence number of the previous entry by the same PC
    /// (`NO_PREV` when the chain ends), same indexing.
    prevs: Vec<u64>,
    /// Next absolute sequence number.
    next_seq: u64,
    /// PC -> absolute sequence number of that PC's most recent entry.
    index: PcIndex,
    /// Insertion order of index-table entries for capacity eviction.
    index_fifo: std::collections::VecDeque<Pc>,
    /// The deltas of the current miss's PC, newest first; reused across
    /// misses.
    deltas: Vec<i64>,
    misses_observed: u64,
    prefetches_issued: u64,
}

impl GhbPredictor {
    /// Creates an empty predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or zero degree.
    pub fn new(config: &GhbConfig) -> Self {
        assert!(config.history_entries > 0, "history buffer needs entries");
        assert!(config.index_entries > 0, "index table needs entries");
        assert!(config.degree > 0, "prefetch degree must be positive");
        Self {
            config: *config,
            block_addrs: vec![0; config.history_entries],
            prevs: vec![NO_PREV; config.history_entries],
            next_seq: 0,
            index: PcIndex::with_capacity(config.index_entries),
            index_fifo: std::collections::VecDeque::new(),
            deltas: Vec::new(),
            misses_observed: 0,
            prefetches_issued: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GhbConfig {
        &self.config
    }

    /// Number of misses observed so far.
    pub fn misses_observed(&self) -> u64 {
        self.misses_observed
    }

    /// Number of prefetch addresses produced so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.config.history_entries as u64) as usize
    }

    /// Whether an absolute sequence number is still resident: only the last
    /// `history_entries` insertions are (a slot inside that window was
    /// written at exactly that sequence number).
    fn resident(&self, seq: u64) -> bool {
        seq < self.next_seq && self.next_seq - seq <= self.config.history_entries as u64
    }

    /// Appends the history entry for a miss by `pc` to `block_addr`,
    /// linked to the PC's previous resident entry, and returns its sequence
    /// number and slot.
    fn record(&mut self, pc: Pc, block_addr: u64) -> (u64, usize) {
        let prev = self
            .index
            .get(pc)
            .filter(|&seq| self.resident(seq))
            .unwrap_or(NO_PREV);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.slot(seq);
        self.block_addrs[slot] = block_addr;
        self.prevs[slot] = prev;
        if !self.index.contains(pc) {
            if self.index.len() >= self.config.index_entries {
                if let Some(victim) = self.index_fifo.pop_front() {
                    self.index.remove(victim);
                }
            }
            self.index_fifo.push_back(pc);
        }
        self.index.insert(pc, seq);
        (seq, slot)
    }

    /// Observes a miss by instruction `pc` to address `addr` and returns the
    /// block addresses to prefetch into the L2.
    ///
    /// PC/DC looks for the newest earlier occurrence of the PC's two newest
    /// deltas among its last `max_chain` misses and predicts the deltas that
    /// followed it; the walk back along the PC's chain stops there.
    pub fn on_miss(&mut self, pc: Pc, addr: u64) -> Vec<u64> {
        self.misses_observed += 1;
        let block_bytes = self.config.block_bytes as i64;
        let block_addr = addr & !(self.config.block_bytes - 1);
        let (mut seq, mut slot) = self.record(pc, block_addr);

        // Counting this miss as the PC's miss 0 and its previous one as miss
        // 1, `deltas[k]` is the step in blocks from miss k + 1 to miss k.
        self.deltas.clear();
        let mut newer = block_addr;
        let mut matched = None;
        for _ in 1..self.config.max_chain {
            let prev = self.prevs[slot];
            if !self.resident(prev) {
                break;
            }
            // A resident entry is fewer than `history_entries` misses older
            // than a newer one, so its slot is at most one wrap back.
            let distance = (seq - prev) as usize;
            slot = match slot.checked_sub(distance) {
                Some(slot) => slot,
                None => slot + self.config.history_entries - distance,
            };
            seq = prev;
            let older = self.block_addrs[slot];
            self.deltas
                .push((newer as i64 - older as i64) / block_bytes);
            newer = older;
            let d = &self.deltas;
            if d.len() >= 3 && (d[d.len() - 1], d[d.len() - 2]) == (d[1], d[0]) {
                matched = Some(d.len() - 2);
                break;
            }
        }
        let Some(k) = matched else {
            return Vec::new();
        };
        // The deltas that followed the earlier pair, newest first.
        let following = &self.deltas[k.saturating_sub(self.config.degree)..k];
        let mut out = Vec::with_capacity(following.len());
        let mut next = block_addr as i64;
        for &d in following.iter().rev() {
            next += d * block_bytes;
            if next >= 0 {
                out.push(next as u64);
            }
        }
        self.prefetches_issued += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `on_miss` as it was before its walk stopped at the first match: the
    /// reference the walk is checked against.  It rebuilds the PC's whole
    /// history (up to `max_chain` entries) oldest first, takes every delta,
    /// and searches back for the newest earlier occurrence of the last pair.
    fn reference_on_miss(ghb: &mut GhbPredictor, pc: Pc, addr: u64) -> Vec<u64> {
        ghb.misses_observed += 1;
        let block_addr = addr & !(ghb.config.block_bytes - 1);
        ghb.record(pc, block_addr);
        let mut history = Vec::new();
        let mut cursor = ghb.index.get(pc);
        while let Some(seq) = cursor {
            if !ghb.resident(seq) {
                break;
            }
            let slot = ghb.slot(seq);
            history.push(ghb.block_addrs[slot]);
            if history.len() >= ghb.config.max_chain {
                break;
            }
            cursor = match ghb.prevs[slot] {
                NO_PREV => None,
                prev => Some(prev),
            };
        }
        history.reverse();
        if history.len() < 4 {
            return Vec::new();
        }
        let deltas: Vec<i64> = history
            .windows(2)
            .map(|w| (w[1] as i64 - w[0] as i64) / ghb.config.block_bytes as i64)
            .collect();
        let n = deltas.len();
        let key = (deltas[n - 2], deltas[n - 1]);
        let mut predicted_deltas = Vec::new();
        for i in (1..n - 1).rev() {
            if (deltas[i - 1], deltas[i]) == key {
                for &d in deltas.iter().skip(i + 1).take(ghb.config.degree) {
                    predicted_deltas.push(d);
                }
                break;
            }
        }
        let mut out = Vec::new();
        let mut next = block_addr as i64;
        for d in predicted_deltas {
            next += d * ghb.config.block_bytes as i64;
            if next >= 0 {
                out.push(next as u64);
            }
        }
        ghb.prefetches_issued += out.len() as u64;
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Each PC steps through a repeating stride cycle of its own, with
        /// random jumps, so delta pairs recur at every distance; buffers
        /// of 1–999 entries wrap, and small index tables evict PCs.
        #[test]
        fn on_miss_matches_the_full_history_walk(
            (history_entries, index_entries, degree, max_chain) in (1usize..1000, 1usize..16, 1usize..9, 1usize..65),
            misses in proptest::collection::vec((0usize..8, proptest::bool::weighted(0.1), 0u64..1 << 16), 1..600),
        ) {
            const STRIDES: [i64; 7] = [1, 2, -1, 3, 1, 2, -4];
            let config = GhbConfig {
                history_entries,
                index_entries,
                block_bytes: 64,
                degree,
                max_chain,
            };
            let mut ghb = GhbPredictor::new(&config);
            let mut reference = GhbPredictor::new(&config);
            let mut addrs = [0x10_0000u64; 8];
            let mut counts = [0usize; 8];
            for (step, &(pc, jump, random)) in misses.iter().enumerate() {
                let delta = if jump {
                    random as i64 - (1 << 15)
                } else {
                    STRIDES[counts[pc] % (1 + pc % STRIDES.len())]
                };
                counts[pc] += 1;
                addrs[pc] = addrs[pc].wrapping_add_signed(delta * 64);
                let addr = addrs[pc] + random % 64;
                let pc = 0x400 + 4 * pc as u64;
                prop_assert_eq!(
                    ghb.on_miss(pc, addr),
                    reference_on_miss(&mut reference, pc, addr),
                    "miss {} of {:?}",
                    step,
                    config
                );
            }
            prop_assert_eq!(ghb.prefetches_issued(), reference.prefetches_issued());
        }
    }

    #[test]
    fn constant_stride_is_predicted() {
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_small());
        let pc = 0x400;
        let mut last = Vec::new();
        for i in 0..10u64 {
            last = ghb.on_miss(pc, 0x10_0000 + i * 256);
        }
        assert!(!last.is_empty());
        assert_eq!(last[0], 0x10_0000 + 10 * 256);
        // Degree-4 prediction continues the stride.
        assert!(last.len() <= 4);
        for (k, &addr) in last.iter().enumerate() {
            assert_eq!(addr, 0x10_0000 + (10 + k as u64) * 256);
        }
    }

    #[test]
    fn repeating_delta_pattern_is_predicted() {
        // Deltas alternate +1, +3 blocks; PC/DC should learn the repetition.
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_small());
        let pc = 0x800;
        let mut addr = 0x20_0000u64;
        let mut last = Vec::new();
        for i in 0..12 {
            last = ghb.on_miss(pc, addr);
            addr += if i % 2 == 0 { 64 } else { 192 };
        }
        assert!(
            !last.is_empty(),
            "alternating delta pattern should correlate"
        );
    }

    #[test]
    fn interleaved_pcs_do_not_disturb_each_other() {
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_small());
        let mut last_a = Vec::new();
        for i in 0..10u64 {
            last_a = ghb.on_miss(0x400, 0x10_0000 + i * 64);
            let _ = ghb.on_miss(0x500, 0x80_0000 + i * 4096);
        }
        assert!(!last_a.is_empty());
        assert_eq!(last_a[0], 0x10_0000 + 10 * 64);
    }

    #[test]
    fn random_addresses_produce_few_predictions() {
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_small());
        // Irregular, non-repeating deltas.
        let addrs = [
            0x0u64, 0x1_0040, 0x3_1000, 0x9_2040, 0x2_0080, 0x7_4000, 0x5_00c0,
        ];
        let mut total = 0;
        for (i, &a) in addrs.iter().enumerate() {
            total += ghb.on_miss(0x600, a + (i as u64) * 7 * 64).len();
        }
        assert_eq!(total, 0, "uncorrelated deltas must not produce prefetches");
    }

    #[test]
    fn small_buffer_forgets_old_history() {
        let mut ghb = GhbPredictor::new(&GhbConfig::with_entries(4));
        let pc = 0x400;
        for i in 0..3u64 {
            ghb.on_miss(pc, 0x10_0000 + i * 64);
        }
        // Fill the buffer with another PC's misses, evicting pc's entries.
        for i in 0..8u64 {
            ghb.on_miss(0x900, 0x50_0000 + i * 64);
        }
        // pc's chain is gone; no prediction is possible from stale links.
        let out = ghb.on_miss(pc, 0x10_0000 + 3 * 64);
        assert!(out.is_empty());
    }

    #[test]
    fn counters_track_activity() {
        let mut ghb = GhbPredictor::new(&GhbConfig::paper_small());
        for i in 0..6u64 {
            ghb.on_miss(0x400, 0x10_0000 + i * 64);
        }
        assert_eq!(ghb.misses_observed(), 6);
        assert!(ghb.prefetches_issued() > 0);
        assert_eq!(ghb.config().degree, 4);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn zero_degree_rejected() {
        let mut cfg = GhbConfig::paper_small();
        cfg.degree = 0;
        let _ = GhbPredictor::new(&cfg);
    }

    #[test]
    fn pc_index_basic_ops() {
        let mut idx = PcIndex::with_capacity(8);
        assert_eq!(idx.get(0x400), None);
        idx.insert(0x400, 1);
        idx.insert(0x500, 2);
        idx.insert(0x400, 3); // overwrite
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(0x400), Some(3));
        assert_eq!(idx.get(0x500), Some(2));
        idx.remove(0x400);
        assert_eq!(idx.get(0x400), None);
        assert_eq!(idx.get(0x500), Some(2));
        assert_eq!(idx.len(), 1);
        idx.remove(0x999); // absent: no-op
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn pc_index_matches_reference_map_under_churn() {
        // Deterministic xorshift stream of inserts/overwrites/removes over a
        // small PC universe, forcing collisions and backward-shift deletes;
        // the open-addressed table must agree with a reference map at every
        // step.
        let mut idx = PcIndex::with_capacity(16);
        let mut reference = std::collections::HashMap::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = x % 29; // small universe -> heavy probe collisions
            if x.is_multiple_of(3) && reference.len() >= 14 {
                // Stay under the table's half-full bound like on_miss does
                // via FIFO eviction.
                idx.remove(pc);
                reference.remove(&pc);
            } else if reference.len() < 14 || reference.contains_key(&pc) {
                idx.insert(pc, step);
                reference.insert(pc, step);
            } else {
                idx.remove(pc);
                reference.remove(&pc);
            }
            assert_eq!(idx.len(), reference.len(), "length diverged at {step}");
            for probe in 0..29u64 {
                assert_eq!(
                    idx.get(probe),
                    reference.get(&probe).copied(),
                    "pc {probe} diverged at step {step}"
                );
            }
        }
    }
}
