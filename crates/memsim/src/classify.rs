//! Miss classification: cold, replacement, true sharing and false sharing.
//!
//! Figure 4 of the paper separates, for block sizes above 64 B, misses caused
//! by *false sharing* (a block bounced between processors although the
//! processors touch disjoint 64 B chunks of it) from all other misses.  The
//! classifier reproduces the standard approximation: when a remote write
//! invalidates a locally-cached block, it remembers which 64 B chunk the
//! writer touched; if this processor's next miss to that block is to a
//! different chunk, the miss is counted as false sharing, otherwise as true
//! sharing.
//!
//! Classification is pure *accounting*: its results feed the summary's
//! [`MissBreakdown`]s and nothing else — no cache, coherence or prefetcher
//! decision ever depends on a [`MissKind`].  That independence is what the
//! engine's job loop exploits: [`MultiCpuSystem::access_deferred`] records
//! the per-access facts the classifier needs in an [`OutcomeTape`], and a
//! [`MissAccounting`] replays the tape once per segment with bit-identical
//! results, because [`MissAccounting::replay`] applies exactly the updates
//! the inline path applies, in exactly the same order.
//!
//! [`MultiCpuSystem::access_deferred`]: crate::system::MultiCpuSystem::access_deferred
//!
//! # How the history is stored
//!
//! A miss is cold when its processor has never cached the block at that
//! level, so the accounting remembers, per processor, every block it has
//! ever cached at each level.  Traces bring in a new block every few
//! accesses, so that history grows for the whole run and is probed on every
//! L1 and off-chip miss.  It is kept as bitmaps: per processor, one map from
//! each group of 64 consecutive blocks (block index = `addr >>
//! log2(block_bytes)`, group = index >> 6) to two 64-bit words, the group's
//! L1 and L2 seen-bits, 24 bytes per group.  Programs touch blocks in
//! clusters, so each group holds several blocks and the map is several
//! times smaller than a set of block addresses.  When the two levels' block
//! sizes match, an address has one group at both levels, so an off-chip
//! miss finds both words with one probe; when they differ, each level keys
//! its own groups in the same map and reads only its own word.
//! Invalidations are rare (tens per thousand accesses), so the blocks
//! awaiting a sharing miss stay in sparse per-level maps from block to the
//! remote writer's address.

use crate::config::HierarchyConfig;
use crate::fasthash::FastMap;
use serde::{Deserialize, Serialize};
use trace::MemAccess;

/// The cause assigned to a demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissKind {
    /// First access by this processor to the block at this level.
    Cold,
    /// The block was previously cached but was displaced by capacity or
    /// conflict pressure.
    Replacement,
    /// The block was invalidated by a remote write to the same 64 B chunk.
    TrueSharing,
    /// The block was invalidated by a remote write to a *different* 64 B
    /// chunk — an artifact of the block size, not of actual data sharing.
    FalseSharing,
}

/// Per-kind miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissBreakdown {
    /// Cold misses.
    pub cold: u64,
    /// Replacement (capacity/conflict) misses.
    pub replacement: u64,
    /// True-sharing coherence misses.
    pub true_sharing: u64,
    /// False-sharing coherence misses.
    pub false_sharing: u64,
}

impl MissBreakdown {
    /// Adds one miss of the given kind.
    pub fn record(&mut self, kind: MissKind) {
        match kind {
            MissKind::Cold => self.cold += 1,
            MissKind::Replacement => self.replacement += 1,
            MissKind::TrueSharing => self.true_sharing += 1,
            MissKind::FalseSharing => self.false_sharing += 1,
        }
    }

    /// Adds every counter of `other` into this breakdown.  Counter addition
    /// is commutative and associative, so accumulating into a local
    /// breakdown and committing it later yields the same totals as
    /// recording each miss directly.
    pub fn merge(&mut self, other: &MissBreakdown) {
        self.cold += other.cold;
        self.replacement += other.replacement;
        self.true_sharing += other.true_sharing;
        self.false_sharing += other.false_sharing;
    }

    /// Total misses across all kinds.
    pub fn total(&self) -> u64 {
        self.cold + self.replacement + self.true_sharing + self.false_sharing
    }

    /// Misses not caused by false sharing.
    pub fn other_than_false_sharing(&self) -> u64 {
        self.total() - self.false_sharing
    }
}

/// Per-access facts recorded by the deferred-classification simulation path:
/// everything the accounting side (miss classifiers and, for timing jobs, the
/// cycle model) needs, and nothing it can recompute from the access buffer
/// itself.
///
/// The tape holds one flags byte per pulled access plus a sparse list of
/// coherence-invalidation events, so a segment's tape costs about one byte
/// per access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeTape {
    flags: Vec<u8>,
    /// `(access index within this tape, invalidated cpu)`, in the exact
    /// order the inline path would call
    /// [`MissAccounting::on_invalidation`].
    invalidations: Vec<(u32, u8)>,
}

/// Decoded per-access tape flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFlags {
    /// The access named a CPU outside the system and touched nothing.
    pub skipped: bool,
    /// The access missed in the L1.
    pub l1_miss: bool,
    /// The access went off-chip (missed both levels).
    pub offchip: bool,
}

impl OutcomeTape {
    const SKIPPED: u8 = 1;
    const L1_MISS: u8 = 2;
    const OFFCHIP: u8 = 4;

    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the tape for reuse (keeps allocations).
    pub fn clear(&mut self) {
        self.flags.clear();
        self.invalidations.clear();
    }

    /// Number of accesses recorded.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the tape records no accesses.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Records an access that was dropped for naming an unknown CPU.
    pub fn push_skipped(&mut self) {
        self.flags.push(Self::SKIPPED);
    }

    /// Records a simulated access's outcome bits.
    pub fn push_outcome(&mut self, l1_miss: bool, offchip: bool) {
        let mut flags = 0;
        if l1_miss {
            flags |= Self::L1_MISS;
        }
        if offchip {
            flags |= Self::OFFCHIP;
        }
        self.flags.push(flags);
    }

    /// Records that the most recently pushed access invalidated `cpu`'s copy
    /// of its block (had it in L1 or L2).
    ///
    /// # Panics
    ///
    /// Panics if no access has been pushed yet.
    pub fn push_invalidation(&mut self, cpu: u8) {
        let index = self.flags.len().checked_sub(1).expect("no access on tape") as u32;
        self.invalidations.push((index, cpu));
    }

    /// Decodes the flags of access `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn flags_at(&self, index: usize) -> AccessFlags {
        let flags = self.flags[index];
        AccessFlags {
            skipped: flags & Self::SKIPPED != 0,
            l1_miss: flags & Self::L1_MISS != 0,
            offchip: flags & Self::OFFCHIP != 0,
        }
    }
}

/// The accounting half of a [`MultiCpuSystem`](crate::system::MultiCpuSystem):
/// both levels' miss history and the breakdowns it feeds.
///
/// The system drives an embedded instance inline on the per-access
/// [`access`](crate::system::MultiCpuSystem::access) path; the engine's job
/// loop builds a standalone instance and [`replay`](Self::replay)s each
/// segment's [`OutcomeTape`] into it.  Both paths
/// perform identical updates in identical order, so the resulting
/// [`MissBreakdown`]s are bit-identical.
#[derive(Debug, Clone)]
pub struct MissAccounting {
    /// `log2(block_bytes)` of the L1 and of the L2: an address shifted
    /// right by a level's is its block index at that level.
    shifts: [u32; 2],
    /// Per CPU: from each 64-block group to its `[L1, L2]` words of blocks
    /// cached at some point.  Level `l` keys its groups by `block index >>
    /// 6` at its own block size and reads only word `l`.
    seen: Vec<FastMap<u64, [u64; 2]>>,
    /// Per CPU and level: from each invalidated block index to the address
    /// the remote writer touched.
    invalidated: Vec<[FastMap<u64, u64>; 2]>,
    /// The L1 and the off-chip read-miss breakdowns.
    breakdowns: [MissBreakdown; 2],
}

impl MissAccounting {
    /// Creates accounting state for a `cpus`-processor system with the given
    /// hierarchy's block sizes.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or a block size is not a power of two.
    pub fn new(cpus: usize, config: &HierarchyConfig) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        let shift = |block_bytes: u64| {
            assert!(
                block_bytes.is_power_of_two(),
                "block size must be a power of two"
            );
            block_bytes.trailing_zeros()
        };
        Self {
            shifts: [shift(config.l1.block_bytes), shift(config.l2.block_bytes)],
            seen: vec![FastMap::default(); cpus],
            invalidated: vec![Default::default(); cpus],
            breakdowns: Default::default(),
        }
    }

    /// Classification of L1 read misses accumulated so far.
    pub fn l1_breakdown(&self) -> &MissBreakdown {
        &self.breakdowns[0]
    }

    /// Classification of off-chip read misses accumulated so far.
    pub fn l2_breakdown(&self) -> &MissBreakdown {
        &self.breakdowns[1]
    }

    /// Accounts one demand access, given its outcome bits.  Returns the
    /// `(l1, l2)` miss kinds for classified read misses (what
    /// [`SystemOutcome`](crate::system::SystemOutcome) reports inline).
    pub fn on_access(
        &mut self,
        access: &MemAccess,
        l1_miss: bool,
        offchip: bool,
    ) -> (Option<MissKind>, Option<MissKind>) {
        let mut breakdowns = self.breakdowns;
        let kinds = self.classify(access, [l1_miss, offchip], &mut breakdowns);
        self.breakdowns = breakdowns;
        kinds
    }

    /// The shared classification body: updates the history of each level
    /// the access `missed` and records the kinds of read misses into
    /// `breakdowns` — the struct's own on the inline path, per-segment
    /// locals on the batched replay path.
    ///
    /// A miss at a level marks the block seen there.  A read miss is then
    /// classified: a sharing miss if a remote write invalidated the block
    /// since (true sharing when the writer touched the same 64 B chunk),
    /// else cold the first time the processor caches the block and a
    /// replacement miss after that.  A write miss only marks the block.
    fn classify(
        &mut self,
        access: &MemAccess,
        missed: [bool; 2],
        breakdowns: &mut [MissBreakdown; 2],
    ) -> (Option<MissKind>, Option<MissKind>) {
        if missed == [false; 2] {
            return (None, None);
        }
        let cpu = access.cpu as usize;
        let seen = &mut self.seen[cpu];
        let index = self.shifts.map(|shift| access.addr >> shift);
        let group = index.map(|index| index >> 6);
        // Whether each level missed and had never cached the block.
        let mut first = [false; 2];
        let mut mark = |words: &mut [u64; 2], level: usize| {
            let bit = 1 << (index[level] & 63);
            first[level] = words[level] & bit == 0;
            words[level] |= bit;
        };
        if group[0] == group[1] {
            // Always so when the block sizes match: one probe.
            let words = seen.entry(group[0]).or_insert([0; 2]);
            for level in (0..2).filter(|&level| missed[level]) {
                mark(words, level);
            }
        } else {
            for level in (0..2).filter(|&level| missed[level]) {
                mark(seen.entry(group[level]).or_insert([0; 2]), level);
            }
        }
        let mut kinds = [None; 2];
        if access.kind.is_read() {
            for level in (0..2).filter(|&level| missed[level]) {
                let invalidated = &mut self.invalidated[cpu][level];
                let kind = match invalidated.remove(&index[level]) {
                    Some(written) if written >> 6 == access.addr >> 6 => MissKind::TrueSharing,
                    Some(_) => MissKind::FalseSharing,
                    None if first[level] => MissKind::Cold,
                    None => MissKind::Replacement,
                };
                breakdowns[level].record(kind);
                kinds[level] = Some(kind);
            }
        }
        (kinds[0], kinds[1])
    }

    /// Accounts a coherence invalidation of `cpu`'s copy of the block
    /// containing `written_addr` (the remote writer's address).
    pub fn on_invalidation(&mut self, cpu: u8, written_addr: u64) {
        let invalidated = &mut self.invalidated[cpu as usize];
        for (level, shift) in self.shifts.into_iter().enumerate() {
            invalidated[level].insert(written_addr >> shift, written_addr);
        }
    }

    /// Replays one segment's tape against its access buffer, applying
    /// exactly the updates the inline path applies, in the same order.
    ///
    /// # Panics
    ///
    /// Panics if the tape does not cover `accesses` (they must come from the
    /// same deferred segment run).
    pub fn replay(&mut self, accesses: &[MemAccess], tape: &OutcomeTape) {
        self.replay_with_kinds(accesses, tape, |_, _, _| {});
    }

    /// [`replay`](Self::replay) with an observer: `observe` is called once
    /// per non-skipped access with the `(l1, l2)` miss kinds
    /// [`on_access`](Self::on_access) returns — exactly the values the
    /// inline path's [`SystemOutcome`](crate::system::SystemOutcome) would
    /// have carried for the same access (`Some` for classified read misses,
    /// `None` for hits and write misses).
    ///
    /// This is how the engine's job loop feeds a probe's kind sink: the
    /// kinds are recomputed here, in access order, bit-identically to the
    /// per-access reference loop.
    ///
    /// # Panics
    ///
    /// Panics if the tape does not cover `accesses` (they must come from the
    /// same deferred segment run).
    pub fn replay_with_kinds(
        &mut self,
        accesses: &[MemAccess],
        tape: &OutcomeTape,
        mut observe: impl FnMut(&MemAccess, Option<MissKind>, Option<MissKind>),
    ) {
        assert_eq!(
            accesses.len(),
            tape.len(),
            "tape and access buffer are from different segments"
        );
        // Batched walk: miss kinds accumulate into per-segment locals that
        // are committed to the breakdown structs once at the end, instead of
        // a read-modify-write on the struct fields per access.  Counter
        // addition commutes, so the committed totals are identical; the
        // classifier updates themselves still happen per access, in order.
        let mut breakdowns = [MissBreakdown::default(); 2];
        let mut invalidations = tape.invalidations.iter().peekable();
        for (index, (access, &flags)) in accesses.iter().zip(&tape.flags).enumerate() {
            if flags & OutcomeTape::SKIPPED == 0 {
                let missed = [
                    flags & OutcomeTape::L1_MISS != 0,
                    flags & OutcomeTape::OFFCHIP != 0,
                ];
                let (l1, l2) = self.classify(access, missed, &mut breakdowns);
                observe(access, l1, l2);
            }
            while let Some(&&(event_index, cpu)) = invalidations.peek() {
                if event_index as usize != index {
                    break;
                }
                self.on_invalidation(cpu, access.addr);
                invalidations.next();
            }
        }
        assert!(
            invalidations.next().is_none(),
            "tape records invalidations past the access buffer"
        );
        for (total, segment) in self.breakdowns.iter_mut().zip(&breakdowns) {
            total.merge(segment);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    /// The L1 classification of a read miss by `cpu` to `addr`.
    fn l1_read_miss(accounting: &mut MissAccounting, cpu: u8, addr: u64) -> Option<MissKind> {
        accounting
            .on_access(&MemAccess::read(cpu, 0x400, addr), true, false)
            .0
    }

    #[test]
    fn first_miss_is_cold_then_replacement() {
        let mut c = MissAccounting::new(2, &HierarchyConfig::scaled());
        assert_eq!(l1_read_miss(&mut c, 0, 0x1000), Some(MissKind::Cold));
        assert_eq!(l1_read_miss(&mut c, 0, 0x1000), Some(MissKind::Replacement));
        // A different cpu still sees its own cold miss.
        assert_eq!(l1_read_miss(&mut c, 1, 0x1000), Some(MissKind::Cold));
        // The L2 keeps its own history: the block is new there.
        let offchip = c.on_access(&MemAccess::read(0, 0x400, 0x1000), true, true);
        assert_eq!(offchip, (Some(MissKind::Replacement), Some(MissKind::Cold)));
    }

    #[test]
    fn sharing_classification_same_vs_different_chunk() {
        // 2 kB L1 blocks over 64 B L2 blocks.
        let config = HierarchyConfig {
            l1: CacheConfig::new(64 * 1024, 2, 2048),
            l2: CacheConfig::l2_table1(),
        };
        let mut c = MissAccounting::new(2, &config);
        // CPU 0 has block 0x0000..0x0800 cached; CPU 1 writes within it.
        assert_eq!(l1_read_miss(&mut c, 0, 0x0100), Some(MissKind::Cold));
        // Remote write to the same 64B chunk that cpu0 will re-read.
        c.on_invalidation(0, 0x0100);
        assert_eq!(l1_read_miss(&mut c, 0, 0x0110), Some(MissKind::TrueSharing));
        // Remote write to a different chunk of the same 2kB block.
        c.on_invalidation(0, 0x0700);
        assert_eq!(
            l1_read_miss(&mut c, 0, 0x0100),
            Some(MissKind::FalseSharing)
        );
    }

    #[test]
    fn note_fill_prevents_cold_classification() {
        let mut c = MissAccounting::new(1, &HierarchyConfig::scaled());
        let write_miss = c.on_access(&MemAccess::write(0, 0x400, 0x2000), true, true);
        assert_eq!(write_miss, (None, None), "write misses are not classified");
        let read_miss = c.on_access(&MemAccess::read(0, 0x400, 0x2000), true, true);
        assert_eq!(
            read_miss,
            (Some(MissKind::Replacement), Some(MissKind::Replacement))
        );
    }

    #[test]
    fn breakdown_counts() {
        let mut b = MissBreakdown::default();
        b.record(MissKind::Cold);
        b.record(MissKind::FalseSharing);
        b.record(MissKind::FalseSharing);
        b.record(MissKind::Replacement);
        assert_eq!(b.total(), 4);
        assert_eq!(b.false_sharing, 2);
        assert_eq!(b.other_than_false_sharing(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_block_size_rejected() {
        let mut config = HierarchyConfig::scaled();
        config.l2.block_bytes = 100;
        let _ = MissAccounting::new(1, &config);
    }

    #[test]
    fn replayed_tape_matches_inline_accounting() {
        use crate::config::HierarchyConfig;
        use trace::MemAccess;

        let config = HierarchyConfig::scaled();
        let accesses = vec![
            MemAccess::read(0, 0x400, 0x1000),  // L1+L2 miss
            MemAccess::write(1, 0x404, 0x1000), // write miss, invalidates cpu 0
            MemAccess::read(0, 0x408, 0x1010),  // sharing miss
            MemAccess::read(7, 0x40c, 0x2000),  // skipped (unknown cpu)
            MemAccess::read(0, 0x410, 0x1000),  // hit-ish: no miss bits
        ];

        let mut inline = MissAccounting::new(2, &config);
        let mut tape = OutcomeTape::new();
        // Access 0: read miss both levels.
        let _ = inline.on_access(&accesses[0], true, true);
        tape.push_outcome(true, true);
        // Access 1: write miss both levels, invalidating cpu 0.
        let _ = inline.on_access(&accesses[1], true, true);
        inline.on_invalidation(0, accesses[1].addr);
        tape.push_outcome(true, true);
        tape.push_invalidation(0);
        // Access 2: read miss in L1 only.
        let _ = inline.on_access(&accesses[2], true, false);
        tape.push_outcome(true, false);
        // Access 3: skipped.
        tape.push_skipped();
        // Access 4: hit.
        let _ = inline.on_access(&accesses[4], false, false);
        tape.push_outcome(false, false);

        let mut replayed = MissAccounting::new(2, &config);
        replayed.replay(&accesses, &tape);
        assert_eq!(replayed.l1_breakdown(), inline.l1_breakdown());
        assert_eq!(replayed.l2_breakdown(), inline.l2_breakdown());
        assert!(inline.l1_breakdown().true_sharing + inline.l1_breakdown().false_sharing > 0);
    }

    #[test]
    fn replay_with_kinds_reports_the_inline_kinds() {
        use crate::config::HierarchyConfig;
        use trace::MemAccess;

        let config = HierarchyConfig::scaled();
        let accesses = vec![
            MemAccess::read(0, 0x400, 0x1000),  // cold read miss
            MemAccess::write(1, 0x404, 0x1000), // write miss: kinds stay None
            MemAccess::read(0, 0x408, 0x1010),  // sharing read miss (L1 only)
            MemAccess::read(0, 0x40c, 0x1000),  // hit: kinds stay None
        ];

        // Drive the inline path and record its returned kinds.
        let mut inline = MissAccounting::new(2, &config);
        let mut tape = OutcomeTape::new();
        let mut inline_kinds = Vec::new();
        inline_kinds.push(inline.on_access(&accesses[0], true, true));
        tape.push_outcome(true, true);
        inline_kinds.push(inline.on_access(&accesses[1], true, true));
        inline.on_invalidation(0, accesses[1].addr);
        tape.push_outcome(true, true);
        tape.push_invalidation(0);
        inline_kinds.push(inline.on_access(&accesses[2], true, false));
        tape.push_outcome(true, false);
        inline_kinds.push(inline.on_access(&accesses[3], false, false));
        tape.push_outcome(false, false);

        let mut replayed = MissAccounting::new(2, &config);
        let mut observed = Vec::new();
        replayed.replay_with_kinds(&accesses, &tape, |_, l1, l2| observed.push((l1, l2)));
        assert_eq!(observed, inline_kinds);
        assert_eq!(observed[0].0, Some(MissKind::Cold));
        assert_eq!(observed[1], (None, None), "write misses report no kinds");
        assert!(observed[2].0.is_some(), "sharing miss classified on replay");
        assert_eq!(observed[3], (None, None), "hits report no kinds");
        assert_eq!(replayed.l1_breakdown(), inline.l1_breakdown());
    }

    #[test]
    fn tape_flags_round_trip() {
        let mut tape = OutcomeTape::new();
        tape.push_outcome(true, false);
        tape.push_skipped();
        tape.push_outcome(false, false);
        tape.push_outcome(true, true);
        tape.push_invalidation(1);
        assert_eq!(tape.len(), 4);
        assert!(tape.flags_at(0).l1_miss && !tape.flags_at(0).offchip);
        assert!(tape.flags_at(1).skipped);
        assert!(!tape.flags_at(2).l1_miss);
        assert!(tape.flags_at(3).offchip);
        tape.clear();
        assert!(tape.is_empty());
    }
}
