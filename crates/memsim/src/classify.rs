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
//! segment pipeline exploits: [`MultiCpuSystem::access_deferred`]
//! (crate::system::MultiCpuSystem::access_deferred) records the per-access
//! facts the classifier needs in an [`OutcomeTape`], and a [`MissAccounting`]
//! replays the tape later (typically on another thread) with bit-identical
//! results, because [`MissAccounting::replay`] applies exactly the updates the
//! inline path applies, in exactly the same order.
//!
//! # How the history is stored
//!
//! A miss is cold when its processor has never cached the block at that
//! level, so the classifier remembers, per processor, every block it has ever
//! cached.  Traces bring in a new block every few accesses, so that history
//! grows for the whole run and is probed on every L1 and off-chip miss.  It
//! is kept as a bitmap per group of 64 consecutive blocks (block index =
//! `addr >> log2(block_bytes)`, group = index >> 6) in a map from group to
//! one 64-bit word: programs touch blocks in clusters, so each group holds
//! several blocks and the map is several times smaller than a set of block
//! addresses, and a lookup is one probe of that smaller map plus a bit
//! test-and-set.  Invalidations are rare (tens per thousand accesses), so
//! the blocks awaiting a sharing miss stay in a sparse map from block to the
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

/// A set of block indices stored as one bit per block in a map from each
/// group of 64 consecutive blocks to its 64-bit word.
#[derive(Debug, Clone, Default)]
struct BlockSet {
    groups: FastMap<u64, u64>,
}

impl BlockSet {
    /// Adds block `index`; returns whether it was absent.
    #[inline]
    fn insert(&mut self, index: u64) -> bool {
        let word = self.groups.entry(index >> 6).or_insert(0);
        let bit = 1 << (index & 63);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }
}

/// Classifies misses for one cache level across all processors.
#[derive(Debug, Clone)]
pub struct MissClassifier {
    /// `log2(block_bytes)`: an address shifted right by it is a block index.
    block_shift: u32,
    /// Per-CPU set of blocks that have been cached at some point.
    seen: Vec<BlockSet>,
    /// Per-CPU map from invalidated block index to the address the remote
    /// writer touched.
    invalidated: Vec<FastMap<u64, u64>>,
}

impl MissClassifier {
    /// Creates a classifier for `cpus` processors at `block_bytes`
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or `block_bytes` is not a power of two.
    pub fn new(cpus: usize, block_bytes: u64) -> Self {
        assert!(cpus > 0, "need at least one cpu");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self {
            block_shift: block_bytes.trailing_zeros(),
            seen: vec![BlockSet::default(); cpus],
            invalidated: vec![FastMap::default(); cpus],
        }
    }

    fn block(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    fn chunk(addr: u64) -> u64 {
        addr & !63
    }

    /// Records that `cpu`'s copy of the block containing `addr` was
    /// invalidated because a remote processor wrote `written_addr`.
    pub fn record_invalidation(&mut self, cpu: u8, addr: u64, written_addr: u64) {
        let block = self.block(addr);
        self.invalidated[cpu as usize].insert(block, written_addr);
    }

    /// Classifies a demand miss by `cpu` to `addr` and updates history so the
    /// block is considered seen afterwards.
    pub fn classify_miss(&mut self, cpu: u8, addr: u64) -> MissKind {
        let block = self.block(addr);
        let cpu_idx = cpu as usize;
        let first_fill = self.seen[cpu_idx].insert(block);
        if let Some(written) = self.invalidated[cpu_idx].remove(&block) {
            if Self::chunk(written) == Self::chunk(addr) {
                return MissKind::TrueSharing;
            }
            return MissKind::FalseSharing;
        }
        if first_fill {
            MissKind::Cold
        } else {
            MissKind::Replacement
        }
    }

    /// Marks a block as resident for `cpu` without classifying a miss (used
    /// for prefetch fills so later misses are not misreported as cold).
    pub fn note_fill(&mut self, cpu: u8, addr: u64) {
        let block = self.block(addr);
        self.seen[cpu as usize].insert(block);
    }

    /// The block granularity this classifier operates at.
    pub fn block_bytes(&self) -> u64 {
        1 << self.block_shift
    }
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
    /// [`MissClassifier::record_invalidation`].
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
/// both levels' miss classifiers and the breakdowns they feed.
///
/// The system drives an embedded instance inline on the ordinary
/// [`access`](crate::system::MultiCpuSystem::access) path; the segment
/// pipeline builds a standalone instance and [`replay`](Self::replay)s each
/// segment's [`OutcomeTape`] into it on the accounting stage.  Both paths
/// perform identical updates in identical order, so the resulting
/// [`MissBreakdown`]s are bit-identical.
#[derive(Debug, Clone)]
pub struct MissAccounting {
    l1: MissClassifier,
    l2: MissClassifier,
    l1_breakdown: MissBreakdown,
    l2_breakdown: MissBreakdown,
}

impl MissAccounting {
    /// Creates accounting state for a `cpus`-processor system with the given
    /// hierarchy's block sizes.
    pub fn new(cpus: usize, config: &HierarchyConfig) -> Self {
        Self {
            l1: MissClassifier::new(cpus, config.l1.block_bytes),
            l2: MissClassifier::new(cpus, config.l2.block_bytes),
            l1_breakdown: MissBreakdown::default(),
            l2_breakdown: MissBreakdown::default(),
        }
    }

    /// Classification of L1 read misses accumulated so far.
    pub fn l1_breakdown(&self) -> &MissBreakdown {
        &self.l1_breakdown
    }

    /// Classification of off-chip read misses accumulated so far.
    pub fn l2_breakdown(&self) -> &MissBreakdown {
        &self.l2_breakdown
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
        Self::classify(
            &mut self.l1,
            &mut self.l2,
            access,
            l1_miss,
            offchip,
            &mut self.l1_breakdown,
            &mut self.l2_breakdown,
        )
    }

    /// The shared classification body: updates the classifiers in place and
    /// records kinds into the given breakdown accumulators — the struct's
    /// own breakdowns on the inline path, per-segment locals on the batched
    /// replay path.
    #[allow(clippy::too_many_arguments)]
    fn classify(
        l1: &mut MissClassifier,
        l2: &mut MissClassifier,
        access: &MemAccess,
        l1_miss: bool,
        offchip: bool,
        l1_acc: &mut MissBreakdown,
        l2_acc: &mut MissBreakdown,
    ) -> (Option<MissKind>, Option<MissKind>) {
        let l1_kind = if l1_miss && access.kind.is_read() {
            let kind = l1.classify_miss(access.cpu, access.addr);
            l1_acc.record(kind);
            Some(kind)
        } else if l1_miss {
            // Track residency for write misses without counting them in the
            // read-miss breakdown the figures report.
            l1.note_fill(access.cpu, access.addr);
            None
        } else {
            None
        };
        let l2_kind = if offchip && access.kind.is_read() {
            let kind = l2.classify_miss(access.cpu, access.addr);
            l2_acc.record(kind);
            Some(kind)
        } else if offchip {
            l2.note_fill(access.cpu, access.addr);
            None
        } else {
            None
        };
        (l1_kind, l2_kind)
    }

    /// Accounts a coherence invalidation of `cpu`'s copy of the block
    /// containing `written_addr` (the remote writer's address).
    pub fn on_invalidation(&mut self, cpu: u8, written_addr: u64) {
        self.l1.record_invalidation(cpu, written_addr, written_addr);
        self.l2.record_invalidation(cpu, written_addr, written_addr);
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
    /// This is how the segment pipeline's accounting stage feeds probes that
    /// declare `wants_miss_kinds`: the kinds are recomputed here, in access
    /// order, bit-identically to the serial run.
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
        let mut l1_acc = MissBreakdown::default();
        let mut l2_acc = MissBreakdown::default();
        let mut invalidations = tape.invalidations.iter().peekable();
        for (index, (access, &flags)) in accesses.iter().zip(&tape.flags).enumerate() {
            if flags & OutcomeTape::SKIPPED == 0 {
                let (l1, l2) = Self::classify(
                    &mut self.l1,
                    &mut self.l2,
                    access,
                    flags & OutcomeTape::L1_MISS != 0,
                    flags & OutcomeTape::OFFCHIP != 0,
                    &mut l1_acc,
                    &mut l2_acc,
                );
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
        self.l1_breakdown.merge(&l1_acc);
        self.l2_breakdown.merge(&l2_acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_is_cold_then_replacement() {
        let mut c = MissClassifier::new(2, 64);
        assert_eq!(c.classify_miss(0, 0x1000), MissKind::Cold);
        assert_eq!(c.classify_miss(0, 0x1000), MissKind::Replacement);
        // A different cpu still sees its own cold miss.
        assert_eq!(c.classify_miss(1, 0x1000), MissKind::Cold);
    }

    #[test]
    fn sharing_classification_same_vs_different_chunk() {
        let mut c = MissClassifier::new(2, 2048);
        // CPU 0 has block 0x0000..0x0800 cached; CPU 1 writes within it.
        assert_eq!(c.classify_miss(0, 0x0100), MissKind::Cold);
        // Remote write to the same 64B chunk that cpu0 will re-read.
        c.record_invalidation(0, 0x0100, 0x0100);
        assert_eq!(c.classify_miss(0, 0x0110), MissKind::TrueSharing);
        // Remote write to a different chunk of the same 2kB block.
        c.record_invalidation(0, 0x0100, 0x0700);
        assert_eq!(c.classify_miss(0, 0x0100), MissKind::FalseSharing);
    }

    #[test]
    fn note_fill_prevents_cold_classification() {
        let mut c = MissClassifier::new(1, 64);
        c.note_fill(0, 0x2000);
        assert_eq!(c.classify_miss(0, 0x2000), MissKind::Replacement);
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
        let _ = MissClassifier::new(1, 100);
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
