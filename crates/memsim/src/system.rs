//! Multi-processor system with write-invalidate coherence.
//!
//! Each processor owns a private two-level hierarchy; a write by one
//! processor invalidates the block in every other processor's caches, as a
//! directory-based MOESI protocol would after granting exclusive ownership.
//! The system records, per level, a [`MissBreakdown`] that separates cold,
//! replacement, true-sharing and false-sharing misses — the categories
//! Figure 4 of the paper reports.
//!
//! A write searches only the processors a sharer directory names.  For
//! each (bucket, CPU) pair the directory counts the lines resident in that
//! CPU's L1 and L2 whose block falls in the bucket, and a write visits the
//! CPUs whose count in its bucket is non-zero.  The caches report every
//! line they install or lose, from the only two places a line's validity
//! changes, so a zero count proves that the CPU holds no copy, and the
//! invalidations — every result — are those of searching every CPU.  The
//! counts take at most one byte per L2 line per CPU: 2 MiB for 16 CPUs of
//! the Table-1 hierarchy, beside their 32 MiB of tag arrays.  Prefetch
//! fills go through the [`CpuMut`] handle of [`MultiCpuSystem::cpu_mut`],
//! which keeps the counts exact; no `&mut` [`CpuHierarchy`] leaves the
//! system.

use crate::cache::{EvictedLine, Residency};
use crate::classify::{MissAccounting, MissBreakdown, MissKind, OutcomeTape};
use crate::config::{CacheConfig, HierarchyConfig};
use crate::hierarchy::{CpuHierarchy, HierarchyOutcome};
use crate::stats::CacheStats;
use trace::MemAccess;

/// Result of pushing one access through the whole system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemOutcome {
    /// The issuing processor's hierarchy outcome.
    pub hierarchy: HierarchyOutcome,
    /// Classification of the L1 miss, if the access missed in L1.
    pub l1_miss_kind: Option<MissKind>,
    /// Classification of the off-chip (L2) miss, if the access missed in L2.
    pub l2_miss_kind: Option<MissKind>,
    /// Blocks invalidated in *remote* L1 caches by this access (if a write).
    /// Each entry is `(cpu, block_addr)`.
    pub remote_invalidations: Vec<(u8, u64)>,
}

/// A shared-memory multiprocessor built from private per-CPU hierarchies.
///
/// `Clone` copies the complete simulation state — caches, statistics and
/// miss-accounting — so the copy resumes bit-identically from wherever the
/// original stood.
#[derive(Debug, Clone)]
pub struct MultiCpuSystem {
    cpus: Vec<CpuHierarchy>,
    directory: SharerDirectory,
    accounting: MissAccounting,
    config: HierarchyConfig,
}

impl MultiCpuSystem {
    /// Creates a system of `num_cpus` processors with identical hierarchies.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(num_cpus: usize, config: &HierarchyConfig) -> Self {
        assert!(num_cpus > 0, "need at least one cpu");
        let cpus = (0..num_cpus)
            .map(|cpu| CpuHierarchy::new(cpu as u8, config))
            .collect();
        Self {
            cpus,
            directory: SharerDirectory::new(num_cpus, config),
            accounting: MissAccounting::new(num_cpus, config),
            config: *config,
        }
    }

    /// Number of processors in the system.
    pub fn num_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// The hierarchy configuration shared by all processors.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Immutable access to one processor's hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu(&self, cpu: u8) -> &CpuHierarchy {
        &self.cpus[cpu as usize]
    }

    /// A handle on one processor for prefetch fills.  Its only methods,
    /// [`stream_fill`](CpuMut::stream_fill) and
    /// [`l2_prefetch_fill`](CpuMut::l2_prefetch_fill), report every line
    /// they install or evict to the sharer directory, so no fill can leave
    /// the directory stale.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu_mut(&mut self, cpu: u8) -> CpuMut<'_> {
        let cpu = cpu as usize;
        CpuMut {
            hierarchy: &mut self.cpus[cpu],
            residency: self.directory.holder(cpu),
        }
    }

    /// Classification of L1 misses accumulated so far.
    pub fn l1_breakdown(&self) -> &MissBreakdown {
        self.accounting.l1_breakdown()
    }

    /// Classification of off-chip (L2) misses accumulated so far.
    pub fn l2_breakdown(&self) -> &MissBreakdown {
        self.accounting.l2_breakdown()
    }

    /// Aggregated L1 statistics over all processors.
    pub fn l1_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for cpu in &self.cpus {
            total.merge(cpu.l1_stats());
        }
        total
    }

    /// Aggregated L2 statistics over all processors.
    pub fn l2_stats_total(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for cpu in &self.cpus {
            total.merge(cpu.l2_stats());
        }
        total
    }

    /// Pushes one access through the issuing processor's hierarchy and
    /// applies coherence actions to the other processors.
    pub fn access(&mut self, access: &MemAccess) -> SystemOutcome {
        self.access_with(access, &mut ClassifySink::Inline)
    }

    /// [`access`](Self::access) with classification deferred: performs the
    /// identical cache and coherence state updates but records the
    /// classifier-relevant facts on `tape` instead of updating the embedded
    /// [`MissAccounting`], so a standalone accounting instance can
    /// [`replay`](MissAccounting::replay) them later with bit-identical
    /// breakdowns.  This is the path every engine job takes.
    ///
    /// The returned outcome reports `None` for both miss kinds (they have not
    /// been computed yet); everything a prefetcher is allowed to consume
    /// (hierarchy outcome, remote invalidations) is identical to the inline
    /// path.  No built-in prefetcher or probe reads the miss kinds; a probe
    /// that needs them receives them from the replay instead (the engine's
    /// `Probe::take_kind_sink`).
    pub fn access_deferred(&mut self, access: &MemAccess, tape: &mut OutcomeTape) -> SystemOutcome {
        self.access_with(access, &mut ClassifySink::Tape(tape))
    }

    /// The one cache + coherence body behind both access paths; only where
    /// the classification facts go differs.  Keeping a single copy is what
    /// guarantees the deferred path cannot drift from the inline path.
    fn access_with(&mut self, access: &MemAccess, sink: &mut ClassifySink<'_>) -> SystemOutcome {
        let cpu_idx = access.cpu as usize;
        assert!(cpu_idx < self.cpus.len(), "access names an unknown cpu");

        let hierarchy = self.cpus[cpu_idx].access_with(access, &mut self.directory.holder(cpu_idx));
        let (l1_miss_kind, l2_miss_kind) = match sink {
            ClassifySink::Inline => {
                self.accounting
                    .on_access(access, hierarchy.l1_miss(), hierarchy.offchip)
            }
            ClassifySink::Tape(tape) => {
                tape.push_outcome(hierarchy.l1_miss(), hierarchy.offchip);
                (None, None)
            }
        };

        // Write-invalidate coherence: remove remote copies from the CPUs the
        // directory names, in ascending order.
        let mut remote_invalidations = Vec::new();
        if access.kind.is_write() {
            let row = self.directory.row(access.addr);
            let mut from = 0;
            while let Some(other) = self.directory.next_holder(row, from) {
                from = other + 1;
                if other == cpu_idx {
                    continue;
                }
                let other_cpu = other as u8;
                let (l1_line, l2_line) =
                    self.cpus[other].invalidate(access.addr, &mut self.directory.holder(other));
                if l1_line.is_some() || l2_line.is_some() {
                    match sink {
                        ClassifySink::Inline => {
                            self.accounting.on_invalidation(other_cpu, access.addr)
                        }
                        ClassifySink::Tape(tape) => tape.push_invalidation(other_cpu),
                    }
                    if let Some(line) = l1_line {
                        remote_invalidations.push((other_cpu, line.block_addr));
                    }
                }
            }
        }

        SystemOutcome {
            hierarchy,
            l1_miss_kind,
            l2_miss_kind,
            remote_invalidations,
        }
    }
}

/// One processor of a [`MultiCpuSystem`], borrowed for prefetch fills (see
/// [`MultiCpuSystem::cpu_mut`]).
#[derive(Debug)]
pub struct CpuMut<'a> {
    hierarchy: &'a mut CpuHierarchy,
    residency: Holder<'a>,
}

impl CpuMut<'_> {
    /// Streams a predicted block into the L1 (and the L2, which the fill
    /// passes through on its way up), marking it prefetched.  Returns the
    /// line displaced from the L1, if any, so that callers can end spatial
    /// region generations for the victim block.
    pub fn stream_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        self.hierarchy.stream_fill(addr, &mut self.residency)
    }

    /// Prefetches a block into the L2 only (the GHB baseline is an L2
    /// prefetcher).  Returns the displaced L2 line, if any.
    pub fn l2_prefetch_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        self.hierarchy.l2_prefetch_fill(addr, &mut self.residency)
    }
}

/// The CPUs a write must search: for each (bucket, CPU) pair, the number of
/// lines resident in that CPU's L1 and L2 whose block falls in the bucket.
///
/// **Invariant:** every count is exact until it reaches `u8::MAX`.  The
/// caches report each line they install or lose through their
/// [`Residency`] hook, which is called from the only two places a line's
/// validity changes (`SetAssocCache`'s `replace` and `invalidate_way`);
/// every cache operation of the system passes this directory as the hook.
/// So a zero count proves that the CPU holds no block of the bucket at
/// either level.
///
/// **Buckets.**  A block's bucket comes from its index at the larger of the
/// two block sizes (`B`): the low index bits that select a set of either
/// cache are kept, and the bits above them are hashed into the remaining
/// bucket bits.  Hashing, not more low bits, spreads the blocks of
/// different CPUs' regions that share a set.  There are as many buckets as
/// the largest power of two not above the L2's line count, so the table
/// takes at most one byte per L2 line per CPU: 2 MiB for 16 CPUs of the
/// Table-1 hierarchy.  Rows are `[bucket][cpu]`, so a write reads one row:
/// 16 bytes at 16 CPUs.
///
/// **No overflow.**  When the kept bits cover both caches' set indices, a
/// bucket spans `B / b` sets of a level with `b`-byte blocks, so a count is
/// at most `B / b1 * w1 + B / b2 * w2` for ways `w1` and `w2`.  With equal
/// block sizes — every hierarchy in this repository — that is L1 ways + L2
/// ways, 10 for Table 1, far below `u8::MAX`.  A geometry a spec may
/// describe beyond that (ways that add up to 255 or more, very unequal
/// block sizes, an L1 with more sets than the L2 has lines) can reach it; a
/// count that does stays at `u8::MAX` for good.  Its CPU is then searched on
/// every write to the bucket, which finds what a search of every CPU
/// finds, so results stay exact for every geometry.
#[derive(Debug, Clone)]
struct SharerDirectory {
    /// `counts[bucket * num_cpus + cpu]`.
    counts: Vec<u8>,
    num_cpus: usize,
    /// `log2(B)`: an address shifted right by it is its block index at the
    /// larger block size.
    block_shift: u32,
    /// How many low block-index bits the bucket keeps, and their mask.
    kept_bits: u32,
    kept_mask: u64,
    /// How many hashed bits sit above them, and their mask.
    hash_bits: u32,
    hash_mask: u64,
}

impl SharerDirectory {
    /// Multiplier of the Fibonacci hash (2^64 / golden ratio, odd).
    const HASH: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new(num_cpus: usize, config: &HierarchyConfig) -> Self {
        let block_shift = config
            .l1
            .block_bytes
            .max(config.l2.block_bytes)
            .trailing_zeros();
        // A way of a cache spans `block_bytes * num_sets` bytes: the
        // address bits below that select the block and the set.
        let set_bits = |cache: &CacheConfig| {
            (cache.capacity_bytes / u64::from(cache.associativity))
                .trailing_zeros()
                .saturating_sub(block_shift)
        };
        let bucket_bits = config.l2.num_lines().ilog2();
        let kept_bits = set_bits(&config.l1)
            .max(set_bits(&config.l2))
            .min(bucket_bits);
        let hash_bits = bucket_bits - kept_bits;
        Self {
            counts: vec![0; num_cpus << bucket_bits],
            num_cpus,
            block_shift,
            kept_bits,
            kept_mask: (1 << kept_bits) - 1,
            hash_bits,
            hash_mask: (1 << hash_bits) - 1,
        }
    }

    /// Index of the first count of `addr`'s bucket.
    #[inline]
    fn row(&self, addr: u64) -> usize {
        let block = addr >> self.block_shift;
        let hashed = (block >> self.kept_bits)
            .wrapping_mul(Self::HASH)
            .rotate_left(self.hash_bits)
            & self.hash_mask;
        ((hashed << self.kept_bits) | (block & self.kept_mask)) as usize * self.num_cpus
    }

    /// The first CPU at or after `from` whose count in the bucket whose
    /// row starts at `row` is non-zero.
    #[inline]
    fn next_holder(&self, row: usize, from: usize) -> Option<usize> {
        self.counts[row + from..row + self.num_cpus]
            .iter()
            .position(|&count| count != 0)
            .map(|offset| from + offset)
    }

    /// The hook through which `cpu`'s caches report their lines.
    #[inline]
    fn holder(&mut self, cpu: usize) -> Holder<'_> {
        Holder {
            directory: self,
            cpu,
        }
    }

    /// Counts a line of `block_addr` arriving in `cpu`'s caches.
    #[inline]
    fn add(&mut self, block_addr: u64, cpu: usize) {
        let index = self.row(block_addr) + cpu;
        self.counts[index] = self.counts[index].saturating_add(1);
    }

    /// Uncounts a line of `block_addr` leaving `cpu`'s caches; a count at
    /// `u8::MAX` stays there.
    #[inline]
    fn remove(&mut self, block_addr: u64, cpu: usize) {
        let index = self.row(block_addr) + cpu;
        if self.counts[index] != u8::MAX {
            self.counts[index] -= 1;
        }
    }
}

/// One CPU's caches' [`Residency`] hook: the directory counts the CPU's
/// lines as they arrive and leave.
#[derive(Debug)]
struct Holder<'a> {
    directory: &'a mut SharerDirectory,
    cpu: usize,
}

impl Residency for Holder<'_> {
    #[inline]
    fn installed(&mut self, block_addr: u64) {
        self.directory.add(block_addr, self.cpu);
    }

    #[inline]
    fn departed(&mut self, block_addr: u64) {
        self.directory.remove(block_addr, self.cpu);
    }
}

/// Where [`MultiCpuSystem::access_with`] sends classification facts: into
/// the embedded accounting (ordinary path) or onto a segment's tape
/// (deferred path).
enum ClassifySink<'a> {
    Inline,
    Tape(&'a mut OutcomeTape),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny_system(cpus: usize) -> MultiCpuSystem {
        MultiCpuSystem::new(
            cpus,
            &HierarchyConfig {
                l1: CacheConfig::new(1024, 2, 64),
                l2: CacheConfig::new(8192, 4, 64),
            },
        )
    }

    #[test]
    fn single_cpu_behaves_like_hierarchy() {
        let mut sys = tiny_system(1);
        let a = MemAccess::read(0, 0x400, 0x1000);
        let out = sys.access(&a);
        assert!(out.hierarchy.offchip);
        assert_eq!(out.l1_miss_kind, Some(MissKind::Cold));
        assert_eq!(out.l2_miss_kind, Some(MissKind::Cold));
        let out = sys.access(&a);
        assert!(out.hierarchy.l1_hit);
        assert!(out.l1_miss_kind.is_none());
    }

    #[test]
    fn remote_write_invalidates_and_later_miss_is_sharing() {
        let mut sys = tiny_system(2);
        let read0 = MemAccess::read(0, 0x400, 0x2000);
        sys.access(&read0);
        assert!(sys.cpu(0).l1().contains(0x2000));
        // CPU 1 writes the same 64B block.
        let write1 = MemAccess::write(1, 0x500, 0x2000);
        let out = sys.access(&write1);
        assert_eq!(out.remote_invalidations, vec![(0, 0x2000)]);
        assert!(!sys.cpu(0).l1().contains(0x2000));
        // CPU 0 re-reads: a true-sharing miss at 64B blocks.
        let out = sys.access(&read0);
        assert_eq!(out.l1_miss_kind, Some(MissKind::TrueSharing));
    }

    #[test]
    fn false_sharing_detected_with_large_blocks() {
        let mut sys = MultiCpuSystem::new(
            2,
            &HierarchyConfig {
                l1: CacheConfig::new(16 * 1024, 2, 2048),
                l2: CacheConfig::new(64 * 1024, 4, 2048),
            },
        );
        // CPU 0 reads chunk 0 of a 2kB block; CPU 1 writes chunk 16.
        sys.access(&MemAccess::read(0, 0x400, 0x8000));
        sys.access(&MemAccess::write(1, 0x500, 0x8000 + 1024));
        let out = sys.access(&MemAccess::read(0, 0x400, 0x8000));
        assert_eq!(out.l1_miss_kind, Some(MissKind::FalseSharing));
        assert_eq!(sys.l1_breakdown().false_sharing, 1);
    }

    #[test]
    fn write_misses_do_not_enter_read_breakdown() {
        let mut sys = tiny_system(1);
        sys.access(&MemAccess::write(0, 0x400, 0x3000));
        assert_eq!(sys.l1_breakdown().total(), 0);
        // But a later read to the same block is not cold (it was filled):
        // after enough conflicting fills to guarantee eviction, re-reading
        // the written block classifies as a replacement miss.
        for i in 1..=16u64 {
            sys.access(&MemAccess::read(0, 0x400, 0x3000 + i * 1024));
        }
        let out = sys.access(&MemAccess::read(0, 0x400, 0x3000));
        assert_eq!(out.l1_miss_kind, Some(MissKind::Replacement));
    }

    #[test]
    fn totals_aggregate_across_cpus() {
        let mut sys = tiny_system(2);
        sys.access(&MemAccess::read(0, 0x400, 0x1000));
        sys.access(&MemAccess::read(1, 0x400, 0x2000));
        let l1 = sys.l1_stats_total();
        assert_eq!(l1.accesses, 2);
        assert_eq!(l1.misses, 2);
    }

    #[test]
    #[should_panic(expected = "unknown cpu")]
    fn access_with_bad_cpu_panics() {
        let mut sys = tiny_system(1);
        sys.access(&MemAccess::read(5, 0x400, 0x1000));
    }

    #[test]
    fn deferred_path_matches_inline_path_bit_for_bit() {
        use crate::classify::MissAccounting;

        // A write-heavy two-CPU mix so sharing invalidations are exercised.
        let accesses: Vec<MemAccess> = (0..400u64)
            .map(|i| {
                let cpu = (i % 2) as u8;
                let addr = (i % 37) * 64 + (i % 5) * 4096;
                if i % 3 == 0 {
                    MemAccess::write(cpu, 0x400 + i, addr)
                } else {
                    MemAccess::read(cpu, 0x400 + i, addr)
                }
            })
            .collect();

        let config = HierarchyConfig {
            l1: CacheConfig::new(1024, 2, 64),
            l2: CacheConfig::new(8192, 4, 64),
        };
        let mut inline_sys = MultiCpuSystem::new(2, &config);
        let mut deferred_sys = MultiCpuSystem::new(2, &config);
        let mut accounting = MissAccounting::new(2, &config);
        let mut tape = crate::classify::OutcomeTape::new();

        for access in &accesses {
            let inline_out = inline_sys.access(access);
            let deferred_out = deferred_sys.access_deferred(access, &mut tape);
            // Everything a prefetcher may consume must be identical.
            assert_eq!(inline_out.hierarchy, deferred_out.hierarchy);
            assert_eq!(
                inline_out.remote_invalidations,
                deferred_out.remote_invalidations
            );
            assert!(deferred_out.l1_miss_kind.is_none());
        }
        accounting.replay(&accesses, &tape);

        assert_eq!(inline_sys.l1_stats_total(), deferred_sys.l1_stats_total());
        assert_eq!(inline_sys.l2_stats_total(), deferred_sys.l2_stats_total());
        assert_eq!(inline_sys.l1_breakdown(), accounting.l1_breakdown());
        assert_eq!(inline_sys.l2_breakdown(), accounting.l2_breakdown());
        assert!(inline_sys.l1_breakdown().total() > 0);
    }

    #[test]
    fn cloned_system_resumes_bit_identically() {
        // Snapshot-by-clone at an arbitrary boundary: the original and the
        // clone must agree access for access afterwards.
        let mut sys = tiny_system(2);
        for i in 0..100u64 {
            sys.access(&MemAccess::read((i % 2) as u8, 0x400, (i % 23) * 64));
        }
        let mut snapshot = sys.clone();
        for i in 0..100u64 {
            let access = if i % 4 == 0 {
                MemAccess::write((i % 2) as u8, 0x500, (i % 19) * 64)
            } else {
                MemAccess::read((i % 2) as u8, 0x500, (i % 19) * 64)
            };
            let a = sys.access(&access);
            let b = snapshot.access(&access);
            assert_eq!(a, b);
        }
        assert_eq!(sys.l1_stats_total(), snapshot.l1_stats_total());
        assert_eq!(sys.l1_breakdown(), snapshot.l1_breakdown());
    }
}

/// Differential tests of the sharer directory: random operation sequences
/// on random geometries, checked after every operation against a recount of
/// every CPU's resident blocks and, for each write, against a brute-force
/// search of every other CPU's caches.
#[cfg(test)]
mod directory_tests {
    use super::*;
    use crate::config::CacheConfig;
    use proptest::prelude::*;

    /// A cache of `2^sets_log2` sets of `ways` ways of `2^block_log2` bytes.
    fn cache(sets_log2: u32, ways: u32, block_log2: u32) -> CacheConfig {
        let block = 1u64 << block_log2;
        CacheConfig::new((1u64 << sets_log2) * u64::from(ways) * block, ways, block)
    }

    /// The counts rebuilt from every CPU's resident blocks.
    fn recount(system: &MultiCpuSystem) -> Vec<u32> {
        let directory = &system.directory;
        let mut counts = vec![0; directory.counts.len()];
        for (cpu, hierarchy) in system.cpus.iter().enumerate() {
            let l1 = hierarchy.l1().resident_blocks();
            for block in l1.chain(hierarchy.l2().resident_blocks()) {
                counts[directory.row(block) + cpu] += 1;
            }
        }
        counts
    }

    /// The directory invariant: every count equals its recount, unless it
    /// has reached `u8::MAX`, where it stays.
    fn assert_directory_exact(system: &MultiCpuSystem) {
        let counts = &system.directory.counts;
        for (index, recounted) in recount(system).into_iter().enumerate() {
            let count = counts[index];
            assert!(
                u32::from(count) == recounted || count == u8::MAX,
                "entry {index} counts {count} lines, but {recounted} are resident"
            );
        }
    }

    /// One operation of a random sequence.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read { cpu: u8, addr: u64, deferred: bool },
        Write { cpu: u8, addr: u64, deferred: bool },
        StreamFill { cpu: u8, addr: u64 },
        L2PrefetchFill { cpu: u8, addr: u64 },
    }

    /// Operations over eight 16 KiB regions far apart, so that blocks
    /// share sets, hash into the same buckets and are shared by CPUs.
    fn op() -> impl Strategy<Value = Op> {
        (
            0u8..8,
            0u8..16,
            0u64..8,
            0u64..16_384,
            proptest::bool::weighted(0.5),
        )
            .prop_map(|(kind, cpu, region, offset, deferred)| {
                let addr = (region << 33) | offset;
                match kind {
                    0..=2 => Op::Read {
                        cpu,
                        addr,
                        deferred,
                    },
                    3..=5 => Op::Write {
                        cpu,
                        addr,
                        deferred,
                    },
                    6 => Op::StreamFill { cpu, addr },
                    _ => Op::L2PrefetchFill { cpu, addr },
                }
            })
    }

    /// Applies `op` and checks a write's invalidations against a search of
    /// every other CPU's caches taken before the access.
    fn apply(system: &mut MultiCpuSystem, op: Op) {
        let cpus = system.num_cpus() as u8;
        match op {
            Op::Read {
                cpu,
                addr,
                deferred,
            } => {
                let access = MemAccess::read(cpu % cpus, 0x400, addr);
                let out = if deferred {
                    system.access_deferred(&access, &mut OutcomeTape::new())
                } else {
                    system.access(&access)
                };
                assert!(out.remote_invalidations.is_empty());
            }
            Op::Write {
                cpu,
                addr,
                deferred,
            } => {
                let writer = cpu % cpus;
                let mut l1_copies = Vec::new();
                let mut holders = Vec::new();
                for other in (0..cpus).filter(|&other| other != writer) {
                    let hierarchy = system.cpu(other);
                    let in_l1 = hierarchy.l1().contains(addr);
                    if in_l1 {
                        l1_copies.push((other, system.config().l1.block_addr(addr)));
                    }
                    if in_l1 || hierarchy.l2().contains(addr) {
                        holders.push(other);
                    }
                }
                let access = MemAccess::write(writer, 0x500, addr);
                if deferred {
                    let mut tape = OutcomeTape::new();
                    let out = system.access_deferred(&access, &mut tape);
                    assert_eq!(out.remote_invalidations, l1_copies);
                    let mut expected = OutcomeTape::new();
                    expected.push_outcome(out.hierarchy.l1_miss(), out.hierarchy.offchip);
                    for &other in &holders {
                        expected.push_invalidation(other);
                    }
                    assert_eq!(tape, expected, "tape invalidations of {access:?}");
                } else {
                    let out = system.access(&access);
                    assert_eq!(out.remote_invalidations, l1_copies);
                }
                for other in (0..cpus).filter(|&other| other != writer) {
                    assert!(!system.cpu(other).l1().contains(addr));
                    assert!(!system.cpu(other).l2().contains(addr));
                }
            }
            Op::StreamFill { cpu, addr } => {
                system.cpu_mut(cpu % cpus).stream_fill(addr);
            }
            Op::L2PrefetchFill { cpu, addr } => {
                system.cpu_mut(cpu % cpus).l2_prefetch_fill(addr);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Direct-mapped to 16-way caches of 1–16 sets, 64 B–2 KiB blocks
        /// chosen per level (so unequal block sizes and an L1 with more
        /// sets than the L2 both occur), 1–16 CPUs.
        #[test]
        fn directory_stays_exact_and_writes_find_every_copy(
            cpus in 1usize..17,
            l1 in (0u32..5, 0usize..6, 6u32..12),
            l2 in (0u32..5, 0usize..6, 6u32..12),
            ops in proptest::collection::vec(op(), 1..300),
        ) {
            const WAYS: [u32; 6] = [1, 2, 3, 4, 8, 16];
            let config = HierarchyConfig {
                l1: cache(l1.0, WAYS[l1.1], l1.2),
                l2: cache(l2.0, WAYS[l2.1], l2.2),
            };
            let mut system = MultiCpuSystem::new(cpus, &config);
            for op in ops {
                apply(&mut system, op);
                assert_directory_exact(&system);
            }
        }
    }

    #[test]
    fn a_count_that_reaches_u8_max_stays_there_and_writes_still_find_every_copy() {
        // 64 B L1 blocks under a 16 KiB L2 block: one L2 block's bucket
        // takes all 256 of its L1 blocks, which a 512-line direct-mapped L1
        // holds at once.
        let config = HierarchyConfig {
            l1: cache(9, 1, 6),
            l2: cache(2, 1, 14),
        };
        let mut system = MultiCpuSystem::new(2, &config);
        let row = system.directory.row(0);
        for block in 0..256u64 {
            system.access(&MemAccess::read(0, 0x400, block * 64));
            assert_directory_exact(&system);
        }
        assert_eq!(system.directory.counts[row], u8::MAX);

        // CPU 1's writes take every copy from CPU 0, whose count stays at
        // the cap, so each write still searches CPU 0 and finds its copy.
        for block in 0..256u64 {
            let (cpu, addr, deferred) = (1, block * 64, block % 2 == 0);
            apply(
                &mut system,
                Op::Write {
                    cpu,
                    addr,
                    deferred,
                },
            );
            assert_directory_exact(&system);
        }
        assert!(system.cpu(0).l1().resident_blocks().next().is_none());
        assert_eq!(system.directory.next_holder(row, 0), Some(0));
    }

    #[test]
    fn the_table_takes_at_most_one_byte_per_l2_line_per_cpu() {
        let table1 = HierarchyConfig::table1();
        let system = MultiCpuSystem::new(16, &table1);
        assert_eq!(system.directory.counts.len(), 16 << 17);
        assert_eq!(
            system.directory.counts.len() as u64,
            16 * table1.l2.num_lines()
        );
        // 32 KiB for the scaled hierarchy at 2 CPUs.
        let system = MultiCpuSystem::new(2, &HierarchyConfig::scaled());
        assert_eq!(system.directory.counts.len(), 32 << 10);
    }
}
