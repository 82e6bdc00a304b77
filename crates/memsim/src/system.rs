//! Multi-processor system with write-invalidate coherence.
//!
//! Each processor owns a private two-level hierarchy; a write by one
//! processor invalidates the block in every other processor's caches, as a
//! directory-based MOESI protocol would after granting exclusive ownership.
//! The system records, per level, a [`MissBreakdown`] that separates cold,
//! replacement, true-sharing and false-sharing misses — the categories
//! Figure 4 of the paper reports.

use crate::classify::{MissAccounting, MissBreakdown, MissKind, OutcomeTape};
use crate::config::HierarchyConfig;
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

    /// Mutable access to one processor's hierarchy (used by prefetch engines
    /// to stream blocks in).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu_mut(&mut self, cpu: u8) -> &mut CpuHierarchy {
        &mut self.cpus[cpu as usize]
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

        let hierarchy = self.cpus[cpu_idx].access(access);
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

        // Write-invalidate coherence: remove remote copies.
        let mut remote_invalidations = Vec::new();
        if access.kind.is_write() {
            for other in 0..self.cpus.len() {
                if other == cpu_idx {
                    continue;
                }
                let other_cpu = other as u8;
                let (l1_line, l2_line) = self.cpus[other].invalidate(access.addr);
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
