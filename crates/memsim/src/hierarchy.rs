//! One processor's private two-level cache hierarchy.

use crate::cache::{CacheLineState, EvictedLine, Residency, SetAssocCache};
use crate::config::HierarchyConfig;
use crate::stats::CacheStats;
use trace::MemAccess;

/// Result of pushing one demand access through a processor's hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
    /// Whether the L1 hit landed on a previously-unused prefetched line.
    pub l1_hit_on_prefetched: bool,
    /// Whether the access (having missed L1) hit in the L2.  `false` when the
    /// access hit in L1 or went off-chip.
    pub l2_hit: bool,
    /// Whether the L2 hit landed on a previously-unused prefetched line.
    pub l2_hit_on_prefetched: bool,
    /// Whether the access had to go off-chip (missed both levels).
    pub offchip: bool,
    /// Line evicted from the L1 by the demand fill, if any.
    pub l1_evicted: Option<EvictedLine>,
    /// Line evicted from the L2 by the demand fill, if any.  Only when the
    /// demand fill evicted nothing is this the line that the L1 victim's
    /// write-back evicted; when both evict, the write-back's victim is not
    /// reported.
    pub l2_evicted: Option<EvictedLine>,
}

impl HierarchyOutcome {
    /// Whether the access missed in the primary cache.
    pub fn l1_miss(&self) -> bool {
        !self.l1_hit
    }
}

/// A processor's private L1 + L2 hierarchy (non-inclusive, write-back,
/// write-allocate).
#[derive(Debug, Clone)]
pub struct CpuHierarchy {
    cpu: u8,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_stats: CacheStats,
    l2_stats: CacheStats,
}

impl CpuHierarchy {
    /// Creates an empty hierarchy for processor `cpu`.
    pub fn new(cpu: u8, config: &HierarchyConfig) -> Self {
        Self {
            cpu,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            l1_stats: CacheStats::new(),
            l2_stats: CacheStats::new(),
        }
    }

    /// The processor index this hierarchy belongs to.
    pub fn cpu(&self) -> u8 {
        self.cpu
    }

    /// Counters for the primary cache.
    pub fn l1_stats(&self) -> &CacheStats {
        &self.l1_stats
    }

    /// Counters for the secondary cache.
    pub fn l2_stats(&self) -> &CacheStats {
        &self.l2_stats
    }

    /// Immutable view of the primary cache (used by predictors that need to
    /// inspect residency).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// Immutable view of the secondary cache.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Pushes one demand access through the hierarchy, updating both levels
    /// and their statistics.
    pub fn access(&mut self, access: &MemAccess) -> HierarchyOutcome {
        self.access_with(access, &mut ())
    }

    /// [`access`](Self::access), reporting every line either level installs
    /// or evicts to `residency`.
    pub(crate) fn access_with(
        &mut self,
        access: &MemAccess,
        residency: &mut impl Residency,
    ) -> HierarchyOutcome {
        debug_assert_eq!(access.cpu, self.cpu, "access routed to the wrong CPU");
        self.l1_stats.accesses += 1;
        if access.kind.is_read() {
            self.l1_stats.reads += 1;
        } else {
            self.l1_stats.writes += 1;
        }

        let l1_out = self.l1.access_with(access.addr, access.kind, residency);
        if l1_out.hit {
            if l1_out.hit_on_prefetched {
                self.l1_stats.prefetch_hits += 1;
            }
            return HierarchyOutcome {
                l1_hit: true,
                l1_hit_on_prefetched: l1_out.hit_on_prefetched,
                l2_hit: false,
                l2_hit_on_prefetched: false,
                offchip: false,
                l1_evicted: None,
                l2_evicted: None,
            };
        }

        // L1 miss.
        self.l1_stats.misses += 1;
        if access.kind.is_read() {
            self.l1_stats.read_misses += 1;
        } else {
            self.l1_stats.write_misses += 1;
        }
        let l1_evicted = l1_out.evicted;
        if let Some(e) = &l1_evicted {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
        }

        // Probe the L2.
        self.l2_stats.accesses += 1;
        if access.kind.is_read() {
            self.l2_stats.reads += 1;
        } else {
            self.l2_stats.writes += 1;
        }
        let l2_out = self.l2.access_with(access.addr, access.kind, residency);
        let mut l2_evicted = None;
        let offchip = if l2_out.hit {
            if l2_out.hit_on_prefetched {
                self.l2_stats.prefetch_hits += 1;
            }
            false
        } else {
            self.l2_stats.misses += 1;
            if access.kind.is_read() {
                self.l2_stats.read_misses += 1;
            } else {
                self.l2_stats.write_misses += 1;
            }
            l2_evicted = l2_out.evicted;
            if let Some(e) = &l2_evicted {
                if e.state == CacheLineState::PrefetchedUnused {
                    self.l2_stats.prefetch_unused_evictions += 1;
                }
            }
            true
        };

        // Write back the dirty L1 victim into the L2 (non-inclusive).
        if let Some(e) = &l1_evicted {
            if e.dirty {
                self.l1_stats.writebacks += 1;
                let wb_evicted = self.l2.fill_with(e.block_addr, true, residency);
                if l2_evicted.is_none() {
                    l2_evicted = wb_evicted;
                }
            }
        }
        if let Some(e) = &l2_evicted {
            if e.dirty {
                self.l2_stats.writebacks += 1;
            }
        }

        HierarchyOutcome {
            l1_hit: false,
            l1_hit_on_prefetched: false,
            l2_hit: l2_out.hit,
            l2_hit_on_prefetched: l2_out.hit_on_prefetched,
            offchip,
            l1_evicted,
            l2_evicted,
        }
    }

    /// Streams a predicted block into the primary cache (and the L2, which
    /// the fill passes through on its way up), marking it prefetched, and
    /// reports every line either level installs or evicts to `residency`.
    ///
    /// Returns the line displaced from the L1, if any, so that callers can
    /// end spatial region generations for the victim block.
    pub(crate) fn stream_fill(
        &mut self,
        addr: u64,
        residency: &mut impl Residency,
    ) -> Option<EvictedLine> {
        // The L1 and L2 arrays share no state, so filling the L1 first (to
        // learn whether the block was already there) leaves every line and
        // counter as filling the L2 first would.
        let victim = self.l1.prefetch_fill_absent(addr, residency)?;
        self.l1_stats.prefetch_fills += 1;
        if let Some(l2_victim) = self.l2.prefetch_fill_absent(addr, residency) {
            self.l2_stats.prefetch_fills += 1;
            if let Some(e) = &l2_victim {
                if e.state == CacheLineState::PrefetchedUnused {
                    self.l2_stats.prefetch_unused_evictions += 1;
                }
                if e.dirty {
                    self.l2_stats.writebacks += 1;
                }
            }
        }
        if let Some(e) = &victim {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
            if e.dirty {
                self.l1_stats.writebacks += 1;
                self.l2.fill_with(e.block_addr, true, residency);
            }
        }
        victim
    }

    /// Prefetches a block into the secondary cache only (the GHB baseline is
    /// an L2 prefetcher), reporting the line it installs and the one it
    /// evicts to `residency`.  Returns the displaced L2 line, if any.
    pub(crate) fn l2_prefetch_fill(
        &mut self,
        addr: u64,
        residency: &mut impl Residency,
    ) -> Option<EvictedLine> {
        let victim = self.l2.prefetch_fill_absent(addr, residency)?;
        self.l2_stats.prefetch_fills += 1;
        if let Some(e) = &victim {
            if e.state == CacheLineState::PrefetchedUnused {
                self.l2_stats.prefetch_unused_evictions += 1;
            }
            if e.dirty {
                self.l2_stats.writebacks += 1;
            }
        }
        victim
    }

    /// Invalidates a block in both levels (coherence action), reporting the
    /// lines it removes to `residency`.  Returns the lines removed from the
    /// L1 and from the L2, in that order; the L1 line lets callers terminate
    /// generations.
    pub(crate) fn invalidate(
        &mut self,
        addr: u64,
        residency: &mut impl Residency,
    ) -> (Option<EvictedLine>, Option<EvictedLine>) {
        // Search both levels before changing either.  Most remote copies a
        // write looks for are absent, and two independent searches measured
        // faster on 16 CPUs than invalidating one level before searching the
        // other.
        let (l1_way, l2_way) = (self.l1.find(addr), self.l2.find(addr));
        let l1_line = l1_way.map(|way| self.l1.invalidate_way(way, residency));
        if let Some(line) = &l1_line {
            self.l1_stats.invalidations += 1;
            if line.state == CacheLineState::PrefetchedUnused {
                self.l1_stats.prefetch_unused_evictions += 1;
            }
        }
        let l2_line = l2_way.map(|way| self.l2.invalidate_way(way, residency));
        if let Some(line) = &l2_line {
            self.l2_stats.invalidations += 1;
            if line.state == CacheLineState::PrefetchedUnused {
                self.l2_stats.prefetch_unused_evictions += 1;
            }
        }
        (l1_line, l2_line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny_hierarchy() -> CpuHierarchy {
        CpuHierarchy::new(
            0,
            &HierarchyConfig {
                l1: CacheConfig::new(512, 2, 64),
                l2: CacheConfig::new(4096, 4, 64),
            },
        )
    }

    #[test]
    fn cold_miss_goes_offchip_then_hits() {
        let mut h = tiny_hierarchy();
        let a = MemAccess::read(0, 0x400, 0x1000);
        let out = h.access(&a);
        assert!(!out.l1_hit);
        assert!(!out.l2_hit);
        assert!(out.offchip);
        let out = h.access(&a);
        assert!(out.l1_hit);
        assert_eq!(h.l1_stats().misses, 1);
        assert_eq!(h.l2_stats().misses, 1);
    }

    #[test]
    fn l1_victim_hits_in_l2() {
        let mut h = tiny_hierarchy();
        // Fill a set of the tiny L1 (set stride 2*64=128... capacity 512B,
        // 2-way, 4 sets, stride 256B) with conflicting blocks.
        let base = 0x0u64;
        for i in 0..3 {
            let _ = h.access(&MemAccess::read(0, 0x400, base + i * 256));
        }
        // The first block was evicted from L1 but still lives in L2.
        let out = h.access(&MemAccess::read(0, 0x400, base));
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert!(!out.offchip);
    }

    #[test]
    fn stream_fill_covers_future_miss() {
        let mut h = tiny_hierarchy();
        h.stream_fill(0x2000, &mut ());
        let out = h.access(&MemAccess::read(0, 0x400, 0x2000));
        assert!(out.l1_hit);
        assert!(out.l1_hit_on_prefetched);
        assert_eq!(h.l1_stats().prefetch_hits, 1);
        assert_eq!(h.l1_stats().misses, 0);
    }

    #[test]
    fn unused_stream_fill_counts_on_invalidation() {
        let mut h = tiny_hierarchy();
        h.stream_fill(0x2000, &mut ());
        h.invalidate(0x2000, &mut ());
        assert_eq!(h.l1_stats().prefetch_unused_evictions, 1);
    }

    #[test]
    fn l2_prefetch_does_not_touch_l1() {
        let mut h = tiny_hierarchy();
        h.l2_prefetch_fill(0x3000, &mut ());
        assert!(!h.l1().contains(0x3000));
        assert!(h.l2().contains(0x3000));
        let out = h.access(&MemAccess::read(0, 0x400, 0x3000));
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        assert!(out.l2_hit_on_prefetched);
    }

    #[test]
    fn dirty_l1_victim_written_back_to_l2() {
        let mut h = tiny_hierarchy();
        let _ = h.access(&MemAccess::write(0, 0x400, 0x0000));
        for i in 1..3 {
            let _ = h.access(&MemAccess::read(0, 0x400, i * 256));
        }
        assert_eq!(h.l1_stats().writebacks, 1);
        // The written-back block is still present in L2.
        assert!(h.l2().contains(0x0000));
    }

    #[test]
    fn invalidate_removes_from_both_levels() {
        let mut h = tiny_hierarchy();
        let _ = h.access(&MemAccess::write(0, 0x400, 0x4000));
        let (l1_line, l2_line) = h.invalidate(0x4000, &mut ());
        assert!(l1_line.is_some() && l2_line.is_some());
        assert!(!h.l1().contains(0x4000));
        assert!(!h.l2().contains(0x4000));
        assert_eq!(h.l1_stats().invalidations, 1);
        assert_eq!(h.l2_stats().invalidations, 1);
    }
}
