//! A set-associative, write-allocate cache with LRU replacement.
//!
//! The cache tracks, per line, whether it is dirty and whether it was filled
//! by a prefetch/stream request and has not yet been used by a demand access.
//! The latter is what the SMS coverage accounting needs: a demand access to a
//! `prefetched` line is a miss that the prefetcher eliminated, while the
//! eviction or invalidation of a still-unused `prefetched` line is an
//! overprediction.
//!
//! A cache finds a set with a shift and a mask fixed at construction.  Every
//! line that arrives or leaves is reported to a residency hook: the no-op
//! `()` for a standalone cache, which compiles away, or the multiprocessor's
//! sharer directory (see [`system`](crate::system)).

use crate::config::CacheConfig;
use trace::AccessKind;

/// Per-line usage state relevant to prefetch accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheLineState {
    /// Filled by a demand miss (or already used by a demand access).
    Demand,
    /// Filled by a prefetch/stream and not yet referenced by a demand access.
    PrefetchedUnused,
}

/// A line evicted or invalidated from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Block-aligned address of the departed line.
    pub block_addr: u64,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
    /// Usage state at departure; `PrefetchedUnused` means an overprediction.
    pub state: CacheLineState,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Whether the hit line had been filled by a prefetch and was unused
    /// until now (i.e. the prefetch "covered" this would-be miss).
    pub hit_on_prefetched: bool,
    /// Line evicted to make room for the fill, if the access missed and the
    /// set was full.
    pub evicted: Option<EvictedLine>,
}

/// One cache line in 16 bytes: the tag, and the LRU stamp with the line's
/// three state bits packed above it.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    meta: u64,
}

impl Line {
    const VALID: u64 = 1 << 63;
    const DIRTY: u64 = 1 << 62;
    const PREFETCHED: u64 = 1 << 61;
    /// The LRU stamp's bits; the clock must stay below 2^61.
    const LRU: u64 = Self::PREFETCHED - 1;

    const INVALID: Line = Line { tag: 0, meta: 0 };

    fn new(tag: u64, dirty: bool, prefetched_unused: bool) -> Line {
        let mut line = Line {
            tag,
            meta: Self::VALID,
        };
        line.set(Self::DIRTY, dirty);
        line.set(Self::PREFETCHED, prefetched_unused);
        line
    }

    fn set(&mut self, bit: u64, on: bool) {
        if on {
            self.meta |= bit;
        } else {
            self.meta &= !bit;
        }
    }

    fn valid(&self) -> bool {
        self.meta & Self::VALID != 0
    }

    fn dirty(&self) -> bool {
        self.meta & Self::DIRTY != 0
    }

    fn prefetched_unused(&self) -> bool {
        self.meta & Self::PREFETCHED != 0
    }

    fn lru(&self) -> u64 {
        self.meta & Self::LRU
    }

    fn set_lru(&mut self, tick: u64) {
        debug_assert!(tick <= Self::LRU, "LRU clock overflowed its 61 bits");
        self.meta = (self.meta & !Self::LRU) | tick;
    }

    /// How the line departs when evicted or invalidated.
    fn departed(&self) -> EvictedLine {
        EvictedLine {
            block_addr: self.tag,
            dirty: self.dirty(),
            state: if self.prefetched_unused() {
                CacheLineState::PrefetchedUnused
            } else {
                CacheLineState::Demand
            },
        }
    }
}

/// Observes the lines a cache installs and the lines that leave it, by
/// block address.  The methods run only where a line's validity changes:
/// [`SetAssocCache`]'s `replace` and `invalidate_way`.
pub(crate) trait Residency {
    /// A line for `block_addr` became valid.
    fn installed(&mut self, block_addr: u64);
    /// The valid line for `block_addr` was evicted or invalidated.
    fn departed(&mut self, block_addr: u64);
}

/// The standalone cache's hook: observes nothing and inlines to nothing.
impl Residency for () {
    #[inline(always)]
    fn installed(&mut self, _block_addr: u64) {}
    #[inline(always)]
    fn departed(&mut self, _block_addr: u64) {}
}

/// A set-associative cache model.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    /// `log2(block_bytes)`: an address shifted right by it is its block
    /// index.
    block_shift: u32,
    /// `num_sets - 1`: a block index masked by it is its set.
    set_mask: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let lines = vec![Line::INVALID; config.num_lines() as usize];
        Self {
            config,
            lines,
            tick: 0,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn set_range(&self, addr: u64) -> std::ops::Range<usize> {
        let set = ((addr >> self.block_shift) & self.set_mask) as usize;
        let assoc = self.config.associativity as usize;
        set * assoc..(set + 1) * assoc
    }

    fn tag(&self, addr: u64) -> u64 {
        self.config.block_addr(addr)
    }

    fn touch(&mut self, index: usize) {
        self.tick += 1;
        self.lines[index].set_lru(self.tick);
    }

    /// The way holding the block containing `addr`, if present.
    pub(crate) fn find(&self, addr: u64) -> Option<usize> {
        let tag = self.tag(addr);
        self.set_range(addr)
            .find(|&i| self.lines[i].valid() && self.lines[i].tag == tag)
    }

    /// Returns `true` if the block containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Returns the usage state of the block containing `addr`, if present.
    pub fn line_state(&self, addr: u64) -> Option<CacheLineState> {
        self.find(addr).map(|i| {
            if self.lines[i].prefetched_unused() {
                CacheLineState::PrefetchedUnused
            } else {
                CacheLineState::Demand
            }
        })
    }

    /// One pass over the set holding `addr`: `Ok` with the way that holds
    /// the block, or `Err` with the way a fill would replace — the first
    /// invalid way, else the least-recently-used one.
    fn lookup(&self, addr: u64) -> Result<usize, usize> {
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        let mut victim = range.start;
        let mut victim_rank = u64::MAX;
        for i in range {
            let line = &self.lines[i];
            // Valid lines carry LRU stamps of at least 1 (`touch` advances
            // the clock before stamping), so ranking an invalid way 0 makes
            // the first invalid way win and the LRU way win otherwise.
            let rank = if line.valid() {
                if line.tag == tag {
                    return Ok(i);
                }
                line.lru()
            } else {
                0
            };
            if rank < victim_rank {
                victim_rank = rank;
                victim = i;
            }
        }
        Err(victim)
    }

    /// Performs a demand access (load or store) to `addr`.
    ///
    /// On a miss the block is allocated (write-allocate) and the displaced
    /// line, if any, is returned in the outcome.
    ///
    /// A *store* to a line that was filled by a prefetch and never used by a
    /// demand access counts as a miss: stream requests behave like read
    /// requests in the coherence protocol (Section 3.2 of the paper), so the
    /// streamed copy is read-only and the store must still obtain write
    /// permission.  The line is kept (no refetch of the data), but the access
    /// is reported as a miss so upgrade latency and store-buffer pressure are
    /// modelled.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
        self.access_with(addr, kind, &mut ())
    }

    /// [`access`](Self::access), reporting the line it installs and the
    /// one it evicts to `residency`.
    pub(crate) fn access_with(
        &mut self,
        addr: u64,
        kind: AccessKind,
        residency: &mut impl Residency,
    ) -> AccessOutcome {
        match self.lookup(addr) {
            Ok(i) => {
                let line = &mut self.lines[i];
                let was_prefetched = line.prefetched_unused();
                line.set(Line::PREFETCHED, false);
                if kind.is_write() {
                    line.set(Line::DIRTY, true);
                }
                self.touch(i);
                let upgrade = kind.is_write() && was_prefetched;
                AccessOutcome {
                    hit: !upgrade,
                    hit_on_prefetched: was_prefetched && !upgrade,
                    evicted: None,
                }
            }
            Err(victim) => AccessOutcome {
                hit: false,
                hit_on_prefetched: false,
                evicted: self.replace(victim, addr, kind.is_write(), false, residency),
            },
        }
    }

    /// Fills `addr` as a prefetch/stream request.  Does nothing if the block
    /// is already present.  Returns the displaced line, if any.
    pub fn prefetch_fill(&mut self, addr: u64) -> Option<EvictedLine> {
        self.prefetch_fill_absent(addr, &mut ()).flatten()
    }

    /// [`prefetch_fill`](Self::prefetch_fill) that tells the caller whether
    /// it filled: `None` if the block was already present, otherwise `Some`
    /// of the displaced line, if any.
    pub(crate) fn prefetch_fill_absent(
        &mut self,
        addr: u64,
        residency: &mut impl Residency,
    ) -> Option<Option<EvictedLine>> {
        let victim = self.lookup(addr).err()?;
        Some(self.replace(victim, addr, false, true, residency))
    }

    /// Fills `addr` without counting a demand access (used for write-backs
    /// arriving from an upper level).  Does nothing if the block is already
    /// present, other than marking it dirty when `dirty` is set.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
        self.fill_with(addr, dirty, &mut ())
    }

    /// [`fill`](Self::fill), reporting the line it installs and the one it
    /// evicts to `residency`.
    pub(crate) fn fill_with(
        &mut self,
        addr: u64,
        dirty: bool,
        residency: &mut impl Residency,
    ) -> Option<EvictedLine> {
        match self.lookup(addr) {
            Ok(i) => {
                if dirty {
                    self.lines[i].set(Line::DIRTY, true);
                }
                self.touch(i);
                None
            }
            Err(victim) => self.replace(victim, addr, dirty, false, residency),
        }
    }

    /// Installs `addr` in way `victim`, returning the valid line it held.
    fn replace(
        &mut self,
        victim: usize,
        addr: u64,
        dirty: bool,
        prefetched: bool,
        residency: &mut impl Residency,
    ) -> Option<EvictedLine> {
        let old = self.lines[victim];
        let tag = self.tag(addr);
        self.lines[victim] = Line::new(tag, dirty, prefetched);
        self.touch(victim);
        residency.installed(tag);
        old.valid().then(|| {
            residency.departed(old.tag);
            old.departed()
        })
    }

    /// Invalidates the block containing `addr`, returning the removed line.
    pub fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
        let way = self.find(addr)?;
        Some(self.invalidate_way(way, &mut ()))
    }

    /// Invalidates way `way` (a valid line [`find`](Self::find) returned),
    /// returning the removed line.
    pub(crate) fn invalidate_way(
        &mut self,
        way: usize,
        residency: &mut impl Residency,
    ) -> EvictedLine {
        let old = self.lines[way];
        self.lines[way] = Line::INVALID;
        residency.departed(old.tag);
        old.departed()
    }

    /// Iterates over the block addresses of all resident lines.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines.iter().filter(|l| l.valid()).map(|l| l.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B cache.
        SetAssocCache::new(CacheConfig::new(512, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x103f, AccessKind::Read).hit, "same block");
        assert!(!c.access(0x1040, AccessKind::Read).hit, "next block");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three blocks mapping to the same set (set stride = 4*64 = 256).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        let out = c.access(d, AccessKind::Read);
        let evicted = out.evicted.expect("set was full");
        assert_eq!(evicted.block_addr, b, "LRU line must be evicted");
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn fill_takes_first_invalid_way_then_evicts_lru() {
        // 4 sets x 4 ways x 64B; blocks 256 B apart share set 0.
        let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64));
        let [a, b, d, e, f, g, h] = [0x000, 0x100, 0x200, 0x300, 0x400, 0x500, 0x600];
        for addr in [a, b, d, e] {
            assert!(c.fill(addr, false).is_none());
        }
        // Ways: a, -, d, - (holes between and after valid lines).
        c.invalidate(b);
        c.invalidate(e);
        assert!(c.fill(f, false).is_none());
        let ways: Vec<u64> = c.resident_blocks().collect();
        assert_eq!(ways, vec![a, f, d], "the first invalid way is taken");
        assert!(c.fill(g, false).is_none());
        // Full set a, f, d, g; re-touch a so d (filled before f and g) is LRU.
        assert!(c.access(a, AccessKind::Read).hit);
        let evicted = c.fill(h, false).expect("set was full");
        assert_eq!(evicted.block_addr, d, "the LRU way is evicted");
        let ways: Vec<u64> = c.resident_blocks().collect();
        assert_eq!(ways, vec![a, f, h, g]);
    }

    #[test]
    fn writes_mark_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(0x0000, AccessKind::Write);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read);
        // 0x0000 was accessed first and not re-touched, so it is the LRU.
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.block_addr, 0x0000);
        assert!(evicted.dirty);
    }

    #[test]
    fn prefetch_fill_and_demand_hit() {
        let mut c = tiny();
        assert!(c.prefetch_fill(0x2000).is_none());
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::PrefetchedUnused));
        let out = c.access(0x2000, AccessKind::Read);
        assert!(out.hit);
        assert!(out.hit_on_prefetched);
        // A second access is an ordinary hit.
        let out = c.access(0x2000, AccessKind::Read);
        assert!(out.hit);
        assert!(!out.hit_on_prefetched);
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
    }

    #[test]
    fn store_to_unused_prefetched_line_is_an_upgrade_miss() {
        let mut c = tiny();
        c.prefetch_fill(0x2000);
        let out = c.access(0x2000, AccessKind::Write);
        assert!(
            !out.hit,
            "streamed copies are read-only; a store must upgrade"
        );
        assert!(out.evicted.is_none(), "the data stays resident");
        // After the upgrade the line behaves like a normal dirty line.
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
        assert!(c.access(0x2000, AccessKind::Write).hit);
    }

    #[test]
    fn prefetch_fill_is_idempotent_when_present() {
        let mut c = tiny();
        c.access(0x2000, AccessKind::Read);
        assert!(c.prefetch_fill(0x2000).is_none());
        // Still counts as a demand line.
        assert_eq!(c.line_state(0x2000), Some(CacheLineState::Demand));
    }

    #[test]
    fn eviction_of_unused_prefetch_is_reported() {
        let mut c = tiny();
        c.prefetch_fill(0x0000);
        c.access(0x0100, AccessKind::Read);
        let out = c.access(0x0200, AccessKind::Read);
        let evicted = out.evicted.unwrap();
        assert_eq!(evicted.state, CacheLineState::PrefetchedUnused);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.access(0x3000, AccessKind::Write);
        let inv = c.invalidate(0x3000).unwrap();
        assert!(inv.dirty);
        assert!(!c.contains(0x3000));
        assert!(c.invalidate(0x3000).is_none());
    }

    #[test]
    fn resident_lines_counts() {
        let mut c = tiny();
        assert_eq!(c.resident_blocks().count(), 0);
        c.access(0x0000, AccessKind::Read);
        c.access(0x1000, AccessKind::Read);
        let blocks: Vec<u64> = c.resident_blocks().collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&0x0000) && blocks.contains(&0x1000));
    }

    #[test]
    fn a_line_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
    }

    #[test]
    fn large_block_size_behaviour() {
        // 2kB blocks: two addresses 1kB apart share a block.
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 1024, 2, 2048));
        assert!(!c.access(0x0000, AccessKind::Read).hit);
        assert!(c.access(0x0400, AccessKind::Read).hit);
    }
}
