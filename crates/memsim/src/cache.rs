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

/// A line's state word, stored beside its block address: the valid, dirty
/// and prefetched-unused bits above a 29-bit LRU stamp.  A line is 12 bytes
/// (an 8-byte block address and this word), and an all-zero line is
/// invalid, so a new cache is zeroed memory.
const VALID: u32 = 1 << 31;
const DIRTY: u32 = 1 << 30;
const PREFETCHED: u32 = 1 << 29;
/// The LRU stamp's bits, and the largest stamp the clock reaches before
/// [`SetAssocCache::renumber`] restarts it.
const LRU: u32 = PREFETCHED - 1;

/// How a line with state word `meta` and block address `tag` departs.
fn departed(tag: u64, meta: u32) -> EvictedLine {
    EvictedLine {
        block_addr: tag,
        dirty: meta & DIRTY != 0,
        state: line_state(meta),
    }
}

fn line_state(meta: u32) -> CacheLineState {
    if meta & PREFETCHED != 0 {
        CacheLineState::PrefetchedUnused
    } else {
        CacheLineState::Demand
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
///
/// Line `i` is `tags[i]` and `meta[i]`; set `s` owns lines
/// `s * associativity .. (s + 1) * associativity`.  Within a set the valid
/// lines' LRU stamps are unique and at least 1.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Each line's block address (0 for an invalid line).
    tags: Vec<u64>,
    /// Each line's state word (0 for an invalid line).
    meta: Vec<u32>,
    /// The last LRU stamp handed out.
    tick: u32,
    /// `log2(block_bytes)`: an address shifted right by it is its block
    /// index.
    block_shift: u32,
    /// `num_sets - 1`: a block index masked by it is its set.
    set_mask: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity is not below the LRU clock's limit
    /// (2^29 - 1).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.associativity < LRU,
            "associativity must be below the LRU clock's limit"
        );
        let lines = config.num_lines() as usize;
        Self {
            config,
            // Zeroed allocations: every line starts invalid, and the pages
            // are mapped only when first written.
            tags: vec![0; lines],
            meta: vec![0; lines],
            tick: 0,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: config.num_sets() - 1,
        }
    }

    /// An empty cache whose clock starts at `tick`, to test the stamps'
    /// renumbering without 2^29 accesses.
    #[cfg(test)]
    fn with_clock(config: CacheConfig, tick: u32) -> Self {
        assert!(tick <= LRU);
        Self {
            tick,
            ..Self::new(config)
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
        if self.tick == LRU {
            self.renumber();
        }
        self.tick += 1;
        self.meta[index] = (self.meta[index] & !LRU) | self.tick;
    }

    /// Renumbers the valid stamps of each set 1..k in their current order
    /// and restarts the clock at the associativity, above every renumbered
    /// stamp.  Stamps stay unique within each set and keep their order, so
    /// every later victim is the one the unbounded clock would have chosen.
    #[cold]
    fn renumber(&mut self) {
        let assoc = self.config.associativity as usize;
        let mut order = Vec::with_capacity(assoc);
        for set in self.meta.chunks_exact_mut(assoc) {
            order.clear();
            order.extend((0..assoc).filter(|&way| set[way] & VALID != 0));
            order.sort_unstable_by_key(|&way| set[way] & LRU);
            for (stamp, &way) in (1..).zip(&order) {
                set[way] = (set[way] & !LRU) | stamp;
            }
        }
        self.tick = self.config.associativity;
    }

    /// The way holding the block containing `addr`, if present.
    pub(crate) fn find(&self, addr: u64) -> Option<usize> {
        let tag = self.tag(addr);
        self.set_range(addr)
            .find(|&i| self.meta[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// Returns `true` if the block containing `addr` is present.
    pub fn contains(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Returns the usage state of the block containing `addr`, if present.
    pub fn line_state(&self, addr: u64) -> Option<CacheLineState> {
        self.find(addr).map(|i| line_state(self.meta[i]))
    }

    /// One pass over the set holding `addr`: `Ok` with the way that holds
    /// the block, or `Err` with the way a fill would replace — the first
    /// invalid way, else the least-recently-used one.
    fn lookup(&self, addr: u64) -> Result<usize, usize> {
        let tag = self.tag(addr);
        let range = self.set_range(addr);
        let (tags, meta) = (&self.tags[range.clone()], &self.meta[range.clone()]);
        let mut victim = 0;
        let mut victim_rank = u32::MAX;
        for (way, (&line_tag, &line_meta)) in tags.iter().zip(meta).enumerate() {
            if line_meta & VALID != 0 && line_tag == tag {
                return Ok(range.start + way);
            }
            // An invalid line's word is 0, so it ranks 0, below every valid
            // line's stamp (at least 1): the first invalid way wins, and the
            // LRU way wins otherwise.
            let rank = line_meta & LRU;
            if rank < victim_rank {
                victim_rank = rank;
                victim = way;
            }
        }
        Err(range.start + victim)
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
                let meta = &mut self.meta[i];
                let was_prefetched = *meta & PREFETCHED != 0;
                *meta &= !PREFETCHED;
                if kind.is_write() {
                    *meta |= DIRTY;
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
                    self.meta[i] |= DIRTY;
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
        let (old_tag, old_meta) = (self.tags[victim], self.meta[victim]);
        let tag = self.tag(addr);
        self.tags[victim] = tag;
        self.meta[victim] =
            VALID | if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.touch(victim);
        residency.installed(tag);
        (old_meta & VALID != 0).then(|| {
            residency.departed(old_tag);
            departed(old_tag, old_meta)
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
        let (tag, meta) = (self.tags[way], self.meta[way]);
        self.tags[way] = 0;
        self.meta[way] = 0;
        residency.departed(tag);
        departed(tag, meta)
    }

    /// Iterates over the block addresses of all resident lines.
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags
            .iter()
            .zip(&self.meta)
            .filter(|&(_, &meta)| meta & VALID != 0)
            .map(|(&tag, _)| tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn a_line_is_twelve_bytes() {
        let c = SetAssocCache::new(CacheConfig::l2_table1());
        let bytes = std::mem::size_of_val(&c.tags[..]) + std::mem::size_of_val(&c.meta[..]);
        assert_eq!(bytes, 12 * c.config.num_lines() as usize);
    }

    #[test]
    fn large_block_size_behaviour() {
        // 2kB blocks: two addresses 1kB apart share a block.
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 1024, 2, 2048));
        assert!(!c.access(0x0000, AccessKind::Read).hit);
        assert!(c.access(0x0400, AccessKind::Read).hit);
    }

    /// A naive set-associative cache, written from the model's description:
    /// a `Vec` of ways per set, and each set's valid ways in an explicit
    /// recency list, least recently used first.  A fill takes the first
    /// invalid way, else the head of the list.
    struct Reference {
        block_bytes: u64,
        sets: Vec<Vec<Option<RefLine>>>,
        recency: Vec<Vec<usize>>,
        /// LRU updates made, to know when the model's clock must wrap.
        touches: usize,
    }

    #[derive(Clone, Copy)]
    struct RefLine {
        block: u64,
        dirty: bool,
        prefetched: bool,
    }

    impl RefLine {
        fn departed(self) -> EvictedLine {
            EvictedLine {
                block_addr: self.block,
                dirty: self.dirty,
                state: if self.prefetched {
                    CacheLineState::PrefetchedUnused
                } else {
                    CacheLineState::Demand
                },
            }
        }
    }

    impl Reference {
        fn new(config: CacheConfig) -> Self {
            let (sets, ways) = (config.num_sets() as usize, config.associativity as usize);
            Self {
                block_bytes: config.block_bytes,
                sets: vec![vec![None; ways]; sets],
                recency: vec![Vec::new(); sets],
                touches: 0,
            }
        }

        /// The set of `addr`, its block address, and the way holding it.
        fn locate(&self, addr: u64) -> (usize, u64, Option<usize>) {
            let block = addr - addr % self.block_bytes;
            let set = (addr / self.block_bytes) as usize % self.sets.len();
            let way = self.sets[set]
                .iter()
                .position(|line| line.is_some_and(|line| line.block == block));
            (set, block, way)
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.recency[set].retain(|&w| w != way);
            self.recency[set].push(way);
            self.touches += 1;
        }

        fn replace(
            &mut self,
            set: usize,
            block: u64,
            dirty: bool,
            prefetched: bool,
        ) -> Option<EvictedLine> {
            let way = match self.sets[set].iter().position(Option::is_none) {
                Some(free) => free,
                None => self.recency[set][0],
            };
            let old = self.sets[set][way].replace(RefLine {
                block,
                dirty,
                prefetched,
            });
            self.touch(set, way);
            old.map(RefLine::departed)
        }

        fn access(&mut self, addr: u64, kind: AccessKind) -> AccessOutcome {
            match self.locate(addr) {
                (set, _, Some(way)) => {
                    let line = self.sets[set][way].as_mut().expect("located");
                    let was_prefetched = line.prefetched;
                    line.prefetched = false;
                    line.dirty |= kind.is_write();
                    self.touch(set, way);
                    let upgrade = kind.is_write() && was_prefetched;
                    AccessOutcome {
                        hit: !upgrade,
                        hit_on_prefetched: was_prefetched && !upgrade,
                        evicted: None,
                    }
                }
                (set, block, None) => AccessOutcome {
                    hit: false,
                    hit_on_prefetched: false,
                    evicted: self.replace(set, block, kind.is_write(), false),
                },
            }
        }

        fn prefetch_fill(&mut self, addr: u64) -> Option<Option<EvictedLine>> {
            match self.locate(addr) {
                (_, _, Some(_)) => None,
                (set, block, None) => Some(self.replace(set, block, false, true)),
            }
        }

        fn fill(&mut self, addr: u64, dirty: bool) -> Option<EvictedLine> {
            match self.locate(addr) {
                (set, _, Some(way)) => {
                    self.sets[set][way].as_mut().expect("located").dirty |= dirty;
                    self.touch(set, way);
                    None
                }
                (set, block, None) => self.replace(set, block, dirty, false),
            }
        }

        fn invalidate(&mut self, addr: u64) -> Option<EvictedLine> {
            let (set, _, way) = self.locate(addr);
            let way = way?;
            self.recency[set].retain(|&w| w != way);
            self.sets[set][way].take().map(RefLine::departed)
        }

        /// Every valid line's block and state, in way order.
        fn lines(&self) -> Vec<(u64, CacheLineState)> {
            let lines = self.sets.iter().flatten().flatten();
            lines
                .map(|line| (line.block, line.departed().state))
                .collect()
        }

        /// Applies operation `op` (see [`run`]) to `addr`.
        fn run(&mut self, op: u8, addr: u64) -> Outcome {
            match op {
                0 => Outcome::Access(self.access(addr, AccessKind::Read)),
                1 => Outcome::Access(self.access(addr, AccessKind::Write)),
                2 | 3 => Outcome::Prefetch(self.prefetch_fill(addr)),
                4 | 5 => Outcome::Departed(self.fill(addr, op == 5)),
                _ => Outcome::Departed(self.invalidate(addr)),
            }
        }
    }

    #[derive(Debug, PartialEq)]
    enum Outcome {
        Access(AccessOutcome),
        Prefetch(Option<Option<EvictedLine>>),
        Departed(Option<EvictedLine>),
    }

    /// Applies operation `op` to `addr`: a read, a write, a prefetch fill,
    /// a clean or a dirty fill, or an invalidation.
    fn run(cache: &mut SetAssocCache, op: u8, addr: u64) -> Outcome {
        match op {
            0 => Outcome::Access(cache.access(addr, AccessKind::Read)),
            1 => Outcome::Access(cache.access(addr, AccessKind::Write)),
            2 | 3 => Outcome::Prefetch(cache.prefetch_fill_absent(addr, &mut ())),
            4 | 5 => Outcome::Departed(cache.fill(addr, op == 5)),
            _ => Outcome::Departed(cache.invalidate(addr)),
        }
    }

    fn lines(cache: &SetAssocCache) -> Vec<(u64, CacheLineState)> {
        let blocks = cache.resident_blocks();
        blocks
            .map(|block| (block, cache.line_state(block).expect("resident")))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Every outcome, victim and line state matches the reference, from a
        /// new cache and from one whose clock reaches its limit halfway
        /// through the sequence and renumbers the stamps.
        #[test]
        fn matches_the_reference_model(
            (set_shift, ways, block_shift) in (0u32..5, 1u32..17, 6u32..12),
            ops in proptest::collection::vec((0u8..7, 0u64..1 << 20, 0u64..4096), 1..400),
        ) {
            let block_bytes = 1u64 << block_shift;
            let sets = 1u64 << set_shift;
            let config = CacheConfig::new(sets * u64::from(ways) * block_bytes, ways, block_bytes);
            let start = LRU - ops.len() as u32 / 2;
            let mut caches = [SetAssocCache::new(config), SetAssocCache::with_clock(config, start)];
            let mut reference = Reference::new(config);
            // Twice as many blocks as lines in each of two ranges far apart
            // in the address space, so every set overflows.
            let blocks = 2 * sets * u64::from(ways);
            for (step, &(op, block, byte)) in ops.iter().enumerate() {
                let high = if block & 1 == 0 { 0 } else { 1 << 40 };
                let addr = high + (block >> 1) % blocks * block_bytes + byte % block_bytes;
                let expected = reference.run(op, addr);
                for cache in &mut caches {
                    let context = format!("step {step}, op {op}, addr {addr:#x}, {config:?}");
                    prop_assert_eq!(run(cache, op, addr), expected, "{}", context);
                    prop_assert_eq!(lines(cache), reference.lines(), "{}", context);
                }
            }
            if reference.touches > ops.len() / 2 {
                prop_assert!(caches[1].tick < start, "the clock was renumbered");
            }
        }
    }
}
