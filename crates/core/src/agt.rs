//! The Active Generation Table (AGT): filter table + accumulation table.
//!
//! The AGT observes every L1 data access and records which blocks are touched
//! over the course of each spatial region generation (Figure 2 of the paper):
//!
//! 1. a **trigger access** to a region with no live generation allocates an
//!    entry in the *filter table*, recording the trigger PC and offset;
//! 2. when a second, *distinct* block of the region is accessed, the entry
//!    moves to the *accumulation table* and a pattern bit-vector starts
//!    accumulating;
//! 3. further accesses set bits in the accumulated pattern;
//! 4. when any block of the region is evicted or invalidated, the generation
//!    ends: a filter-table entry is simply discarded (only the trigger was
//!    accessed, so there is nothing worth predicting), while an
//!    accumulation-table entry is handed to the pattern history table.
//!
//! Both tables are small content-addressable memories; when one fills up a
//! victim generation is terminated early (dropped from the filter table, or
//! transferred to the PHT from the accumulation table).
//!
//! # Layout
//!
//! A region lives in at most one of the two tables: a trigger allocates in
//! the filter table only when the region is in neither, and a promotion
//! removes the region from the filter table before it inserts it into the
//! accumulation table.  So one index, a [`FastMap`] from region base to the
//! generation's table and position, finds a region's generation with one
//! probe, on every access and on every `end_generation`.
//!
//! Both tables share one dense storage type, bounded or unbounded: live
//! generations fill positions `0..len` of a generation column and a parallel
//! LRU-tick column, and a removal `swap_remove`s both and re-points the
//! index at the generation it moved.  Results do not depend on that layout:
//!
//! * position order is insignificant: lookups go through the index, and
//!   [`drain`](ActiveGenerationTable::drain) sorts by region base;
//! * a capacity victim is the unique minimum LRU tick of its table (ticks
//!   are unique), and it is scanned for only when inserting into a full
//!   table, so a capacity of 0 acts as a capacity of 1.

use crate::pattern::SpatialPattern;
use crate::region::RegionConfig;
use memsim::FastMap;
use serde::{Deserialize, Serialize};
use trace::Pc;

/// Capacities of the two AGT tables.  `None` models an unbounded table for
/// limit studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgtConfig {
    /// Filter-table entries (paper default: 32).
    pub filter_entries: Option<usize>,
    /// Accumulation-table entries (paper default: 64).
    pub accumulation_entries: Option<usize>,
}

impl AgtConfig {
    /// The practical configuration from Section 4.5: 32 filter entries and
    /// 64 accumulation entries.
    pub fn paper_default() -> Self {
        Self {
            filter_entries: Some(32),
            accumulation_entries: Some(64),
        }
    }

    /// Unbounded tables, for limit studies.
    pub fn unbounded() -> Self {
        Self {
            filter_entries: None,
            accumulation_entries: None,
        }
    }
}

impl Default for AgtConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A completed (or early-terminated) generation ready to train the PHT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrainedPattern {
    /// Base address of the spatial region.
    pub region_base: u64,
    /// PC of the generation's trigger access.
    pub trigger_pc: Pc,
    /// Block offset of the trigger access within the region.
    pub trigger_offset: u32,
    /// Blocks accessed during the generation (trigger included).
    pub pattern: SpatialPattern,
}

/// Result of recording one access in the AGT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordOutcome {
    /// Whether this access was the trigger of a new generation.
    pub is_trigger: bool,
    /// A generation terminated early because the accumulation table was full
    /// and needed a victim; it should still train the PHT.
    pub spilled: Option<TrainedPattern>,
}

/// The two tables a live generation can sit in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableId {
    Filter,
    Accumulation,
}

/// Where a live generation sits: its table and its position there.
#[derive(Debug, Clone, Copy)]
struct Slot {
    table: TableId,
    pos: usize,
}

/// Dense storage of one table's live generations.  A filter-table
/// generation's pattern holds only its trigger block.
#[derive(Debug, Clone)]
struct Table {
    /// Capacity; `usize::MAX` for an unbounded table.
    cap: usize,
    generations: Vec<TrainedPattern>,
    lru: Vec<u64>,
}

impl Table {
    fn new(cap: Option<usize>) -> Self {
        Self {
            cap: cap.unwrap_or(usize::MAX),
            generations: Vec::new(),
            lru: Vec::new(),
        }
    }

    /// Position of the least-recently-used generation if the table is full.
    fn victim(&self) -> Option<usize> {
        if self.generations.len() < self.cap {
            return None;
        }
        let (pos, _) = self.lru.iter().enumerate().min_by_key(|&(_, &tick)| tick)?;
        Some(pos)
    }
}

/// The Active Generation Table.
#[derive(Debug, Clone)]
pub struct ActiveGenerationTable {
    region: RegionConfig,
    /// `region.blocks_per_region()`, computed once.
    blocks: u32,
    /// Table and position of every live generation, by region base.
    index: FastMap<u64, Slot>,
    filter: Table,
    accumulation: Table,
    tick: u64,
}

impl ActiveGenerationTable {
    /// Creates an empty AGT.
    pub fn new(region: RegionConfig, config: AgtConfig) -> Self {
        Self {
            region,
            blocks: region.blocks_per_region(),
            index: FastMap::default(),
            filter: Table::new(config.filter_entries),
            accumulation: Table::new(config.accumulation_entries),
            tick: 0,
        }
    }

    /// The region geometry the AGT tracks.
    pub fn region(&self) -> &RegionConfig {
        &self.region
    }

    /// Number of live generations currently tracked (both tables).
    pub fn live_generations(&self) -> usize {
        self.index.len()
    }

    /// Records a demand access to `addr` issued by instruction `pc`.
    pub fn record_access(&mut self, addr: u64, pc: Pc) -> RecordOutcome {
        self.tick += 1;
        let base = self.region.region_base(addr);
        let offset = self.region.region_offset(addr);
        let mut outcome = RecordOutcome {
            is_trigger: false,
            spilled: None,
        };
        match self.index.get(&base).copied() {
            // Step 3: accesses to regions already accumulating set pattern
            // bits.
            Some(Slot {
                table: TableId::Accumulation,
                pos,
            }) => {
                self.accumulation.generations[pos].pattern.set(offset);
                self.accumulation.lru[pos] = self.tick;
            }
            // The trigger block again: the generation stays in the filter.
            Some(Slot {
                table: TableId::Filter,
                pos,
            }) if self.filter.generations[pos].trigger_offset == offset => {
                self.filter.lru[pos] = self.tick;
            }
            // Step 2: a second distinct block moves the generation from the
            // filter table to the accumulation table.
            Some(slot) => {
                let mut generation = self.remove(slot);
                generation.pattern.set(offset);
                outcome.spilled = self.insert(TableId::Accumulation, generation);
            }
            // Step 1: trigger access allocates in the filter table; a
            // filter victim had only its trigger, so it is simply dropped.
            None => {
                let mut pattern = SpatialPattern::new(self.blocks);
                pattern.set(offset);
                self.insert(
                    TableId::Filter,
                    TrainedPattern {
                        region_base: base,
                        trigger_pc: pc,
                        trigger_offset: offset,
                        pattern,
                    },
                );
                outcome.is_trigger = true;
            }
        }
        outcome
    }

    /// Ends the generation (if any) covering the region that contains
    /// `block_addr`, due to an eviction or invalidation of that block.
    ///
    /// Returns the trained pattern when the ended generation had accumulated
    /// two or more blocks; generations still in the filter table are
    /// discarded and return `None`.
    pub fn end_generation(&mut self, block_addr: u64) -> Option<TrainedPattern> {
        let slot = self.index.remove(&self.region.region_base(block_addr))?;
        let ended = self.remove(slot);
        (slot.table == TableId::Accumulation).then_some(ended)
    }

    /// Ends every live generation, returning the accumulated patterns (used
    /// at the end of a trace so partially-observed generations still train).
    pub fn drain(&mut self) -> Vec<TrainedPattern> {
        self.index.clear();
        self.filter.generations.clear();
        self.filter.lru.clear();
        self.accumulation.lru.clear();
        let mut out: Vec<TrainedPattern> = self.accumulation.generations.drain(..).collect();
        out.sort_by_key(|t| t.region_base);
        out
    }

    fn table_mut(&mut self, table: TableId) -> &mut Table {
        match table {
            TableId::Filter => &mut self.filter,
            TableId::Accumulation => &mut self.accumulation,
        }
    }

    /// Removes the generation at `slot` and re-points the index at the one
    /// `swap_remove` moves into its place.  The removed generation's own
    /// index entry is the caller's to drop or overwrite.
    fn remove(&mut self, slot: Slot) -> TrainedPattern {
        let table = self.table_mut(slot.table);
        table.lru.swap_remove(slot.pos);
        let removed = table.generations.swap_remove(slot.pos);
        if let Some(moved) = table.generations.get(slot.pos).map(|g| g.region_base) {
            *self
                .index
                .get_mut(&moved)
                .expect("every live generation is indexed") = slot;
        }
        removed
    }

    /// Adds `generation` to `table` and indexes it.  In a full table the
    /// least-recently-used generation leaves first and is returned; the new
    /// one takes its position, which saves the `swap_remove` a removal makes.
    fn insert(&mut self, table: TableId, generation: TrainedPattern) -> Option<TrainedPattern> {
        let base = generation.region_base;
        let tick = self.tick;
        let store = self.table_mut(table);
        let (pos, victim) = match store.victim() {
            Some(pos) => {
                store.lru[pos] = tick;
                let victim = std::mem::replace(&mut store.generations[pos], generation);
                (pos, Some(victim))
            }
            None => {
                store.lru.push(tick);
                store.generations.push(generation);
                (store.generations.len() - 1, None)
            }
        };
        if let Some(victim) = &victim {
            self.index.remove(&victim.region_base);
        }
        self.index.insert(base, Slot { table, pos });
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agt() -> ActiveGenerationTable {
        ActiveGenerationTable::new(RegionConfig::paper_default(), AgtConfig::unbounded())
    }

    #[test]
    fn figure2_example_sequence() {
        // Access A+3 (trigger), A+2, A+0, then evict A+2: pattern 1011
        // (offsets 0,1 unset/set per the figure's little-endian drawing; here
        // we check offsets {0, 2, 3}).
        let mut agt = agt();
        let base = 0x10_0000u64;
        let pc = 0x4000;
        let out = agt.record_access(base + 3 * 64, pc);
        assert!(out.is_trigger);
        let out = agt.record_access(base + 2 * 64, pc + 8);
        assert!(!out.is_trigger);
        agt.record_access(base, pc + 16);
        let trained = agt.end_generation(base + 2 * 64).expect("generation ends");
        assert_eq!(trained.trigger_pc, pc);
        assert_eq!(trained.trigger_offset, 3);
        assert_eq!(trained.region_base, base);
        assert_eq!(
            trained.pattern.iter_set().collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
    }

    #[test]
    fn single_access_generations_are_discarded() {
        let mut agt = agt();
        let base = 0x20_0000u64;
        agt.record_access(base + 64, 0x4000);
        assert!(agt.end_generation(base + 64).is_none());
        assert_eq!(agt.live_generations(), 0);
    }

    #[test]
    fn repeated_trigger_block_access_stays_in_filter() {
        let mut agt = agt();
        let base = 0x30_0000u64;
        agt.record_access(base + 5 * 64, 0x4000);
        agt.record_access(base + 5 * 64 + 8, 0x4004); // same block
        assert_eq!(agt.live_generations(), 1);
        // Still only a trigger: discarded on eviction.
        assert!(agt.end_generation(base + 5 * 64).is_none());
    }

    #[test]
    fn eviction_of_unaccessed_block_in_region_still_ends_generation() {
        // The paper ends a generation when any block of the region departs.
        let mut agt = agt();
        let base = 0x40_0000u64;
        agt.record_access(base, 0x4000);
        agt.record_access(base + 64, 0x4000);
        let trained = agt.end_generation(base + 10 * 64);
        assert!(trained.is_some());
    }

    #[test]
    fn filter_capacity_drops_oldest() {
        let mut agt = ActiveGenerationTable::new(
            RegionConfig::paper_default(),
            AgtConfig {
                filter_entries: Some(2),
                accumulation_entries: Some(2),
            },
        );
        agt.record_access(0x10_0000, 1);
        agt.record_access(0x20_0000, 2);
        agt.record_access(0x30_0000, 3); // evicts region 0x10_0000 from filter
        assert_eq!(agt.live_generations(), 2);
        // The dropped generation no longer trains.
        assert!(agt.end_generation(0x10_0000).is_none());
        assert!(agt.end_generation(0x20_0000).is_none()); // still filter-only
    }

    #[test]
    fn accumulation_capacity_spills_to_pht() {
        let mut agt = ActiveGenerationTable::new(
            RegionConfig::paper_default(),
            AgtConfig {
                filter_entries: Some(8),
                accumulation_entries: Some(1),
            },
        );
        // Region A reaches the accumulation table.
        agt.record_access(0x10_0000, 1);
        agt.record_access(0x10_0040, 1);
        // Region B also needs the accumulation table; A spills out.
        agt.record_access(0x20_0000, 2);
        let out = agt.record_access(0x20_0040, 2);
        let spilled = out.spilled.expect("capacity victim must spill");
        assert_eq!(spilled.region_base, 0x10_0000);
        assert_eq!(spilled.pattern.count(), 2);
    }

    #[test]
    fn drain_returns_accumulated_generations_only() {
        let mut agt = agt();
        agt.record_access(0x10_0000, 1); // filter only
        agt.record_access(0x20_0000, 2);
        agt.record_access(0x20_0080, 2);
        let drained = agt.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].region_base, 0x20_0000);
        assert_eq!(agt.live_generations(), 0);
    }

    #[test]
    fn new_generation_can_start_after_end() {
        let mut agt = agt();
        let base = 0x50_0000u64;
        agt.record_access(base, 0x4000);
        agt.record_access(base + 64, 0x4000);
        agt.end_generation(base);
        let out = agt.record_access(base + 128, 0x5000);
        assert!(
            out.is_trigger,
            "a fresh access after the end starts a new generation"
        );
    }
}
