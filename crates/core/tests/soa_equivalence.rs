//! Property-based equivalence of the AGT, the PHT and the prediction
//! registers against reference implementations.
//!
//! The hot-path storage of these structures (the AGT's single region index
//! over dense generation columns, the bounded PHT's slot columns, the
//! register file's live count and compare-and-wrap cursor) is meant to be
//! behaviorally identical by construction: same lookups, same LRU victims
//! (ticks are unique, so the minimum is unambiguous), same `TrainedPattern`
//! sequences, same stream requests in the same order.  These suites drive
//! each implementation and its reference with the same random operation
//! streams and demand bit-exact agreement on every externally visible
//! output — a divergent eviction victim or cursor position anywhere would
//! surface as a mismatched outcome on a later operation.

use proptest::prelude::*;
use sms::agt::{ActiveGenerationTable, AgtConfig, RecordOutcome, TrainedPattern};
use sms::pattern::SpatialPattern;
use sms::pht::{PatternHistoryTable, PhtCapacity};
use sms::region::RegionConfig;
use sms::streamer::{PredictionRegisterFile, StreamerConfig};
use std::collections::HashMap;
use trace::Pc;

// ---------------------------------------------------------------------------
// Reference AGT: two map-backed tables, each looked up on its own.
// ---------------------------------------------------------------------------

struct RefFilterEntry {
    trigger_pc: Pc,
    trigger_offset: u32,
    lru: u64,
}

struct RefAccumEntry {
    trigger_pc: Pc,
    trigger_offset: u32,
    pattern: SpatialPattern,
    lru: u64,
}

struct RefAgt {
    region: RegionConfig,
    config: AgtConfig,
    filter: HashMap<u64, RefFilterEntry>,
    accumulation: HashMap<u64, RefAccumEntry>,
    tick: u64,
}

impl RefAgt {
    fn new(region: RegionConfig, config: AgtConfig) -> Self {
        Self {
            region,
            config,
            filter: HashMap::new(),
            accumulation: HashMap::new(),
            tick: 0,
        }
    }

    fn live_generations(&self) -> usize {
        self.filter.len() + self.accumulation.len()
    }

    fn record_access(&mut self, addr: u64, pc: Pc) -> RecordOutcome {
        self.tick += 1;
        let base = self.region.region_base(addr);
        let offset = self.region.region_offset(addr);
        if let Some(entry) = self.accumulation.get_mut(&base) {
            entry.pattern.set(offset);
            entry.lru = self.tick;
            return RecordOutcome {
                is_trigger: false,
                spilled: None,
            };
        }
        if let Some(entry) = self.filter.get_mut(&base) {
            if entry.trigger_offset == offset {
                entry.lru = self.tick;
                return RecordOutcome {
                    is_trigger: false,
                    spilled: None,
                };
            }
            let fe = self.filter.remove(&base).expect("just found");
            let mut pattern = SpatialPattern::new(self.region.blocks_per_region());
            pattern.set(fe.trigger_offset);
            pattern.set(offset);
            let spilled = self.insert_accumulation(
                base,
                RefAccumEntry {
                    trigger_pc: fe.trigger_pc,
                    trigger_offset: fe.trigger_offset,
                    pattern,
                    lru: self.tick,
                },
            );
            return RecordOutcome {
                is_trigger: false,
                spilled,
            };
        }
        if let Some(cap) = self.config.filter_entries {
            if self.filter.len() >= cap {
                if let Some((&victim, _)) = self.filter.iter().min_by_key(|(_, e)| e.lru) {
                    self.filter.remove(&victim);
                }
            }
        }
        self.filter.insert(
            base,
            RefFilterEntry {
                trigger_pc: pc,
                trigger_offset: offset,
                lru: self.tick,
            },
        );
        RecordOutcome {
            is_trigger: true,
            spilled: None,
        }
    }

    fn insert_accumulation(&mut self, base: u64, entry: RefAccumEntry) -> Option<TrainedPattern> {
        let mut spilled = None;
        if let Some(cap) = self.config.accumulation_entries {
            if self.accumulation.len() >= cap {
                if let Some((&victim, _)) = self.accumulation.iter().min_by_key(|(_, e)| e.lru) {
                    let e = self.accumulation.remove(&victim).expect("victim found");
                    spilled = Some(TrainedPattern {
                        region_base: victim,
                        trigger_pc: e.trigger_pc,
                        trigger_offset: e.trigger_offset,
                        pattern: e.pattern,
                    });
                }
            }
        }
        self.accumulation.insert(base, entry);
        spilled
    }

    fn end_generation(&mut self, block_addr: u64) -> Option<TrainedPattern> {
        let base = self.region.region_base(block_addr);
        if self.filter.remove(&base).is_some() {
            return None;
        }
        self.accumulation.remove(&base).map(|e| TrainedPattern {
            region_base: base,
            trigger_pc: e.trigger_pc,
            trigger_offset: e.trigger_offset,
            pattern: e.pattern,
        })
    }

    fn drain(&mut self) -> Vec<TrainedPattern> {
        self.filter.clear();
        let mut out: Vec<TrainedPattern> = self
            .accumulation
            .drain()
            .map(|(base, e)| TrainedPattern {
                region_base: base,
                trigger_pc: e.trigger_pc,
                trigger_offset: e.trigger_offset,
                pattern: e.pattern,
            })
            .collect();
        out.sort_by_key(|t| t.region_base);
        out
    }
}

/// Drives both AGTs with the same op stream and asserts bit-exact agreement
/// on every outcome.  Ops: `(region index, block offset, pc, op selector)`.
fn check_agt_equivalence(config: AgtConfig, ops: &[(u8, u8, u8, u8)]) {
    // Small 8-block regions force frequent same-region traffic and spills.
    let region = RegionConfig::new(512, 64);
    let mut soa = ActiveGenerationTable::new(region, config);
    let mut reference = RefAgt::new(region, config);
    for (step, &(region_idx, block, pc, op)) in ops.iter().enumerate() {
        let addr = u64::from(region_idx) * 512 + u64::from(block % 8) * 64;
        match op {
            // Mostly accesses; occasional generation ends and mid-stream
            // drains exercise removal and the full-drain path.
            0..=15 => {
                let got = soa.record_access(addr, Pc::from(pc));
                let want = reference.record_access(addr, Pc::from(pc));
                assert_eq!(got, want, "record_access diverged at step {step}");
            }
            16..=18 => {
                let got = soa.end_generation(addr);
                let want = reference.end_generation(addr);
                assert_eq!(got, want, "end_generation diverged at step {step}");
            }
            _ => {
                assert_eq!(soa.drain(), reference.drain(), "drain diverged at {step}");
            }
        }
        assert_eq!(
            soa.live_generations(),
            reference.live_generations(),
            "live generation count diverged at step {step}"
        );
    }
    assert_eq!(soa.drain(), reference.drain(), "final drain diverged");
}

// ---------------------------------------------------------------------------
// Reference PHT: per-set vectors with explicit key-match / free-way / LRU
// eviction resolution.
// ---------------------------------------------------------------------------

struct RefPht {
    sets: Vec<Vec<(u64, SpatialPattern, u64)>>,
    associativity: usize,
    tick: u64,
}

impl RefPht {
    fn new(entries: usize, associativity: usize) -> Self {
        Self {
            sets: vec![Vec::new(); entries / associativity],
            associativity,
            tick: 0,
        }
    }

    fn insert(&mut self, key: u64, pattern: SpatialPattern) {
        self.tick += 1;
        let tick = self.tick;
        let num_sets = self.sets.len();
        let set = &mut self.sets[(key as usize) % num_sets];
        if let Some(way) = set.iter_mut().find(|(k, _, _)| *k == key) {
            *way = (key, pattern, tick);
            return;
        }
        if set.len() < self.associativity {
            set.push((key, pattern, tick));
            return;
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, _, lru))| *lru)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        set[victim] = (key, pattern, tick);
    }

    fn lookup(&mut self, key: u64) -> Option<SpatialPattern> {
        self.tick += 1;
        let tick = self.tick;
        let num_sets = self.sets.len();
        let way = self.sets[(key as usize) % num_sets]
            .iter_mut()
            .find(|(k, _, _)| *k == key)?;
        way.2 = tick;
        Some(way.1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn check_pht_equivalence(entries: usize, associativity: usize, ops: &[(u8, bool, u8)]) {
    let capacity = PhtCapacity::Bounded {
        entries,
        associativity,
    };
    let mut soa = PatternHistoryTable::new(capacity, 32);
    let mut reference = RefPht::new(entries, associativity);
    for (step, &(key, is_insert, offset)) in ops.iter().enumerate() {
        // A small key universe hammers each set well past its associativity.
        let key = u64::from(key % 32);
        if is_insert {
            let pattern = SpatialPattern::from_offsets(32, &[u32::from(offset % 32)]);
            soa.insert(key, pattern);
            reference.insert(key, pattern);
        } else {
            assert_eq!(
                soa.lookup(key),
                reference.lookup(key),
                "lookup diverged at step {step}"
            );
        }
        assert_eq!(soa.len(), reference.len(), "len diverged at step {step}");
    }
    // Sweep the key universe once at the end: surviving residents (and
    // thus every eviction decision along the way) must match exactly.
    for key in 0..32u64 {
        assert_eq!(
            soa.lookup(key),
            reference.lookup(key),
            "final residency of key {key} diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Reference prediction-register file: a verbatim copy of the implementation
// that scanned for a live register, advanced its cursor with `% n` and lapped
// every empty slot before giving up.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct RefRegister {
    region_base: u64,
    pattern: SpatialPattern,
    allocated_at: u64,
}

struct RefRegisterFile {
    region: RegionConfig,
    config: StreamerConfig,
    registers: Vec<Option<RefRegister>>,
    cursor: usize,
    tick: u64,
    dropped_allocations: u64,
}

impl RefRegisterFile {
    fn new(region: RegionConfig, config: StreamerConfig) -> Self {
        Self {
            region,
            config,
            registers: vec![None; config.registers],
            cursor: 0,
            tick: 0,
            dropped_allocations: 0,
        }
    }

    fn allocate(&mut self, region_base: u64, pattern: SpatialPattern) {
        self.tick += 1;
        if pattern.is_empty() {
            return;
        }
        let slot = self
            .registers
            .iter()
            .position(|r| r.as_ref().is_some_and(|r| r.region_base == region_base))
            .or_else(|| self.registers.iter().position(|r| r.is_none()));
        let slot = match slot {
            Some(s) => s,
            None => {
                self.dropped_allocations += 1;
                self.registers
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.as_ref().map(|r| r.allocated_at).unwrap_or(0))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        };
        self.registers[slot] = Some(RefRegister {
            region_base,
            pattern,
            allocated_at: self.tick,
        });
    }

    fn drain_default_into(&mut self, out: &mut Vec<u64>) {
        self.drain_into(self.config.requests_per_access, out);
    }

    fn drain_into(&mut self, max_requests: usize, out: &mut Vec<u64>) {
        if self.registers.iter().all(|r| r.is_none()) {
            return;
        }
        let issued_before = out.len();
        let n = self.registers.len();
        let mut scanned_without_progress = 0;
        while out.len() - issued_before < max_requests && scanned_without_progress < n {
            let idx = self.cursor;
            self.cursor = (self.cursor + 1) % n;
            let next_offset = match self.registers[idx].as_ref() {
                Some(reg) => reg.pattern.first_set(),
                None => {
                    scanned_without_progress += 1;
                    continue;
                }
            };
            match next_offset {
                Some(offset) => {
                    let reg = self.registers[idx]
                        .as_mut()
                        .expect("register checked above");
                    reg.pattern.clear(offset);
                    out.push(self.region.block_at(reg.region_base, offset));
                    if reg.pattern.is_empty() {
                        self.registers[idx] = None;
                    }
                    scanned_without_progress = 0;
                }
                None => {
                    self.registers[idx] = None;
                    scanned_without_progress += 1;
                }
            }
        }
    }

    fn active_registers(&self) -> usize {
        self.registers.iter().filter(|r| r.is_some()).count()
    }
}

/// Drives both register files with the same op stream and asserts that they
/// issue the same blocks in the same order.  Ops: `(op selector, region
/// index, pattern bits, pattern density, drain budget)`.
fn check_streamer_equivalence(config: StreamerConfig, ops: &[(u8, u8, u32, u8, usize)]) {
    let region = RegionConfig::paper_default();
    let mut file = PredictionRegisterFile::new(region, config);
    let mut reference = RefRegisterFile::new(region, config);
    for (step, &(op, region_idx, bits, density, budget)) in ops.iter().enumerate() {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        match op {
            // Allocations name few enough regions that a same-region reuse
            // and a full-file replacement both happen; density 0 allocates
            // an empty pattern, and sparse patterns empty registers often.
            0..=3 => {
                let bits = match density {
                    0 => 0,
                    1 => bits & (bits >> 8) & (bits >> 16),
                    2 => bits & (bits >> 5),
                    _ => bits,
                };
                let offsets: Vec<u32> = (0..32).filter(|o| bits >> o & 1 == 1).collect();
                let pattern = SpatialPattern::from_offsets(32, &offsets);
                let base = 0x10_0000 + u64::from(region_idx) * 2048;
                file.allocate(base, pattern);
                reference.allocate(base, pattern);
            }
            4..=6 => {
                got = file.drain_up_to(budget);
                reference.drain_into(budget, &mut want);
            }
            _ => {
                file.drain_default_into(&mut got);
                reference.drain_default_into(&mut want);
            }
        }
        assert_eq!(got, want, "issued blocks diverged at step {step}");
        assert_eq!(
            file.active_registers(),
            reference.active_registers(),
            "active registers diverged at step {step}"
        );
        assert_eq!(
            file.dropped_allocations(),
            reference.dropped_allocations,
            "dropped allocations diverged at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn soa_agt_matches_reference_at_paper_capacity(
        ops in proptest::collection::vec((0u8..24, 0u8..8, 1u8..16, 0u8..20), 0..400),
    ) {
        // 24 regions against 32/64 capacity: fills but rarely overflows.
        check_agt_equivalence(AgtConfig::paper_default(), &ops);
    }

    #[test]
    fn soa_agt_matches_reference_under_eviction_pressure(
        ops in proptest::collection::vec((0u8..32, 0u8..8, 1u8..16, 0u8..20), 0..400),
        filter_cap in 0usize..5,
        accum_cap in 0usize..5,
    ) {
        // Tiny tables: nearly every insert victimizes, pinning LRU choice.
        // A capacity of 0 holds one generation, as the reference's does.
        let config = AgtConfig {
            filter_entries: Some(filter_cap),
            accumulation_entries: Some(accum_cap),
        };
        check_agt_equivalence(config, &ops);
    }

    #[test]
    fn unbounded_agt_fallback_matches_reference(
        ops in proptest::collection::vec((0u8..16, 0u8..8, 1u8..16, 0u8..20), 0..300),
    ) {
        check_agt_equivalence(AgtConfig::unbounded(), &ops);
    }

    #[test]
    fn soa_pht_matches_reference(
        ops in proptest::collection::vec((0u8..255, proptest::bool::weighted(0.6), 0u8..255), 0..400),
    ) {
        // 4 sets x 2 ways and 2 sets x 4 ways, both under heavy conflict.
        check_pht_equivalence(8, 2, &ops);
        check_pht_equivalence(8, 4, &ops);
    }

    #[test]
    fn prediction_registers_match_reference(
        ops in proptest::collection::vec((0u8..10, 0u8..24, 0u32..=u32::MAX, 0u8..4, 0usize..=8), 0..300),
        registers in 1usize..=20,
        requests_per_access in 0usize..=8,
    ) {
        let config = StreamerConfig {
            registers,
            requests_per_access,
        };
        check_streamer_equivalence(config, &ops);
    }
}
