//! Differential test of `memsim::MissAccounting` against a naive reference.
//!
//! The reference is written straight from the classification's
//! documentation, once per cache level: per processor, a `HashSet` of every
//! block address it has cached and a `HashMap` from each invalidated block
//! to the address the remote writer touched.  A read miss to an invalidated
//! block is true sharing when the writer touched the same 64 B chunk and
//! false sharing otherwise; any other read miss is cold the first time the
//! processor caches the block and a replacement miss after that.  A write
//! miss only marks the block cached.  Random sequences of `on_access` (reads
//! and writes missing in the L1, off chip, both or neither) and
//! `on_invalidation` drive both models, with equal and with unequal L1 and
//! L2 block sizes; every returned `MissKind` and both breakdowns must agree.

use memsim::{CacheConfig, HierarchyConfig, MissAccounting, MissBreakdown, MissKind};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use trace::MemAccess;

/// One level's history.
struct Level {
    block_bytes: u64,
    seen: Vec<HashSet<u64>>,
    invalidated: Vec<HashMap<u64, u64>>,
    breakdown: MissBreakdown,
}

impl Level {
    fn new(cpus: usize, block_bytes: u64) -> Self {
        Self {
            block_bytes,
            seen: vec![HashSet::new(); cpus],
            invalidated: vec![HashMap::new(); cpus],
            breakdown: MissBreakdown::default(),
        }
    }

    fn block(&self, addr: u64) -> u64 {
        addr - addr % self.block_bytes
    }

    fn invalidate(&mut self, cpu: u8, written_addr: u64) {
        let block = self.block(written_addr);
        self.invalidated[cpu as usize].insert(block, written_addr);
    }

    /// A miss by `cpu` to `addr`: classified if it is a read.
    fn miss(&mut self, cpu: u8, addr: u64, read: bool) -> Option<MissKind> {
        let block = self.block(addr);
        let first_time = self.seen[cpu as usize].insert(block);
        if !read {
            return None;
        }
        let kind = match self.invalidated[cpu as usize].remove(&block) {
            Some(written) if written / 64 == addr / 64 => MissKind::TrueSharing,
            Some(_) => MissKind::FalseSharing,
            None if first_time => MissKind::Cold,
            None => MissKind::Replacement,
        };
        self.breakdown.record(kind);
        Some(kind)
    }
}

/// An address clustered around one of a few anchors: the starts of 64-block
/// groups 0, 1 and 8, a mid-range address, the start of the last group and
/// the last byte of the address space.  `blocks` moves up to two groups
/// either way (wrapping past zero and `u64::MAX`), and `byte` picks the byte
/// within the block.
fn clustered_addr(block_bytes: u64, anchor: u8, blocks: i64, byte: u64) -> u64 {
    let group_bytes = 64 * block_bytes;
    let base = match anchor {
        0 => 0,
        1 => group_bytes,
        2 => 8 * group_bytes,
        3 => 1 << 40,
        4 => !(group_bytes - 1),
        _ => u64::MAX,
    };
    let block = base & !(block_bytes - 1);
    block.wrapping_add_signed(blocks.wrapping_mul(block_bytes as i64)) + byte % block_bytes
}

/// A hierarchy of four 2-way sets per level with the given block sizes.
fn hierarchy(l1_block: u64, l2_block: u64) -> HierarchyConfig {
    HierarchyConfig {
        l1: CacheConfig::new(8 * l1_block, 2, l1_block),
        l2: CacheConfig::new(8 * l2_block, 2, l2_block),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn miss_kinds_match_the_reference(
        (l1_shift, l2_shift, equal, cpus) in (6u32..14, 6u32..14, proptest::bool::weighted(0.5), 1u8..17),
        ops in proptest::collection::vec(
            (0u8..10, 0u8..16, 0u8..6, -130i64..130, 0u64..8192, 0u64..8192),
            1..700,
        ),
    ) {
        let l2_shift = if equal { l1_shift } else { l2_shift };
        let (l1_block, l2_block) = (1u64 << l1_shift, 1u64 << l2_shift);
        let mut accounting = MissAccounting::new(cpus as usize, &hierarchy(l1_block, l2_block));
        let mut l1 = Level::new(cpus as usize, l1_block);
        let mut l2 = Level::new(cpus as usize, l2_block);
        // The smaller block size picks addresses, so both levels see blocks
        // shared and blocks split between groups.
        let block_bytes = l1_block.min(l2_block);
        for (step, &(op, cpu, anchor, blocks, byte, written_byte)) in ops.iter().enumerate() {
            let cpu = cpu % cpus;
            let addr = clustered_addr(block_bytes, anchor, blocks, byte);
            if op < 8 {
                // Reads and writes, each missing in the L1, off chip (which
                // implies the L1 too in a real run, but need not here),
                // both or neither.
                let (read, l1_miss, offchip) = (op & 1 == 0, op & 2 != 0, op & 4 != 0);
                let access = if read {
                    MemAccess::read(cpu, 0x400, addr)
                } else {
                    MemAccess::write(cpu, 0x400, addr)
                };
                let expected = (
                    l1_miss.then(|| l1.miss(cpu, addr, read)).flatten(),
                    offchip.then(|| l2.miss(cpu, addr, read)).flatten(),
                );
                prop_assert_eq!(
                    accounting.on_access(&access, l1_miss, offchip),
                    expected,
                    "step {} cpu {} addr {:#x} blocks {}/{} B",
                    step,
                    cpu,
                    addr,
                    l1_block,
                    l2_block
                );
            } else {
                // The writer touched some byte of the block at the smaller
                // size.
                let written = (addr & !(block_bytes - 1)) + written_byte % block_bytes;
                accounting.on_invalidation(cpu, written);
                l1.invalidate(cpu, written);
                l2.invalidate(cpu, written);
            }
        }
        prop_assert_eq!(accounting.l1_breakdown(), &l1.breakdown);
        prop_assert_eq!(accounting.l2_breakdown(), &l2.breakdown);
    }
}
