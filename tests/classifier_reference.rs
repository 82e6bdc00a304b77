//! Differential test of `memsim::MissClassifier` against a naive reference.
//!
//! The reference is written straight from the classifier's documentation:
//! per processor, a `HashSet` of every block address it has cached and a
//! `HashMap` from each invalidated block to the address the remote writer
//! touched.  A miss to an invalidated block is true sharing when the writer
//! touched the same 64 B chunk and false sharing otherwise; any other miss
//! is cold the first time the processor caches the block and a replacement
//! miss after that.  Random sequences of `classify_miss`, `note_fill` and
//! `record_invalidation` drive both models, and every returned `MissKind`
//! must agree.

use memsim::{MissClassifier, MissKind};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

struct Reference {
    block_bytes: u64,
    seen: Vec<HashSet<u64>>,
    invalidated: Vec<HashMap<u64, u64>>,
}

impl Reference {
    fn new(cpus: usize, block_bytes: u64) -> Self {
        Self {
            block_bytes,
            seen: vec![HashSet::new(); cpus],
            invalidated: vec![HashMap::new(); cpus],
        }
    }

    fn block(&self, addr: u64) -> u64 {
        addr - addr % self.block_bytes
    }

    fn record_invalidation(&mut self, cpu: u8, addr: u64, written_addr: u64) {
        let block = self.block(addr);
        self.invalidated[cpu as usize].insert(block, written_addr);
    }

    fn classify_miss(&mut self, cpu: u8, addr: u64) -> MissKind {
        let block = self.block(addr);
        let first_time = self.seen[cpu as usize].insert(block);
        match self.invalidated[cpu as usize].remove(&block) {
            Some(written) if written / 64 == addr / 64 => MissKind::TrueSharing,
            Some(_) => MissKind::FalseSharing,
            None if first_time => MissKind::Cold,
            None => MissKind::Replacement,
        }
    }

    fn note_fill(&mut self, cpu: u8, addr: u64) {
        let block = self.block(addr);
        self.seen[cpu as usize].insert(block);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn miss_kinds_match_the_reference(
        (block_shift, cpus) in (6u32..14, 1u8..17),
        ops in proptest::collection::vec(
            (0u8..8, 0u8..16, 0u8..6, -130i64..130, 0u64..8192, 0u64..8192),
            1..700,
        ),
    ) {
        let block_bytes = 1u64 << block_shift;
        let mut classifier = MissClassifier::new(cpus as usize, block_bytes);
        let mut reference = Reference::new(cpus as usize, block_bytes);
        for (step, &(op, cpu, anchor, blocks, byte, written_byte)) in ops.iter().enumerate() {
            let cpu = cpu % cpus;
            let addr = clustered_addr(block_bytes, anchor, blocks, byte);
            match op {
                0..=3 => {
                    let kind = classifier.classify_miss(cpu, addr);
                    prop_assert_eq!(
                        kind,
                        reference.classify_miss(cpu, addr),
                        "step {} cpu {} addr {:#x} block {} B",
                        step,
                        cpu,
                        addr,
                        block_bytes
                    );
                }
                4 | 5 => {
                    classifier.note_fill(cpu, addr);
                    reference.note_fill(cpu, addr);
                }
                _ => {
                    // The writer touched some byte of the same block.
                    let written = (addr & !(block_bytes - 1)) + written_byte % block_bytes;
                    classifier.record_invalidation(cpu, addr, written);
                    reference.record_invalidation(cpu, addr, written);
                }
            }
        }
    }
}
