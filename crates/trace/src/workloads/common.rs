//! Building blocks shared by all workload generators.
//!
//! The central abstraction is the [`PatternLibrary`]: for every code path
//! (program counter) it holds a small set of *canonical spatial patterns* —
//! lists of cache-block offsets within a spatial region that the code path
//! touches together.  Emitting an instance of a canonical pattern at a fresh
//! or revisited region base produces exactly the kind of code-correlated
//! spatial repetition the paper observes in commercial workloads: the same
//! code fragment touching the same relative layout in many different regions.
//!
//! Individual workloads differ in
//! * how many code paths and variants they have (pattern entropy),
//! * how dense the patterns are,
//! * how often regions are revisited (address reuse) versus visited once,
//! * how much noise perturbs each emission, and
//! * how much of the data is shared and written.

use crate::access::{AccessKind, MemAccess, Pc};
use crate::rng::{coin, stream_rng};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Size in bytes of a primary cache block; fixed at 64 B as in the paper.
pub const BLOCK_BYTES: u64 = 64;

/// A named code path with a stable program counter.
///
/// Real applications issue each logical operation ("read page header",
/// "probe hash bucket") from a handful of static load/store instructions; a
/// `CodePath` stands for one such instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodePath {
    /// Human-readable label, used only for debugging and reports.
    pub label: &'static str,
    /// The program counter attached to accesses from this code path.
    pub pc: Pc,
}

impl CodePath {
    /// Creates a code path with label `label` and program counter `pc`.
    pub fn new(label: &'static str, pc: Pc) -> Self {
        Self { label, pc }
    }
}

/// A canonical spatial pattern: block offsets (within a region) touched by a
/// code path, in access order.  The first offset is the trigger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalPattern {
    offsets: Vec<u32>,
}

impl CanonicalPattern {
    /// Creates a pattern from explicit offsets.
    ///
    /// # Panics
    ///
    /// Panics if `offsets` is empty.
    pub fn new(offsets: Vec<u32>) -> Self {
        assert!(!offsets.is_empty(), "a pattern needs at least one offset");
        Self { offsets }
    }

    /// Offsets in access order; the first entry is the trigger offset.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of distinct blocks in the pattern.
    pub fn density(&self) -> usize {
        let mut uniq: Vec<u32> = self.offsets.clone();
        uniq.sort_unstable();
        uniq.dedup();
        uniq.len()
    }
}

/// Parameters for building a [`PatternLibrary`].
#[derive(Debug, Clone)]
pub struct PatternLibraryConfig {
    /// Number of blocks in a spatial region (region bytes / 64 B).
    pub region_blocks: u32,
    /// Number of pattern variants generated per code path.
    pub variants_per_path: usize,
    /// Minimum number of blocks per canonical pattern.
    pub min_density: usize,
    /// Maximum number of blocks per canonical pattern.
    pub max_density: usize,
    /// Probability that a pattern is a contiguous run rather than scattered
    /// blocks; scans and array sweeps are contiguous, index probes are not.
    pub contiguous_fraction: f64,
}

impl PatternLibraryConfig {
    /// Validates the configuration, panicking on nonsensical values.
    fn validate(&self) {
        assert!(
            self.region_blocks >= 2,
            "regions must hold at least 2 blocks"
        );
        assert!(self.variants_per_path >= 1, "need at least one variant");
        assert!(
            self.min_density >= 1 && self.min_density <= self.max_density,
            "density range is empty"
        );
        assert!(
            self.max_density <= self.region_blocks as usize,
            "patterns cannot exceed the region size"
        );
    }
}

/// A library of canonical spatial patterns, one small set per code path.
#[derive(Debug, Clone)]
pub struct PatternLibrary {
    paths: Vec<CodePath>,
    variants: Vec<Vec<CanonicalPattern>>,
    region_blocks: u32,
}

impl PatternLibrary {
    /// Builds a library for `paths`, drawing variant patterns from `rng`
    /// according to `config`.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or `config` is inconsistent.
    pub fn generate(
        rng: &mut ChaCha8Rng,
        paths: Vec<CodePath>,
        config: &PatternLibraryConfig,
    ) -> Self {
        assert!(!paths.is_empty(), "need at least one code path");
        config.validate();
        let variants = paths
            .iter()
            .map(|_| {
                (0..config.variants_per_path)
                    .map(|_| Self::draw_pattern(rng, config))
                    .collect()
            })
            .collect();
        Self {
            paths,
            variants,
            region_blocks: config.region_blocks,
        }
    }

    fn draw_pattern(rng: &mut ChaCha8Rng, config: &PatternLibraryConfig) -> CanonicalPattern {
        let density = rng.gen_range(config.min_density..=config.max_density);
        let blocks = config.region_blocks;
        if coin(rng, config.contiguous_fraction) {
            // Contiguous run starting at a random offset, wrapping is avoided
            // by clamping the start.
            let max_start = blocks.saturating_sub(density as u32);
            let start = if max_start == 0 {
                0
            } else {
                rng.gen_range(0..=max_start)
            };
            CanonicalPattern::new((0..density as u32).map(|i| start + i).collect())
        } else {
            // Scattered blocks: trigger plus distinct random offsets.
            let mut all: Vec<u32> = (0..blocks).collect();
            all.shuffle(rng);
            let mut offsets: Vec<u32> = all.into_iter().take(density).collect();
            // Keep the access order stable but arbitrary: trigger first, then
            // ascending so repeated emissions look like the same traversal.
            let trigger = offsets[0];
            offsets[1..].sort_unstable();
            let mut ordered = vec![trigger];
            ordered.extend(offsets[1..].iter().copied().filter(|&o| o != trigger));
            CanonicalPattern::new(ordered)
        }
    }

    /// Number of code paths in the library.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of blocks per spatial region this library was built for.
    pub fn region_blocks(&self) -> u32 {
        self.region_blocks
    }

    /// The code path at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn path(&self, index: usize) -> &CodePath {
        &self.paths[index]
    }

    /// The canonical pattern variants for the code path at `index`.
    pub fn variants(&self, index: usize) -> &[CanonicalPattern] {
        &self.variants[index]
    }

    /// Emits one instance of a pattern into `out`.
    ///
    /// `path_index` selects the code path, `variant_index` the canonical
    /// pattern, `region_base` the (region-aligned) base address.  `noise` is
    /// the probability of dropping each non-trigger block and of inserting
    /// one extra random block, modelling run-to-run variation.  `write_prob`
    /// is the per-access probability of the access being a store.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &self,
        rng: &mut ChaCha8Rng,
        out: &mut VecDeque<MemAccess>,
        cpu: u8,
        path_index: usize,
        variant_index: usize,
        region_base: u64,
        noise: f64,
        write_prob: f64,
    ) {
        let path = &self.paths[path_index];
        let pattern = &self.variants[path_index][variant_index % self.variants[path_index].len()];
        let mut first = true;
        for &offset in pattern.offsets() {
            if !first && coin(rng, noise) {
                continue;
            }
            first = false;
            let kind = if coin(rng, write_prob) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            // Touch a word within the block so addresses are not all
            // block-aligned, as in a real trace.
            let byte = rng.gen_range(0..BLOCK_BYTES / 8) * 8;
            out.push_back(MemAccess {
                cpu,
                pc: path.pc + (offset as u64 % 4) * 4,
                addr: region_base + u64::from(offset) * BLOCK_BYTES + byte,
                kind,
            });
        }
        if coin(rng, noise) {
            let extra = rng.gen_range(0..self.region_blocks);
            out.push_back(MemAccess {
                cpu,
                pc: path.pc,
                addr: region_base + u64::from(extra) * BLOCK_BYTES,
                kind: AccessKind::Read,
            });
        }
    }
}

/// Creates a deterministic per-CPU RNG for workload `workload_id`.
pub fn cpu_rng(seed: u64, workload_id: u64, cpu: u8) -> ChaCha8Rng {
    stream_rng(
        seed,
        workload_id
            .wrapping_mul(257)
            .wrapping_add(u64::from(cpu) + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn library() -> (ChaCha8Rng, PatternLibrary) {
        let mut rng = stream_rng(11, 1);
        let paths = vec![CodePath::new("hdr", 0x4000), CodePath::new("tuple", 0x4100)];
        let cfg = PatternLibraryConfig {
            region_blocks: 32,
            variants_per_path: 4,
            min_density: 2,
            max_density: 8,
            contiguous_fraction: 0.5,
        };
        let lib = PatternLibrary::generate(&mut rng, paths, &cfg);
        (rng, lib)
    }

    #[test]
    fn library_has_requested_shape() {
        let (_, lib) = library();
        assert_eq!(lib.num_paths(), 2);
        assert_eq!(lib.region_blocks(), 32);
        for p in 0..lib.num_paths() {
            assert_eq!(lib.variants(p).len(), 4);
            for v in lib.variants(p) {
                assert!(v.density() >= 1 && v.density() <= 8);
                assert!(v.offsets().iter().all(|&o| o < 32));
            }
        }
    }

    #[test]
    fn emit_stays_within_region() {
        let (mut rng, lib) = library();
        let mut out = VecDeque::new();
        let base = 0x10_0000;
        lib.emit(&mut rng, &mut out, 0, 0, 0, base, 0.0, 0.0);
        assert!(!out.is_empty());
        for a in &out {
            assert!(a.addr >= base && a.addr < base + 32 * BLOCK_BYTES);
            assert_eq!(a.cpu, 0);
            assert_eq!(a.kind, AccessKind::Read);
        }
    }

    #[test]
    fn emit_without_noise_reproduces_pattern_blocks() {
        let (mut rng, lib) = library();
        let base_a = 0x10_0000;
        let base_b = 0x20_0000;
        let blocks = |base: u64, rng: &mut ChaCha8Rng| {
            let mut out = VecDeque::new();
            lib.emit(rng, &mut out, 0, 1, 2, base, 0.0, 0.0);
            let mut b: Vec<u64> = out.iter().map(|a| (a.addr - base) / BLOCK_BYTES).collect();
            b.sort_unstable();
            b.dedup();
            b
        };
        let a = blocks(base_a, &mut rng);
        let b = blocks(base_b, &mut rng);
        assert_eq!(a, b, "same code path/variant must touch the same offsets");
    }

    #[test]
    fn write_prob_one_yields_writes() {
        let (mut rng, lib) = library();
        let mut out = VecDeque::new();
        lib.emit(&mut rng, &mut out, 1, 0, 0, 0x4000, 0.0, 1.0);
        assert!(out.iter().all(|a| a.kind == AccessKind::Write));
    }

    #[test]
    #[should_panic(expected = "at least one offset")]
    fn empty_pattern_rejected() {
        let _ = CanonicalPattern::new(vec![]);
    }
}
