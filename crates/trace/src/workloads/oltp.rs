//! TPC-C style online transaction processing workloads (DB2 and Oracle).
//!
//! The generator models the memory behaviour the paper attributes to OLTP:
//!
//! * a large, shared buffer pool of database pages, with a heavily skewed
//!   (hot-page) reuse distribution;
//! * per-page accesses issued by a moderate number of code paths (page
//!   header reads, tuple-slot index reads, tuple fetches and updates, B-tree
//!   descent, lock-table and log-manager code), each touching a small,
//!   recurring set of block offsets — sparse patterns of one to eight blocks
//!   per 2 kB region;
//! * many transactions in flight per processor, so accesses to independent
//!   regions interleave finely; and
//! * frequent updates to shared pages, producing invalidations in remote
//!   caches.
//!
//! DB2 and Oracle differ in buffer-pool size, code-path count and update
//! rate, mirroring the two configurations in Table 1 of the paper.

use crate::access::MemAccess;
use crate::config::GeneratorConfig;
use crate::interleave::Interleaver;
use crate::rng::{coin, zipf_index};
use crate::stream::{AccessStream, BoxedStream};
use crate::workloads::common::{
    cpu_rng, CodePath, PatternLibrary, PatternLibraryConfig, BLOCK_BYTES,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Which commercial DBMS configuration to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OltpVariant {
    /// IBM DB2 v8 ESE: 100 warehouses, 450 MB buffer pool, 64 clients.
    Db2,
    /// Oracle 10g: 100 warehouses, 1.4 GB SGA, 16 clients.
    Oracle,
}

impl OltpVariant {
    fn params(self) -> OltpParams {
        match self {
            OltpVariant::Db2 => OltpParams {
                code_paths: 1200,
                variants_per_path: 5,
                min_density: 1,
                max_density: 7,
                contiguous_fraction: 0.25,
                concurrent_transactions: 4,
                page_reuse_theta: 0.75,
                write_fraction: 0.22,
                noise: 0.10,
                btree_fraction: 0.30,
                address_base: 0x0100_0000_0000,
            },
            OltpVariant::Oracle => OltpParams {
                code_paths: 1500,
                variants_per_path: 6,
                min_density: 1,
                max_density: 8,
                contiguous_fraction: 0.20,
                concurrent_transactions: 5,
                page_reuse_theta: 0.70,
                write_fraction: 0.25,
                noise: 0.12,
                btree_fraction: 0.35,
                address_base: 0x0200_0000_0000,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            OltpVariant::Db2 => "oltp-db2",
            OltpVariant::Oracle => "oltp-oracle",
        }
    }

    /// The pattern library of this DBMS binary.  All CPUs run the same code,
    /// so the library is drawn from a CPU-independent RNG and shared.
    pub fn library(self, seed: u64) -> PatternLibrary {
        let params = self.params();
        let mut lib_rng = cpu_rng(seed, 0x01 + self as u64, 255);
        let paths: Vec<CodePath> = (0..params.code_paths)
            .map(|i| CodePath::new("oltp", 0x0040_0000 + (i as u64) * 0x40))
            .collect();
        PatternLibrary::generate(
            &mut lib_rng,
            paths,
            &PatternLibraryConfig {
                region_blocks: (OLTP_REGION_BYTES / BLOCK_BYTES) as u32,
                variants_per_path: params.variants_per_path,
                min_density: params.min_density,
                max_density: params.max_density,
                contiguous_fraction: params.contiguous_fraction,
            },
        )
    }
}

#[derive(Debug, Clone)]
struct OltpParams {
    code_paths: usize,
    variants_per_path: usize,
    min_density: usize,
    max_density: usize,
    contiguous_fraction: f64,
    concurrent_transactions: usize,
    page_reuse_theta: f64,
    write_fraction: f64,
    noise: f64,
    btree_fraction: f64,
    address_base: u64,
}

/// Spatial region size the generator lays structures out in (2 kB).
pub const OLTP_REGION_BYTES: u64 = 2048;

/// Per-processor OLTP access stream.
pub struct OltpCpuStream {
    name: String,
    cpu: u8,
    rng: ChaCha8Rng,
    lib: Arc<PatternLibrary>,
    params: OltpParams,
    num_regions: u64,
    /// Log region private to this CPU; appended sequentially.
    log_cursor: u64,
    contexts: Vec<VecDeque<MemAccess>>,
    current_context: usize,
}

impl std::fmt::Debug for OltpCpuStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OltpCpuStream")
            .field("name", &self.name)
            .field("cpu", &self.cpu)
            .field("regions", &self.num_regions)
            .finish()
    }
}

impl OltpCpuStream {
    /// Creates the stream for one processor over the generator's shared
    /// pattern library ([`OltpVariant::library`]).
    pub fn new(
        variant: OltpVariant,
        seed: u64,
        config: &GeneratorConfig,
        cpu: u8,
        lib: Arc<PatternLibrary>,
    ) -> Self {
        let params = variant.params();
        let mut rng = cpu_rng(seed, 0x01 + variant as u64, cpu);
        let num_regions = (config.data_set_bytes / OLTP_REGION_BYTES).max(64);
        let contexts = (0..params.concurrent_transactions)
            .map(|_| VecDeque::new())
            .collect();
        let _ = rng.gen::<u64>();
        Self {
            name: format!("{}-cpu{cpu}", variant.label()),
            cpu,
            rng,
            lib,
            params,
            num_regions,
            log_cursor: 0,
            contexts,
            current_context: 0,
        }
    }

    fn pick_region(&mut self) -> u64 {
        let idx = zipf_index(
            &mut self.rng,
            self.num_regions as usize,
            self.params.page_reuse_theta,
        );
        self.params.address_base + (idx as u64) * OLTP_REGION_BYTES
    }

    /// Emits the accesses of one transaction step into context `ctx`.
    fn refill_context(&mut self, ctx: usize) {
        let steps = self.rng.gen_range(2..=4);
        for _ in 0..steps {
            let region = self.pick_region();
            // Pages belong to tables, and each table is manipulated by a
            // small set of code paths; a given page also tends to repeat the
            // same layout variant on every visit.  Deriving the path and
            // variant partly from the page identity gives the trace both
            // code correlation (the same PC recurs across thousands of
            // pages) and address correlation (revisits to a hot page repeat
            // its pattern), as in a real DBMS.
            let region_id = ((region - self.params.address_base) / OLTP_REGION_BYTES) as usize;
            let path_window = 16;
            let path = (region_id.wrapping_mul(31) + zipf_index(&mut self.rng, path_window, 0.6))
                % self.lib.num_paths();
            let variant = (region_id.wrapping_mul(7) + zipf_index(&mut self.rng, 2, 0.5))
                % self.params.variants_per_path;
            let write_prob = if coin(&mut self.rng, self.params.btree_fraction) {
                // Index descent is read-only.
                0.0
            } else {
                self.params.write_fraction
            };
            let mut queue = std::mem::take(&mut self.contexts[ctx]);
            self.lib.emit(
                &mut self.rng,
                &mut queue,
                self.cpu,
                path,
                variant,
                region,
                self.params.noise,
                write_prob,
            );
            self.contexts[ctx] = queue;
        }
        // Log append: short sequential run of writes in a private region.
        if coin(&mut self.rng, 0.4) {
            let log_base =
                self.params.address_base + 0x10_0000_0000 + u64::from(self.cpu) * 0x1000_0000;
            for i in 0..self.rng.gen_range(1..=3u64) {
                let addr = log_base + (self.log_cursor + i) * BLOCK_BYTES;
                self.contexts[ctx].push_back(MemAccess::write(self.cpu, 0x0050_0000, addr));
            }
            self.log_cursor += 3;
        }
    }
}

impl Iterator for OltpCpuStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        // Fine-grained interleaving between in-flight transactions: switch
        // context with moderate probability on every access.
        if coin(&mut self.rng, 0.35) {
            self.current_context = self.rng.gen_range(0..self.contexts.len());
        }
        let ctx = self.current_context;
        if self.contexts[ctx].is_empty() {
            self.refill_context(ctx);
        }
        let access = self.contexts[ctx].pop_front();
        debug_assert!(access.is_some(), "refill must produce at least one access");
        access
    }
}

impl AccessStream for OltpCpuStream {
    fn name(&self) -> &str {
        &self.name
    }
}

/// The per-CPU streams of one generator, all over one pattern library.
fn cpu_streams(variant: OltpVariant, seed: u64, config: &GeneratorConfig) -> Vec<OltpCpuStream> {
    let lib = Arc::new(variant.library(seed));
    (0..config.cpus)
        .map(|cpu| OltpCpuStream::new(variant, seed, config, cpu as u8, Arc::clone(&lib)))
        .collect()
}

/// Builds the globally-interleaved OLTP stream over all configured CPUs.
pub fn stream(variant: OltpVariant, seed: u64, config: &GeneratorConfig) -> Interleaver {
    let streams: Vec<BoxedStream> = cpu_streams(variant, seed, config)
        .into_iter()
        .map(|s| Box::new(s) as BoxedStream)
        .collect();
    Interleaver::new(variant.label(), streams, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use std::collections::HashSet;

    fn take(variant: OltpVariant, n: usize) -> Vec<MemAccess> {
        let config = GeneratorConfig::default().with_cpus(2);
        stream(variant, 7, &config).take(n).collect()
    }

    #[test]
    fn produces_requested_volume() {
        let t = take(OltpVariant::Db2, 20_000);
        assert_eq!(t.len(), 20_000);
    }

    #[test]
    fn uses_all_cpus() {
        let t = take(OltpVariant::Db2, 20_000);
        let cpus: HashSet<u8> = t.iter().map(|a| a.cpu).collect();
        assert_eq!(cpus.len(), 2);
    }

    #[test]
    fn contains_reads_and_writes() {
        let t = take(OltpVariant::Oracle, 20_000);
        assert!(t.iter().any(|a| a.kind == AccessKind::Read));
        assert!(t.iter().any(|a| a.kind == AccessKind::Write));
    }

    #[test]
    fn regions_are_heavily_interleaved() {
        // Consecutive accesses by the same CPU should frequently be in
        // different 2 kB regions — the property that motivates the AGT.
        let t = take(OltpVariant::Db2, 30_000);
        let mut switches = 0usize;
        let mut total = 0usize;
        let mut last_region: Option<(u8, u64)> = None;
        for a in &t {
            let region = a.region_base(OLTP_REGION_BYTES);
            if let Some((cpu, prev)) = last_region {
                if cpu == a.cpu {
                    total += 1;
                    if prev != region {
                        switches += 1;
                    }
                }
            }
            last_region = Some((a.cpu, region));
        }
        assert!(total > 1000);
        let ratio = switches as f64 / total as f64;
        assert!(ratio > 0.2, "region switch ratio too low: {ratio}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = GeneratorConfig::default().with_cpus(2);
        let a: Vec<_> = stream(OltpVariant::Db2, 11, &config).take(5000).collect();
        let b: Vec<_> = stream(OltpVariant::Db2, 11, &config).take(5000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_variants_differ() {
        let a = take(OltpVariant::Db2, 5000);
        let b = take(OltpVariant::Oracle, 5000);
        assert_ne!(a, b);
    }

    #[test]
    fn every_cpu_shares_one_pattern_library() {
        let config = GeneratorConfig::default().with_cpus(4);
        let streams = cpu_streams(OltpVariant::Db2, 3, &config);
        assert_eq!(streams.len(), 4);
        assert!(streams.iter().all(|s| Arc::ptr_eq(&s.lib, &streams[0].lib)));
    }

    #[test]
    fn hot_regions_are_reused() {
        let t = take(OltpVariant::Db2, 50_000);
        let mut counts = std::collections::HashMap::new();
        for a in &t {
            *counts
                .entry(a.region_base(OLTP_REGION_BYTES))
                .or_insert(0usize) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        let mean = t.len() / counts.len();
        assert!(
            max > mean * 5,
            "expected a skewed reuse distribution (max {max}, mean {mean})"
        );
    }
}
