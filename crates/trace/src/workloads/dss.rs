//! TPC-H style decision-support (DSS) queries on DB2.
//!
//! The paper selects four queries by behaviour class: Qry 1 (scan-dominated),
//! Qry 2 and Qry 16 (join-dominated), and Qry 17 (balanced scan/join).  The
//! defining structural properties are:
//!
//! * **Scans** sweep enormous tables sequentially and touch each page
//!   exactly once with a dense, fixed per-page layout — previously-unvisited
//!   data that only a code-indexed (PC) predictor can cover;
//! * **Joins** combine a sequential probe input with hashed lookups into a
//!   build table whose buckets are revisited with small, recurring patterns;
//! * Qry 1 additionally copies aggregates into a temporary table, producing a
//!   long stream of store misses (the store-buffer bottleneck discussed in
//!   the paper's performance results);
//! * far fewer concurrent contexts than OLTP, so region interleaving is mild.

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

/// Which TPC-H query to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DssQuery {
    /// Query 1: scan-dominated with a temporary-table store stream.
    Qry1,
    /// Query 2: join-dominated.
    Qry2,
    /// Query 16: join-dominated.
    Qry16,
    /// Query 17: balanced scan/join mix.
    Qry17,
}

impl DssQuery {
    fn params(self) -> DssParams {
        match self {
            DssQuery::Qry1 => DssParams {
                scan_fraction: 0.88,
                temp_store_fraction: 0.90,
                temp_store_run_max: 32,
                hash_probe_fraction: 0.05,
                scan_paths: 180,
                probe_paths: 80,
                scan_min_density: 14,
                scan_max_density: 32,
                probe_min_density: 2,
                probe_max_density: 6,
                noise: 0.04,
                address_base: 0x0400_0000_0000,
            },
            DssQuery::Qry2 => DssParams {
                scan_fraction: 0.35,
                temp_store_fraction: 0.03,
                temp_store_run_max: 6,
                hash_probe_fraction: 0.55,
                scan_paths: 120,
                probe_paths: 200,
                scan_min_density: 10,
                scan_max_density: 28,
                probe_min_density: 2,
                probe_max_density: 8,
                noise: 0.06,
                address_base: 0x0500_0000_0000,
            },
            DssQuery::Qry16 => DssParams {
                scan_fraction: 0.30,
                temp_store_fraction: 0.04,
                temp_store_run_max: 6,
                hash_probe_fraction: 0.60,
                scan_paths: 110,
                probe_paths: 220,
                scan_min_density: 8,
                scan_max_density: 24,
                probe_min_density: 2,
                probe_max_density: 7,
                noise: 0.07,
                address_base: 0x0600_0000_0000,
            },
            DssQuery::Qry17 => DssParams {
                scan_fraction: 0.55,
                temp_store_fraction: 0.08,
                temp_store_run_max: 8,
                hash_probe_fraction: 0.35,
                scan_paths: 150,
                probe_paths: 150,
                scan_min_density: 10,
                scan_max_density: 30,
                probe_min_density: 2,
                probe_max_density: 8,
                noise: 0.05,
                address_base: 0x0700_0000_0000,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            DssQuery::Qry1 => "dss-qry1",
            DssQuery::Qry2 => "dss-qry2",
            DssQuery::Qry16 => "dss-qry16",
            DssQuery::Qry17 => "dss-qry17",
        }
    }

    /// The query plan's scan and probe pattern libraries.  All CPUs run the
    /// same plan, so the libraries are drawn from a CPU-independent RNG and
    /// shared.
    pub fn libraries(self, seed: u64) -> DssLibraries {
        let params = self.params();
        let mut lib_rng = cpu_rng(seed, 0x10 + self as u64, 255);
        let region_blocks = (DSS_REGION_BYTES / BLOCK_BYTES) as u32;
        let scan_paths: Vec<CodePath> = (0..params.scan_paths)
            .map(|i| CodePath::new("dss-scan", 0x0060_0000 + (i as u64) * 0x40))
            .collect();
        let probe_paths: Vec<CodePath> = (0..params.probe_paths)
            .map(|i| CodePath::new("dss-probe", 0x0068_0000 + (i as u64) * 0x40))
            .collect();
        let scan = PatternLibrary::generate(
            &mut lib_rng,
            scan_paths,
            &PatternLibraryConfig {
                region_blocks,
                variants_per_path: 2,
                min_density: params.scan_min_density,
                max_density: params.scan_max_density,
                contiguous_fraction: 0.85,
            },
        );
        let probe = PatternLibrary::generate(
            &mut lib_rng,
            probe_paths,
            &PatternLibraryConfig {
                region_blocks,
                variants_per_path: 3,
                min_density: params.probe_min_density,
                max_density: params.probe_max_density,
                contiguous_fraction: 0.3,
            },
        );
        DssLibraries { scan, probe }
    }
}

/// The pattern libraries of one DSS query plan.
#[derive(Debug)]
pub struct DssLibraries {
    /// Layouts the scan operators touch per page.
    scan: PatternLibrary,
    /// Layouts the hash-probe operators touch per bucket.
    probe: PatternLibrary,
}

#[derive(Debug, Clone)]
struct DssParams {
    scan_fraction: f64,
    temp_store_fraction: f64,
    temp_store_run_max: u64,
    hash_probe_fraction: f64,
    scan_paths: usize,
    probe_paths: usize,
    scan_min_density: usize,
    scan_max_density: usize,
    probe_min_density: usize,
    probe_max_density: usize,
    noise: f64,
    address_base: u64,
}

/// Spatial region (database page sub-unit) used by the DSS generator (2 kB).
pub const DSS_REGION_BYTES: u64 = 2048;

/// Per-processor DSS access stream.
pub struct DssCpuStream {
    name: String,
    cpu: u8,
    rng: ChaCha8Rng,
    libs: Arc<DssLibraries>,
    params: DssParams,
    /// Next region index in this CPU's partition of the scanned table.
    scan_cursor: u64,
    /// Number of regions in the scanned table partition (per CPU).
    scan_regions: u64,
    /// Number of regions in the (revisited) hash build table.
    hash_regions: u64,
    /// Cursor for the temporary-table store stream.
    temp_cursor: u64,
    queue: VecDeque<MemAccess>,
}

impl std::fmt::Debug for DssCpuStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DssCpuStream")
            .field("name", &self.name)
            .field("cpu", &self.cpu)
            .field("scan_cursor", &self.scan_cursor)
            .finish()
    }
}

impl DssCpuStream {
    /// Creates the stream for one processor over the query plan's shared
    /// pattern libraries ([`DssQuery::libraries`]).
    pub fn new(
        query: DssQuery,
        seed: u64,
        config: &GeneratorConfig,
        cpu: u8,
        libs: Arc<DssLibraries>,
    ) -> Self {
        let params = query.params();
        let rng = cpu_rng(seed, 0x10 + query as u64, cpu);
        // The scanned table is much larger than the generated trace so that
        // scan pages really are visited only once; size it at 16x the
        // configured data set and partition it across CPUs.
        let table_regions = (config.data_set_bytes * 16 / DSS_REGION_BYTES).max(1024);
        let scan_regions = (table_regions / config.cpus as u64).max(256);
        let hash_regions = (config.data_set_bytes / 4 / DSS_REGION_BYTES).max(64);
        Self {
            name: format!("{}-cpu{cpu}", query.label()),
            cpu,
            rng,
            libs,
            params,
            scan_cursor: 0,
            scan_regions,
            hash_regions,
            temp_cursor: 0,
            queue: VecDeque::new(),
        }
    }

    fn scan_partition_base(&self) -> u64 {
        self.params.address_base + u64::from(self.cpu) * self.scan_regions * DSS_REGION_BYTES
    }

    fn hash_table_base(&self) -> u64 {
        self.params.address_base + 0x40_0000_0000
    }

    fn temp_table_base(&self) -> u64 {
        self.params.address_base + 0x80_0000_0000 + u64::from(self.cpu) * 0x1_0000_0000
    }

    fn refill(&mut self) {
        let r: f64 = self.rng.gen();
        if r < self.params.scan_fraction {
            self.emit_scan_page();
        } else if r < self.params.scan_fraction + self.params.hash_probe_fraction {
            self.emit_hash_probe();
        } else {
            self.emit_scan_page();
        }
        if coin(&mut self.rng, self.params.temp_store_fraction) {
            self.emit_temp_store();
        }
    }

    /// Scans the next never-before-visited page of this CPU's partition.
    fn emit_scan_page(&mut self) {
        let region = self.scan_partition_base() + self.scan_cursor * DSS_REGION_BYTES;
        self.scan_cursor = (self.scan_cursor + 1) % self.scan_regions;
        // One scan operator instance uses the same few code paths for the
        // whole sweep: derive the path from the cursor coarsely so a long
        // run of pages shares a path, as a tight scan loop would.
        let path = ((self.scan_cursor / 512) as usize) % self.libs.scan.num_paths();
        let variant = zipf_index(&mut self.rng, 2, 0.5);
        let mut queue = std::mem::take(&mut self.queue);
        self.libs.scan.emit(
            &mut self.rng,
            &mut queue,
            self.cpu,
            path,
            variant,
            region,
            self.params.noise,
            0.01,
        );
        self.queue = queue;
    }

    /// Probes a (revisited) hash-table bucket region.
    fn emit_hash_probe(&mut self) {
        let bucket = self.rng.gen_range(0..self.hash_regions);
        let region = self.hash_table_base() + bucket * DSS_REGION_BYTES;
        let path = self.rng.gen_range(0..self.libs.probe.num_paths());
        let variant = zipf_index(&mut self.rng, 3, 0.6);
        let mut queue = std::mem::take(&mut self.queue);
        self.libs.probe.emit(
            &mut self.rng,
            &mut queue,
            self.cpu,
            path,
            variant,
            region,
            self.params.noise,
            0.02,
        );
        self.queue = queue;
    }

    /// Appends aggregates to the temporary table: a short run of stores.
    fn emit_temp_store(&mut self) {
        let base = self.temp_table_base();
        let run = self
            .rng
            .gen_range(2..=self.params.temp_store_run_max.max(3));
        for i in 0..run {
            let addr = base + (self.temp_cursor + i) * BLOCK_BYTES;
            self.queue
                .push_back(MemAccess::write(self.cpu, 0x0070_0000, addr));
        }
        self.temp_cursor += run;
    }
}

impl Iterator for DssCpuStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        while self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

impl AccessStream for DssCpuStream {
    fn name(&self) -> &str {
        &self.name
    }
}

/// The per-CPU streams of one generator, all over one pair of libraries.
fn cpu_streams(query: DssQuery, seed: u64, config: &GeneratorConfig) -> Vec<DssCpuStream> {
    let libs = Arc::new(query.libraries(seed));
    (0..config.cpus)
        .map(|cpu| DssCpuStream::new(query, seed, config, cpu as u8, Arc::clone(&libs)))
        .collect()
}

/// Builds the globally-interleaved DSS stream over all configured CPUs.
pub fn stream(query: DssQuery, seed: u64, config: &GeneratorConfig) -> Interleaver {
    let streams: Vec<BoxedStream> = cpu_streams(query, seed, config)
        .into_iter()
        .map(|s| Box::new(s) as BoxedStream)
        .collect();
    // DSS queries run long pipeline stages per CPU, so use longer bursts
    // than OLTP when interleaving processors.
    Interleaver::with_burst(query.label(), streams, seed, 16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use std::collections::HashMap;

    fn take(query: DssQuery, n: usize) -> Vec<MemAccess> {
        let config = GeneratorConfig::default().with_cpus(2);
        stream(query, 3, &config).take(n).collect()
    }

    #[test]
    fn produces_requested_volume() {
        for q in [
            DssQuery::Qry1,
            DssQuery::Qry2,
            DssQuery::Qry16,
            DssQuery::Qry17,
        ] {
            assert_eq!(take(q, 10_000).len(), 10_000);
        }
    }

    #[test]
    fn qry1_is_store_heavy_compared_to_qry2() {
        let w1 = take(DssQuery::Qry1, 40_000)
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        let w2 = take(DssQuery::Qry2, 40_000)
            .iter()
            .filter(|a| a.kind == AccessKind::Write)
            .count();
        assert!(w1 > w2, "Qry1 writes {w1} should exceed Qry2 writes {w2}");
    }

    #[test]
    fn scan_pages_are_mostly_visited_once() {
        // Count how many scan-table regions are touched in more than one
        // widely-separated visit.  Hash-table and temp-table regions live at
        // different address bases and are excluded.
        let t = take(DssQuery::Qry1, 80_000);
        let params_base = 0x0400_0000_0000u64;
        let mut region_count: HashMap<u64, usize> = HashMap::new();
        for a in &t {
            if a.addr >= params_base && a.addr < params_base + 0x40_0000_0000 {
                *region_count
                    .entry(a.region_base(DSS_REGION_BYTES))
                    .or_insert(0) += 1;
            }
        }
        // Pages are dense (tens of accesses) but visited in one generation:
        // the number of regions with an unusually large access count should
        // be tiny.
        let heavy = region_count.values().filter(|&&c| c > 80).count();
        let total = region_count.len();
        assert!(total > 100);
        assert!(
            (heavy as f64) < (total as f64) * 0.05,
            "too many scan regions revisited: {heavy}/{total}"
        );
    }

    #[test]
    fn scan_patterns_are_dense() {
        let t = take(DssQuery::Qry1, 60_000);
        let mut blocks_per_region: HashMap<u64, std::collections::HashSet<u64>> = HashMap::new();
        for a in &t {
            blocks_per_region
                .entry(a.region_base(DSS_REGION_BYTES))
                .or_default()
                .insert(a.block_addr(BLOCK_BYTES));
        }
        let dense = blocks_per_region.values().filter(|s| s.len() >= 8).count();
        assert!(
            dense > blocks_per_region.len() / 4,
            "expected a substantial fraction of dense regions"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = GeneratorConfig::default().with_cpus(2);
        let a: Vec<_> = stream(DssQuery::Qry16, 5, &config).take(4000).collect();
        let b: Vec<_> = stream(DssQuery::Qry16, 5, &config).take(4000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_cpu_shares_one_pair_of_libraries() {
        let config = GeneratorConfig::default().with_cpus(4);
        let streams = cpu_streams(DssQuery::Qry17, 3, &config);
        assert_eq!(streams.len(), 4);
        assert!(streams
            .iter()
            .all(|s| Arc::ptr_eq(&s.libs, &streams[0].libs)));
    }

    #[test]
    fn queries_differ_from_each_other() {
        assert_ne!(take(DssQuery::Qry2, 3000), take(DssQuery::Qry16, 3000));
    }
}
