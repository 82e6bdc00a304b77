//! SPECweb99-style web-server workloads (Apache and Zeus).
//!
//! Structural properties modelled after the paper's description:
//!
//! * request processing walks **packet buffers** whose headers and trailers
//!   have an arbitrarily complex but *fixed* layout — the header blocks at
//!   the start of a buffer region and trailer blocks near the end recur for
//!   every request handled by the same code path;
//! * each buffer is used for one request and then recycled, so most buffer
//!   regions are visited once or twice (favouring code-indexed prediction);
//! * shared server state (file cache metadata, connection table, scoreboard)
//!   is revisited with a hot-set distribution and occasionally written,
//!   producing sharing invalidations;
//! * many connections are serviced concurrently per processor, so accesses
//!   to independent buffers interleave heavily, as in OLTP.

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

/// Which web server configuration to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebServer {
    /// Apache HTTP Server v2.0 with the worker threading model.
    Apache,
    /// Zeus Web Server v4.3 (event-driven).
    Zeus,
}

impl WebServer {
    fn params(self) -> WebParams {
        match self {
            WebServer::Apache => WebParams {
                packet_paths: 700,
                shared_paths: 250,
                concurrent_connections: 6,
                packet_min_density: 2,
                packet_max_density: 12,
                shared_min_density: 1,
                shared_max_density: 5,
                shared_fraction: 0.30,
                write_fraction: 0.12,
                noise: 0.09,
                buffer_reuse_prob: 0.25,
                address_base: 0x0800_0000_0000,
            },
            WebServer::Zeus => WebParams {
                packet_paths: 550,
                shared_paths: 180,
                concurrent_connections: 8,
                packet_min_density: 2,
                packet_max_density: 10,
                shared_min_density: 1,
                shared_max_density: 4,
                shared_fraction: 0.26,
                write_fraction: 0.10,
                noise: 0.08,
                buffer_reuse_prob: 0.30,
                address_base: 0x0900_0000_0000,
            },
        }
    }

    fn label(self) -> &'static str {
        match self {
            WebServer::Apache => "web-apache",
            WebServer::Zeus => "web-zeus",
        }
    }

    /// The server binary's packet-buffer and shared-structure pattern
    /// libraries.  All CPUs run the same code, so the libraries are drawn
    /// from a CPU-independent RNG and shared.
    pub fn libraries(self, seed: u64) -> WebLibraries {
        let params = self.params();
        let mut lib_rng = cpu_rng(seed, 0x20 + self as u64, 255);
        let region_blocks = (WEB_REGION_BYTES / BLOCK_BYTES) as u32;
        let packet_paths: Vec<CodePath> = (0..params.packet_paths)
            .map(|i| CodePath::new("web-pkt", 0x0080_0000 + (i as u64) * 0x40))
            .collect();
        let shared_paths: Vec<CodePath> = (0..params.shared_paths)
            .map(|i| CodePath::new("web-shared", 0x0088_0000 + (i as u64) * 0x40))
            .collect();
        let packet = PatternLibrary::generate(
            &mut lib_rng,
            packet_paths,
            &PatternLibraryConfig {
                region_blocks,
                variants_per_path: 4,
                min_density: params.packet_min_density,
                max_density: params.packet_max_density,
                contiguous_fraction: 0.45,
            },
        );
        let shared = PatternLibrary::generate(
            &mut lib_rng,
            shared_paths,
            &PatternLibraryConfig {
                region_blocks,
                variants_per_path: 5,
                min_density: params.shared_min_density,
                max_density: params.shared_max_density,
                contiguous_fraction: 0.2,
            },
        );
        WebLibraries { packet, shared }
    }
}

/// The pattern libraries of one web-server binary.
#[derive(Debug)]
pub struct WebLibraries {
    /// Layouts request handlers touch per packet buffer.
    packet: PatternLibrary,
    /// Layouts the shared server tables are walked in.
    shared: PatternLibrary,
}

#[derive(Debug, Clone)]
struct WebParams {
    packet_paths: usize,
    shared_paths: usize,
    concurrent_connections: usize,
    packet_min_density: usize,
    packet_max_density: usize,
    shared_min_density: usize,
    shared_max_density: usize,
    shared_fraction: f64,
    write_fraction: f64,
    noise: f64,
    buffer_reuse_prob: f64,
    address_base: u64,
}

/// Spatial region size used for packet buffers and server structures (2 kB).
pub const WEB_REGION_BYTES: u64 = 2048;

/// Per-processor web-server access stream.
pub struct WebCpuStream {
    name: String,
    cpu: u8,
    rng: ChaCha8Rng,
    libs: Arc<WebLibraries>,
    params: WebParams,
    /// Pool of recently-freed buffer regions available for reuse.
    free_buffers: Vec<u64>,
    /// Monotonic allocator for fresh buffer regions.
    next_buffer: u64,
    /// Number of shared-structure regions (server-wide tables).
    shared_regions: u64,
    contexts: Vec<VecDeque<MemAccess>>,
    current_context: usize,
}

impl std::fmt::Debug for WebCpuStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebCpuStream")
            .field("name", &self.name)
            .field("cpu", &self.cpu)
            .field("free_buffers", &self.free_buffers.len())
            .finish()
    }
}

impl WebCpuStream {
    /// Creates the stream for one processor over the server's shared
    /// pattern libraries ([`WebServer::libraries`]).
    pub fn new(
        server: WebServer,
        seed: u64,
        config: &GeneratorConfig,
        cpu: u8,
        libs: Arc<WebLibraries>,
    ) -> Self {
        let params = server.params();
        let rng = cpu_rng(seed, 0x20 + server as u64, cpu);
        let shared_regions = (config.data_set_bytes / 8 / WEB_REGION_BYTES).max(64);
        let contexts = (0..params.concurrent_connections)
            .map(|_| VecDeque::new())
            .collect();
        Self {
            name: format!("{}-cpu{cpu}", server.label()),
            cpu,
            rng,
            libs,
            params,
            free_buffers: Vec::new(),
            next_buffer: 0,
            shared_regions,
            contexts,
            current_context: 0,
        }
    }

    /// Region base of the shared (server-wide) structures; identical on all
    /// CPUs so that writes cause cross-processor invalidations.
    fn shared_base(&self) -> u64 {
        self.params.address_base + 0x20_0000_0000
    }

    /// Allocates a buffer region for a new request, preferring a recycled
    /// buffer with probability `buffer_reuse_prob`.
    fn alloc_buffer(&mut self) -> u64 {
        if !self.free_buffers.is_empty() && coin(&mut self.rng, self.params.buffer_reuse_prob) {
            let idx = self.rng.gen_range(0..self.free_buffers.len());
            return self.free_buffers.swap_remove(idx);
        }
        // Per-CPU buffer arena keeps allocation private; sharing happens via
        // the shared structures instead.
        let base = self.params.address_base + u64::from(self.cpu) * 0x4_0000_0000;
        let region = base + self.next_buffer * WEB_REGION_BYTES;
        self.next_buffer += 1;
        region
    }

    /// Emits the accesses for servicing one request on connection `ctx`.
    fn refill_context(&mut self, ctx: usize) {
        let buffer = self.alloc_buffer();
        // Parse headers, then trailer/metadata, possibly payload copy.  The
        // handler code for a given request type is a small set of PCs, and a
        // recycled buffer tends to be laid out the same way it was last
        // time, so derive the path/variant partly from the connection and
        // buffer identity (code and address correlation).
        let request_kind = self.rng.gen_range(0..64usize);
        let buffer_id = (buffer / WEB_REGION_BYTES) as usize;
        let steps = self.rng.gen_range(1..=3);
        for step in 0..steps {
            let path = (request_kind * 37 + step * 11 + zipf_index(&mut self.rng, 8, 0.6))
                % self.libs.packet.num_paths();
            let variant = (buffer_id + zipf_index(&mut self.rng, 2, 0.5)) % 4;
            let mut queue = std::mem::take(&mut self.contexts[ctx]);
            self.libs.packet.emit(
                &mut self.rng,
                &mut queue,
                self.cpu,
                path,
                variant,
                buffer,
                self.params.noise,
                self.params.write_fraction,
            );
            self.contexts[ctx] = queue;
        }
        // Consult shared server state (file cache, connection table).
        if coin(&mut self.rng, self.params.shared_fraction) {
            let region_idx = zipf_index(&mut self.rng, self.shared_regions as usize, 0.8) as u64;
            let region = self.shared_base() + region_idx * WEB_REGION_BYTES;
            // Shared server tables are walked by the same few code paths,
            // and each table entry repeats its layout on every visit.
            let path = (region_idx as usize * 13 + zipf_index(&mut self.rng, 6, 0.6))
                % self.libs.shared.num_paths();
            let variant = (region_idx as usize + zipf_index(&mut self.rng, 2, 0.5)) % 5;
            let mut queue = std::mem::take(&mut self.contexts[ctx]);
            self.libs.shared.emit(
                &mut self.rng,
                &mut queue,
                self.cpu,
                path,
                variant,
                region,
                self.params.noise,
                self.params.write_fraction * 1.5,
            );
            self.contexts[ctx] = queue;
        }
        // Recycle the buffer for a later request.
        if self.free_buffers.len() < 256 {
            self.free_buffers.push(buffer);
        }
    }
}

impl Iterator for WebCpuStream {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if coin(&mut self.rng, 0.4) {
            self.current_context = self.rng.gen_range(0..self.contexts.len());
        }
        let ctx = self.current_context;
        if self.contexts[ctx].is_empty() {
            self.refill_context(ctx);
        }
        self.contexts[ctx].pop_front()
    }
}

impl AccessStream for WebCpuStream {
    fn name(&self) -> &str {
        &self.name
    }
}

/// The per-CPU streams of one generator, all over one pair of libraries.
fn cpu_streams(server: WebServer, seed: u64, config: &GeneratorConfig) -> Vec<WebCpuStream> {
    let libs = Arc::new(server.libraries(seed));
    (0..config.cpus)
        .map(|cpu| WebCpuStream::new(server, seed, config, cpu as u8, Arc::clone(&libs)))
        .collect()
}

/// Builds the globally-interleaved web-server stream over all configured CPUs.
pub fn stream(server: WebServer, seed: u64, config: &GeneratorConfig) -> Interleaver {
    let streams: Vec<BoxedStream> = cpu_streams(server, seed, config)
        .into_iter()
        .map(|s| Box::new(s) as BoxedStream)
        .collect();
    Interleaver::new(server.label(), streams, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;
    use std::collections::HashSet;

    fn take(server: WebServer, n: usize) -> Vec<MemAccess> {
        let config = GeneratorConfig::default().with_cpus(2);
        stream(server, 9, &config).take(n).collect()
    }

    #[test]
    fn produces_requested_volume() {
        assert_eq!(take(WebServer::Apache, 15_000).len(), 15_000);
        assert_eq!(take(WebServer::Zeus, 15_000).len(), 15_000);
    }

    #[test]
    fn has_reads_and_writes_on_all_cpus() {
        let t = take(WebServer::Apache, 20_000);
        let cpus: HashSet<u8> = t.iter().map(|a| a.cpu).collect();
        assert_eq!(cpus.len(), 2);
        assert!(t.iter().any(|a| a.kind == AccessKind::Write));
        assert!(t.iter().any(|a| a.kind == AccessKind::Read));
    }

    #[test]
    fn shared_structures_are_touched_by_multiple_cpus() {
        let t = take(WebServer::Zeus, 60_000);
        let shared_base = 0x0900_0000_0000u64 + 0x20_0000_0000;
        let mut owners: std::collections::HashMap<u64, HashSet<u8>> = Default::default();
        for a in &t {
            if a.addr >= shared_base && a.addr < shared_base + 0x10_0000_0000 {
                owners
                    .entry(a.region_base(WEB_REGION_BYTES))
                    .or_default()
                    .insert(a.cpu);
            }
        }
        assert!(
            owners.values().any(|s| s.len() > 1),
            "expected at least one shared region touched by multiple CPUs"
        );
    }

    #[test]
    fn region_interleaving_is_heavy() {
        let t = take(WebServer::Apache, 30_000);
        let mut switches = 0usize;
        let mut total = 0usize;
        let mut last: Option<(u8, u64)> = None;
        for a in &t {
            let region = a.region_base(WEB_REGION_BYTES);
            if let Some((cpu, prev)) = last {
                if cpu == a.cpu {
                    total += 1;
                    if prev != region {
                        switches += 1;
                    }
                }
            }
            last = Some((a.cpu, region));
        }
        assert!(switches as f64 / total as f64 > 0.2);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let config = GeneratorConfig::default().with_cpus(2);
        let a: Vec<_> = stream(WebServer::Zeus, 4, &config).take(4000).collect();
        let b: Vec<_> = stream(WebServer::Zeus, 4, &config).take(4000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_cpu_shares_one_pair_of_libraries() {
        let config = GeneratorConfig::default().with_cpus(4);
        let streams = cpu_streams(WebServer::Zeus, 3, &config);
        assert_eq!(streams.len(), 4);
        assert!(streams
            .iter()
            .all(|s| Arc::ptr_eq(&s.libs, &streams[0].libs)));
    }

    #[test]
    fn servers_differ() {
        assert_ne!(take(WebServer::Apache, 3000), take(WebServer::Zeus, 3000));
    }
}
