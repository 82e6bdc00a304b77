//! Trace-driven memory-hierarchy simulator used as the substrate for the
//! Spatial Memory Streaming reproduction.
//!
//! The original paper evaluates SMS with FLEXUS, a cycle-accurate full-system
//! simulator of a 16-processor directory-based shared-memory multiprocessor.
//! This crate provides the memory-system portion of that substrate as a
//! trace-driven model:
//!
//! * set-associative, write-allocate caches with LRU replacement and
//!   configurable block size ([`cache`]);
//! * a two-level private hierarchy per processor ([`hierarchy`]);
//! * a multi-processor system with write-invalidate coherence at cache-block
//!   granularity, including false-sharing detection for block sizes larger
//!   than 64 B ([`system`]).  A sharer directory — exact per-(bucket, CPU)
//!   counts of the lines each CPU's caches hold, at most one byte per L2
//!   line per CPU — names the CPUs a write must search, so a write visits
//!   only the CPUs that may hold its block;
//! * miss classification into cold / replacement / true-sharing /
//!   false-sharing categories ([`classify`]), inline per access or deferred
//!   onto an outcome tape and replayed per segment;
//! * the per-access reference loop and the segment primitives that drive
//!   a trace through the system ([`driver`]); and
//! * sectored and logically-sectored tag arrays ([`sectored`]) that model the
//!   training structures of prior spatial predictors for the paper's
//!   Figure 8 and Figure 9 comparisons.
//!
//! # Quick example
//!
//! ```
//! use memsim::{CacheConfig, HierarchyConfig, CpuHierarchy};
//! use trace::MemAccess;
//!
//! let mut cpu = CpuHierarchy::new(0, &HierarchyConfig::table1());
//! let outcome = cpu.access(&MemAccess::read(0, 0x400, 0x1000));
//! assert!(!outcome.l1_hit); // cold miss
//! let outcome = cpu.access(&MemAccess::read(0, 0x400, 0x1008));
//! assert!(outcome.l1_hit);  // same 64B block
//! assert_eq!(CacheConfig::l1_table1().block_bytes, 64);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod classify;
pub mod config;
pub mod driver;
pub mod fasthash;
pub mod hierarchy;
pub mod prefetch;
pub mod sectored;
pub mod stats;
pub mod system;

pub use cache::{AccessOutcome, CacheLineState, EvictedLine, SetAssocCache};
pub use classify::{AccessFlags, MissAccounting, MissBreakdown, MissKind, OutcomeTape};
pub use config::{CacheConfig, GeometryError, HierarchyConfig, MAX_TABLE_ENTRIES};
pub use driver::{
    run, run_segment_deferred, summarize_segmented, RunSummary, SegmentCounts, SimJob,
};
pub use fasthash::{FastMap, FxBuildHasher, FxHasher};
pub use hierarchy::{CpuHierarchy, HierarchyOutcome};
pub use prefetch::{NullPrefetcher, PrefetchLevel, PrefetchRequest, Prefetcher};
pub use sectored::{DecoupledSectoredCache, LogicalSectoredTags, SectorEviction};
pub use stats::CacheStats;
pub use system::{CpuMut, MultiCpuSystem, SystemOutcome};
