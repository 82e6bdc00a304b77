//! Performance telemetry for the SMS reproduction.
//!
//! The simulator's own hot path deserves the same measurement discipline the
//! paper applies to the memory system it models.  This crate provides the
//! primitives the rest of the workspace reports its timings with:
//!
//! * **event rates** ([`per_sec`]) that turn an event count and an elapsed
//!   wall-clock interval into events/second;
//! * log2 latency [`Histogram`]s, small and `Copy`, which the engine's
//!   per-job metrics carry for each stage of its segment loop;
//! * a **serializable report envelope** ([`MetricsReport`]) — a
//!   schema-versioned `{kind, data}` pair, mirroring the engine's open
//!   `ProbeReport` design — so every telemetry producer (the server's
//!   counters among them) writes the same self-describing JSON shape.
//!
//! Timings are always collected, and they never feed back into simulation:
//! a job's results are a function of its spec alone, which the golden
//! hashes and the byte-compares of every execution path pin.
//!
//! # Example
//!
//! ```
//! use metrics::{per_sec, Histogram, MetricsReport};
//!
//! let start = std::time::Instant::now();
//! let simulated_accesses: u64 = 10_000;
//! // ... do the work being measured ...
//! let seconds = start.elapsed().as_secs_f64();
//! let mut latency_us = Histogram::new();
//! latency_us.record((seconds * 1e6) as u64);
//! let report = MetricsReport::new("example", &per_sec(simulated_accesses, seconds));
//! assert_eq!(report.kind, "example");
//! assert_eq!(latency_us.count(), 1);
//! assert!(report.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod histogram;
pub mod report;

pub use collect::per_sec;
pub use histogram::Histogram;
pub use report::MetricsReport;
