//! Performance telemetry for the SMS reproduction.
//!
//! The simulator's own hot path deserves the same measurement discipline the
//! paper applies to the memory system it models.  This crate provides the
//! three primitives the rest of the workspace instruments itself with:
//!
//! * **wall-clock timers** that are *zero-cost when disabled*: a
//!   [`Stopwatch`] built disabled never touches the clock, and the
//!   monomorphized no-op meter pattern (see [`collect`]) lets hot loops
//!   compile the instrumentation away entirely;
//! * **event rates** ([`per_sec`]) that turn an event count and an elapsed
//!   wall-clock interval into events/second, plus log2 latency
//!   [`Histogram`]s;
//! * a **serializable report envelope** ([`MetricsReport`]) — a
//!   schema-versioned `{kind, data}` pair, mirroring the engine's open
//!   `ProbeReport` design — so every telemetry producer (whole-run engine
//!   metrics, the server's counters) writes the same self-describing JSON
//!   shape.
//!
//! Telemetry never feeds back into simulation: collecting metrics must not
//! (and, by construction here, cannot) perturb simulated results.  The
//! integration tests pin that property by comparing serialized results with
//! collection enabled and disabled byte for byte.
//!
//! # Example
//!
//! ```
//! use metrics::{per_sec, MetricsConfig, MetricsReport, Stopwatch};
//!
//! let config = MetricsConfig::enabled();
//! let watch = Stopwatch::start_if(config.enabled);
//! let simulated_accesses: u64 = 10_000;
//! // ... do the work being measured ...
//! let seconds = watch.elapsed_seconds();
//! let report = MetricsReport::new("example", &per_sec(simulated_accesses, seconds));
//! assert_eq!(report.kind, "example");
//! assert!(report.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collect;
pub mod histogram;
pub mod report;

pub use collect::{per_sec, MetricsConfig, Stopwatch};
pub use histogram::Histogram;
pub use report::MetricsReport;
