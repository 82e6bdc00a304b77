//! Counters and reports for the SMS reproduction's job server.
//!
//! Jobs report results only; where their time went is recorded by a traced
//! run's spans (`tracelog`).  This crate provides the two primitives the
//! server's counters are built from:
//!
//! * log2 latency [`Histogram`]s, small and `Copy`, such as the server's
//!   queue-wait distribution;
//! * a **serializable report envelope** ([`MetricsReport`]) — a
//!   schema-versioned `{kind, data}` pair, mirroring the engine's open
//!   `ProbeReport` design — in which the server answers a `Status` request
//!   and writes `--metrics-out`.
//!
//! # Example
//!
//! ```
//! use metrics::{Histogram, MetricsReport};
//!
//! let mut queue_wait_us = Histogram::new();
//! queue_wait_us.record(1_500);
//! let report = MetricsReport::new("example", &queue_wait_us.count());
//! assert_eq!(report.kind, "example");
//! assert_eq!(queue_wait_us.count(), 1);
//! assert!(report.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod histogram;
pub mod report;

pub use histogram::Histogram;
pub use report::MetricsReport;
