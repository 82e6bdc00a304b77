//! A cycle-approximate multiprocessor timing model for the SMS reproduction.
//!
//! The paper evaluates performance with FLEXUS, a cycle-accurate full-system
//! simulator of out-of-order cores.  Reimplementing that fidelity is outside
//! the scope of a trace-driven reproduction, so this crate provides a
//! first-order analytical model that captures the effects the paper's
//! performance discussion hinges on:
//!
//! * off-chip and on-chip read stalls proportional to the miss counts the
//!   cache simulation produces, with miss latency divided by the
//!   memory-level parallelism (MLP) available in an out-of-order window —
//!   this is what mutes OLTP speedups relative to coverage (Section 4.7);
//! * a store-buffer occupancy model that exposes store-bound phases such as
//!   DSS query 1, where streaming loads cannot help;
//! * busy time split into user and system components; and
//! * per-segment cycle counts so paired-measurement sampling can attach 95 %
//!   confidence intervals to speedups (Figure 12) and produce normalized
//!   execution-time breakdowns (Figure 13).
//!
//! The cycle accounting itself is [`TimingAccounting`], fed one access
//! outcome at a time.  [`TimingModel::evaluate`] is the per-access reference
//! walk that simulates and accounts in one loop; the `engine` crate instead
//! feeds a [`TimingAccounting`] from each segment's outcome tape, with
//! bit-identical cycles.
//!
//! # Example
//!
//! ```
//! use timing::{TimingConfig, TimingModel};
//! use memsim::HierarchyConfig;
//! use sms::{SmsConfig, SmsPrefetcher};
//! use memsim::NullPrefetcher;
//! use trace::{Application, GeneratorConfig};
//!
//! let gen_cfg = GeneratorConfig::default().with_cpus(2);
//! let model = TimingModel::new(HierarchyConfig::scaled(), 2, TimingConfig::default());
//!
//! let mut base = NullPrefetcher::new();
//! let mut stream = Application::Sparse.stream(1, &gen_cfg);
//! let (base_result, base_summary) = model.evaluate(&mut base, &mut stream, 20_000, 10);
//!
//! let mut sms = SmsPrefetcher::new(2, &SmsConfig::default());
//! let mut stream = Application::Sparse.stream(1, &gen_cfg);
//! let (sms_result, _) = model.evaluate(&mut sms, &mut stream, 20_000, 10);
//!
//! assert!(sms_result.total_cycles <= base_result.total_cycles);
//! assert_eq!(base_summary.accesses, 20_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod breakdown;
pub mod config;
pub mod model;
pub mod speedup;

pub use breakdown::TimeBreakdown;
pub use config::TimingConfig;
pub use model::{TimingAccounting, TimingModel, TimingResult};
pub use speedup::{speedup_with_ci, BreakdownComparison};
