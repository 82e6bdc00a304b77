//! Spatial Memory Streaming (SMS), as described in
//! *Spatial Memory Streaming*, Somogyi, Wenisch, Ailamaki, Falsafi and
//! Moshovos, ISCA 2006.
//!
//! SMS predicts which 64 B cache blocks within a large **spatial region**
//! (128 B – 8 kB; 2 kB by default) a program is about to touch, and streams
//! those blocks into the primary cache ahead of demand misses.  The predictor
//! has two hardware structures:
//!
//! * the **Active Generation Table** ([`agt`]) observes every L1 access and
//!   records, per live spatial region generation, the bit-pattern of blocks
//!   touched, ending the generation when any of those blocks is evicted or
//!   invalidated;
//! * the **Pattern History Table** ([`pht`]) stores the recorded patterns
//!   indexed (by default) by the *PC + region offset* of the generation's
//!   trigger access, and is consulted on every trigger access to predict the
//!   blocks the new generation will use.
//!
//! Predicted blocks are handed to **prediction registers** ([`streamer`])
//! that issue stream requests into the L1 in round-robin order.
//!
//! The crate also contains the supporting analyses used by the paper's
//! evaluation: an oracle opportunity predictor ([`oracle`]), a generation /
//! access-density tracker ([`generation`]), alternative training structures
//! based on sectored tag arrays ([`training`]) and coverage accounting
//! ([`coverage`]).
//!
//! # Quick example
//!
//! ```
//! use sms::{SmsConfig, SmsPrefetcher};
//! use memsim::{HierarchyConfig, MultiCpuSystem, NullPrefetcher};
//! use trace::{Application, GeneratorConfig};
//!
//! // Simulate a small slice of the OLTP workload with and without SMS.
//! let gen_cfg = GeneratorConfig::default().with_cpus(2);
//! let hier = HierarchyConfig::scaled();
//! let n = 20_000;
//!
//! let mut base_sys = MultiCpuSystem::new(2, &hier);
//! let mut base = NullPrefetcher::new();
//! let mut stream = Application::OltpDb2.stream(1, &gen_cfg);
//! let baseline = memsim::run(&mut base_sys, &mut base, &mut stream, n);
//!
//! let mut sms_sys = MultiCpuSystem::new(2, &hier);
//! let mut sms = SmsPrefetcher::new(2, &SmsConfig::default());
//! let mut stream = Application::OltpDb2.stream(1, &gen_cfg);
//! let with_sms = memsim::run(&mut sms_sys, &mut sms, &mut stream, n);
//!
//! assert!(with_sms.l1.read_misses <= baseline.l1.read_misses);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agt;
pub mod coverage;
pub mod generation;
pub mod index;
pub mod oracle;
pub mod pattern;
pub mod pht;
pub mod predictor;
pub mod prefetcher;
pub mod region;
pub mod streamer;
pub mod training;

pub use agt::{ActiveGenerationTable, AgtConfig, TrainedPattern};
pub use coverage::{CoverageLevel, CoverageStats};
pub use generation::{DensityBin, DensityHistogram, DensityObserver, GenerationTracker};
pub use index::IndexScheme;
pub use oracle::{OracleObserver, OracleOpportunity};
pub use pattern::SpatialPattern;
pub use pht::{PatternHistoryTable, PhtCapacity, PhtError};
pub use predictor::{PredictorStats, SmsConfig, SmsPredictor};
pub use prefetcher::SmsPrefetcher;
pub use region::{RegionConfig, RegionError};
pub use streamer::{PredictionRegisterFile, StreamerConfig, StreamerError};
pub use training::{TrainerKind, TrainingPrefetcher};
