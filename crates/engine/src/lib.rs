//! The unified parallel simulation engine behind every figure of the SMS
//! reproduction — now a general simulation service with an **open plugin
//! API**.
//!
//! Every experiment in the evaluation is some number of independent
//! trace→cache→prefetcher simulations.  This crate turns each of those runs
//! into a declarative, fully serializable [`SimJob`] — a
//! [`trace::TraceSource`] (synthetic generator or streamed trace file),
//! system configuration, a registry-resolved [`PrefetcherSpec`], access
//! budget, and an optional timing-model evaluation — and executes whole job
//! lists with [`execute`], the one function that runs jobs:
//!
//! * prefetchers and probes are **plugins**: a [`PrefetcherSpec`] is just a
//!   stable plugin name plus a JSON parameter tree, resolved through a
//!   [`Registry`] that ships with the built-ins (`null`, `sms`, `ghb`,
//!   `training`, `density-probe`, `oracle-probe`) and accepts custom
//!   [`PrefetcherPlugin`]s from experiments and tests;
//! * jobs are claimed in index order from an atomic cursor, by the calling
//!   thread alone or by scoped worker threads (worker count from
//!   [`RunOptions`], `0` meaning the available hardware parallelism);
//! * every job builds its own prefetcher from the job description on the
//!   executing thread and reads exactly the accesses of its trace source —
//!   a synthetic trace that several jobs of a list read is generated once
//!   per run and replayed by each of them — so results are
//!   **bit-identical** for every worker count;
//! * every job runs one loop ([`segment`]): pull a segment of its trace,
//!   simulate it with miss classification deferred, then replay the
//!   segment's outcome tape into the classifiers — the same computation in
//!   the same order as the per-access reference `memsim::run`, so results
//!   stay bit-identical;
//! * results reach the caller's sink in submission order, each carrying the
//!   run's [`memsim::RunSummary`], an open serializable [`ProbeReport`]
//!   (`{kind, data}` — density histograms, oracle misses, predictor
//!   counters), and the [`timing::TimingResult`] for timing jobs; a job's
//!   result is its only output, and a traced run's spans
//!   ([`RunOptions::trace`]) are the only record of where its time went;
//! * whole job lists round-trip through JSON spec files ([`JobList`]), which
//!   is what `sms-experiments run --spec jobs.json` executes and every
//!   figure's `--emit-spec` writes.
//!
//! # Example
//!
//! ```
//! use engine::{execute, PrefetcherSpec, RunOptions, SimJob};
//! use memsim::HierarchyConfig;
//! use trace::{Application, GeneratorConfig};
//!
//! let jobs: Vec<SimJob> = [PrefetcherSpec::null(), PrefetcherSpec::sms_paper_default()]
//!     .into_iter()
//!     .map(|prefetcher| {
//!         SimJob::new(memsim::SimJob::synthetic(
//!             Application::OltpDb2,
//!             GeneratorConfig::default().with_cpus(2),
//!             2006,
//!             2,
//!             HierarchyConfig::scaled(),
//!             prefetcher,
//!             10_000,
//!         ))
//!     })
//!     .collect();
//! let mut results = Vec::new();
//! let delivered = execute(&jobs, &RunOptions::new(2), &mut |result| results.push(result))
//!     .expect("built-in plugins over synthetic traces always run");
//! assert_eq!(delivered, 2);
//! // SMS must not increase the baseline's L1 read misses.
//! assert!(results[1].summary.l1.read_misses <= results[0].summary.l1.read_misses);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hash;
pub mod plugin;
pub mod runner;
pub mod segment;
mod shared;
pub mod spec;

pub use hash::{canonical_json, fnv1a_64, spec_fingerprint};
pub use plugin::{
    closest_match, decode_params, BuiltPrefetcher, DensityReport, KindSink, OracleReport,
    PluginError, PrefetcherPlugin, Probe, ProbeReport, Registry, TrainingReport,
};
pub use runner::{
    execute, CancelToken, EngineError, JobList, JobResult, JobWarning, RunOptions, SimJob,
    SpecError, TimingSpec,
};
pub use spec::{MultiOracle, OracleProbeSpec, PrefetcherSpec, TrainingSpec};
