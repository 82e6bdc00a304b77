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
//! lists with [`run_jobs`]:
//!
//! * prefetchers and probes are **plugins**: a [`PrefetcherSpec`] is just a
//!   stable plugin name plus a JSON parameter tree, resolved through a
//!   [`Registry`] that ships with the built-ins (`null`, `sms`, `ghb`,
//!   `training`, `density-probe`, `oracle-probe`) and accepts custom
//!   [`PrefetcherPlugin`]s from experiments and tests;
//! * jobs are sharded across worker threads (`std::thread::scope` with an
//!   atomic work-stealing cursor; worker count from [`EngineConfig`],
//!   defaulting to the available hardware parallelism);
//! * every job builds its own prefetcher from the job description on the
//!   executing thread and reads exactly the accesses of its trace source —
//!   a synthetic trace that several jobs of a list read is generated once
//!   per run and replayed by each of them — so parallel
//!   results are **bit-identical** to the serial path;
//! * with a segment size set, each job's stream is additionally cut into
//!   segments that flow through a pull → simulate → account pipeline on up
//!   to three threads ([`segment`]) — the same computation in the same
//!   order, so results stay bit-identical;
//! * results are merged deterministically back into submission order, each
//!   carrying the run's [`memsim::RunSummary`], an open serializable
//!   [`ProbeReport`] (`{kind, data}` — density histograms, oracle misses,
//!   predictor counters), and the [`timing::TimingResult`] for timing jobs;
//! * whole job lists round-trip through JSON spec files ([`JobList`]), which
//!   is what `sms-experiments run --spec jobs.json` executes and every
//!   figure's `--emit-spec` writes.
//!
//! # Example
//!
//! ```
//! use engine::{run_jobs_with, EngineConfig, PrefetcherSpec, SimJob};
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
//! let results = run_jobs_with(&jobs, &EngineConfig::with_workers(2));
//! assert_eq!(results.len(), 2);
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
pub mod telemetry;

pub use hash::{canonical_json, fnv1a_64, list_fingerprint, spec_fingerprint};
pub use plugin::{
    closest_match, decode_params, BuiltPrefetcher, DensityReport, KindSink, OracleReport,
    PluginError, PrefetcherPlugin, Probe, ProbeReport, Registry, TrainingReport,
};
pub use runner::{
    run_job, run_job_metered, run_jobs, run_jobs_in, run_jobs_metered, run_jobs_observed,
    run_jobs_streamed, run_jobs_streamed_observed, run_jobs_with, CancelToken, EngineConfig,
    EngineError, JobList, JobResult, JobWarning, SimJob, SpecError, TimingSpec,
};
pub use segment::SegmentPlan;
pub use spec::{MultiOracle, OracleProbeSpec, PrefetcherSpec, TrainingSpec};
pub use telemetry::{EngineMetrics, JobMetrics, WorkerMetrics};
