//! The job executor: runs a list of [`SimJob`]s serially or sharded across
//! worker threads, with a deterministic merge of the results.
//!
//! Every job runs the engine's one job loop ([`crate::segment`]) on the
//! worker that claimed it: it builds its own system and resolves its
//! prefetcher spec through a plugin [`Registry`] there, and reads exactly
//! the accesses its trace source yields — from its own generator or file,
//! or from the run's shared recording of a synthetic trace several jobs
//! read — so the parallel path is bit-identical to the serial
//! path and the result order never depends on scheduling.
//!
//! Jobs and results are serializable end to end: a [`JobList`] round-trips
//! through a JSON spec file (`sms-experiments run --spec jobs.json`), and a
//! `Vec<JobResult>` is the JSON the engine writes back out.

use crate::plugin::{PluginError, ProbeReport, Registry};
use crate::segment::run_job_on;
use crate::shared::{SharedTraces, LIVE_CAP_BYTES};
use crate::spec::PrefetcherSpec;
use crate::telemetry::{EngineMetrics, JobMetrics, WorkerMetrics};
use memsim::RunSummary;
use metrics::{MetricsConfig, Stopwatch};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use timing::{TimingConfig, TimingResult};
use tracelog::{Recorder, Trace};

/// Timing-model parameters attached to a job whose run also feeds the
/// timing model's cycle accounting (Figures 12 and 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingSpec {
    /// Cycle-level parameters of the modeled system.
    pub config: TimingConfig,
    /// Number of equal trace segments for paired sampling.
    pub segments: usize,
}

/// One unit of work for the engine: the driver-level [`memsim::SimJob`]
/// (trace source, system, prefetcher spec, access budget) plus an optional
/// timing-model evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// The simulation run proper, instantiated on the executing thread.
    pub sim: memsim::SimJob<PrefetcherSpec>,
    /// When set, the job also runs the timing model's cycle accounting and
    /// reports a [`TimingResult`].
    pub timing: Option<TimingSpec>,
}

impl SimJob {
    /// A plain cache-simulation job (no timing model).
    pub fn new(sim: memsim::SimJob<PrefetcherSpec>) -> Self {
        Self { sim, timing: None }
    }

    /// Attaches a timing-model evaluation to the job.
    pub fn with_timing(mut self, config: TimingConfig, segments: usize) -> Self {
        self.timing = Some(TimingSpec { config, segments });
        self
    }
}

impl From<memsim::SimJob<PrefetcherSpec>> for SimJob {
    fn from(sim: memsim::SimJob<PrefetcherSpec>) -> Self {
        Self::new(sim)
    }
}

/// A serialized list of engine jobs: the on-disk spec-file format behind
/// `sms-experiments run --spec` and every figure's `--emit-spec`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobList {
    /// Spec-file format version.
    pub version: u32,
    /// Optional client-facing label for the list (introduced in version 2
    /// for the job server's submission protocol).  Purely descriptive: it
    /// never affects execution and is excluded from the content-addressed
    /// result-cache key ([`crate::hash::spec_fingerprint`]).
    pub name: Option<String>,
    /// The jobs, in submission order.
    pub jobs: Vec<SimJob>,
}

impl JobList {
    /// Current spec-file format version.
    ///
    /// # Version history
    ///
    /// * **1** — `{version, jobs}`.
    /// * **2** — adds the optional `name` label.  Version-1 files remain
    ///   loadable: [`JobList::from_json`] reads any version in
    ///   [`MIN_VERSION`](Self::MIN_VERSION)`..=`[`VERSION`](Self::VERSION)
    ///   and normalizes the loaded list to the current version (absent
    ///   fields take their documented defaults — `name` becomes `None`), so
    ///   re-serializing a loaded list is the migration path.
    pub const VERSION: u32 = 2;

    /// Oldest spec-file format version this build still reads.
    pub const MIN_VERSION: u32 = 1;

    /// Wraps `jobs` in the current format version with no name label.
    pub fn new(jobs: Vec<SimJob>) -> Self {
        Self {
            version: Self::VERSION,
            name: None,
            jobs,
        }
    }

    /// Returns a copy carrying a client-facing label.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Parses a spec file's JSON text, checking the format version *before*
    /// decoding the jobs — a future-versioned spec whose job shape this
    /// build cannot read still gets the actionable version error rather than
    /// a field-level parse failure.
    ///
    /// Any version in [`MIN_VERSION`](Self::MIN_VERSION)`..=`
    /// [`VERSION`](Self::VERSION) is accepted; older lists load through the
    /// lenient path (fields added since that version take their defaults)
    /// and are normalized to the current version, so writing a loaded list
    /// back out upgrades it.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnsupportedVersion`] when the spec's version is outside
    /// the supported range, [`SpecError::Parse`] for anything that is not a
    /// well-formed job list of its declared version, and
    /// [`SpecError::InvalidCache`] for a job whose cache geometry
    /// [`memsim::CacheConfig::validate`] rejects.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let value: serde_json::Value =
            serde_json::from_str(text).map_err(|e| SpecError::Parse(e.to_string()))?;
        let version_value = match value.get("version") {
            Some(v) => v,
            None => {
                return Err(SpecError::Parse(
                    "missing \"version\" field (is this a job spec file?)".to_string(),
                ))
            }
        };
        let version: u32 = Deserialize::from_value(version_value)
            .map_err(|e| SpecError::Parse(format!("\"version\" field: {e}")))?;
        if !(Self::MIN_VERSION..=Self::VERSION).contains(&version) {
            return Err(SpecError::UnsupportedVersion {
                found: version,
                supported: Self::VERSION,
            });
        }
        // The lenient path: every field added after MIN_VERSION is optional
        // with a documented default, so decoding the current struct shape
        // against an older document fills the gaps (`name` absent → None).
        let mut list: Self =
            Deserialize::from_value(&value).map_err(|e| SpecError::Parse(e.to_string()))?;
        for (job, entry) in list.jobs.iter().enumerate() {
            let hierarchy = &entry.sim.hierarchy;
            for (level, cache) in [("L1", hierarchy.l1), ("L2", hierarchy.l2)] {
                cache
                    .validate()
                    .map_err(|error| SpecError::InvalidCache { job, level, error })?;
            }
        }
        list.version = Self::VERSION;
        Ok(list)
    }
}

/// An error raised while loading a [`JobList`] spec file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text is not a well-formed job list of the supported version.
    Parse(String),
    /// The spec declares a format version this build does not read.
    UnsupportedVersion {
        /// Version the spec file declares.
        found: u32,
        /// The newest version this build reads (the readable range is
        /// [`JobList::MIN_VERSION`]`..=`this).
        supported: u32,
    },
    /// A job's hierarchy describes a cache the simulator cannot model.
    InvalidCache {
        /// Index of the job in the list.
        job: usize,
        /// The level that fails: `"L1"` or `"L2"`.
        level: &'static str,
        /// The invariant the cache breaks.
        error: memsim::GeometryError,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(message) => write!(f, "invalid job spec: {message}"),
            SpecError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported job-spec version {found}: this build reads versions {min} through \
                 {supported}; regenerate the spec with `sms-experiments <experiment> --emit-spec`",
                min = JobList::MIN_VERSION
            ),
            SpecError::InvalidCache { job, level, error } => {
                write!(f, "invalid job spec: job {job}: {level} {error}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A non-fatal condition observed while executing a job, carried in the
/// [`JobResult`] so it is visible in `--out` dumps and spec-run output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobWarning {
    /// Stable tag naming the condition (e.g. [`JobWarning::SHORT_TRACE`]).
    pub kind: String,
    /// Human-readable description.
    pub message: String,
}

impl JobWarning {
    /// Kind tag of the short-trace warning: the job's trace source ran dry
    /// before the requested access budget was reached.
    pub const SHORT_TRACE: &'static str = "short_trace";

    /// The warning for a trace that delivered fewer accesses than requested.
    pub fn short_trace(source: &str, delivered: u64, requested: usize) -> Self {
        Self {
            kind: Self::SHORT_TRACE.to_string(),
            message: format!(
                "trace source {source} delivered {delivered} of {requested} requested accesses"
            ),
        }
    }
}

/// The result of one [`SimJob`], tagged with the job's position in the input
/// list so merged results are always in submission order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Index of the job in the submitted list.
    pub job_index: usize,
    /// Cache-simulation summary of the run.
    pub summary: RunSummary,
    /// Post-run prefetcher/probe state.
    pub probe: ProbeReport,
    /// Timing-model result, present iff the job carried a
    /// [`SimJob::timing`] spec.
    pub timing: Option<TimingResult>,
    /// Non-fatal conditions observed during the run (e.g. a file-backed
    /// trace shorter than the access budget).  Deterministic — never
    /// timing- or telemetry-dependent — so results stay bit-identical
    /// across workers and metrics settings.
    pub warnings: Vec<JobWarning>,
}

/// An error raised while preparing a job for execution (resolving its
/// prefetcher spec or opening its trace source).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The job's prefetcher spec failed to resolve or build.
    Plugin {
        /// Index of the failing job in the submitted list.
        job_index: usize,
        /// The underlying registry/plugin error.
        error: PluginError,
    },
    /// The job's trace source failed to open.
    Trace {
        /// Index of the failing job in the submitted list.
        job_index: usize,
        /// Description of the failing source.
        source: String,
        /// The I/O error message.
        message: String,
    },
    /// The job's execution panicked (a prefetcher plugin or probe raised a
    /// panic mid-run).  The panic is caught at the job boundary, so the run
    /// completes with the usual lowest-index-error semantics instead of
    /// poisoning the worker or the calling scheduler.
    Panicked {
        /// Index of the panicking job in the submitted list.
        job_index: usize,
        /// The panic payload, when it was a string (the common
        /// `panic!("...")` case), or a placeholder otherwise.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Plugin { job_index, error } => {
                write!(f, "job {job_index}: {error}")
            }
            EngineError::Trace {
                job_index,
                source,
                message,
            } => write!(
                f,
                "job {job_index}: trace source {source} failed: {message}"
            ),
            EngineError::Panicked { job_index, message } => {
                write!(f, "job {job_index}: panicked: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Renders a caught panic payload as a message: the payload itself when it
/// was a string (the overwhelmingly common `panic!("...")` / `expect` case),
/// a placeholder otherwise.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execution parameters of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of worker threads; `0` means one per available hardware
    /// thread, `1` forces the serial path.
    pub workers: usize,
}

impl EngineConfig {
    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        Self { workers: 0 }
    }

    /// The serial fallback: run every job on the calling thread.
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// An explicit worker count (`0` = auto).
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }

    /// The worker count actually used for `jobs` queued jobs.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        workers.min(jobs).max(1)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// Runs one job to completion on the calling thread, resolving its
/// prefetcher spec through `registry`.
///
/// # Errors
///
/// [`EngineError::Plugin`] if the spec does not resolve or build, and
/// [`EngineError::Trace`] if a file-backed trace source fails to open or
/// turns out to be corrupt mid-stream (a corrupt record must fail the job
/// loudly rather than silently shorten the run).
pub fn run_job(index: usize, job: &SimJob, registry: &Registry) -> Result<JobResult, EngineError> {
    run_job_metered(index, job, registry, &MetricsConfig::disabled()).map(|(result, _)| result)
}

/// [`run_job`] with telemetry: additionally collects the job's
/// [`JobMetrics`] (wall-clock time, accesses/second, cache-op and
/// prefetch-issue counts, per-segment stage times) when `metrics.enabled`.
///
/// The [`JobResult`] is bit-identical regardless of the metrics setting —
/// telemetry observes the run on a separate channel and never enters the
/// serialized results.
///
/// # Errors
///
/// As [`run_job`].
pub fn run_job_metered(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    metrics: &MetricsConfig,
) -> Result<(JobResult, JobMetrics), EngineError> {
    run_job_on(index, job, registry, metrics, &Trace::disabled(), || {
        job.sim.source.open()
    })
}

/// Runs every job against the built-in plugin registry with the default
/// engine configuration (one worker per available hardware thread) and
/// returns the results in submission order.
///
/// # Panics
///
/// Panics if a job fails to prepare (unknown plugin, bad parameters,
/// unopenable trace file).  Specs built with the typed
/// [`PrefetcherSpec`] constructors over synthetic sources never fail; use
/// [`run_jobs_in`] to handle errors from externally-loaded job files.
pub fn run_jobs(jobs: &[SimJob]) -> Vec<JobResult> {
    run_jobs_with(jobs, &EngineConfig::default())
}

/// Runs every job against the built-in plugin registry with an explicit
/// engine configuration.
///
/// # Panics
///
/// As [`run_jobs`]: panics if a job fails to prepare.
pub fn run_jobs_with(jobs: &[SimJob], config: &EngineConfig) -> Vec<JobResult> {
    run_jobs_in(jobs, config, Registry::builtin()).expect("job failed to prepare")
}

/// Runs every job, resolving prefetcher specs through `registry` and
/// sharding the list across `config.workers` threads, then merges the
/// results deterministically back into submission order.
///
/// With one effective worker the engine runs serially on the calling thread;
/// either way the results are bit-identical, because each job builds its own
/// prefetcher from the job description and reads exactly its source's
/// accesses.
///
/// # Errors
///
/// The first (lowest-job-index) preparation failure, regardless of worker
/// scheduling.  Already-completed work on other threads is discarded.
pub fn run_jobs_in(
    jobs: &[SimJob],
    config: &EngineConfig,
    registry: &Registry,
) -> Result<Vec<JobResult>, EngineError> {
    run_jobs_metered(jobs, config, registry, &MetricsConfig::disabled()).map(|(results, _)| results)
}

/// One executed job tagged with its submission index, or the error that
/// stopped its worker.
type TaggedOutcome = (usize, Result<(JobResult, JobMetrics), EngineError>);

/// Executes one job with panic isolation: a panic anywhere inside the job —
/// plugin build, probe callback, kind sink — is caught at this boundary and
/// surfaced as
/// [`EngineError::Panicked`], so a broken plugin fails its own job with the
/// usual lowest-index-error semantics instead of tearing down the worker
/// thread and every job queued behind it.
///
/// This is the one place every run mode opens a job's stream, through the
/// run's `shared` trace table, and tells the table when the job is done.
///
/// `AssertUnwindSafe` is sound: the job's system, prefetcher and stream are
/// constructed inside the closure and dropped with it; the shared
/// `registry`, `metrics` and `trace` are only read through `&` references;
/// and a panic while recording leaves the table's group unrecorded, so the
/// next job records it afresh.
pub(crate) fn exec_job_isolated(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    metrics: &MetricsConfig,
    trace: &Trace,
    shared: &SharedTraces,
    rec: &Recorder,
) -> Result<(JobResult, JobMetrics), EngineError> {
    let mut span = rec.span("job");
    span.arg_u64("job", index as u64);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job_on(index, job, registry, metrics, trace, || {
            shared.open(index, job)
        })
    }));
    shared.finish(index);
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            rec.instant("job_panicked", |args| {
                args.u64("job", index as u64);
            });
            Err(EngineError::Panicked {
                job_index: index,
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// One worker's output: its timing plus the tagged job outcomes it ran.
type WorkerShard = (WorkerMetrics, Vec<TaggedOutcome>);

/// [`run_jobs_in`] with telemetry: additionally collects an
/// [`EngineMetrics`] — per-job throughput, per-worker simulate vs.
/// queue-wait time, and the whole-run timing including the deterministic
/// merge — when `metrics.enabled` (all timings zero otherwise).
///
/// Results are bit-identical to [`run_jobs_in`] for every metrics setting
/// and worker count: telemetry is collected on a separate channel and never
/// serialized into the [`JobResult`]s.
///
/// # Errors
///
/// As [`run_jobs_in`]: the first (lowest-job-index) preparation failure.
/// Metrics collected before the failure are discarded with the results.
pub fn run_jobs_metered(
    jobs: &[SimJob],
    config: &EngineConfig,
    registry: &Registry,
    metrics: &MetricsConfig,
) -> Result<(Vec<JobResult>, EngineMetrics), EngineError> {
    run_jobs_observed(jobs, config, registry, metrics, &Trace::disabled())
}

/// [`run_jobs_metered`] with span tracing: when `trace` is enabled, every
/// worker records a `worker` span, each executed job a nested `job` span,
/// and each job's loop records per-segment stage spans on a track of its
/// own.  With a disabled trace this *is*
/// [`run_jobs_metered`] — recorders are no-ops that never read the clock —
/// and results are bit-identical for every tracing and metrics setting.
///
/// # Errors
///
/// As [`run_jobs_in`]: the first (lowest-job-index) preparation failure.
pub fn run_jobs_observed(
    jobs: &[SimJob],
    config: &EngineConfig,
    registry: &Registry,
    metrics: &MetricsConfig,
    trace: &Trace,
) -> Result<(Vec<JobResult>, EngineMetrics), EngineError> {
    let run_watch = Stopwatch::start_if(metrics.enabled);
    let workers = config.effective_workers(jobs.len());
    let shared = SharedTraces::plan(jobs, LIVE_CAP_BYTES);
    let exec = |index: usize, job: &SimJob, rec: &Recorder| {
        exec_job_isolated(index, job, registry, metrics, trace, &shared, rec)
    };
    if workers <= 1 {
        let recorder = trace.recorder("engine");
        let mut results = Vec::with_capacity(jobs.len());
        let mut engine_metrics = EngineMetrics::default();
        let mut simulate_seconds = 0.0;
        for (index, job) in jobs.iter().enumerate() {
            let (result, job_metrics) = exec(index, job, &recorder)?;
            simulate_seconds += job_metrics.elapsed_seconds;
            results.push(result);
            engine_metrics.jobs.push(job_metrics);
        }
        let total_seconds = run_watch.elapsed_seconds();
        engine_metrics.workers.push(WorkerMetrics {
            worker: 0,
            jobs_run: jobs.len() as u64,
            simulate_seconds,
            queue_wait_seconds: (total_seconds - simulate_seconds).max(0.0),
            total_seconds,
        });
        engine_metrics.finish(0.0, total_seconds);
        return Ok((results, engine_metrics));
    }

    // Work-stealing by atomic cursor: each worker claims the next unclaimed
    // job, so long jobs do not serialize behind a static partition.
    let next = AtomicUsize::new(0);
    let shards: Vec<WorkerShard> = std::thread::scope(|scope| {
        let exec = &exec;
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                // `move` is for the worker index; the shared state is
                // captured by reference.
                let next = &next;
                scope.spawn(move || {
                    let recorder = trace.recorder(&format!("worker{worker}"));
                    let mut worker_span = recorder.span("worker");
                    let worker_watch = Stopwatch::start_if(metrics.enabled);
                    let mut simulate_seconds = 0.0;
                    let mut shard = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs.len() {
                            break;
                        }
                        let result = exec(index, &jobs[index], &recorder);
                        let failed = result.is_err();
                        if let Ok((_, job_metrics)) = &result {
                            simulate_seconds += job_metrics.elapsed_seconds;
                        }
                        shard.push((index, result));
                        if failed {
                            // No point burning the queue down after a
                            // failure; the merge below still picks the
                            // lowest-index error deterministically.
                            break;
                        }
                    }
                    let total_seconds = worker_watch.elapsed_seconds();
                    let worker_metrics = WorkerMetrics {
                        worker,
                        jobs_run: shard.len() as u64,
                        simulate_seconds,
                        queue_wait_seconds: (total_seconds - simulate_seconds).max(0.0),
                        total_seconds,
                    };
                    worker_span.arg_u64("jobs_run", worker_metrics.jobs_run);
                    worker_span.arg_f64("queue_wait_seconds", worker_metrics.queue_wait_seconds);
                    (worker_metrics, shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });

    // Deterministic merge: the tagged index recovers submission order
    // regardless of which worker ran which job, and the lowest-index error
    // wins regardless of scheduling.
    let merge_watch = Stopwatch::start_if(metrics.enabled);
    let mut engine_metrics = EngineMetrics::default();
    let mut tagged: Vec<TaggedOutcome> = Vec::new();
    for (worker_metrics, shard) in shards {
        engine_metrics.workers.push(worker_metrics);
        tagged.extend(shard);
    }
    tagged.sort_by_key(|(index, _)| *index);
    let mut results = Vec::with_capacity(tagged.len());
    for (_, outcome) in tagged {
        let (result, job_metrics) = outcome?;
        results.push(result);
        engine_metrics.jobs.push(job_metrics);
    }
    debug_assert!(results.iter().enumerate().all(|(i, r)| r.job_index == i));
    engine_metrics.finish(merge_watch.elapsed_seconds(), run_watch.elapsed_seconds());
    Ok((results, engine_metrics))
}

/// A shared cooperative-cancellation flag for a streaming engine run.
///
/// Cancellation is observed between jobs, never mid-job: workers stop
/// claiming new work, already-running jobs complete, and the run returns
/// cleanly with the contiguous prefix of results delivered so far.  Cloning
/// shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// [`run_jobs_metered`] restructured for a serving loop: results are
/// delivered to `sink` **incrementally, in submission order**, instead of
/// being collected into a `Vec`, and the run can be cut short between jobs
/// through `cancel`.
///
/// The per-job results handed to the sink are bit-identical to what
/// [`run_jobs_metered`] would return for every worker count — workers tag
/// outcomes with the submission index
/// and the calling thread reorders them into a strictly in-order stream, so
/// a consumer can forward each result over a socket as it lands.  Because
/// workers claim jobs from an atomic cursor, the claimed set is always a
/// contiguous prefix of the list; a cancelled run therefore delivers jobs
/// `0..n` for some `n` with nothing missing in between.
///
/// Returns the number of results delivered to the sink plus the run's
/// [`EngineMetrics`] (no separate merge phase, so `merge_seconds` is zero).
///
/// # Errors
///
/// The lowest-index preparation failure, exactly as [`run_jobs_metered`];
/// results before the failing index have already been delivered to the sink
/// (a streaming consumer has by then forwarded them — the error frame
/// follows the partial stream).
pub fn run_jobs_streamed(
    jobs: &[SimJob],
    config: &EngineConfig,
    registry: &Registry,
    metrics: &MetricsConfig,
    cancel: &CancelToken,
    sink: &mut dyn FnMut(JobResult, JobMetrics),
) -> Result<(usize, EngineMetrics), EngineError> {
    run_jobs_streamed_observed(
        jobs,
        config,
        registry,
        metrics,
        &Trace::disabled(),
        cancel,
        sink,
    )
}

/// [`run_jobs_streamed`] with span tracing, exactly as [`run_jobs_observed`]
/// relates to [`run_jobs_metered`]: a `worker` span per worker, a nested
/// `job` span per executed job, stage spans inside every job — and a
/// disabled trace records nothing and costs nothing.
///
/// # Errors
///
/// As [`run_jobs_streamed`].
pub fn run_jobs_streamed_observed(
    jobs: &[SimJob],
    config: &EngineConfig,
    registry: &Registry,
    metrics: &MetricsConfig,
    trace: &Trace,
    cancel: &CancelToken,
    sink: &mut dyn FnMut(JobResult, JobMetrics),
) -> Result<(usize, EngineMetrics), EngineError> {
    let run_watch = Stopwatch::start_if(metrics.enabled);
    let workers = config.effective_workers(jobs.len());
    let shared = SharedTraces::plan(jobs, LIVE_CAP_BYTES);
    let exec = |index: usize, job: &SimJob, rec: &Recorder| {
        exec_job_isolated(index, job, registry, metrics, trace, &shared, rec)
    };

    if workers <= 1 {
        let recorder = trace.recorder("engine");
        let mut engine_metrics = EngineMetrics::default();
        let mut simulate_seconds = 0.0;
        let mut delivered = 0;
        let mut first_error = None;
        for (index, job) in jobs.iter().enumerate() {
            if cancel.is_cancelled() {
                break;
            }
            match exec(index, job, &recorder) {
                Ok((result, job_metrics)) => {
                    simulate_seconds += job_metrics.elapsed_seconds;
                    engine_metrics.jobs.push(job_metrics);
                    sink(result, job_metrics);
                    delivered += 1;
                }
                Err(e) => {
                    first_error = Some(e);
                    break;
                }
            }
        }
        if first_error.is_none() && cancel.is_cancelled() {
            recorder.instant("run_cancelled", |args| {
                args.u64("delivered", delivered as u64);
            });
        }
        let total_seconds = run_watch.elapsed_seconds();
        engine_metrics.workers.push(WorkerMetrics {
            worker: 0,
            jobs_run: delivered as u64,
            simulate_seconds,
            queue_wait_seconds: (total_seconds - simulate_seconds).max(0.0),
            total_seconds,
        });
        engine_metrics.finish(0.0, total_seconds);
        return match first_error {
            Some(e) => Err(e),
            None => Ok((delivered, engine_metrics)),
        };
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<TaggedOutcome>();
    let mut engine_metrics = EngineMetrics::default();
    let mut delivered = 0usize;
    let mut first_error: Option<EngineError> = None;
    std::thread::scope(|scope| {
        let exec = &exec;
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                let tx = tx.clone();
                scope.spawn(move || {
                    let recorder = trace.recorder(&format!("worker{worker}"));
                    let mut worker_span = recorder.span("worker");
                    let worker_watch = Stopwatch::start_if(metrics.enabled);
                    let mut simulate_seconds = 0.0;
                    let mut jobs_run = 0u64;
                    loop {
                        if cancel.is_cancelled() {
                            break;
                        }
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= jobs.len() {
                            break;
                        }
                        let outcome = exec(index, &jobs[index], &recorder);
                        let failed = outcome.is_err();
                        if let Ok((_, job_metrics)) = &outcome {
                            simulate_seconds += job_metrics.elapsed_seconds;
                        }
                        jobs_run += 1;
                        if tx.send((index, outcome)).is_err() || failed {
                            break;
                        }
                    }
                    let total_seconds = worker_watch.elapsed_seconds();
                    let worker_metrics = WorkerMetrics {
                        worker,
                        jobs_run,
                        simulate_seconds,
                        queue_wait_seconds: (total_seconds - simulate_seconds).max(0.0),
                        total_seconds,
                    };
                    worker_span.arg_u64("jobs_run", jobs_run);
                    worker_span.arg_f64("queue_wait_seconds", worker_metrics.queue_wait_seconds);
                    worker_metrics
                })
            })
            .collect();
        // The workers hold the only remaining senders, so the channel closes
        // when the last one finishes.
        drop(tx);

        // Reorder the tagged outcomes into a strictly in-order stream.  On
        // the first in-order error (necessarily the lowest failing index:
        // everything before it was already emitted as a success) cancel the
        // remaining work and drain the channel.
        let mut pending: std::collections::BTreeMap<
            usize,
            Result<(JobResult, JobMetrics), EngineError>,
        > = std::collections::BTreeMap::new();
        let mut next_emit = 0usize;
        for (index, outcome) in rx {
            pending.insert(index, outcome);
            while first_error.is_none() {
                match pending.remove(&next_emit) {
                    Some(Ok((result, job_metrics))) => {
                        engine_metrics.jobs.push(job_metrics);
                        sink(result, job_metrics);
                        delivered += 1;
                        next_emit += 1;
                    }
                    Some(Err(e)) => {
                        first_error = Some(e);
                        cancel.cancel();
                    }
                    None => break,
                }
            }
        }
        for handle in handles {
            engine_metrics
                .workers
                .push(handle.join().expect("engine worker panicked"));
        }
    });
    if first_error.is_none() && cancel.is_cancelled() {
        trace.recorder("engine").instant("run_cancelled", |args| {
            args.u64("delivered", delivered as u64);
        });
    }
    engine_metrics.finish(0.0, run_watch.elapsed_seconds());
    match first_error {
        Some(e) => Err(e),
        None => Ok((delivered, engine_metrics)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ghb::GhbConfig;
    use memsim::HierarchyConfig;
    use sms::SmsConfig;
    use trace::{Application, GeneratorConfig};

    fn job(app: Application, prefetcher: PrefetcherSpec) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            GeneratorConfig::default().with_cpus(2),
            2006,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            8_000,
        ))
    }

    fn job_list() -> Vec<SimJob> {
        vec![
            job(Application::OltpDb2, PrefetcherSpec::null()),
            job(Application::OltpDb2, PrefetcherSpec::sms_paper_default()),
            job(
                Application::Sparse,
                PrefetcherSpec::ghb(&GhbConfig::paper_small()),
            ),
            job(
                Application::DssQry1,
                PrefetcherSpec::sms(&SmsConfig::paper_default()),
            ),
            job(Application::WebApache, PrefetcherSpec::null())
                .with_timing(TimingConfig::table1(), 4),
        ]
    }

    #[test]
    fn serial_and_parallel_agree_bit_for_bit() {
        let jobs = job_list();
        let serial = run_jobs_with(&jobs, &EngineConfig::serial());
        let parallel = run_jobs_with(&jobs, &EngineConfig::with_workers(4));
        assert_eq!(serial, parallel);
        assert!(serial.iter().enumerate().all(|(i, r)| r.job_index == i));
        for r in &serial {
            assert_eq!(r.summary.skipped_accesses, 0);
        }
    }

    #[test]
    fn timing_jobs_report_timing_results() {
        let jobs = job_list();
        let results = run_jobs(&jobs);
        assert!(results[4].timing.is_some());
        assert!(results[..4].iter().all(|r| r.timing.is_none()));
        let t = results[4].timing.as_ref().unwrap();
        assert_eq!(t.segment_cycles.len(), 4);
        assert_eq!(t.accesses, results[4].summary.accesses);
    }

    #[test]
    fn effective_workers_clamps_sensibly() {
        assert_eq!(EngineConfig::serial().effective_workers(100), 1);
        assert_eq!(EngineConfig::with_workers(8).effective_workers(3), 3);
        assert_eq!(EngineConfig::with_workers(2).effective_workers(0), 1);
        assert!(EngineConfig::auto().effective_workers(64) >= 1);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = vec![job(Application::Ocean, PrefetcherSpec::null())];
        let results = run_jobs_with(&jobs, &EngineConfig::with_workers(16));
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].summary.accesses, 8_000);
    }

    #[test]
    fn job_lists_round_trip_through_json() {
        let list = JobList::new(job_list());
        let json = serde_json::to_string_pretty(&list).expect("serialize");
        let back: JobList = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(list, back);
        assert_eq!(back.version, JobList::VERSION);
        // The reloaded list executes identically to the original.
        let a = run_jobs_with(&list.jobs, &EngineConfig::serial());
        let b = run_jobs_with(&back.jobs, &EngineConfig::serial());
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_plugin_surfaces_lowest_index_error() {
        let mut jobs = job_list();
        jobs.insert(
            1,
            job(
                Application::Ocean,
                PrefetcherSpec {
                    plugin: "warp-drive".to_string(),
                    params: serde_json::Value::Null,
                },
            ),
        );
        jobs.push(job(
            Application::Ocean,
            PrefetcherSpec {
                plugin: "also-unknown".to_string(),
                params: serde_json::Value::Null,
            },
        ));
        for workers in [1, 4] {
            let err = run_jobs_in(
                &jobs,
                &EngineConfig::with_workers(workers),
                Registry::builtin(),
            )
            .expect_err("unknown plugin must fail");
            match err {
                EngineError::Plugin { job_index, .. } => assert_eq!(job_index, 1),
                other => panic!("expected Plugin error, got {other:?}"),
            }
        }
    }

    #[test]
    fn spec_version_mismatch_is_a_dedicated_actionable_error() {
        // A future-versioned spec — even one whose job shape this build
        // could not parse — must produce the version error, not a field
        // error.
        let text = r#"{"version": 3, "jobs": [{"unknown_future_shape": true}]}"#;
        let err = JobList::from_json(text).expect_err("version 3 must be rejected");
        assert_eq!(
            err,
            SpecError::UnsupportedVersion {
                found: 3,
                supported: 2
            }
        );
        // The message is part of the CLI contract: it names the readable
        // range and says how to regenerate.
        assert_eq!(
            err.to_string(),
            "unsupported job-spec version 3: this build reads versions 1 through 2; \
             regenerate the spec with `sms-experiments <experiment> --emit-spec`"
        );
        // Below the readable range is rejected the same way.
        let err = JobList::from_json(r#"{"version": 0, "jobs": []}"#)
            .expect_err("version 0 must be rejected");
        assert!(matches!(
            err,
            SpecError::UnsupportedVersion {
                found: 0,
                supported: 2
            }
        ));
    }

    #[test]
    fn version_1_specs_load_through_the_lenient_path() {
        // A version-1 document (no `name` field) is exactly what every
        // pre-bump `--emit-spec` wrote.  It must still load, normalize to
        // the current version with `name: None`, and execute identically.
        let current = JobList::new(job_list());
        let mut value = serde_json::to_value(&current).expect("serialize");
        let obj = match &mut value {
            serde_json::Value::Object(entries) => entries,
            other => panic!("job list serializes as an object, got {other:?}"),
        };
        obj.retain(|(key, _)| key != "name");
        for (key, v) in obj.iter_mut() {
            if key == "version" {
                *v = serde_json::Value::UInt(1);
            }
        }
        let v1_text = serde_json::to_string(&value).expect("render v1 spec");
        assert!(!v1_text.contains("\"name\""), "{v1_text}");

        let loaded = JobList::from_json(&v1_text).expect("version 1 loads leniently");
        assert_eq!(loaded.version, JobList::VERSION, "normalized on load");
        assert_eq!(loaded.name, None);
        assert_eq!(loaded.jobs, current.jobs);
        // Re-serializing the loaded list is the documented migration path:
        // it round-trips as a current-version spec.
        let migrated = serde_json::to_string(&loaded).expect("serialize migrated");
        let back = JobList::from_json(&migrated).expect("migrated spec parses");
        assert_eq!(back, loaded);
    }

    #[test]
    fn spec_parse_errors_name_the_problem() {
        let err = JobList::from_json("{not json").expect_err("not JSON");
        assert!(matches!(err, SpecError::Parse(_)), "{err}");

        let err = JobList::from_json(r#"{"jobs": []}"#).expect_err("no version");
        assert!(err.to_string().contains("version"), "{err}");

        // A well-formed current-version list parses.
        let json = serde_json::to_string(&JobList::new(job_list())).unwrap();
        let list = JobList::from_json(&json).expect("current version parses");
        assert_eq!(list.version, JobList::VERSION);
        assert_eq!(list.jobs.len(), job_list().len());
    }

    #[test]
    fn a_spec_with_a_96_byte_block_is_rejected() {
        let mut list = JobList::new(job_list());
        list.jobs[1].sim.hierarchy.l2.block_bytes = 96;
        let json = serde_json::to_string(&list).unwrap();
        let err = JobList::from_json(&json).expect_err("96-byte blocks are rejected");
        assert_eq!(
            err,
            SpecError::InvalidCache {
                job: 1,
                level: "L2",
                error: memsim::GeometryError::BlockNotPowerOfTwo,
            }
        );
        assert_eq!(
            err.to_string(),
            "invalid job spec: job 1: L2 block size must be a power of two"
        );
    }

    #[test]
    fn short_trace_is_warned_not_failed() {
        // 100 recorded accesses against a 1000-access budget: the job
        // succeeds with a visible short_trace warning.
        let recorded: Vec<trace::MemAccess> = Application::Ocean
            .stream(5, &GeneratorConfig::default().with_cpus(1))
            .take(100)
            .collect();
        let path =
            std::env::temp_dir().join(format!("sms-engine-short-trace-{}.bin", std::process::id()));
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();

        let jobs = vec![SimJob::new(memsim::SimJob {
            source: trace::TraceSource::binary_file(path.to_string_lossy()),
            cpus: 1,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: PrefetcherSpec::null(),
            accesses: 1_000,
        })];
        let results = run_jobs_in(&jobs, &EngineConfig::serial(), Registry::builtin())
            .expect("short trace is not an error");
        std::fs::remove_file(&path).ok();

        let result = &results[0];
        assert_eq!(result.summary.accesses, 100);
        assert_eq!(result.warnings.len(), 1);
        assert_eq!(result.warnings[0].kind, JobWarning::SHORT_TRACE);
        assert!(
            result.warnings[0].message.contains("100 of 1000"),
            "{}",
            result.warnings[0].message
        );
        // The warning is part of the serialized result, so `--out` dumps and
        // spec runs surface it.
        let json = serde_json::to_string(result).unwrap();
        assert!(json.contains("short_trace"), "{json}");
    }

    #[test]
    fn full_length_jobs_carry_no_warnings() {
        let results = run_jobs(&job_list());
        assert!(results.iter().all(|r| r.warnings.is_empty()));
    }

    #[test]
    fn metered_results_are_bit_identical_and_metrics_cover_the_run() {
        let jobs = job_list();
        let plain = run_jobs_with(&jobs, &EngineConfig::with_workers(2));
        let (metered, engine_metrics) = run_jobs_metered(
            &jobs,
            &EngineConfig::with_workers(2),
            Registry::builtin(),
            &metrics::MetricsConfig::enabled(),
        )
        .expect("jobs prepare");
        assert_eq!(plain, metered, "telemetry must not perturb results");

        assert_eq!(engine_metrics.jobs.len(), jobs.len());
        assert_eq!(engine_metrics.workers.len(), 2);
        assert!(engine_metrics
            .jobs
            .iter()
            .enumerate()
            .all(|(i, j)| j.job_index == i));
        let worker_jobs: u64 = engine_metrics.workers.iter().map(|w| w.jobs_run).sum();
        assert_eq!(worker_jobs, jobs.len() as u64);
        assert!(engine_metrics.total_seconds > 0.0);
        assert!(engine_metrics.accesses_per_sec > 0.0);
        assert_eq!(
            engine_metrics.total_accesses,
            metered.iter().map(|r| r.summary.accesses).sum::<u64>()
        );
        let report = engine_metrics.report();
        assert!(report.validate().is_ok());
    }

    #[test]
    fn streamed_results_match_the_collected_path_bit_for_bit() {
        let jobs = job_list();
        for workers in [1, 4] {
            let config = EngineConfig::with_workers(workers);
            let (expected, _) = run_jobs_metered(
                &jobs,
                &config,
                Registry::builtin(),
                &metrics::MetricsConfig::enabled(),
            )
            .expect("jobs prepare");
            let mut streamed = Vec::new();
            let (delivered, engine_metrics) = run_jobs_streamed(
                &jobs,
                &config,
                Registry::builtin(),
                &metrics::MetricsConfig::enabled(),
                &CancelToken::new(),
                &mut |result, job_metrics| {
                    assert_eq!(job_metrics.job_index, result.job_index);
                    streamed.push(result);
                },
            )
            .expect("streamed run succeeds");
            // Strictly in submission order, nothing missing, bit-identical.
            assert_eq!(delivered, jobs.len());
            assert_eq!(streamed, expected, "workers = {workers}");
            assert_eq!(engine_metrics.jobs.len(), jobs.len());
            assert!(engine_metrics
                .jobs
                .iter()
                .enumerate()
                .all(|(i, j)| j.job_index == i));
        }
    }

    #[test]
    fn streamed_error_follows_the_delivered_prefix() {
        let mut jobs = job_list();
        jobs.insert(
            1,
            job(
                Application::Ocean,
                PrefetcherSpec {
                    plugin: "warp-drive".to_string(),
                    params: serde_json::Value::Null,
                },
            ),
        );
        for workers in [1, 4] {
            let mut streamed = Vec::new();
            let err = run_jobs_streamed(
                &jobs,
                &EngineConfig::with_workers(workers),
                Registry::builtin(),
                &metrics::MetricsConfig::disabled(),
                &CancelToken::new(),
                &mut |result, _| streamed.push(result.job_index),
            )
            .expect_err("unknown plugin must fail");
            // Job 0 is emitted before the in-order merge reaches the failing
            // index; the error then terminates the stream deterministically.
            assert_eq!(streamed, vec![0], "workers = {workers}");
            match err {
                EngineError::Plugin { job_index, .. } => assert_eq!(job_index, 1),
                other => panic!("expected Plugin error, got {other:?}"),
            }
        }
    }

    #[test]
    fn cancelled_stream_delivers_a_clean_prefix() {
        let jobs = job_list();
        for workers in [1, 2] {
            let cancel = CancelToken::new();
            let mut streamed = Vec::new();
            let (delivered, _) = run_jobs_streamed(
                &jobs,
                &EngineConfig::with_workers(workers),
                Registry::builtin(),
                &metrics::MetricsConfig::disabled(),
                &cancel,
                &mut |result, _| {
                    streamed.push(result.job_index);
                    // Cancel from inside the sink: jobs already claimed may
                    // still land, but the stream stays an in-order prefix.
                    cancel.cancel();
                },
            )
            .expect("cancellation is not an error");
            assert_eq!(delivered, streamed.len());
            assert!(delivered >= 1, "the first result triggered the cancel");
            assert_eq!(
                streamed,
                (0..delivered).collect::<Vec<_>>(),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn corrupt_trace_file_fails_the_job_instead_of_shortening_it() {
        // A trace with a valid header but a truncated body: the job must
        // fail loudly, not return a summary with fewer accesses.
        let recorded: Vec<trace::MemAccess> = Application::Ocean
            .stream(1, &GeneratorConfig::default().with_cpus(1))
            .take(100)
            .collect();
        let mut bytes = Vec::new();
        trace::io::write_binary(&mut bytes, &recorded).unwrap();
        bytes.truncate(bytes.len() - 7);
        let path = std::env::temp_dir().join(format!(
            "sms-engine-corrupt-trace-{}.bin",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).unwrap();

        let jobs = vec![SimJob::new(memsim::SimJob {
            source: trace::TraceSource::binary_file(path.to_string_lossy()),
            cpus: 1,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: PrefetcherSpec::null(),
            accesses: 1_000,
        })];
        let err = run_jobs_in(&jobs, &EngineConfig::serial(), Registry::builtin())
            .expect_err("corrupt trace must fail the job");
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, EngineError::Trace { job_index: 0, .. }));
        assert!(err.to_string().contains("corrupt mid-stream"), "{err}");
    }

    /// A prefetcher that panics after a fixed number of observed accesses —
    /// the in-crate stand-in for a broken custom plugin (the `faultinject`
    /// crate ships the full chaos plugin).
    struct PanicAtPrefetcher {
        countdown: usize,
    }

    impl memsim::Prefetcher for PanicAtPrefetcher {
        fn on_access(
            &mut self,
            _access: &trace::MemAccess,
            _outcome: &memsim::SystemOutcome,
        ) -> Vec<memsim::PrefetchRequest> {
            if self.countdown == 0 {
                panic!("injected prefetcher panic");
            }
            self.countdown -= 1;
            Vec::new()
        }

        fn name(&self) -> &str {
            "panic-at"
        }
    }

    impl crate::plugin::Probe for PanicAtPrefetcher {}

    struct PanicAtPlugin;

    impl crate::plugin::PrefetcherPlugin for PanicAtPlugin {
        fn name(&self) -> &str {
            "panic-at"
        }

        fn build(
            &self,
            _params: &serde_json::Value,
            _num_cpus: usize,
        ) -> Result<crate::plugin::BuiltPrefetcher, PluginError> {
            Ok(crate::plugin::BuiltPrefetcher::new(PanicAtPrefetcher {
                countdown: 100,
            }))
        }
    }

    pub(crate) fn chaos_registry() -> Registry {
        let mut registry = Registry::with_builtins();
        registry.register(std::sync::Arc::new(PanicAtPlugin));
        registry
    }

    fn panic_job() -> SimJob {
        job(
            Application::Ocean,
            PrefetcherSpec {
                plugin: "panic-at".to_string(),
                params: serde_json::Value::Null,
            },
        )
    }

    #[test]
    fn panicking_plugin_fails_only_its_own_job() {
        let registry = chaos_registry();
        let mut jobs = job_list();
        jobs.insert(1, panic_job());
        for workers in [1, 4] {
            let err = run_jobs_in(&jobs, &EngineConfig::with_workers(workers), &registry)
                .expect_err("panicking plugin must fail the run");
            match &err {
                EngineError::Panicked { job_index, message } => {
                    assert_eq!(*job_index, 1);
                    assert!(message.contains("injected prefetcher panic"), "{message}");
                }
                other => panic!("expected Panicked error, got {other:?}"),
            }
            // The rendered message is part of the server's error-frame
            // contract, so it is pinned.
            assert_eq!(
                err.to_string(),
                "job 1: panicked: injected prefetcher panic"
            );
        }
    }

    #[test]
    fn panic_in_streamed_run_follows_the_clean_prefix() {
        let registry = chaos_registry();
        let mut jobs = job_list();
        jobs.insert(1, panic_job());
        for workers in [1, 4] {
            let mut streamed = Vec::new();
            let err = run_jobs_streamed(
                &jobs,
                &EngineConfig::with_workers(workers),
                &registry,
                &metrics::MetricsConfig::disabled(),
                &CancelToken::new(),
                &mut |result, _| streamed.push(result.job_index),
            )
            .expect_err("panicking plugin must fail the run");
            assert_eq!(streamed, vec![0], "workers = {workers}");
            assert!(matches!(err, EngineError::Panicked { job_index: 1, .. }));
        }
    }

    #[test]
    fn missing_trace_file_surfaces_as_engine_error() {
        let jobs = vec![SimJob::new(memsim::SimJob {
            source: trace::TraceSource::binary_file("/nonexistent/trace.bin"),
            cpus: 1,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: PrefetcherSpec::null(),
            accesses: 100,
        })];
        let err = run_jobs_in(&jobs, &EngineConfig::serial(), Registry::builtin())
            .expect_err("missing file must fail");
        assert!(matches!(err, EngineError::Trace { job_index: 0, .. }));
        assert!(err.to_string().contains("trace source"), "{err}");
    }
}
