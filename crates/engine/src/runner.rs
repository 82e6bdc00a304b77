//! The job executor: [`execute`] runs a list of [`SimJob`]s on the calling
//! thread or on scoped worker threads and hands every result to a sink in
//! submission order.
//!
//! Every job runs the engine's one job loop ([`crate::segment`]) on the
//! worker that claimed it: it builds its own system and resolves its
//! prefetcher spec through a plugin [`Registry`] there, and reads exactly
//! the accesses its trace source yields — from its own generator or file,
//! or from the run's shared recording of a synthetic trace several jobs
//! read — so results are bit-identical for every worker count and the
//! delivery order never depends on scheduling.
//!
//! Jobs and results are serializable end to end: a [`JobList`] round-trips
//! through a JSON spec file (`sms-experiments run --spec jobs.json`), and a
//! `Vec<JobResult>` is the JSON the engine writes back out.

use crate::plugin::{PluginError, ProbeReport, Registry};
use crate::segment::run_job_on;
use crate::shared::{SharedTraces, LIVE_CAP_BYTES};
use crate::spec::PrefetcherSpec;
use memsim::RunSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;
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

    /// Checks every job's prefetcher spec against `registry` without
    /// building a prefetcher: the plugin must exist and accept its
    /// parameters.  `run --spec` and the job server call this right after
    /// [`from_json`](Self::from_json), so a bad spec is refused before any
    /// job runs.
    ///
    /// # Errors
    ///
    /// [`SpecError::Plugin`] for the first job whose spec names an unknown
    /// plugin or carries parameters its plugin rejects.
    pub fn check(&self, registry: &Registry) -> Result<(), SpecError> {
        for (job, entry) in self.jobs.iter().enumerate() {
            registry
                .check(&entry.sim.prefetcher)
                .map_err(|error| SpecError::Plugin { job, error })?;
        }
        Ok(())
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
    /// A job's prefetcher spec names an unknown plugin or carries
    /// parameters its plugin rejects ([`JobList::check`]).
    Plugin {
        /// Index of the job in the list.
        job: usize,
        /// What the registry or the plugin reported.
        error: PluginError,
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
            SpecError::Plugin { job, error } => write!(f, "invalid job spec: job {job}: {error}"),
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
    /// dependent on the clock — so results stay bit-identical for every
    /// worker count, traced or not.
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

/// How [`execute`] runs a job list.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Worker threads; `0` means one per available hardware thread.  With
    /// one effective worker the calling thread runs every job itself.
    pub workers: usize,
    /// Resolves every job's prefetcher spec.
    pub registry: &'a Registry,
    /// Receives a `worker` span per worker, a `job` span per job and the
    /// stage spans of every job's loop; a disabled trace records nothing.
    pub trace: &'a Trace,
    /// Stops the run between jobs once cancelled; `None` runs every job.
    pub cancel: Option<&'a CancelToken>,
}

impl RunOptions<'static> {
    /// `workers` workers over the built-in plugins, untraced and never
    /// cancelled.
    pub fn new(workers: usize) -> Self {
        static UNTRACED: Trace = Trace::disabled();
        Self {
            workers,
            registry: Registry::builtin(),
            trace: &UNTRACED,
            cancel: None,
        }
    }
}

impl RunOptions<'_> {
    /// The worker count actually used for `jobs` queued jobs.
    fn effective_workers(&self, jobs: usize) -> usize {
        let workers = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        workers.min(jobs).max(1)
    }

    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }
}

/// A shared cooperative-cancellation flag for an engine run, with an
/// optional deadline.
///
/// Cancellation is observed between jobs, never mid-job: workers stop
/// claiming new work, already-running jobs complete, and the run returns
/// cleanly with the contiguous prefix of results delivered so far.  A
/// token with a deadline counts as cancelled once the deadline has passed,
/// so no thread has to wait for it.  Cloning shares the flag and copies the
/// deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that cancels itself at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Requests cancellation; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Runs `jobs` and hands each result to `sink` in submission order,
/// returning how many results the sink received.
///
/// Workers claim jobs in index order from a shared cursor.  With one
/// effective worker the calling thread runs every job itself; with more,
/// scoped threads run them and the calling thread reorders their outcomes,
/// so the sink always runs on the calling thread and sees jobs `0, 1, 2, …`
/// with nothing missing.  Results are bit-identical for every worker count,
/// because each job builds its own prefetcher and reads exactly its
/// source's accesses.  A caller that wants a `Vec` passes a sink that
/// pushes onto one.
///
/// Claiming stops once a job fails or `options.cancel` is cancelled.  The
/// claimed jobs are always a prefix of the list, so a cancelled run
/// delivers jobs `0..n` for some `n` and returns `Ok(n)`.
///
/// # Errors
///
/// The lowest-index failure — a prefetcher spec that does not resolve or
/// build, a trace source that fails to open or is corrupt mid-stream, or a
/// panic inside the job — regardless of scheduling.  Every job before it
/// has been delivered by then, so a streaming consumer sends the error after
/// a clean prefix.
pub fn execute(
    jobs: &[SimJob],
    options: &RunOptions<'_>,
    sink: &mut dyn FnMut(JobResult),
) -> Result<usize, EngineError> {
    let run = Run {
        jobs,
        options,
        shared: SharedTraces::plan(jobs, LIVE_CAP_BYTES),
        next: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
    };
    let mut delivery = Delivery {
        sink,
        pending: BTreeMap::new(),
        delivered: 0,
        error: None,
    };
    let workers = options.effective_workers(jobs.len());
    if workers == 1 {
        let recorder = options.trace.recorder("engine");
        run.work(&recorder, &mut |index, outcome| {
            delivery.accept(index, outcome);
            true
        });
        return delivery.finish(options, || recorder);
    }
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (run, tx) = (&run, tx.clone());
            scope.spawn(move || {
                let recorder = run.options.trace.recorder(&format!("worker{worker}"));
                run.work(&recorder, &mut |index, outcome| {
                    tx.send((index, outcome)).is_ok()
                });
            });
        }
        // The workers hold the only remaining senders, so the channel closes
        // when the last one finishes.
        drop(tx);
        for (index, outcome) in rx {
            delivery.accept(index, outcome);
        }
    });
    delivery.finish(options, || options.trace.recorder("engine"))
}

/// One executed job's result, or the error that failed it.
type Outcome = Result<JobResult, EngineError>;

/// What every worker of one [`execute`] call shares.
struct Run<'a> {
    jobs: &'a [SimJob],
    options: &'a RunOptions<'a>,
    shared: SharedTraces,
    /// The lowest job no worker has claimed.
    next: AtomicUsize,
    /// Set by the first job that fails; no worker claims a job after it.
    failed: AtomicBool,
}

impl Run<'_> {
    /// One worker's loop: claims the next job until none is left, a job has
    /// failed or the run is cancelled, and passes each outcome to `deliver`,
    /// which returns `false` once nobody receives them.
    fn work(&self, recorder: &Recorder, deliver: &mut dyn FnMut(usize, Outcome) -> bool) {
        let mut span = recorder.span("worker");
        let mut jobs_run = 0;
        while !self.failed.load(Ordering::Relaxed) && !self.options.cancelled() {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = self.jobs.get(index) else {
                break;
            };
            let outcome = exec_job_isolated(
                index,
                job,
                self.options.registry,
                self.options.trace,
                &self.shared,
                recorder,
            );
            jobs_run += 1;
            if outcome.is_err() {
                self.failed.store(true, Ordering::Relaxed);
            }
            if !deliver(index, outcome) {
                break;
            }
        }
        span.arg_u64("jobs_run", jobs_run);
    }
}

/// The in-order half of [`execute`]: holds outcomes that arrive early and
/// hands the sink the clean prefix, stopping at the lowest-index error.
struct Delivery<'a> {
    sink: &'a mut dyn FnMut(JobResult),
    /// Outcomes that arrived before an earlier job's.
    pending: BTreeMap<usize, Outcome>,
    /// Results handed to the sink, which is also the next index due.
    delivered: usize,
    error: Option<EngineError>,
}

impl Delivery<'_> {
    fn accept(&mut self, index: usize, outcome: Outcome) {
        self.pending.insert(index, outcome);
        while self.error.is_none() {
            match self.pending.remove(&self.delivered) {
                Some(Ok(result)) => {
                    (self.sink)(result);
                    self.delivered += 1;
                }
                // Everything before it was delivered, so this is the
                // lowest failing index.
                Some(Err(error)) => self.error = Some(error),
                None => break,
            }
        }
    }

    /// The run's outcome.  A cancelled run records a `run_cancelled`
    /// instant on the calling thread's recorder.
    fn finish(
        self,
        options: &RunOptions<'_>,
        recorder: impl FnOnce() -> Recorder,
    ) -> Result<usize, EngineError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if options.cancelled() {
            recorder().instant("run_cancelled", |args| {
                args.u64("delivered", self.delivered as u64);
            });
        }
        Ok(self.delivered)
    }
}

/// Executes one job with panic isolation: a panic anywhere inside the job —
/// plugin build, probe callback, kind sink — is caught at this boundary and
/// surfaced as [`EngineError::Panicked`], so a broken plugin fails its own
/// job with the usual lowest-index-error semantics instead of tearing down
/// the worker thread and every job queued behind it.
///
/// This is the one place a job's stream is opened, through the run's
/// `shared` trace table, and the table told when the job is done.
///
/// `AssertUnwindSafe` is sound: the job's system, prefetcher and stream are
/// constructed inside the closure and dropped with it; the shared
/// `registry` and `trace` are only read through `&` references; and a panic
/// while recording leaves the table's group unrecorded, so the next job
/// records it afresh.
pub(crate) fn exec_job_isolated(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    trace: &Trace,
    shared: &SharedTraces,
    rec: &Recorder,
) -> Outcome {
    let mut span = rec.span("job");
    span.arg_u64("job", index as u64);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_job_on(index, job, registry, trace, shared)
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

    /// Runs `jobs` through [`execute`] and collects the results.
    pub(crate) fn collect(
        jobs: &[SimJob],
        options: &RunOptions<'_>,
    ) -> Result<Vec<JobResult>, EngineError> {
        let mut results = Vec::new();
        execute(jobs, options, &mut |result| results.push(result))?;
        Ok(results)
    }

    /// [`collect`] over the built-ins with `workers` workers.
    pub(crate) fn run(jobs: &[SimJob], workers: usize) -> Vec<JobResult> {
        collect(jobs, &RunOptions::new(workers)).expect("every job runs")
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
        let serial = run(&jobs, 1);
        let parallel = run(&jobs, 4);
        assert_eq!(serial, parallel);
        assert!(serial.iter().enumerate().all(|(i, r)| r.job_index == i));
        for r in &serial {
            assert_eq!(r.summary.skipped_accesses, 0);
        }
    }

    #[test]
    fn timing_jobs_report_timing_results() {
        let jobs = job_list();
        let results = run(&jobs, 0);
        assert!(results[4].timing.is_some());
        assert!(results[..4].iter().all(|r| r.timing.is_none()));
        let t = results[4].timing.as_ref().unwrap();
        assert_eq!(t.segment_cycles.len(), 4);
        assert_eq!(t.accesses, results[4].summary.accesses);
    }

    #[test]
    fn effective_workers_clamps_sensibly() {
        assert_eq!(RunOptions::new(1).effective_workers(100), 1);
        assert_eq!(RunOptions::new(8).effective_workers(3), 3);
        assert_eq!(RunOptions::new(2).effective_workers(0), 1);
        assert!(RunOptions::new(0).effective_workers(64) >= 1);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs = vec![job(Application::Ocean, PrefetcherSpec::null())];
        let results = run(&jobs, 16);
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
        let a = run(&list.jobs, 1);
        let b = run(&back.jobs, 1);
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
            let err =
                collect(&jobs, &RunOptions::new(workers)).expect_err("unknown plugin must fail");
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

        // A 96-byte SMS region block loads, and `check` refuses it before
        // any job runs, naming the job and keeping the plugin's message.
        let mut list = JobList::new(job_list());
        assert_eq!(list.check(Registry::builtin()), Ok(()));
        list.jobs[3].sim.prefetcher = PrefetcherSpec::sms(&SmsConfig {
            region: sms::RegionConfig {
                region_bytes: 2048,
                block_bytes: 96,
            },
            ..SmsConfig::paper_default()
        });
        let json = serde_json::to_string(&list).unwrap();
        let loaded = JobList::from_json(&json).expect("the cache geometry is fine");
        let err = loaded
            .check(Registry::builtin())
            .expect_err("96-byte region blocks are refused");
        assert!(matches!(err, SpecError::Plugin { job: 3, .. }), "{err:?}");
        assert_eq!(
            err.to_string(),
            "invalid job spec: job 3: bad parameters for plugin \"sms\": region: block size \
             must be a power of two"
        );
    }

    #[test]
    fn check_refuses_a_pht_whose_set_count_is_not_a_power_of_two() {
        let mut list = JobList::new(job_list());
        // 768 entries of 16 ways: 48 sets, which no mask can index.
        list.jobs[2].sim.prefetcher = PrefetcherSpec::sms(&SmsConfig::paper_default().with_pht(
            sms::PhtCapacity::Bounded {
                entries: 768,
                associativity: 16,
            },
        ));
        let json = serde_json::to_string(&list).unwrap();
        let loaded = JobList::from_json(&json).expect("the cache geometry is fine");
        let err = loaded
            .check(Registry::builtin())
            .expect_err("48 PHT sets are refused");
        assert_eq!(
            err.to_string(),
            "invalid job spec: job 2: bad parameters for plugin \"sms\": pht: number of sets \
             must be a power of two"
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
        let results = collect(&jobs, &RunOptions::new(1)).expect("short trace is not an error");
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
        let results = run(&job_list(), 0);
        assert!(results.iter().all(|r| r.warnings.is_empty()));
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
            let err = execute(&jobs, &RunOptions::new(workers), &mut |result| {
                streamed.push(result.job_index)
            })
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
            let options = RunOptions {
                cancel: Some(&cancel),
                ..RunOptions::new(workers)
            };
            let delivered = execute(&jobs, &options, &mut |result| {
                streamed.push(result.job_index);
                // Cancel from inside the sink: jobs already claimed may
                // still land, but the stream stays an in-order prefix.
                cancel.cancel();
            })
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
    fn a_deadline_in_the_token_stops_the_run_without_a_watchdog() {
        let jobs = job_list();
        let now = std::time::Instant::now();
        for workers in [1, 2] {
            let passed = CancelToken::with_deadline(now);
            let options = RunOptions {
                cancel: Some(&passed),
                ..RunOptions::new(workers)
            };
            let mut streamed = 0;
            let delivered = execute(&jobs, &options, &mut |_| streamed += 1)
                .expect("a passed deadline is not an error");
            assert_eq!((delivered, streamed), (0, 0), "workers = {workers}");

            let far = CancelToken::with_deadline(now + std::time::Duration::from_secs(3600));
            let options = RunOptions {
                cancel: Some(&far),
                ..RunOptions::new(workers)
            };
            let delivered = execute(&jobs, &options, &mut |_| {}).expect("runs");
            assert_eq!(delivered, jobs.len(), "workers = {workers}");
            assert!(!far.is_cancelled());
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
        let err = collect(&jobs, &RunOptions::new(1)).expect_err("corrupt trace must fail the job");
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
        fn on_access_into(
            &mut self,
            _access: &trace::MemAccess,
            _outcome: &memsim::SystemOutcome,
            _out: &mut Vec<memsim::PrefetchRequest>,
        ) {
            if self.countdown == 0 {
                panic!("injected prefetcher panic");
            }
            self.countdown -= 1;
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
            let options = RunOptions {
                registry: &registry,
                ..RunOptions::new(workers)
            };
            let err = collect(&jobs, &options).expect_err("panicking plugin must fail the run");
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
            let options = RunOptions {
                registry: &registry,
                ..RunOptions::new(workers)
            };
            let err = execute(&jobs, &options, &mut |result| {
                streamed.push(result.job_index)
            })
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
        let err = collect(&jobs, &RunOptions::new(1)).expect_err("missing file must fail");
        assert!(matches!(err, EngineError::Trace { job_index: 0, .. }));
        assert!(err.to_string().contains("trace source"), "{err}");
    }
}
