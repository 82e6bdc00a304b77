//! Segment-parallel execution of a single job.
//!
//! Job-level sharding (the runner's worker pool) cannot help the figure whose
//! wall-clock is one long trace: that job pins one worker while the others
//! idle.  This module splits such a job *internally* into fixed-size segments
//! of its access stream and runs the per-segment work as a three-stage
//! pipeline across threads:
//!
//! 1. **pull** — read the next segment of accesses from the (stateful)
//!    trace stream into a reusable buffer;
//! 2. **simulate** — drive the buffered segment through the caches,
//!    coherence and the prefetcher with classification *deferred*: the
//!    classifier-relevant facts are recorded on an
//!    [`OutcomeTape`](memsim::OutcomeTape) instead of being accounted inline
//!    (see `MultiCpuSystem::access_deferred`);
//! 3. **account** — replay the tape into a standalone
//!    [`MissAccounting`](memsim::MissAccounting) (and, for timing jobs, the
//!    [`TimingAccounting`](timing::TimingAccounting) cycle model).
//!
//! Each stage's state is *handed off* segment to segment — the stream
//! position, the simulator + prefetcher state, and the accounting state each
//! advance strictly in segment order — so every stage performs exactly the
//! serial computation in exactly the serial order, and the merged
//! [`RunSummary`](memsim::RunSummary) is **bit-identical to the serial run by
//! construction**.  No warm-up window, no approximation; the golden hashes in
//! `tests/deterministic_replay.rs` pin this.
//!
//! What parallelism buys: while segment `k` simulates, segment `k+1` is
//! being pulled and segment `k-1` is being accounted on other threads, so
//! the pipeline's steady-state wall-clock approaches the simulate stage
//! alone.  The benchmark's traced runs put pulling the trace at 9–22% and
//! miss classification at 8–16% of the serial loop, which caps a single
//! job's speedup at roughly 1.3–1.4x; the results are exactly the serial
//! bits either way.
//!
//! The pipeline degrades gracefully: with one thread the three stages run
//! in-line per segment (same code, same hand-off, no concurrency); with two
//! threads the pull and account stages share one helper, which the stage
//! cost profile above makes the natural split.
//!
//! A probe that declares
//! [`wants_miss_kinds`](crate::plugin::Probe::wants_miss_kinds) hands its
//! [`KindSink`](crate::plugin::KindSink) to the engine; on segmented runs
//! the **account stage** feeds that sink the authoritative miss kinds while
//! replaying each tape (via `MissAccounting::replay_with_kinds`), so
//! kind-consuming probes segment like any other probe with no serial
//! fallback.

use crate::plugin::{BuiltPrefetcher, KindSink, Registry};
use crate::runner::{EngineError, JobResult, JobWarning, SimJob};
use crate::telemetry::JobMetrics;
use memsim::{
    DriverMeter, DriverMetrics, MissAccounting, MultiCpuSystem, OutcomeTape, PrefetchRequest,
    SegmentCounts,
};
use metrics::{per_sec, Histogram, MetricsConfig, Stopwatch};
use std::io;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;
use timing::TimingAccounting;
use trace::{fill_segment, BoxedStream, MemAccess};
use tracelog::{Recorder, Trace};

/// Converts a stopwatch reading to the whole microseconds the histograms
/// bucket.
fn as_micros(seconds: f64) -> u64 {
    (seconds * 1e6) as u64
}

/// Buffers (and tapes) circulating through the pipeline: one being pulled,
/// one being simulated, one being accounted.  This also bounds how far the
/// pull stage can run ahead of the simulator.
const BUFFERS: usize = 3;

/// How one job should be segmented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Accesses per segment (the last segment of a trace may be shorter).
    pub segment_size: usize,
    /// Threads the pipeline may use, *including* the calling thread
    /// (clamped to `1..=3`: the pipeline has three stages).
    pub threads: usize,
}

impl SegmentPlan {
    /// A plan of `segment_size`-access segments on up to `threads` threads.
    pub fn new(segment_size: usize, threads: usize) -> Self {
        Self {
            segment_size,
            threads,
        }
    }
}

/// Per-job stage telemetry of a segmented run (merged into [`JobMetrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct SegmentTelemetry {
    segments: u64,
    pull_seconds: f64,
    account_seconds: f64,
    /// Per-segment stage latency distributions, microseconds.
    pull_hist: Histogram,
    simulate_hist: Histogram,
    account_hist: Histogram,
}

/// Runs one job through the segment pipeline over the stream `open`
/// yields, resolving its prefetcher spec through `registry`; the stream is
/// opened where a lone job opens its source, after the prefetcher builds.
/// Each pipeline thread records per-segment stage spans (`seg.pull`,
/// `seg.simulate`, `seg.account`) into `trace`.
///
/// The result — summary, probe report, timing result, warnings — is
/// bit-identical to [`run_job_metered`](crate::runner::run_job_metered) for
/// every thread count and segment size, including a segment boundary
/// exactly at the trace end and segments larger than the whole trace.
///
/// A job whose probe [`wants_miss_kinds`](crate::plugin::Probe::wants_miss_kinds)
/// runs segmented like any other: its [`KindSink`] is detached from the
/// probe, shipped to the account stage, fed the authoritative kinds during
/// tape replay, and restored into the probe before the report is taken.
///
/// # Errors
///
/// As the serial path: plugin resolution/build failures, trace-open
/// failures, and a corrupt record anywhere in the trace — even inside a late
/// segment — fails the whole job with the same `corrupt mid-stream` error
/// the serial path raises (never a silently shortened summary).
pub(crate) fn run_job_segmented_on(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    metrics: &MetricsConfig,
    plan: SegmentPlan,
    trace: &Trace,
    open: impl FnOnce() -> io::Result<BoxedStream>,
) -> Result<(JobResult, JobMetrics), EngineError> {
    let sim = &job.sim;
    let trace_error = |message: String| EngineError::Trace {
        job_index: index,
        source: sim.source.describe(),
        message,
    };
    // Prepare and finalize get their own spans so the stage spans plus
    // these two account for (nearly) the whole job span: coverage gaps in
    // a trace read as instrumented time that was actually spent elsewhere.
    let recorder = trace.recorder(&format!("job{index}.pipeline"));
    let mut prepare_span = recorder.span("job.prepare");
    prepare_span.arg_u64("job", index as u64);
    let mut prefetcher =
        registry
            .build(&sim.prefetcher, sim.cpus)
            .map_err(|error| EngineError::Plugin {
                job_index: index,
                error,
            })?;
    // Deferred classification delivers `None` kinds during simulation, so a
    // kind-consuming probe's sink travels with the *account* stage, which
    // replays the authoritative kinds into it segment by segment.
    let sink = prefetcher.take_kind_sink();
    let stream = open().map_err(|e| trace_error(e.to_string()))?;

    let pipeline = Pipeline {
        system: MultiCpuSystem::new(sim.cpus, &sim.hierarchy),
        prefetcher,
        stream,
        budget: sim.accesses,
        account: AccountState {
            accounting: MissAccounting::new(sim.cpus, &sim.hierarchy),
            timing: job.timing.as_ref().map(|spec| {
                TimingAccounting::new(sim.cpus, spec.config, sim.accesses, spec.segments)
            }),
            sink,
        },
        plan,
        job: index,
        trace: trace.clone(),
    };
    drop(prepare_span);

    let watch = Stopwatch::start_if(metrics.enabled);
    let (end, telemetry, driver) = if metrics.enabled {
        let mut meter = DriverMetrics::default();
        let (end, telemetry) = pipeline.run(&mut meter);
        (end, telemetry, meter)
    } else {
        let (end, telemetry) = pipeline.run(&mut ());
        (end, telemetry, DriverMetrics::default())
    };

    if let Some(e) = end.stream_error {
        return Err(trace_error(format!("corrupt mid-stream: {e}")));
    }

    let mut finalize_span = recorder.span("job.finalize");
    finalize_span.arg_u64("job", index as u64);
    let summary = memsim::summarize_segmented(&end.system, &end.account.accounting, &end.counts);
    let mut prefetcher = end.prefetcher;
    if let Some(sink) = end.account.sink {
        prefetcher.restore_kind_sink(sink);
    }
    let mut result = JobResult {
        job_index: index,
        summary,
        probe: prefetcher.into_report(),
        timing: end.account.timing.map(TimingAccounting::finish),
        warnings: Vec::new(),
    };
    let delivered = result.summary.accesses + result.summary.skipped_accesses;
    if delivered < sim.accesses as u64 {
        result.warnings.push(JobWarning::short_trace(
            &sim.source.describe(),
            delivered,
            sim.accesses,
        ));
    }
    drop(finalize_span);

    let mut job_metrics = if metrics.enabled {
        let mut driver = driver;
        driver.elapsed_seconds = watch.elapsed_seconds();
        driver.accesses_per_sec = per_sec(result.summary.accesses, driver.elapsed_seconds);
        let mut m = JobMetrics::from_driver(index, &driver);
        m.pull_seconds = telemetry.pull_seconds;
        m.account_seconds = telemetry.account_seconds;
        m.pull_segment_us = telemetry.pull_hist;
        m.simulate_segment_us = telemetry.simulate_hist;
        m.account_segment_us = telemetry.account_hist;
        m
    } else {
        JobMetrics {
            job_index: index,
            ..JobMetrics::default()
        }
    };
    job_metrics.segments = telemetry.segments;
    Ok((result, job_metrics))
}

/// A task shipped to a pipeline helper thread.
enum Task {
    /// Fill this (cleared) buffer with the next segment and ship it back.
    Pull(Vec<MemAccess>),
    /// Replay this segment's tape into the accounting state, then recycle
    /// buffer and tape.
    Account(Vec<MemAccess>, OutcomeTape),
}

/// The account stage's owned state: classifiers, the optional timing model,
/// and (for kind-consuming probes) the probe's detached [`KindSink`].
struct AccountState {
    accounting: MissAccounting,
    timing: Option<TimingAccounting>,
    sink: Option<Box<dyn KindSink>>,
}

impl AccountState {
    /// Replays one segment into the accounting state — classifiers, the
    /// probe's kind sink, and the timing model when present.
    fn replay_segment(&mut self, accesses: &[MemAccess], tape: &OutcomeTape) {
        let Self {
            accounting,
            timing,
            sink,
        } = self;
        match sink {
            Some(sink) => accounting.replay_with_kinds(accesses, tape, |access, l1, l2| {
                sink.on_kinds(access, l1, l2)
            }),
            None => accounting.replay(accesses, tape),
        }
        if let Some(timing) = timing {
            for (index, access) in accesses.iter().enumerate() {
                let flags = tape.flags_at(index);
                if !flags.skipped {
                    timing.observe(access, flags.l1_miss, flags.offchip);
                }
            }
        }
    }
}

/// The owned state a helper needs for the stages it serves.  With three
/// threads each helper holds one half; with two threads the single helper
/// holds both.
struct HelperState {
    /// Pull stage: the live stream and its un-pulled access budget.
    stream: Option<(BoxedStream, usize)>,
    /// Account stage state, when this helper serves it.
    account: Option<AccountState>,
    /// Busy (non-idle) seconds spent pulling / accounting.
    pull_seconds: f64,
    account_seconds: f64,
    /// Per-segment stage latencies, microseconds.
    pull_hist: Histogram,
    account_hist: Histogram,
}

impl HelperState {
    fn new() -> HelperState {
        HelperState {
            stream: None,
            account: None,
            pull_seconds: 0.0,
            account_seconds: 0.0,
            pull_hist: Histogram::new(),
            account_hist: Histogram::new(),
        }
    }

    /// Serves tasks until the owner hangs up the task channel.
    fn serve(
        &mut self,
        segment_size: usize,
        tasks: mpsc::Receiver<Task>,
        pulled_tx: mpsc::Sender<Vec<MemAccess>>,
        recycle_tx: mpsc::Sender<(Vec<MemAccess>, OutcomeTape)>,
        recorder: &Recorder,
    ) {
        let mut pulls = 0u64;
        let mut accounts = 0u64;
        while let Ok(task) = tasks.recv() {
            match task {
                Task::Pull(mut buffer) => {
                    let mut span = recorder.span("seg.pull");
                    span.arg_u64("segment", pulls);
                    pulls += 1;
                    let watch = Stopwatch::started();
                    let (stream, remaining) =
                        self.stream.as_mut().expect("helper serves the pull stage");
                    let want = segment_size.min(*remaining);
                    let got = fill_segment(&mut **stream, &mut buffer, want);
                    *remaining -= got;
                    let seconds = watch.elapsed_seconds();
                    self.pull_seconds += seconds;
                    self.pull_hist.record(as_micros(seconds));
                    drop(span);
                    // Always respond, even with an empty buffer: the owner
                    // counts outstanding pulls and reads emptiness as
                    // end-of-stream.
                    if pulled_tx.send(buffer).is_err() {
                        break;
                    }
                }
                Task::Account(buffer, tape) => {
                    let mut span = recorder.span("seg.account");
                    span.arg_u64("segment", accounts);
                    accounts += 1;
                    let watch = Stopwatch::started();
                    let account = self
                        .account
                        .as_mut()
                        .expect("helper serves the account stage");
                    account.replay_segment(&buffer, &tape);
                    let seconds = watch.elapsed_seconds();
                    self.account_seconds += seconds;
                    self.account_hist.record(as_micros(seconds));
                    drop(span);
                    // Recycling is best-effort; the owner may be done.
                    let _ = recycle_tx.send((buffer, tape));
                }
            }
        }
    }
}

/// Everything the pipeline hands back to be merged into the job result.
struct PipelineEnd {
    system: MultiCpuSystem,
    prefetcher: BuiltPrefetcher,
    counts: SegmentCounts,
    account: AccountState,
    stream_error: Option<io::Error>,
}

/// One job's pipeline, owning all three stages' states before they are
/// distributed across threads.
struct Pipeline {
    system: MultiCpuSystem,
    prefetcher: BuiltPrefetcher,
    stream: BoxedStream,
    budget: usize,
    account: AccountState,
    plan: SegmentPlan,
    /// Submission index of the job, used to label per-thread trace tracks.
    job: usize,
    /// Span trace the pipeline threads record into (disabled = free no-op).
    trace: Trace,
}

impl Pipeline {
    /// Executes pull → simulate → account over the whole stream.  The
    /// calling thread always runs the simulate stage (it owns the
    /// heavyweight simulator state); helpers take the other stages
    /// according to `plan.threads`.
    fn run<M: DriverMeter>(self, meter: &mut M) -> (PipelineEnd, SegmentTelemetry) {
        match self.plan.threads.clamp(1, 3) {
            1 => self.run_inline(meter),
            threads => self.run_threaded(meter, threads),
        }
    }

    /// In-line pipeline: the same three stages and the same hand-off order,
    /// on one thread.  This is the reference the threaded paths reproduce
    /// bit for bit.
    fn run_inline<M: DriverMeter>(mut self, meter: &mut M) -> (PipelineEnd, SegmentTelemetry) {
        let segment_size = self.plan.segment_size.max(1);
        let recorder = self.trace.recorder(&format!("job{}.pipeline", self.job));
        let mut telemetry = SegmentTelemetry::default();
        let mut counts = SegmentCounts::default();
        let mut batch: Vec<PrefetchRequest> = Vec::new();
        let mut buffer = Vec::with_capacity(segment_size.min(1 << 20));
        let mut tape = OutcomeTape::new();
        let mut remaining = self.budget;
        while remaining > 0 {
            let segment = telemetry.segments;
            let want = segment_size.min(remaining);
            let mut span = recorder.span("seg.pull");
            span.arg_u64("segment", segment);
            let watch = Stopwatch::started();
            let got = fill_segment(&mut *self.stream, &mut buffer, want);
            let seconds = watch.elapsed_seconds();
            drop(span);
            telemetry.pull_seconds += seconds;
            telemetry.pull_hist.record(as_micros(seconds));
            remaining -= got;
            if got == 0 {
                break;
            }
            tape.clear();
            let mut span = recorder.span("seg.simulate");
            span.arg_u64("segment", segment);
            let watch = Stopwatch::started();
            memsim::run_segment_deferred(
                &mut self.system,
                &mut self.prefetcher,
                &buffer,
                &mut batch,
                &mut tape,
                &mut counts,
                meter,
            );
            telemetry
                .simulate_hist
                .record(as_micros(watch.elapsed_seconds()));
            drop(span);
            let mut span = recorder.span("seg.account");
            span.arg_u64("segment", segment);
            let watch = Stopwatch::started();
            self.account.replay_segment(&buffer, &tape);
            let seconds = watch.elapsed_seconds();
            drop(span);
            telemetry.account_seconds += seconds;
            telemetry.account_hist.record(as_micros(seconds));
            telemetry.segments += 1;
            if got < want {
                break;
            }
        }
        let stream_error = self.stream.take_error();
        (
            PipelineEnd {
                system: self.system,
                prefetcher: self.prefetcher,
                counts,
                account: self.account,
                stream_error,
            },
            telemetry,
        )
    }

    /// Threaded pipeline.  Channel topology:
    ///
    /// ```text
    ///   owner --Task::Pull(buffer)-----> helper --(filled buffer)--> owner
    ///   owner --Task::Account(b, tape)-> helper --(recycled b, t)--> owner
    /// ```
    ///
    /// With three threads the two task kinds go to two dedicated helpers;
    /// with two threads both kinds share one helper's FIFO, which preserves
    /// each stage's segment order automatically.  The owner simulates.
    ///
    /// Liveness: the owner only blocks on `pulled_rx` while it has pull
    /// tasks outstanding, and a helper answers every pull task with exactly
    /// one response (possibly empty = end of stream).  Channels are
    /// unbounded; memory is bounded by the [`BUFFERS`] buffers in
    /// circulation.
    fn run_threaded<M: DriverMeter>(
        mut self,
        meter: &mut M,
        threads: usize,
    ) -> (PipelineEnd, SegmentTelemetry) {
        let segment_size = self.plan.segment_size.max(1);
        let job = self.job;
        let trace = self.trace.clone();
        let mut telemetry = SegmentTelemetry::default();
        let mut counts = SegmentCounts::default();
        let mut batch: Vec<PrefetchRequest> = Vec::new();

        let (pulled_tx, pulled_rx) = mpsc::channel::<Vec<MemAccess>>();
        let (recycle_tx, recycle_rx) = mpsc::channel::<(Vec<MemAccess>, OutcomeTape)>();

        // A helper that panics (tape replay feeds a plugin's kind sink)
        // parks its payload here for the owner to re-raise.  The owner must
        // poll the slot from its blocking receives: with two helpers the
        // *other* helper's live senders would keep those receives from ever
        // erroring, which would otherwise turn the panic into a deadlock.
        let helper_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

        let mut pull_state = HelperState {
            stream: Some((self.stream, self.budget)),
            ..HelperState::new()
        };
        let mut account_state = HelperState {
            account: Some(self.account),
            ..HelperState::new()
        };

        let (system, prefetcher) = std::thread::scope(|scope| {
            // Channel plumbing per thread count: with two threads one
            // helper owns both stages and both task kinds share its queue.
            let (pull_task_tx, pull_task_rx) = mpsc::channel::<Task>();
            let (account_task_tx, account_task_rx);
            let mut handles = Vec::new();
            if threads >= 3 {
                let (tx, rx) = mpsc::channel::<Task>();
                account_task_tx = tx;
                account_task_rx = Some(rx);
            } else {
                account_task_tx = pull_task_tx.clone();
                account_task_rx = None;
            }

            {
                let pulled_tx = pulled_tx.clone();
                let recycle_tx = recycle_tx.clone();
                let state = &mut pull_state;
                let label = if threads == 2 {
                    // Single helper: move the account stage in with the
                    // pull stage.
                    state.account = account_state.account.take();
                    format!("job{job}.helper")
                } else {
                    format!("job{job}.pull")
                };
                let trace = &trace;
                let helper_panic = &helper_panic;
                handles.push(scope.spawn(move || {
                    let recorder = trace.recorder(&label);
                    // Keep the response channels open until the slot is
                    // filled, so the owner never observes the hangup before
                    // the payload is available.
                    let keepalive = (pulled_tx.clone(), recycle_tx.clone());
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        state.serve(segment_size, pull_task_rx, pulled_tx, recycle_tx, &recorder);
                    }));
                    if let Err(payload) = caught {
                        *helper_panic.lock().unwrap() = Some(payload);
                    }
                    drop(keepalive);
                }));
            }
            if let Some(rx) = account_task_rx {
                let pulled_tx = pulled_tx.clone();
                let recycle_tx = recycle_tx.clone();
                let state = &mut account_state;
                let trace = &trace;
                let helper_panic = &helper_panic;
                handles.push(scope.spawn(move || {
                    let recorder = trace.recorder(&format!("job{job}.account"));
                    let keepalive = (pulled_tx.clone(), recycle_tx.clone());
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        state.serve(segment_size, rx, pulled_tx, recycle_tx, &recorder);
                    }));
                    if let Err(payload) = caught {
                        *helper_panic.lock().unwrap() = Some(payload);
                    }
                    drop(keepalive);
                }));
            }
            drop((pulled_tx, recycle_tx));

            // Re-raises a parked helper panic on the owner's thread, so it
            // reaches the engine's per-job `catch_unwind` with its original
            // message after the scope joins the surviving helper.
            let check_helper_panic = || {
                if let Some(payload) = helper_panic.lock().unwrap().take() {
                    std::panic::resume_unwind(payload);
                }
            };

            // The owner: prime the pull stage, then simulate each pulled
            // segment and hand its tape to the account stage, recycling
            // buffers into new pull requests as they come back.
            let recorder = trace.recorder(&format!("job{job}.simulate"));
            let mut tapes: Vec<OutcomeTape> = Vec::new();
            let mut pulls_outstanding = 0usize;
            let mut stream_done = false;
            for _ in 0..BUFFERS {
                if pull_task_tx.send(Task::Pull(Vec::new())).is_ok() {
                    pulls_outstanding += 1;
                }
            }
            while pulls_outstanding > 0 {
                let buffer = loop {
                    match pulled_rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(buffer) => break buffer,
                        Err(mpsc::RecvTimeoutError::Timeout) => check_helper_panic(),
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            check_helper_panic();
                            panic!("pull helper hung up while pulls are outstanding");
                        }
                    }
                };
                pulls_outstanding -= 1;
                if buffer.len() < segment_size {
                    // A short (or empty) segment: the stream or the budget
                    // ran out; everything still queued will come back empty.
                    stream_done = true;
                }
                if !buffer.is_empty() {
                    let mut tape = tapes.pop().unwrap_or_default();
                    tape.clear();
                    let mut span = recorder.span("seg.simulate");
                    span.arg_u64("segment", telemetry.segments);
                    let watch = Stopwatch::started();
                    memsim::run_segment_deferred(
                        &mut self.system,
                        &mut self.prefetcher,
                        &buffer,
                        &mut batch,
                        &mut tape,
                        &mut counts,
                        meter,
                    );
                    telemetry
                        .simulate_hist
                        .record(as_micros(watch.elapsed_seconds()));
                    drop(span);
                    telemetry.segments += 1;
                    if account_task_tx.send(Task::Account(buffer, tape)).is_err() {
                        // The account helper only hangs up by panicking:
                        // stop pulling and drain, and the post-join check
                        // below re-raises its payload.
                        stream_done = true;
                    }
                }
                // Keep the pull stage fed: convert recycled buffers into new
                // pull requests.  While the stream may still deliver, at
                // least one pull must stay outstanding — block for a recycle
                // if necessary (one is always in flight here: every consumed
                // non-empty segment was sent to the account stage, and an
                // empty one set `stream_done`).
                while !stream_done {
                    let recycled = if pulls_outstanding == 0 {
                        loop {
                            match recycle_rx.recv_timeout(Duration::from_millis(20)) {
                                Ok(pair) => break Some(pair),
                                Err(mpsc::RecvTimeoutError::Timeout) => check_helper_panic(),
                                Err(mpsc::RecvTimeoutError::Disconnected) => {
                                    check_helper_panic();
                                    break None;
                                }
                            }
                        }
                    } else {
                        recycle_rx.try_recv().ok()
                    };
                    match recycled {
                        Some((buffer, tape)) => {
                            tapes.push(tape);
                            if pull_task_tx.send(Task::Pull(buffer)).is_ok() {
                                pulls_outstanding += 1;
                            } else {
                                stream_done = true;
                            }
                        }
                        None if pulls_outstanding == 0 => {
                            // Helpers hung up; nothing more can arrive.
                            stream_done = true;
                        }
                        None => break,
                    }
                }
            }
            drop(pull_task_tx);
            drop(account_task_tx);
            for handle in handles {
                handle.join().expect("pipeline helper panicked");
            }
            // A helper can panic on its final task after the owner is done
            // dispatching, leaving e.g. the accounting state half replayed:
            // re-raise rather than return state a caught panic corrupted.
            check_helper_panic();
            (self.system, self.prefetcher)
        });

        telemetry.pull_seconds = pull_state.pull_seconds + account_state.pull_seconds;
        telemetry.account_seconds = pull_state.account_seconds + account_state.account_seconds;
        telemetry.pull_hist.merge(&pull_state.pull_hist);
        telemetry.pull_hist.merge(&account_state.pull_hist);
        telemetry.account_hist.merge(&pull_state.account_hist);
        telemetry.account_hist.merge(&account_state.account_hist);
        let (mut stream, _) = pull_state.stream.take().expect("stream returns to owner");
        let stream_error = stream.take_error();
        let account = pull_state
            .account
            .take()
            .or_else(|| account_state.account.take())
            .expect("accounting returns to owner");
        (
            PipelineEnd {
                system,
                prefetcher,
                counts,
                account,
                stream_error,
            },
            telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_jobs_in, run_jobs_with, EngineConfig};
    use crate::spec::{OracleProbeSpec, PrefetcherSpec};
    use ghb::GhbConfig;
    use memsim::HierarchyConfig;
    use sms::{RegionConfig, SmsConfig};
    use timing::TimingConfig;
    use trace::{Application, GeneratorConfig, TraceSource};

    const ACCESSES: usize = 8_000;

    fn job(app: Application, prefetcher: PrefetcherSpec) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            GeneratorConfig::default().with_cpus(2),
            2006,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            ACCESSES,
        ))
    }

    /// Baselines, SMS, GHB and a timing job: every execution path segments.
    fn job_list() -> Vec<SimJob> {
        vec![
            job(Application::OltpDb2, PrefetcherSpec::null()),
            job(
                Application::Ocean,
                PrefetcherSpec::sms(&SmsConfig::paper_default()),
            ),
            job(
                Application::Sparse,
                PrefetcherSpec::ghb(&GhbConfig::paper_small()),
            ),
            job(Application::DssQry1, PrefetcherSpec::sms_paper_default())
                .with_timing(TimingConfig::table1(), 4),
        ]
    }

    #[test]
    fn segmented_results_are_bit_identical_across_sizes_and_threads() {
        let jobs = job_list();
        let serial = run_jobs_with(&jobs, &EngineConfig::serial());
        // Segment sizes hit: many tiny segments, a boundary exactly at the
        // budget (8000 % 1000 == 0), an odd size, and a segment larger than
        // the whole trace.  Worker budgets hit the inline (1), shared-helper
        // (2) and full three-stage (3+) pipelines.
        for segment_size in [97, 1_000, ACCESSES, 5 * ACCESSES] {
            for workers in [1, 2, 3, 6] {
                let config = EngineConfig::with_workers(workers).with_segment_size(segment_size);
                let segmented = run_jobs_with(&jobs, &config);
                assert_eq!(
                    serial, segmented,
                    "segment_size={segment_size} workers={workers} diverged from serial"
                );
                let a = serde_json::to_string(&serial).expect("serialize");
                let b = serde_json::to_string(&segmented).expect("serialize");
                assert_eq!(a, b, "byte-level divergence at {segment_size}/{workers}");
            }
        }
    }

    #[test]
    fn segment_plan_splits_the_thread_budget() {
        let config = EngineConfig::with_workers(6).with_segment_size(1_000);
        let plan = config.segment_plan().expect("segmentation on");
        assert_eq!(plan.threads, 3);
        assert_eq!(plan.segment_size, 1_000);
        assert!(EngineConfig::with_workers(6).segment_plan().is_none());
        assert!(EngineConfig::with_workers(6)
            .with_segment_size(0)
            .segment_plan()
            .is_none());
        let serial_plan = EngineConfig::serial()
            .with_segment_size(500)
            .segment_plan()
            .expect("segmentation on");
        assert_eq!(
            serial_plan.threads, 1,
            "one worker means an inline pipeline"
        );
    }

    fn temp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sms-engine-segment-{tag}-{}", std::process::id()))
    }

    fn recorded_trace(n: usize) -> Vec<trace::MemAccess> {
        Application::Ocean
            .stream(11, &GeneratorConfig::default().with_cpus(2))
            .take(n)
            .collect()
    }

    /// A file-backed job with an explicit access budget.
    fn file_job(path: &std::path::Path, accesses: usize) -> SimJob {
        SimJob::new(memsim::SimJob {
            source: TraceSource::binary_file(path.to_string_lossy()),
            cpus: 2,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: PrefetcherSpec::sms_paper_default(),
            accesses,
        })
    }

    #[test]
    fn trace_end_exactly_on_segment_boundary_matches_serial() {
        // 3000 recorded accesses, budget 3000, segments of 1000: the last
        // segment ends exactly at the trace end, with no empty tail segment
        // changing the result.
        let recorded = recorded_trace(3_000);
        let path = temp_file("boundary");
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();
        let jobs = vec![file_job(&path, 3_000)];
        let serial = run_jobs_with(&jobs, &EngineConfig::serial());
        for workers in [1, 2, 3] {
            let segmented = run_jobs_with(
                &jobs,
                &EngineConfig::with_workers(workers).with_segment_size(1_000),
            );
            assert_eq!(serial, segmented, "workers={workers}");
            assert!(segmented[0].warnings.is_empty(), "no short-trace warning");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_larger_than_trace_matches_serial_and_warns_short() {
        // 500 recorded accesses against a 2000 budget with 10k segments:
        // one short segment, and the short_trace warning must survive
        // segmentation byte-for-byte.
        let recorded = recorded_trace(500);
        let path = temp_file("oversize");
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();
        let jobs = vec![file_job(&path, 2_000)];
        let serial = run_jobs_with(&jobs, &EngineConfig::serial());
        assert_eq!(serial[0].warnings.len(), 1);
        assert_eq!(
            serial[0].warnings[0].kind,
            crate::runner::JobWarning::SHORT_TRACE
        );
        for workers in [1, 2, 3] {
            let segmented = run_jobs_with(
                &jobs,
                &EngineConfig::with_workers(workers).with_segment_size(10_000),
            );
            assert_eq!(serial, segmented, "workers={workers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_in_a_late_segment_fails_the_whole_job() {
        // A trace corrupted in its final records: the segmented run must
        // fail the job with the serial path's corrupt-mid-stream error — on
        // every thread count — not return a silently shortened summary.
        let recorded = recorded_trace(2_500);
        let mut bytes = Vec::new();
        trace::io::write_binary(&mut bytes, &recorded).unwrap();
        bytes.truncate(bytes.len() - 9);
        let path = temp_file("corrupt-late");
        std::fs::write(&path, &bytes).unwrap();
        let jobs = vec![file_job(&path, 2_500)];

        let serial_err = run_jobs_in(&jobs, &EngineConfig::serial(), Registry::builtin())
            .expect_err("corrupt trace must fail serially");
        for workers in [1, 2, 3] {
            let err = run_jobs_in(
                &jobs,
                &EngineConfig::with_workers(workers).with_segment_size(1_000),
                Registry::builtin(),
            )
            .expect_err("corrupt trace must fail segmented");
            assert_eq!(serial_err, err, "workers={workers}");
            assert!(err.to_string().contains("corrupt mid-stream"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The engine-owned half of the kind-counting probe: the [`KindSink`]
    /// that receives inline miss kinds from whichever stage classifies —
    /// the simulator itself on the serial path, the account stage's tape
    /// replay on segmented paths.
    struct KindCounter {
        classified: u64,
    }

    impl KindSink for KindCounter {
        fn on_kinds(
            &mut self,
            _access: &trace::MemAccess,
            l1: Option<memsim::MissKind>,
            _l2: Option<memsim::MissKind>,
        ) {
            if l1.is_some() {
                self.classified += 1;
            }
        }

        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// A probe that consumes miss kinds through the [`KindSink`] seam.  Its
    /// own `on_access` never reads the outcome's kind fields — that is the
    /// contract that lets it run with deferred classification.
    struct KindCountingProbe {
        inner: memsim::NullPrefetcher,
        counter: Option<Box<KindCounter>>,
    }

    impl memsim::Prefetcher for KindCountingProbe {
        fn on_access(
            &mut self,
            access: &trace::MemAccess,
            outcome: &memsim::SystemOutcome,
        ) -> Vec<memsim::PrefetchRequest> {
            self.inner.on_access(access, outcome)
        }

        fn name(&self) -> &str {
            "kind-counter"
        }
    }

    impl crate::plugin::Probe for KindCountingProbe {
        fn wants_miss_kinds(&self) -> bool {
            true
        }

        fn take_kind_sink(&mut self) -> Option<Box<dyn KindSink>> {
            self.counter.take().map(|c| c as Box<dyn KindSink>)
        }

        fn restore_kind_sink(&mut self, sink: Box<dyn KindSink>) {
            self.counter = Some(
                sink.into_any()
                    .downcast()
                    .expect("kind-counter sink round-trips"),
            );
        }

        fn into_report(self: Box<Self>) -> crate::plugin::ProbeReport {
            let classified = self.counter.as_ref().map_or(0, |c| c.classified);
            crate::plugin::ProbeReport::new("kind-counter", &classified)
        }
    }

    struct KindCountingPlugin;

    impl crate::plugin::PrefetcherPlugin for KindCountingPlugin {
        fn name(&self) -> &str {
            "kind-counter"
        }

        fn build(
            &self,
            _params: &serde_json::Value,
            _num_cpus: usize,
        ) -> Result<BuiltPrefetcher, crate::plugin::PluginError> {
            Ok(BuiltPrefetcher::new(KindCountingProbe {
                inner: memsim::NullPrefetcher::new(),
                counter: Some(Box::new(KindCounter { classified: 0 })),
            }))
        }
    }

    #[test]
    fn miss_kind_probes_segment_with_identical_kinds() {
        let mut registry = Registry::with_builtins();
        registry.register(std::sync::Arc::new(KindCountingPlugin));
        let jobs = vec![job(
            Application::OltpDb2,
            PrefetcherSpec {
                plugin: "kind-counter".to_string(),
                params: serde_json::Value::Null,
            },
        )];
        let serial = run_jobs_in(&jobs, &EngineConfig::serial(), &registry).expect("runs");
        let classified: u64 = serial[0]
            .probe
            .decode("kind-counter")
            .expect("kind-counter report");
        assert!(classified > 0, "the serial path delivers inline kinds");
        for workers in [1, 2, 3] {
            let config = EngineConfig::with_workers(workers).with_segment_size(1_000);
            let segmented = run_jobs_in(&jobs, &config, &registry).expect("runs segmented");
            assert_eq!(
                serial, segmented,
                "workers={workers}: the account stage must feed the sink \
                 exactly the inline kinds"
            );
        }
    }

    #[test]
    fn density_and_oracle_probes_segment_equivalently() {
        // Passive measurement probes (Figures 4 and 5) exercise the probe
        // report path through the segment pipeline.
        let jobs = vec![
            job(
                Application::OltpDb2,
                PrefetcherSpec::density_probe(&RegionConfig::paper_default()),
            ),
            job(
                Application::Ocean,
                PrefetcherSpec::oracle_probe(&OracleProbeSpec {
                    regions: vec![RegionConfig::new(512, 64), RegionConfig::new(1024, 64)],
                    read_only: true,
                }),
            ),
        ];
        let serial = run_jobs_with(&jobs, &EngineConfig::serial());
        for workers in [1, 2, 3] {
            let config = EngineConfig::with_workers(workers).with_segment_size(777);
            let segmented = run_jobs_with(&jobs, &config);
            assert_eq!(serial, segmented, "workers={workers} diverged");
        }
    }
}
