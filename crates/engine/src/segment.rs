//! The engine's one job loop.
//!
//! Every job — plain or timed, whatever its plugin — runs on the worker that
//! claimed it as a sequence of steps over [`SEGMENT`]-access segments of its
//! trace:
//!
//! 1. **pull** — read the next segment from the (stateful) trace stream into
//!    a reusable buffer ([`trace::fill_segment`]);
//! 2. **simulate** — drive the segment through the caches, coherence and
//!    the prefetcher with miss classification *deferred*: the
//!    classifier-relevant facts go onto an [`OutcomeTape`] instead of being
//!    accounted inline ([`memsim::run_segment_deferred`]);
//! 3. **account** — replay the tape into a [`MissAccounting`], into the
//!    [`TimingAccounting`] cycle model for timing jobs, and into the probe's
//!    [`KindSink`] when it has one.
//!
//! Classification is pure accounting — no cache, coherence or prefetcher
//! decision depends on a miss kind — and every step's state advances in
//! access order, so the results are bit-identical to the per-access
//! reference loops, `memsim::run` and `timing::TimingModel::evaluate`.
//! `tests/deterministic_replay.rs` checks that on random traces and pins it
//! with golden hashes.
//!
//! Batching by phase keeps each phase's working set hot: a segment's
//! accesses are pulled together, simulated together, then classified
//! together.  The benchmark's traced loop (`benchmark/src/layers.rs`) makes
//! the same calls at the same segment boundaries, so its per-layer split
//! describes the loop every measured run takes.
//!
//! A traced run records each step as a `seg.pull`, `seg.simulate` or
//! `seg.account` span carrying its segment number; those spans are the
//! engine's only record of where a job's time went.  An untraced job never
//! reads the clock: the loop keeps no timings of its own.

use crate::plugin::{BuiltPrefetcher, KindSink, Registry};
use crate::runner::{EngineError, JobResult, JobWarning, SimJob};
use crate::shared::SharedTraces;
use memsim::{MissAccounting, MultiCpuSystem, OutcomeTape, PrefetchRequest, SegmentCounts};
use timing::TimingAccounting;
use trace::{fill_segment, BoxedStream, MemAccess};
use tracelog::{Recorder, Trace};

/// Accesses pulled, simulated and accounted per step of the job loop.
pub const SEGMENT: usize = 4096;

/// Runs one job, resolving its prefetcher spec through `registry` and then
/// opening its stream through the run's `shared` trace table.  The job
/// records `job.prepare`, per-segment `seg.pull` / `seg.simulate` /
/// `seg.account` and `job.finalize` spans into `trace`, on a track of its
/// own.
///
/// # Errors
///
/// [`EngineError::Plugin`] if the spec does not resolve or build, and
/// [`EngineError::Trace`] if the trace source fails to open or turns out to
/// be corrupt mid-stream — even inside a late segment: a corrupt record
/// fails the job loudly rather than silently shortening the run.
pub(crate) fn run_job_on(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    trace: &Trace,
    shared: &SharedTraces,
) -> Result<JobResult, EngineError> {
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
    // Deferred classification hands the prefetcher `None` miss kinds, so a
    // kind-consuming probe's sink is fed from the account step instead.
    let sink = prefetcher.take_kind_sink();
    let stream = shared
        .open(index, job)
        .map_err(|e| trace_error(e.to_string()))?;
    let timing = job
        .timing
        .as_ref()
        .map(|spec| TimingAccounting::new(sim.cpus, spec.config, sim.accesses, spec.segments));
    let mut state = JobState {
        stream,
        budget: sim.accesses,
        system: MultiCpuSystem::new(sim.cpus, &sim.hierarchy),
        prefetcher,
        accounting: MissAccounting::new(sim.cpus, &sim.hierarchy),
        timing,
        sink,
        counts: SegmentCounts::default(),
    };
    drop(prepare_span);

    state.run(&recorder);
    if let Some(e) = state.stream.take_error() {
        return Err(trace_error(format!("corrupt mid-stream: {e}")));
    }

    let mut finalize_span = recorder.span("job.finalize");
    finalize_span.arg_u64("job", index as u64);
    let JobState {
        system,
        mut prefetcher,
        accounting,
        timing,
        sink,
        counts,
        ..
    } = state;
    let summary = memsim::summarize_segmented(&system, &accounting, &counts);
    if let Some(sink) = sink {
        prefetcher.restore_kind_sink(sink);
    }
    let mut result = JobResult {
        job_index: index,
        summary,
        probe: prefetcher.into_report(),
        timing: timing.map(TimingAccounting::finish),
        warnings: Vec::new(),
    };
    // A well-formed stream that simply ran dry is not an error (replaying a
    // recorded trace shorter than the budget is legitimate), but it must be
    // visible: every downstream number is per-delivered-access, not
    // per-requested-access.
    let delivered = result.summary.accesses + result.summary.skipped_accesses;
    if delivered < sim.accesses as u64 {
        result.warnings.push(JobWarning::short_trace(
            &sim.source.describe(),
            delivered,
            sim.accesses,
        ));
    }
    drop(finalize_span);
    Ok(result)
}

/// One job's simulation state, advanced segment by segment.
struct JobState {
    stream: BoxedStream,
    /// Accesses the job may still pull.
    budget: usize,
    system: MultiCpuSystem,
    prefetcher: BuiltPrefetcher,
    accounting: MissAccounting,
    timing: Option<TimingAccounting>,
    sink: Option<Box<dyn KindSink>>,
    counts: SegmentCounts,
}

impl JobState {
    /// Runs pull → simulate → account over the job's access budget,
    /// recording each step as a span on `recorder`.  Stops early when the
    /// stream runs dry; the caller checks the stream for an error.
    fn run(&mut self, recorder: &Recorder) {
        let mut batch: Vec<PrefetchRequest> = Vec::new();
        let mut buffer = Vec::with_capacity(SEGMENT.min(self.budget));
        let mut tape = OutcomeTape::new();
        let mut segment = 0;
        while self.budget > 0 {
            let step = |name| {
                let mut span = recorder.span(name);
                span.arg_u64("segment", segment);
                span
            };
            let want = SEGMENT.min(self.budget);
            let got = {
                let _span = step("seg.pull");
                fill_segment(&mut *self.stream, &mut buffer, want)
            };
            self.budget -= got;
            if got == 0 {
                break;
            }
            {
                let _span = step("seg.simulate");
                tape.clear();
                memsim::run_segment_deferred(
                    &mut self.system,
                    &mut self.prefetcher,
                    &buffer,
                    &mut batch,
                    &mut tape,
                    &mut self.counts,
                );
            }
            {
                let _span = step("seg.account");
                self.account(&buffer, &tape);
            }
            segment += 1;
            if got < want {
                break;
            }
        }
    }

    /// Replays one segment's tape into the classifiers, the probe's kind
    /// sink and the timing model, when present.
    fn account(&mut self, accesses: &[MemAccess], tape: &OutcomeTape) {
        match &mut self.sink {
            Some(sink) => self
                .accounting
                .replay_with_kinds(accesses, tape, |access, l1, l2| {
                    sink.on_kinds(access, l1, l2)
                }),
            None => self.accounting.replay(accesses, tape),
        }
        if let Some(timing) = &mut self.timing {
            for (index, access) in accesses.iter().enumerate() {
                let flags = tape.flags_at(index);
                if !flags.skipped {
                    timing.observe(access, flags.l1_miss, flags.offchip);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::tests::{collect, run};
    use crate::runner::RunOptions;
    use crate::spec::{OracleProbeSpec, PrefetcherSpec};
    use ghb::GhbConfig;
    use memsim::HierarchyConfig;
    use sms::{RegionConfig, SmsConfig};
    use timing::{TimingConfig, TimingModel};
    use trace::{Application, GeneratorConfig, TraceSource};

    /// The per-access reference for one job: `memsim::run`, or
    /// `TimingModel::evaluate` for timing jobs, over the job's own source
    /// with the prefetcher `registry` builds.
    pub(crate) fn reference(index: usize, job: &SimJob, registry: &Registry) -> JobResult {
        let sim = &job.sim;
        let mut prefetcher = registry
            .build(&sim.prefetcher, sim.cpus)
            .expect("plugin builds");
        let mut stream = sim.source.open().expect("source opens");
        let (summary, timing) = match &job.timing {
            Some(spec) => {
                let model = TimingModel::new(sim.hierarchy, sim.cpus, spec.config);
                let (timing, summary) =
                    model.evaluate(&mut prefetcher, &mut stream, sim.accesses, spec.segments);
                (summary, Some(timing))
            }
            None => {
                let mut system = MultiCpuSystem::new(sim.cpus, &sim.hierarchy);
                let summary = memsim::run(&mut system, &mut prefetcher, &mut stream, sim.accesses);
                (summary, None)
            }
        };
        assert!(stream.take_error().is_none(), "the reference reads cleanly");
        let mut warnings = Vec::new();
        let delivered = summary.accesses + summary.skipped_accesses;
        if delivered < sim.accesses as u64 {
            warnings.push(JobWarning::short_trace(
                &sim.source.describe(),
                delivered,
                sim.accesses,
            ));
        }
        JobResult {
            job_index: index,
            summary,
            probe: prefetcher.into_report(),
            timing,
            warnings,
        }
    }

    /// [`reference`] for every job of a list, against the built-ins.
    fn references(jobs: &[SimJob]) -> Vec<JobResult> {
        jobs.iter()
            .enumerate()
            .map(|(index, job)| reference(index, job, Registry::builtin()))
            .collect()
    }

    fn job(app: Application, prefetcher: PrefetcherSpec, accesses: usize) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            GeneratorConfig::default().with_cpus(2),
            2006,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            accesses,
        ))
    }

    /// Baselines, SMS, GHB and a timing job with `accesses` each.
    fn job_list(accesses: usize) -> Vec<SimJob> {
        vec![
            job(Application::OltpDb2, PrefetcherSpec::null(), accesses),
            job(
                Application::Ocean,
                PrefetcherSpec::sms(&SmsConfig::paper_default()),
                accesses,
            ),
            job(
                Application::Sparse,
                PrefetcherSpec::ghb(&GhbConfig::paper_small()),
                accesses,
            ),
            job(
                Application::DssQry1,
                PrefetcherSpec::sms_paper_default(),
                accesses,
            )
            .with_timing(TimingConfig::table1(), 4),
        ]
    }

    #[test]
    fn segmented_results_are_bit_identical_across_sizes_and_threads() {
        // Budgets below one segment, exactly two segments, and two segments
        // plus an odd remainder; worker counts from serial to more workers
        // than jobs.
        for accesses in [SEGMENT - 1, 2 * SEGMENT, 2 * SEGMENT + 97] {
            let jobs = job_list(accesses);
            let expected = serde_json::to_string(&references(&jobs)).expect("serialize");
            for workers in [1, 2, 3, 6] {
                let results = run(&jobs, workers);
                assert_eq!(
                    serde_json::to_string(&results).expect("serialize"),
                    expected,
                    "accesses={accesses} workers={workers} diverged from the reference"
                );
            }
        }
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
        // Two segments' worth of recorded accesses and the same budget: the
        // last segment ends exactly at the trace end, with no empty tail
        // segment changing the result.
        let recorded = recorded_trace(2 * SEGMENT);
        let path = temp_file("boundary");
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();
        let jobs = vec![file_job(&path, 2 * SEGMENT)];
        let expected = references(&jobs);
        for workers in [1, 2, 3] {
            let results = run(&jobs, workers);
            assert_eq!(results, expected, "workers={workers}");
            assert!(results[0].warnings.is_empty(), "no short-trace warning");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_larger_than_trace_matches_serial_and_warns_short() {
        // 500 recorded accesses against a 2000 budget: one short segment,
        // and the short_trace warning must match the reference's.
        let recorded = recorded_trace(500);
        let path = temp_file("oversize");
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();
        let jobs = vec![file_job(&path, 2_000)];
        let expected = references(&jobs);
        assert_eq!(expected[0].warnings.len(), 1);
        assert_eq!(
            expected[0].warnings[0].kind,
            crate::runner::JobWarning::SHORT_TRACE
        );
        for workers in [1, 2, 3] {
            let results = run(&jobs, workers);
            assert_eq!(results, expected, "workers={workers}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_in_a_late_segment_fails_the_whole_job() {
        // A trace corrupted in its final records, well past the first two
        // segments: the job must fail with the corrupt-mid-stream error on
        // every worker count, not return a silently shortened summary.
        let recorded = recorded_trace(2 * SEGMENT + 500);
        let mut bytes = Vec::new();
        trace::io::write_binary(&mut bytes, &recorded).unwrap();
        bytes.truncate(bytes.len() - 9);
        let path = temp_file("corrupt-late");
        std::fs::write(&path, &bytes).unwrap();
        let jobs = vec![file_job(&path, recorded.len())];

        for workers in [1, 2, 3] {
            let err = collect(&jobs, &RunOptions::new(workers))
                .expect_err("corrupt trace must fail the job");
            assert!(
                matches!(err, EngineError::Trace { job_index: 0, .. }),
                "{err:?}"
            );
            assert!(err.to_string().contains("corrupt mid-stream"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// The engine-owned half of the kind-counting probe: the [`KindSink`]
    /// the account step feeds the miss kinds while replaying each tape.
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
    /// own `on_access_into` never reads the outcome's kind fields — they are
    /// `None` under deferred classification.
    struct KindCountingProbe {
        inner: memsim::NullPrefetcher,
        counter: Option<Box<KindCounter>>,
    }

    impl memsim::Prefetcher for KindCountingProbe {
        fn on_access_into(
            &mut self,
            access: &trace::MemAccess,
            outcome: &memsim::SystemOutcome,
            out: &mut Vec<memsim::PrefetchRequest>,
        ) {
            self.inner.on_access_into(access, outcome, out);
        }

        fn name(&self) -> &str {
            "kind-counter"
        }
    }

    impl crate::plugin::Probe for KindCountingProbe {
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
            2 * SEGMENT + 808,
        )];
        let expected = reference(0, &jobs[0], &registry);
        assert!(expected.summary.l1_breakdown.total() > 0);
        for workers in [1, 2, 3] {
            let options = RunOptions {
                registry: &registry,
                ..RunOptions::new(workers)
            };
            let results = collect(&jobs, &options).expect("runs");
            assert_eq!(results[0].summary, expected.summary, "workers={workers}");
            let classified: u64 = results[0]
                .probe
                .decode("kind-counter")
                .expect("kind-counter report");
            assert_eq!(
                classified,
                expected.summary.l1_breakdown.total(),
                "workers={workers}: the sink sees one kind per classified L1 miss"
            );
        }
    }

    #[test]
    fn density_and_oracle_probes_segment_equivalently() {
        // Passive measurement probes (Figures 4 and 5): their reports must
        // match the reference's.
        let jobs = vec![
            job(
                Application::OltpDb2,
                PrefetcherSpec::density_probe(&RegionConfig::paper_default()),
                2 * SEGMENT + 777,
            ),
            job(
                Application::Ocean,
                PrefetcherSpec::oracle_probe(&OracleProbeSpec {
                    regions: vec![RegionConfig::new(512, 64), RegionConfig::new(1024, 64)],
                    read_only: true,
                }),
                2 * SEGMENT + 777,
            ),
        ];
        let expected = references(&jobs);
        for workers in [1, 2, 3] {
            let results = run(&jobs, workers);
            assert_eq!(results, expected, "workers={workers} diverged");
        }
    }
}
