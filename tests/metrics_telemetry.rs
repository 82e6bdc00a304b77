//! Telemetry must observe, never perturb: every engine job reports its
//! metrics, tracing is on or off, and the batched and pre-batching driver
//! loops must all produce byte-identical simulation results, and the
//! collected metrics must be consistent with the results they describe.

use engine::segment::SEGMENT;
use engine::{JobMetrics, JobResult, PrefetcherSpec, Registry, RunOptions, SimJob, TrainingSpec};
use ghb::GhbConfig;
use memsim::{
    HierarchyConfig, MissAccounting, MultiCpuSystem, OutcomeTape, PrefetchLevel, Prefetcher,
    RunSummary, SegmentCounts,
};
use sms::{IndexScheme, PhtCapacity, RegionConfig, SmsConfig, TrainerKind};
use timing::{TimingConfig, TimingModel};
use trace::{Application, GeneratorConfig, TraceSource};

const CPUS: usize = 2;
const SEED: u64 = 2006;
const ACCESSES: usize = 10_000;

/// A job list covering every execution path: baseline, SMS, GHB, timing.
fn job_list() -> Vec<SimJob> {
    let base = memsim::SimJob::synthetic(
        Application::OltpDb2,
        GeneratorConfig::default().with_cpus(CPUS),
        SEED,
        CPUS,
        HierarchyConfig::scaled(),
        PrefetcherSpec::null(),
        ACCESSES,
    );
    vec![
        SimJob::new(base.clone()),
        SimJob::new(memsim::SimJob {
            prefetcher: PrefetcherSpec::sms(&SmsConfig::paper_default()),
            ..base.clone()
        }),
        SimJob::new(memsim::SimJob {
            source: TraceSource::synthetic(
                Application::Ocean,
                GeneratorConfig::default().with_cpus(CPUS),
                SEED,
            ),
            prefetcher: PrefetcherSpec::ghb(&GhbConfig::paper_small()),
            ..base.clone()
        }),
        SimJob::new(memsim::SimJob {
            prefetcher: PrefetcherSpec::sms(&SmsConfig::paper_default()),
            ..base
        })
        .with_timing(TimingConfig::table1(), 4),
    ]
}

/// Runs `jobs` through `engine::execute` with `options` and collects every
/// result beside its metrics.
fn run(jobs: &[SimJob], options: &RunOptions<'_>) -> (Vec<JobResult>, Vec<JobMetrics>) {
    let (mut results, mut metrics) = (Vec::new(), Vec::new());
    engine::execute(jobs, options, &mut |result, job_metrics| {
        results.push(result);
        metrics.push(job_metrics);
    })
    .expect("jobs prepare");
    (results, metrics)
}

/// The per-access reference run of `job` — `memsim::run`, or
/// `TimingModel::evaluate` for a timing job — which collects no metrics.
fn reference(index: usize, job: &SimJob) -> JobResult {
    let sim = &job.sim;
    let mut prefetcher = Registry::builtin()
        .build(&sim.prefetcher, sim.cpus)
        .expect("built-in plugin");
    let mut stream = sim.source.open().expect("synthetic source");
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
    JobResult {
        job_index: index,
        summary,
        probe: prefetcher.into_report(),
        timing,
        warnings: Vec::new(),
    }
}

#[test]
fn metrics_collection_disabled_vs_enabled_is_byte_identical() {
    // The engine collects every job's metrics; the per-access reference
    // collects none.  Collecting must not alter a single result byte.
    let jobs = job_list();
    let reference: Vec<JobResult> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| reference(index, job))
        .collect();
    let expected = serde_json::to_string(&reference).expect("serialize");
    for workers in [1, 3] {
        let (results, metrics) = run(&jobs, &RunOptions::new(workers));
        assert_eq!(
            serde_json::to_string(&results).expect("serialize"),
            expected,
            "{workers} workers: collecting metrics must not alter a single result byte"
        );

        // The collected telemetry describes the run it observed.
        assert_eq!(metrics.len(), jobs.len());
        for (result, job) in results.iter().zip(&metrics) {
            assert_eq!(job.job_index, result.job_index);
            assert_eq!(job.accesses, result.summary.accesses);
            assert!(job.elapsed_seconds > 0.0);
            assert!(job.accesses_per_sec > 0.0);
        }
    }
}

#[test]
fn segmented_metrics_collection_is_byte_identical_and_counts_segments() {
    // Every job runs the segment loop: the worker count must not change a
    // byte, and the per-job metrics must report the segment count and stage
    // timings the loop actually ran.
    let jobs = job_list();
    let (serial, _) = run(&jobs, &RunOptions::new(1));
    let expected = serde_json::to_string(&serial).expect("serialize");
    for workers in [1, 2, 3] {
        let (results, metrics) = run(&jobs, &RunOptions::new(workers));
        assert_eq!(
            serde_json::to_string(&results).expect("serialize"),
            expected,
            "{workers} workers: the worker count must not alter a result byte"
        );

        let segments = (ACCESSES as u64).div_ceil(SEGMENT as u64);
        for job in &metrics {
            assert_eq!(
                job.segments, segments,
                "10k accesses in 4096-access segments"
            );
            assert!(job.elapsed_seconds > 0.0);
            assert!(job.pull_seconds > 0.0, "the loop pulls the whole trace");
            assert!(job.account_seconds > 0.0, "the loop replays every tape");
            assert_eq!(job.simulate_segment_us.count(), segments);
        }
    }
}

#[test]
fn tracing_enabled_vs_disabled_is_byte_identical() {
    // Recording spans must never alter a single result byte, on the calling
    // thread or on scoped workers.
    let jobs = job_list();
    for workers in [1, 3] {
        let (untraced, _) = run(&jobs, &RunOptions::new(workers));
        let trace = tracelog::Trace::enabled();
        let options = RunOptions {
            trace: &trace,
            ..RunOptions::new(workers)
        };
        let (traced, _) = run(&jobs, &options);
        assert_eq!(
            serde_json::to_string(&untraced).expect("serialize"),
            serde_json::to_string(&traced).expect("serialize"),
            "{workers} workers: tracing must not alter a single result byte"
        );
        let chrome = trace.to_chrome_json().expect("enabled trace exports");
        let check = tracelog::check_chrome_trace(&chrome, &["job", "seg.simulate"])
            .expect("traced run yields valid JSON");
        assert!(
            check.spans as usize >= jobs.len(),
            "every job records at least its own span"
        );
    }
}

/// The pre-batching driver loop: one request vector per access through
/// [`Prefetcher::on_access`], applied in order.  The trait keeps both
/// `on_access` and the batched `on_access_into`, so the two must agree.
fn run_pre_batching(
    system: &mut MultiCpuSystem,
    prefetcher: &mut dyn Prefetcher,
    stream: impl Iterator<Item = trace::MemAccess>,
) -> RunSummary {
    let mut summary = RunSummary::default();
    for access in stream {
        if (access.cpu as usize) >= system.num_cpus() {
            summary.skipped_accesses += 1;
            continue;
        }
        let outcome = system.access(&access);
        summary.accesses += 1;
        let requests = prefetcher.on_access(&access, &outcome);
        summary.prefetch_requests += requests.len() as u64;
        for req in requests {
            if (req.cpu as usize) >= system.num_cpus() {
                continue;
            }
            match req.level {
                PrefetchLevel::L1 => {
                    if let Some(victim) = system.cpu_mut(req.cpu).stream_fill(req.addr) {
                        prefetcher.on_stream_eviction(req.cpu, victim.block_addr);
                    }
                }
                PrefetchLevel::L2 => {
                    system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                }
            }
        }
    }
    summary.l1 = system.l1_stats_total();
    summary.l2 = system.l2_stats_total();
    summary.l1_breakdown = *system.l1_breakdown();
    summary.l2_breakdown = *system.l2_breakdown();
    summary
}

#[test]
fn batched_and_unbatched_drivers_agree_for_every_builtin_prefetcher() {
    let training = |trainer| {
        PrefetcherSpec::training(&TrainingSpec {
            trainer,
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            pht: PhtCapacity::paper_default(),
            l1_capacity_bytes: HierarchyConfig::scaled().l1.capacity_bytes,
        })
    };
    let specs = [
        PrefetcherSpec::null(),
        PrefetcherSpec::sms(&SmsConfig::paper_default()),
        PrefetcherSpec::ghb(&GhbConfig::paper_small()),
    ]
    .into_iter()
    .chain(TrainerKind::ALL.map(training));
    for spec in specs {
        for app in [Application::Ocean, Application::DssQry1] {
            let generator = GeneratorConfig::default().with_cpus(CPUS);
            let registry = Registry::builtin();

            let mut batched_system = MultiCpuSystem::new(CPUS, &HierarchyConfig::scaled());
            let mut batched_prefetcher = registry.build(&spec, CPUS).expect("built-in plugin");
            let mut stream = app.stream(SEED, &generator);
            let batched = memsim::run(
                &mut batched_system,
                &mut batched_prefetcher,
                &mut stream,
                ACCESSES,
            );

            let mut unbatched_system = MultiCpuSystem::new(CPUS, &HierarchyConfig::scaled());
            let mut unbatched_prefetcher = registry.build(&spec, CPUS).expect("built-in plugin");
            let stream = app.stream(SEED, &generator).take(ACCESSES);
            let unbatched =
                run_pre_batching(&mut unbatched_system, &mut unbatched_prefetcher, stream);

            assert_eq!(
                serde_json::to_string(&batched).expect("serialize"),
                serde_json::to_string(&unbatched).expect("serialize"),
                "{}/{app}: batched loop must not alter a single summary byte",
                spec.plugin
            );
        }
    }
}

#[test]
fn driver_metrics_reconcile_with_the_summary() {
    // The engine's simulate step: driving a trace through
    // `run_segment_deferred` one segment at a time and replaying each tape
    // reproduces the per-access reference, and the driver's counts add up.
    let generator = GeneratorConfig::default().with_cpus(CPUS);
    let spec = PrefetcherSpec::sms_paper_default();
    let accesses: Vec<trace::MemAccess> = Application::Sparse
        .stream(SEED, &generator)
        .take(ACCESSES)
        .collect();

    let mut reference_system = MultiCpuSystem::new(CPUS, &HierarchyConfig::scaled());
    let mut reference_prefetcher = Registry::builtin().build(&spec, CPUS).expect("built-in");
    let reference = memsim::run(
        &mut reference_system,
        &mut reference_prefetcher,
        &mut accesses.iter().copied(),
        ACCESSES,
    );

    let mut system = MultiCpuSystem::new(CPUS, &HierarchyConfig::scaled());
    let mut prefetcher = Registry::builtin().build(&spec, CPUS).expect("built-in");
    let mut accounting = MissAccounting::new(CPUS, &HierarchyConfig::scaled());
    let (mut batch, mut tape) = (Vec::new(), OutcomeTape::new());
    let mut counts = SegmentCounts::default();
    for segment in accesses.chunks(SEGMENT) {
        tape.clear();
        memsim::run_segment_deferred(
            &mut system,
            &mut prefetcher,
            segment,
            &mut batch,
            &mut tape,
            &mut counts,
        );
        accounting.replay(segment, &tape);
    }
    let summary = memsim::summarize_segmented(&system, &accounting, &counts);

    assert_eq!(summary, reference);
    assert_eq!(summary.accesses, ACCESSES as u64);
    assert!(counts.prefetch_issues > 0, "SMS streams blocks");
    assert!(counts.prefetch_issues <= summary.prefetch_requests);
    assert!(counts.request_batches > 0);
    let metrics = JobMetrics::from_driver(0, &counts, 1.0);
    assert_eq!(metrics.cache_ops, summary.accesses + counts.prefetch_issues);
}
