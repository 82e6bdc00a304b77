//! Telemetry must observe, never perturb: metrics collection (disabled vs.
//! enabled) and the batched vs. pre-batching driver loops must all produce
//! byte-identical simulation results, and the collected metrics must be
//! consistent with the results they describe.

use engine::segment::SEGMENT;
use engine::{EngineConfig, PrefetcherSpec, Registry, SimJob};
use ghb::GhbConfig;
use memsim::{
    DriverMetrics, HierarchyConfig, MissAccounting, MultiCpuSystem, OutcomeTape, PrefetchLevel,
    Prefetcher, RunSummary, SegmentCounts,
};
use metrics::MetricsConfig;
use sms::SmsConfig;
use timing::TimingConfig;
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

#[test]
fn metrics_collection_disabled_vs_enabled_is_byte_identical() {
    let jobs = job_list();
    for workers in [1, 3] {
        let config = EngineConfig::with_workers(workers);
        let (disabled, _) = engine::run_jobs_metered(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::disabled(),
        )
        .expect("jobs prepare");
        let (enabled, collected) = engine::run_jobs_metered(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::enabled(),
        )
        .expect("jobs prepare");

        // Byte-identical, not merely `==`: serialize both result lists.
        let a = serde_json::to_string(&disabled).expect("serialize");
        let b = serde_json::to_string(&enabled).expect("serialize");
        assert_eq!(
            a, b,
            "{workers} workers: collecting metrics must not alter a single result byte"
        );

        // And the plain (unmetered) entry point agrees too.
        let plain = engine::run_jobs_with(&jobs, &config);
        assert_eq!(
            serde_json::to_string(&plain).expect("serialize"),
            a,
            "{workers} workers: run_jobs_with must match the metered paths"
        );

        // The collected telemetry describes the run it observed.
        assert_eq!(collected.jobs.len(), jobs.len());
        assert_eq!(collected.workers.len(), workers);
        assert_eq!(
            collected.total_accesses,
            enabled.iter().map(|r| r.summary.accesses).sum::<u64>()
        );
        for (result, job) in enabled.iter().zip(&collected.jobs) {
            assert_eq!(job.job_index, result.job_index);
            assert_eq!(job.accesses, result.summary.accesses);
            assert!(job.elapsed_seconds > 0.0);
            assert!(job.accesses_per_sec > 0.0);
        }
        assert!(collected.total_seconds > 0.0);
        assert!(collected.report().validate().is_ok());
    }
}

#[test]
fn segmented_metrics_collection_is_byte_identical_and_counts_segments() {
    // Every job runs the segment loop: metrics on/off must not change a
    // byte, the per-job metrics must report the segment count and stage
    // timings the loop actually ran, and with metrics off the loop reads no
    // clock but still counts its segments.
    let jobs = job_list();
    for workers in [1, 2, 3] {
        let config = EngineConfig::with_workers(workers);
        let (disabled, quiet) = engine::run_jobs_metered(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::disabled(),
        )
        .expect("jobs prepare");
        let (enabled, collected) = engine::run_jobs_metered(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::enabled(),
        )
        .expect("jobs prepare");
        let a = serde_json::to_string(&disabled).expect("serialize");
        let b = serde_json::to_string(&enabled).expect("serialize");
        assert_eq!(
            a, b,
            "{workers} workers: metrics must not alter a result byte"
        );

        let segments = (ACCESSES as u64).div_ceil(SEGMENT as u64);
        for job in &collected.jobs {
            assert_eq!(
                job.segments, segments,
                "10k accesses in 4096-access segments"
            );
            assert!(job.elapsed_seconds > 0.0);
            assert!(job.pull_seconds > 0.0, "the loop pulls the whole trace");
            assert!(job.account_seconds > 0.0, "the loop replays every tape");
            assert_eq!(job.simulate_segment_us.count(), segments);
        }
        for job in &quiet.jobs {
            assert_eq!(job.segments, segments);
            assert_eq!(job.elapsed_seconds, 0.0);
            assert_eq!(job.pull_seconds, 0.0);
            assert_eq!(job.simulate_segment_us.count(), 0);
        }
        assert!(collected.report().validate().is_ok());
    }
}

#[test]
fn tracing_enabled_vs_disabled_is_byte_identical() {
    // The PR 4 telemetry contract extends to span tracing: recording spans
    // must never alter a single result byte, serially or sharded.
    let jobs = job_list();
    for config in [EngineConfig::serial(), EngineConfig::with_workers(3)] {
        let (untraced, _) = engine::run_jobs_observed(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::disabled(),
            &tracelog::Trace::disabled(),
        )
        .expect("jobs prepare");
        let trace = tracelog::Trace::enabled();
        let (traced, _) = engine::run_jobs_observed(
            &jobs,
            &config,
            Registry::builtin(),
            &MetricsConfig::enabled(),
            &trace,
        )
        .expect("jobs prepare");
        assert_eq!(
            serde_json::to_string(&untraced).expect("serialize"),
            serde_json::to_string(&traced).expect("serialize"),
            "{config:?}: tracing must not alter a single result byte"
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
    for spec in [
        PrefetcherSpec::null(),
        PrefetcherSpec::sms(&SmsConfig::paper_default()),
        PrefetcherSpec::ghb(&GhbConfig::paper_small()),
    ] {
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
    // The engine's simulate step, metered: driving a trace through
    // `run_segment_deferred` one segment at a time and replaying each tape
    // reproduces the per-access reference, and the meter's counts add up.
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
    let mut driver = DriverMetrics::default();
    for segment in accesses.chunks(SEGMENT) {
        tape.clear();
        memsim::run_segment_deferred(
            &mut system,
            &mut prefetcher,
            segment,
            &mut batch,
            &mut tape,
            &mut counts,
            &mut driver,
        );
        accounting.replay(segment, &tape);
    }
    let summary = memsim::summarize_segmented(&system, &accounting, &counts);

    assert_eq!(summary, reference);
    assert_eq!(summary.accesses, ACCESSES as u64);
    assert!(driver.prefetch_issues > 0, "SMS streams blocks");
    assert_eq!(driver.cache_ops, summary.accesses + driver.prefetch_issues);
    assert!(driver.request_batches > 0);
}
