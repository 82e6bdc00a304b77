//! Telemetry must observe, never perturb: metrics collection (disabled vs.
//! enabled) and the batched vs. pre-batching driver loops must all produce
//! byte-identical simulation results, and the collected metrics must be
//! consistent with the results they describe.

use engine::{EngineConfig, PrefetcherSpec, Registry, SimJob};
use ghb::GhbConfig;
use memsim::{HierarchyConfig, MultiCpuSystem, PrefetchLevel, Prefetcher, RunSummary};
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
    // Telemetry neutrality holds through the segment pipeline too: metrics
    // on/off must not change a byte, and the per-job metrics must report the
    // segment count and stage timings the pipeline actually ran.
    let jobs = job_list();
    for workers in [1, 2, 3] {
        let config = EngineConfig::with_workers(workers).with_segment_size(1_000);
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
        let a = serde_json::to_string(&disabled).expect("serialize");
        let b = serde_json::to_string(&enabled).expect("serialize");
        assert_eq!(
            a, b,
            "{workers} workers segmented: metrics must not alter a result byte"
        );
        // The serial unsegmented path produces the same bytes again.
        let serial = engine::run_jobs_with(&jobs, &EngineConfig::serial());
        assert_eq!(serde_json::to_string(&serial).expect("serialize"), a);

        for job in &collected.jobs {
            assert_eq!(
                job.segments,
                (ACCESSES as u64).div_ceil(1_000),
                "every 10k-access job splits into 10 segments of 1000"
            );
            assert!(job.elapsed_seconds > 0.0);
            assert!(
                job.pull_seconds > 0.0,
                "the pull stage reads the whole trace"
            );
            assert!(
                job.account_seconds > 0.0,
                "the account stage replays every tape"
            );
        }
        assert!(collected.report().validate().is_ok());
    }
}

#[test]
fn tracing_enabled_vs_disabled_is_byte_identical() {
    // The PR 4 telemetry contract extends to span tracing: recording spans
    // must never alter a single result byte, across the plain and segmented
    // execution paths.
    let jobs = job_list();
    for config in [
        EngineConfig::serial(),
        EngineConfig::with_workers(3),
        EngineConfig::with_workers(2).with_segment_size(1_000),
    ] {
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
        let check =
            tracelog::check_chrome_trace(&chrome, &["job"]).expect("traced run yields valid JSON");
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
    let job = memsim::SimJob::synthetic(
        Application::Sparse,
        GeneratorConfig::default().with_cpus(CPUS),
        SEED,
        CPUS,
        HierarchyConfig::scaled(),
        memsim::NullPrefetcher::new(),
        ACCESSES,
    );
    let (summary, _, driver) =
        memsim::run_job_metered(&job, &MetricsConfig::enabled()).expect("synthetic source");
    assert_eq!(summary.accesses, ACCESSES as u64);
    assert_eq!(driver.cache_ops, summary.accesses + driver.prefetch_issues);
    assert!(driver.elapsed_seconds > 0.0);
    assert!(driver.accesses_per_sec > 0.0);
}
