//! Observing a run must never perturb it: the engine's segment loop, on
//! any worker count and traced or not, produces byte-identical simulation
//! results to the per-access reference loops, and a traced run's spans
//! describe the loop that ran.

use engine::segment::SEGMENT;
use engine::{JobResult, PrefetcherSpec, Registry, RunOptions, SimJob};
use ghb::GhbConfig;
use memsim::{HierarchyConfig, MissAccounting, MultiCpuSystem, OutcomeTape, SegmentCounts};
use sms::SmsConfig;
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
/// result.
fn run(jobs: &[SimJob], options: &RunOptions<'_>) -> Vec<JobResult> {
    let mut results = Vec::new();
    engine::execute(jobs, options, &mut |result| results.push(result)).expect("jobs prepare");
    results
}

/// The per-access reference run of `job`: `memsim::run`, or
/// `TimingModel::evaluate` for a timing job.
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
fn engine_reproduces_the_per_access_reference_byte_for_byte() {
    // The engine's segment loop must not alter a single result byte of the
    // per-access reference.
    let jobs = job_list();
    let reference: Vec<JobResult> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| reference(index, job))
        .collect();
    let expected = serde_json::to_string(&reference).expect("serialize");
    for workers in [1, 3] {
        let results = run(&jobs, &RunOptions::new(workers));
        assert_eq!(
            serde_json::to_string(&results).expect("serialize"),
            expected,
            "{workers} workers: the engine must reproduce the reference byte for byte"
        );
    }
}

#[test]
fn every_worker_count_gives_the_same_bytes_and_traces_each_segment() {
    // Every job runs the segment loop: the worker count must not change a
    // byte, and each job's trace track must record the segments the loop
    // actually ran.
    let jobs = job_list();
    let serial = run(&jobs, &RunOptions::new(1));
    let expected = serde_json::to_string(&serial).expect("serialize");
    let segments = ACCESSES.div_ceil(SEGMENT);
    assert_eq!(segments, 3, "10k accesses in 4096-access segments");
    for workers in [1, 2, 3] {
        let trace = tracelog::Trace::enabled();
        let options = RunOptions {
            trace: &trace,
            ..RunOptions::new(workers)
        };
        let results = run(&jobs, &options);
        assert_eq!(
            serde_json::to_string(&results).expect("serialize"),
            expected,
            "{workers} workers: the worker count must not alter a result byte"
        );

        let logs = trace.logs();
        for index in 0..jobs.len() {
            let label = format!("job{index}.pipeline");
            let simulated = logs
                .iter()
                .filter(|log| log.label == label)
                .flat_map(|log| &log.events)
                .filter(|event| event.name == "seg.simulate")
                .count();
            assert_eq!(simulated, segments, "{workers} workers, job {index}");
        }
    }
}

#[test]
fn tracing_enabled_vs_disabled_is_byte_identical() {
    // Recording spans must never alter a single result byte, on the calling
    // thread or on scoped workers.
    let jobs = job_list();
    for workers in [1, 3] {
        let untraced = run(&jobs, &RunOptions::new(workers));
        let trace = tracelog::Trace::enabled();
        let options = RunOptions {
            trace: &trace,
            ..RunOptions::new(workers)
        };
        let traced = run(&jobs, &options);
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

#[test]
fn segment_primitives_reproduce_the_per_access_summary() {
    // The engine's simulate step: driving a trace through
    // `run_segment_deferred` one segment at a time and replaying each tape
    // reproduces the per-access reference.
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
    assert!(summary.prefetch_requests > 0, "SMS streams blocks");
}
