//! The Chrome-trace export must be structurally valid and must actually
//! account for the run it claims to describe: a job's stage spans have to
//! cover (nearly) all of its measured wall-clock and agree with the job's
//! own metrics, and the job server has to record the full submission
//! lifecycle.

use engine::segment::SEGMENT;
use engine::{JobList, JobMetrics, PrefetcherSpec, RunOptions, SimJob};
use ghb::GhbConfig;
use memsim::HierarchyConfig;
use sms::SmsConfig;
use timing::TimingConfig;
use trace::{Application, GeneratorConfig};
use tracelog::{check_chrome_trace, span_total_us, EventKind, Trace};

const CPUS: usize = 2;
const SEED: u64 = 2006;
const ACCESSES: usize = 60_000;

fn sms_job() -> SimJob {
    SimJob::new(memsim::SimJob::synthetic(
        Application::OltpDb2,
        GeneratorConfig::default().with_cpus(CPUS),
        SEED,
        CPUS,
        HierarchyConfig::scaled(),
        PrefetcherSpec::sms(&SmsConfig::paper_default()),
        ACCESSES,
    ))
}

#[test]
fn segmented_job_spans_cover_the_measured_wall_clock() {
    let jobs = vec![sms_job()];
    let trace = Trace::enabled();
    let options = RunOptions {
        trace: &trace,
        ..RunOptions::new(0)
    };
    let start = std::time::Instant::now();
    let delivered = engine::execute(&jobs, &options, &mut |_, _| {}).expect("job prepares");
    let wall_us = start.elapsed().as_micros() as u64;
    assert_eq!(delivered, 1);

    let chrome = trace.to_chrome_json().expect("enabled trace exports");
    let check = check_chrome_trace(&chrome, &["job", "seg.pull", "seg.simulate", "seg.account"])
        .expect("valid chrome trace");
    assert_eq!(check.dropped, 0, "one job must not overflow the ring");
    assert!(
        check.spans as u64 > 3 * (ACCESSES / SEGMENT) as u64,
        "one job span plus three stage spans per segment, got {}",
        check.spans
    );

    // The job span accounts for the run's wall-clock, and the prepare /
    // stage / finalize spans account for the job span: tracing that loses
    // more than 5% of the time it claims to observe is not worth reading.
    let job_us = span_total_us(&chrome, "job").expect("job span");
    let stage_us = span_total_us(&chrome, "job.prepare").expect("prepare span")
        + span_total_us(&chrome, "seg.pull").expect("pull spans")
        + span_total_us(&chrome, "seg.simulate").expect("simulate spans")
        + span_total_us(&chrome, "seg.account").expect("account spans")
        + span_total_us(&chrome, "job.finalize").expect("finalize span");
    assert!(
        job_us as f64 >= 0.95 * wall_us as f64,
        "job span covers {job_us} of {wall_us} measured us"
    );
    assert!(
        stage_us as f64 >= 0.95 * job_us as f64,
        "stage spans cover {stage_us} of {job_us} job us"
    );
}

/// Summed durations of the spans named `name` in the log labelled `label`,
/// microseconds.
fn span_sum_us(trace: &Trace, label: &str, name: &str) -> u64 {
    trace
        .logs()
        .iter()
        .filter(|log| log.label == label)
        .flat_map(|log| &log.events)
        .filter(|event| event.name == name)
        .map(|event| match event.kind {
            EventKind::Span { dur_us, .. } => dur_us,
            _ => panic!("{name} must be a span"),
        })
        .sum()
}

#[test]
fn stage_spans_and_job_metrics_read_the_same_clock() {
    // Baseline, SMS, GHB and a timing job, on the calling thread and on
    // scoped workers: every job's stage spans sum to its metrics' stage
    // times.  A span's two ends are each rounded down to whole run-relative
    // microseconds, so the sums may differ by less than 1 us per span.
    let jobs = vec![
        sms_job(),
        SimJob::new(memsim::SimJob {
            prefetcher: PrefetcherSpec::null(),
            ..sms_job().sim
        }),
        SimJob::new(memsim::SimJob {
            prefetcher: PrefetcherSpec::ghb(&GhbConfig::paper_small()),
            accesses: 3 * SEGMENT + 5,
            ..sms_job().sim
        }),
        sms_job().with_timing(TimingConfig::table1(), 4),
    ];
    for workers in [1, 3] {
        let trace = Trace::enabled();
        let options = RunOptions {
            trace: &trace,
            ..RunOptions::new(workers)
        };
        let mut delivered: Vec<(u64, JobMetrics)> = Vec::new();
        engine::execute(&jobs, &options, &mut |result, metrics| {
            delivered.push((result.summary.accesses, metrics));
        })
        .expect("every job runs");
        assert_eq!(delivered.len(), jobs.len());
        for (index, (accesses, metrics)) in delivered.iter().enumerate() {
            assert_eq!(metrics.job_index, index);
            assert_eq!(metrics.accesses, *accesses);
            assert_eq!(
                metrics.cache_ops,
                metrics.accesses + metrics.prefetch_issues
            );
            assert!(metrics.segments > 0 && metrics.elapsed_seconds > 0.0);
            assert!(metrics.pull_seconds > 0.0 && metrics.account_seconds > 0.0);
            assert!(metrics.simulate_segment_us.sum() > 0);

            let label = format!("job{index}.pipeline");
            let tolerance = metrics.pull_segment_us.count() as f64;
            let stages = [
                ("seg.pull", metrics.pull_seconds * 1e6),
                ("seg.simulate", metrics.simulate_segment_us.sum() as f64),
                ("seg.account", metrics.account_seconds * 1e6),
            ];
            for (name, metric_us) in stages {
                let spans_us = span_sum_us(&trace, &label, name) as f64;
                assert!(
                    (spans_us - metric_us).abs() <= tolerance,
                    "workers={workers} job {index}: {name} spans sum to {spans_us} us, \
                     its metrics to {metric_us} us"
                );
            }
        }
        // Prefetching jobs issue fills; the baseline issues none.
        assert!(delivered[0].1.prefetch_issues > 0 && delivered[0].1.request_batches > 0);
        assert_eq!(delivered[1].1.prefetch_issues, 0);
    }
}

#[test]
fn server_trace_records_the_submission_lifecycle() {
    let socket = std::env::temp_dir().join(format!("sms-trace-{}.sock", std::process::id()));
    let trace = Trace::enabled();
    let server = server::Server::start(server::ServerConfig {
        unix_socket: Some(socket.clone()),
        trace: trace.clone(),
        ..server::ServerConfig::default()
    })
    .expect("server starts");
    let endpoint = server::Endpoint::Unix(socket);
    let list = JobList::new(vec![sms_job()]);
    let options = server::SubmitOptions::default();

    let cold = server::client::submit(&endpoint, &list, &options, &mut |_| {})
        .expect("cold submission succeeds");
    assert!(!cold.done.cache_hit);
    let replay = server::client::submit(&endpoint, &list, &options, &mut |_| {})
        .expect("identical resubmission succeeds");
    assert!(replay.done.cache_hit, "second submission replays the cache");

    server::client::shutdown(&endpoint).expect("shutdown");
    let metrics = server.wait();
    assert_eq!(metrics.submissions, 2);

    let chrome = trace.to_chrome_json().expect("enabled trace exports");
    let check = check_chrome_trace(&chrome, &["submission", "submit.accept", "submit.stream"])
        .expect("valid chrome trace");
    assert!(check.spans >= 5, "accept + stream per submission + one run");
    assert!(
        chrome.contains("\"cache.miss\"") && chrome.contains("\"cache.hit\""),
        "both cache outcomes leave their instants"
    );
    assert!(
        chrome.contains("\"queue_depth\""),
        "queue depth is recorded as a counter"
    );
}
