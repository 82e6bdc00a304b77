//! The Chrome-trace export must be structurally valid and must actually
//! account for the run it claims to describe: a job's stage spans have to
//! cover (nearly) all of its measured wall-clock, and the job server has to
//! record the full submission lifecycle.

use engine::segment::SEGMENT;
use engine::{EngineConfig, JobList, PrefetcherSpec, Registry, SimJob};
use memsim::HierarchyConfig;
use metrics::{MetricsConfig, Stopwatch};
use sms::SmsConfig;
use trace::{Application, GeneratorConfig};
use tracelog::{check_chrome_trace, span_total_us, Trace};

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
    let config = EngineConfig::default();
    let trace = Trace::enabled();
    let watch = Stopwatch::started();
    let (results, _) = engine::run_jobs_observed(
        &jobs,
        &config,
        Registry::builtin(),
        &MetricsConfig::disabled(),
        &trace,
    )
    .expect("job prepares");
    let wall_us = (watch.elapsed_seconds() * 1e6) as u64;
    assert_eq!(results.len(), 1);

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
