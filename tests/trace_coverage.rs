//! The Chrome-trace export must be structurally valid and must actually
//! account for the run it claims to describe: a job's stage spans have to
//! cover (nearly) all of its measured wall-clock, one per step of each
//! segment the loop ran, and the job server has to record the full
//! submission lifecycle.

use engine::segment::SEGMENT;
use engine::{JobList, PrefetcherSpec, RunOptions, SimJob};
use ghb::GhbConfig;
use memsim::HierarchyConfig;
use sms::SmsConfig;
use timing::TimingConfig;
use trace::{Application, GeneratorConfig};
use tracelog::{check_chrome_trace, span_total_us, ArgValue, EventKind, Trace};

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
    let delivered = engine::execute(&jobs, &options, &mut |_| {}).expect("job prepares");
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

/// One `seg.*` span of a job's track: its name, the segment it names, and
/// its run-relative start and end, microseconds.
type StepSpan = (&'static str, u64, u64, u64);

/// The `seg.*` spans of the log labelled `label`, in recording order.
fn step_spans(trace: &Trace, label: &str) -> Vec<StepSpan> {
    trace
        .logs()
        .iter()
        .filter(|log| log.label == label)
        .flat_map(|log| &log.events)
        .filter(|event| event.name.starts_with("seg."))
        .map(|event| {
            let EventKind::Span { start_us, dur_us } = event.kind else {
                panic!("{} must be a span", event.name)
            };
            let segment = match event.args.as_slice() {
                [("segment", ArgValue::U64(segment))] => *segment,
                other => panic!("{} carries {other:?}, not its segment", event.name),
            };
            (event.name, segment, start_us, start_us + dur_us)
        })
        .collect()
}

#[test]
fn every_segment_records_its_three_step_spans_back_to_back() {
    // Baseline, SMS, GHB with a partial last segment, and a timing job, on
    // the calling thread and on scoped workers: every job's track records
    // one `seg.pull`, `seg.simulate` and `seg.account` span per segment,
    // each naming its segment, back to back on the trace's one clock.
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
        let mut accesses = Vec::new();
        engine::execute(&jobs, &options, &mut |result| {
            accesses.push(result.summary.accesses);
        })
        .expect("every job runs");
        assert_eq!(accesses.len(), jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            assert_eq!(accesses[index], job.sim.accesses as u64);
            let segments = job.sim.accesses.div_ceil(SEGMENT) as u64;
            let expected: Vec<(&str, u64)> = (0..segments)
                .flat_map(|segment| {
                    ["seg.pull", "seg.simulate", "seg.account"].map(|name| (name, segment))
                })
                .collect();
            let steps = step_spans(&trace, &format!("job{index}.pipeline"));
            let recorded: Vec<(&str, u64)> = steps
                .iter()
                .map(|&(name, segment, ..)| (name, segment))
                .collect();
            assert_eq!(recorded, expected, "workers={workers} job {index}");
            for pair in steps.windows(2) {
                assert!(
                    pair[0].3 <= pair[1].2,
                    "workers={workers} job {index}: {:?} overlaps {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
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
