//! The deterministic chaos harness: seeded fault plans driven through a
//! live in-process server.
//!
//! Every case pins the same three properties of the fault-tolerant serving
//! stack:
//!
//! 1. **the server never hangs or dies** — after every injected fault the
//!    same server instance answers a healthy follow-up submission;
//! 2. **every fault surfaces as a stable structured error** — a pinned
//!    `ErrorFrame` code, never a hangup or a panic;
//! 3. **non-faulted work is unaffected** — the delivered result prefix is
//!    byte-identical to a direct serial engine run of the same jobs.
//!
//! Determinism is the point: fault plans are drawn from seeded ChaCha
//! ([`faultinject::FaultPlan`]), so a failure here is a constant to bisect,
//! not a flake to shrug at.

use engine::{JobList, JobResult, PrefetcherSpec, Registry, RunOptions, SimJob};
use faultinject::{Fault, FaultPlan};
use memsim::HierarchyConfig;
use server::{client, Endpoint, ErrorFrame, Server, ServerConfig, SubmitOptions};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trace::{Application, GeneratorConfig};

/// Applications rotated across a plan's jobs so the matrix is not one
/// workload eight times.
const APPS: [Application; 4] = [
    Application::OltpDb2,
    Application::Ocean,
    Application::Sparse,
    Application::DssQry1,
];

/// Runs `jobs` through `engine::execute` with `workers` workers over
/// `registry` and collects the results.
fn run_in(
    jobs: &[SimJob],
    workers: usize,
    registry: &Registry,
) -> Result<Vec<JobResult>, engine::EngineError> {
    let mut results = Vec::new();
    let options = RunOptions {
        registry,
        ..RunOptions::new(workers)
    };
    engine::execute(jobs, &options, &mut |result| results.push(result))?;
    Ok(results)
}

fn unique_socket(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sms-chaos-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn job(index: usize, prefetcher: PrefetcherSpec, accesses: usize) -> SimJob {
    SimJob::new(memsim::SimJob::synthetic(
        APPS[index % APPS.len()],
        GeneratorConfig::default().with_cpus(2),
        2006 + index as u64,
        2,
        HierarchyConfig::scaled(),
        prefetcher,
        accesses,
    ))
}

/// The job list a fault plan describes: one job per fault, in order.
fn plan_jobs(plan: &FaultPlan, accesses: usize) -> JobList {
    JobList::new(
        plan.faults
            .iter()
            .enumerate()
            .map(|(index, fault)| job(index, fault.spec(), accesses))
            .collect(),
    )
}

fn start_chaos_server(tag: &str) -> (Server, Endpoint) {
    let socket = unique_socket(tag);
    let server = Server::start(ServerConfig {
        unix_socket: Some(socket.clone()),
        registry: Some(Arc::new(faultinject::registry())),
        ..ServerConfig::default()
    })
    .expect("chaos server starts");
    (server, Endpoint::Unix(socket))
}

/// A healthy two-job submission the server must answer after every fault.
fn healthy_list(tag: u64) -> JobList {
    JobList::new(vec![
        job(0, PrefetcherSpec::null(), 1_000 + tag as usize),
        job(1, PrefetcherSpec::sms_paper_default(), 1_000 + tag as usize),
    ])
}

fn assert_server_answers(endpoint: &Endpoint, tag: u64) {
    let outcome = client::submit(
        endpoint,
        &healthy_list(tag),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("server must answer a healthy submission after a fault");
    assert_eq!(outcome.frames.len(), 2);
}

#[test]
fn seeded_panic_plans_fail_cleanly_and_leave_the_prefix_intact() {
    let (server, endpoint) = start_chaos_server("panics");
    let registry = faultinject::registry();
    for seed in [11u64, 12, 13] {
        let mut plan = FaultPlan::generate(seed, 6, 0.4, 0.2);
        // Guarantee the case under test even for a seed that rolled clean.
        if plan.first_panicking_job().is_none() {
            let slot = (seed as usize) % plan.faults.len();
            plan.faults[slot] = Fault::Panic { after: 3 };
        }
        let first_panic = plan.first_panicking_job().expect("plan has a panic");
        let list = plan_jobs(&plan, 2_000);

        // Serial, in-order execution makes the delivered prefix exact.
        let options = SubmitOptions {
            client: format!("chaos-{seed}"),
            workers: 1,
            ..SubmitOptions::default()
        };
        let mut streamed = Vec::new();
        let err = client::submit(&endpoint, &list, &options, &mut |frame| {
            streamed.push(frame.result.clone());
        })
        .expect_err("a panicking job must fail the submission");
        match err {
            client::ClientError::Server(frame) => {
                assert_eq!(frame.code, ErrorFrame::ENGINE, "seed {seed}");
                assert!(
                    frame.message.contains(&format!(
                        "job {first_panic}: panicked: injected chaos panic"
                    )),
                    "seed {seed}: {}",
                    frame.message
                );
            }
            other => panic!("seed {seed}: expected structured error, got {other:?}"),
        }

        // The delivered prefix is byte-identical to a direct serial run of
        // the same (non-faulted) jobs.
        let prefix = &list.jobs[..first_panic];
        let direct = run_in(prefix, 1, &registry).expect("prefix jobs are healthy");
        let direct_json = serde_json::to_string(&direct).unwrap();
        let served_json = serde_json::to_string(&streamed).unwrap();
        assert_eq!(served_json, direct_json, "seed {seed}: prefix must match");

        // Property 1: the same server answers the next healthy client.
        assert_server_answers(&endpoint, seed);
    }
    let metrics = server.shutdown();
    assert!(metrics.report().validate().is_ok());
}

#[test]
fn delay_faults_slow_jobs_down_but_corrupt_nothing() {
    let (server, endpoint) = start_chaos_server("delays");
    let registry = faultinject::registry();
    let plan = FaultPlan::generate(21, 4, 0.0, 0.75);
    let list = plan_jobs(&plan, 2_000);

    let outcome = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |_| {})
        .expect("delayed jobs still complete");
    let direct = run_in(&list.jobs, 1, &registry).expect("direct run");
    let direct_json = serde_json::to_string(&direct).unwrap();
    let served: Vec<engine::JobResult> = outcome.frames.iter().map(|f| f.result.clone()).collect();
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        direct_json,
        "a fault that only sleeps must not change a byte"
    );
    assert_server_answers(&endpoint, 21);
    server.shutdown();
}

#[test]
fn delay_faults_plus_a_deadline_get_deadline_exceeded_not_a_hang() {
    let (server, endpoint) = start_chaos_server("deadline");
    // Every access sleeps: ~100 ms per job, far over a 40 ms deadline.
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            Fault::Delay {
                every: 1,
                micros: 50,
            };
            6
        ],
    };
    let list = plan_jobs(&plan, 2_000);
    let options = SubmitOptions {
        workers: 1,
        timeout_ms: 40,
        ..SubmitOptions::default()
    };
    let err = client::submit(&endpoint, &list, &options, &mut |_| {})
        .expect_err("the deadline must fire");
    match err {
        client::ClientError::Server(frame) => {
            assert_eq!(frame.code, ErrorFrame::DEADLINE_EXCEEDED)
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    assert_server_answers(&endpoint, 40);
    let metrics = server.shutdown();
    assert_eq!(metrics.deadline_cancellations, 1);
}

#[test]
fn corrupt_trace_files_are_structured_engine_errors() {
    let (server, endpoint) = start_chaos_server("trace");
    let path = std::env::temp_dir().join(format!("sms-chaos-corrupt-{}.bin", std::process::id()));
    faultinject::write_corrupt_trace(&path).expect("write corrupt trace");

    let mut bad_job = job(0, PrefetcherSpec::null(), 2_000);
    bad_job.sim.source = trace::TraceSource::binary_file(path.to_string_lossy());
    let list = JobList::new(vec![job(1, PrefetcherSpec::null(), 2_000), bad_job]);

    let options = SubmitOptions {
        workers: 1,
        ..SubmitOptions::default()
    };
    let mut streamed = 0usize;
    let err = client::submit(&endpoint, &list, &options, &mut |_| {
        streamed += 1;
    })
    .expect_err("unreadable trace must fail the submission");
    match err {
        client::ClientError::Server(frame) => {
            assert_eq!(frame.code, ErrorFrame::ENGINE);
            assert!(frame.message.contains("job 1"), "{}", frame.message);
        }
        other => panic!("expected structured engine error, got {other:?}"),
    }
    assert_eq!(streamed, 1, "the healthy job's result streams first");
    std::fs::remove_file(&path).ok();
    assert_server_answers(&endpoint, 7);
    server.shutdown();
}

#[test]
fn dropped_connections_cancel_cleanly_and_the_server_keeps_serving() {
    use server::{Frame, Request, SubmitRequest};
    use std::io::BufReader;
    use std::os::unix::net::UnixStream;

    let (server, endpoint) = start_chaos_server("drop");
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };
    // Slow delay jobs so the run is mid-flight when the client vanishes.
    let plan = FaultPlan {
        seed: 0,
        faults: vec![
            Fault::Delay {
                every: 1,
                micros: 100,
            };
            8
        ],
    };
    let request = Request::Submit(SubmitRequest {
        client: "vanishing".to_string(),
        priority: 0,
        workers: 1,
        segment_size: 0,
        speculate: 0,
        timeout_ms: None,
        spec: serde_json::to_value(&plan_jobs(&plan, 3_000)).unwrap(),
    });
    let mut stream = UnixStream::connect(path).expect("connect");
    server::protocol::write_line(&mut stream, &request).expect("send");
    let mut reader = BufReader::new(stream);
    let accepted: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("accepted");
    assert!(matches!(accepted, Frame::Accepted(_)));
    let first: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("first result");
    assert!(matches!(first, Frame::Result(_)));
    drop(reader); // vanish mid-stream

    // The server notices, cancels, and keeps serving — no hang, no death.
    assert_server_answers(&endpoint, 3);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let metrics = server.metrics();
        if metrics.disconnect_cancellations >= 1 && metrics.running == 0 {
            assert!(metrics.jobs_served < 8 + 2, "run was cut short");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for the disconnect cancellation"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn an_idle_chaos_registry_changes_no_bytes() {
    // The fault seams cost nothing when unused: the same healthy jobs run
    // byte-identically whether or not the chaos plugin is registered.
    let list = healthy_list(0);
    let with_builtins = run_in(&list.jobs, 2, Registry::builtin()).expect("builtin run");
    let with_chaos = run_in(&list.jobs, 2, &faultinject::registry()).expect("chaos-registry run");
    assert_eq!(
        serde_json::to_string(&with_builtins).unwrap(),
        serde_json::to_string(&with_chaos).unwrap(),
        "registering the chaos plugin must not perturb healthy runs"
    );
}

#[test]
fn a_panic_inside_a_shared_trace_group_fails_only_its_own_job() {
    // Jobs that read one synthetic source replay one recording of it per
    // run.  A panicking job in such a group — the one that records the
    // trace, or one that replays it — fails alone, with the usual
    // lowest-index error, and the group's delivered jobs match runs alone.
    let registry = faultinject::registry();
    let shared = |prefetcher, accesses| {
        SimJob::new(memsim::SimJob::synthetic(
            Application::OltpDb2,
            GeneratorConfig::default().with_cpus(2),
            4242,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            accesses,
        ))
    };
    let other = |prefetcher| job(1, prefetcher, 1_500);
    let panic = Fault::Panic { after: 300 }.spec();
    let cases = [
        // The panicking job replays the recording an earlier job made.
        (
            vec![
                shared(PrefetcherSpec::null(), 2_000),
                other(PrefetcherSpec::null()),
                shared(PrefetcherSpec::sms_paper_default(), 1_000),
                other(PrefetcherSpec::sms_paper_default()),
                shared(panic.clone(), 2_000),
                shared(PrefetcherSpec::null(), 500),
            ],
            4,
        ),
        // The panicking job is the first reader: it records, then panics.
        (
            vec![
                other(PrefetcherSpec::null()),
                shared(panic, 2_000),
                shared(PrefetcherSpec::null(), 1_000),
                other(PrefetcherSpec::sms_paper_default()),
            ],
            1,
        ),
    ];
    for (jobs, panicking) in cases {
        for workers in [1, 2] {
            let mut delivered = Vec::new();
            let options = RunOptions {
                registry: &registry,
                ..RunOptions::new(workers)
            };
            let err = engine::execute(&jobs, &options, &mut |result| delivered.push(result))
                .expect_err("the panicking job fails the run");
            assert_eq!(
                err.to_string(),
                format!("job {panicking}: panicked: injected chaos panic at access 300"),
                "workers = {workers}"
            );
            let alone: Vec<_> = jobs[..panicking]
                .iter()
                .enumerate()
                .map(|(index, job)| {
                    let mut alone = run_in(std::slice::from_ref(job), 1, &registry)
                        .expect("healthy job")
                        .remove(0);
                    alone.job_index = index;
                    alone
                })
                .collect();
            assert_eq!(delivered, alone, "workers = {workers}");
        }
    }
}
