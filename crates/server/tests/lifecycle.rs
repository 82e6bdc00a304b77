//! Server lifecycle coverage: byte-identity with the direct engine path,
//! cache-hit replay, arrival-order scheduling, structured errors, and
//! graceful shutdown draining the queue.

use engine::{JobList, PrefetcherSpec, RunOptions, SimJob};
use memsim::HierarchyConfig;
use server::{client, Endpoint, ErrorFrame, Server, ServerConfig, ServerError, SubmitOptions};
use sms::{RegionConfig, SmsConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::{Application, GeneratorConfig};

fn unique_socket(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "sms-lifecycle-{tag}-{}-{}.sock",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
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

fn job_list(accesses: usize) -> JobList {
    JobList::new(vec![
        job(Application::OltpDb2, PrefetcherSpec::null(), accesses),
        job(
            Application::OltpDb2,
            PrefetcherSpec::sms_paper_default(),
            accesses,
        ),
    ])
}

/// Sends `request` over `endpoint` as a raw protocol line, the way an older
/// client would, and returns whether the reply came from the cache plus the
/// streamed results.
fn submit_raw(
    endpoint: &Endpoint,
    request: server::SubmitRequest,
) -> (bool, Vec<engine::JobResult>) {
    use server::{Frame, Request};
    use std::io::BufReader;
    use std::os::unix::net::UnixStream;

    let Endpoint::Unix(path) = endpoint else {
        unreachable!()
    };
    let mut stream = UnixStream::connect(path).expect("connect");
    server::protocol::write_line(&mut stream, &Request::Submit(request)).expect("send");
    let mut reader = BufReader::new(stream);
    let (mut accepted, mut results) = (None, Vec::new());
    loop {
        let frame: Frame = server::protocol::read_line(&mut reader)
            .expect("read")
            .expect("frame");
        match frame {
            Frame::Accepted(frame) => accepted = Some(frame.cache_hit),
            Frame::Result(job) => results.push(job.result),
            Frame::Done(done) => {
                assert_eq!(accepted, Some(done.cache_hit), "Accepted and Done agree");
                return (done.cache_hit, results);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

fn start_unix(tag: &str, config: ServerConfig) -> (Server, Endpoint) {
    let socket = unique_socket(tag);
    let server = Server::start(ServerConfig {
        unix_socket: Some(socket.clone()),
        ..config
    })
    .expect("server starts");
    (server, Endpoint::Unix(socket))
}

#[test]
fn served_results_are_byte_identical_to_a_direct_run() {
    let list = job_list(6_000);
    let mut direct = Vec::new();
    engine::execute(&list.jobs, &RunOptions::new(2), &mut |result| {
        direct.push(result)
    })
    .expect("direct run");
    let direct_json = serde_json::to_string_pretty(&direct).expect("serialize direct");

    let (server, endpoint) = start_unix("bytes", ServerConfig::default());
    let options = SubmitOptions {
        workers: 2,
        ..SubmitOptions::default()
    };
    let mut streamed_indices = Vec::new();
    let outcome = client::submit(&endpoint, &list, &options, &mut |frame| {
        streamed_indices.push(frame.result.job_index);
    })
    .expect("submission succeeds");

    // Streamed strictly in submission order.
    assert_eq!(streamed_indices, vec![0, 1]);
    assert!(!outcome.accepted.cache_hit);
    assert!(!outcome.done.cache_hit);
    assert_eq!(outcome.done.jobs, 2);
    assert!(outcome.frames.iter().all(|f| f.result.summary.accesses > 0));

    // The served result bytes are exactly what `run --spec --out` writes.
    let served: Vec<engine::JobResult> = outcome.frames.iter().map(|f| f.result.clone()).collect();
    let served_json = serde_json::to_string_pretty(&served).expect("serialize served");
    assert_eq!(served_json, direct_json);

    let metrics = server.shutdown();
    assert_eq!(metrics.submissions, 1);
    assert_eq!(metrics.jobs_served, 2);
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.cache_hits, 0);
    assert!(metrics.report().validate().is_ok());
}

#[test]
fn identical_resubmission_is_a_cache_hit_with_identical_bytes() {
    let list = job_list(5_000);
    let (server, endpoint) = start_unix("cache", ServerConfig::default());
    let options = SubmitOptions {
        workers: 2,
        ..SubmitOptions::default()
    };

    let first = client::submit(&endpoint, &list, &options, &mut |_| {}).expect("first submission");
    assert!(!first.done.cache_hit);

    // Same spec, different client: still the same fingerprint.
    let resubmit_options = SubmitOptions {
        client: "someone-else".to_string(),
        workers: 2,
        ..SubmitOptions::default()
    };
    let second =
        client::submit(&endpoint, &list, &resubmit_options, &mut |_| {}).expect("resubmission");
    assert!(second.accepted.cache_hit, "second submission must hit");
    assert!(second.done.cache_hit);
    assert_eq!(second.frames, first.frames, "replayed frames are identical");

    // A different worker count is not part of the identity either.
    let other_workers = SubmitOptions {
        workers: 1,
        ..SubmitOptions::default()
    };
    let third =
        client::submit(&endpoint, &list, &other_workers, &mut |_| {}).expect("third submission");
    assert!(third.accepted.cache_hit);

    // A client that still sends an intra-job segment size: the field
    // decodes, is ignored, and keys the same cache entry as `0`.
    let (hit, legacy) = submit_raw(
        &endpoint,
        server::SubmitRequest {
            client: "legacy".to_string(),
            priority: 0,
            workers: 2,
            segment_size: 2_000,
            speculate: 0,
            timeout_ms: None,
            spec: serde_json::to_value(&list).unwrap(),
        },
    );
    assert!(hit, "a legacy segment size shares the cache entry");
    let first_results: Vec<engine::JobResult> =
        first.frames.iter().map(|f| f.result.clone()).collect();
    assert_eq!(
        serde_json::to_string_pretty(&legacy).unwrap(),
        serde_json::to_string_pretty(&first_results).unwrap(),
        "byte-identical results"
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.submissions, 4);
    assert_eq!(metrics.cache_hits, 3);
    assert_eq!(metrics.cache_misses, 1);
    assert_eq!(metrics.cache_entries, 1);
    assert_eq!(metrics.jobs_served, 2, "only the miss ran");
    assert_eq!(metrics.results_streamed, 8);
}

#[test]
fn bad_specs_get_structured_errors_with_the_cli_version_message() {
    use server::{Frame, Request, SubmitRequest};
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;

    let (server, endpoint) = start_unix("badspec", ServerConfig::default());
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };

    // A future-versioned spec must surface the same pinned version error
    // the CLI prints for `run --spec`.
    let mut stream = UnixStream::connect(path).expect("connect");
    let request = Request::Submit(SubmitRequest {
        client: "ci".to_string(),
        priority: 0,
        workers: 0,
        segment_size: 0,
        speculate: 0,
        timeout_ms: None,
        spec: serde_json::from_str(r#"{"version": 99, "jobs": []}"#).unwrap(),
    });
    server::protocol::write_line(&mut stream, &request).expect("send");
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let frame: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("one frame");
    match frame {
        Frame::Error(error) => {
            assert_eq!(error.code, ErrorFrame::BAD_SPEC);
            assert!(
                error
                    .message
                    .contains("this build reads versions 1 through 2"),
                "{}",
                error.message
            );
        }
        other => panic!("expected Error frame, got {other:?}"),
    }

    // Garbage that is not a request at all gets bad_request, not a hangup.
    let mut stream = UnixStream::connect(path).expect("connect");
    stream.write_all(b"{\"nonsense\": true}\n").unwrap();
    let mut reader = BufReader::new(stream);
    let frame: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("one frame");
    match frame {
        Frame::Error(error) => assert_eq!(error.code, ErrorFrame::BAD_REQUEST),
        other => panic!("expected Error frame, got {other:?}"),
    }

    // A prefetcher spec its plugin rejects, or one naming no plugin, is
    // refused at admission with the CLI's message: the first frame is the
    // error, so no job runs and no result streams.
    let mut bad_region = job_list(2_000);
    bad_region
        .jobs
        .push(job(Application::Ocean, PrefetcherSpec::null(), 2_000));
    bad_region.jobs.push(job(
        Application::Ocean,
        PrefetcherSpec::sms(&SmsConfig {
            region: RegionConfig {
                region_bytes: 2048,
                block_bytes: 96,
            },
            ..SmsConfig::paper_default()
        }),
        2_000,
    ));
    let mut unknown_plugin = job_list(2_000);
    unknown_plugin.jobs[1].sim.prefetcher.plugin = "smss".to_string();
    // A 2^40-entry PHT passes every structural check; building it would
    // ask for 8 TiB and abort the whole process, which no panic guard
    // catches.
    let mut huge_pht = job_list(2_000);
    huge_pht.jobs[1].sim.prefetcher = PrefetcherSpec::sms(&SmsConfig {
        pht: sms::PhtCapacity::Bounded {
            entries: 1 << 40,
            associativity: 16,
        },
        ..SmsConfig::paper_default()
    });
    for (list, message) in [
        (
            bad_region,
            "invalid job spec: job 3: bad parameters for plugin \"sms\": region: ",
        ),
        (
            unknown_plugin,
            "invalid job spec: job 1: unknown prefetcher plugin \"smss\" (did you mean \"sms\"?)",
        ),
        (
            huge_pht,
            "invalid job spec: job 1: bad parameters for plugin \"sms\": \
             pht: entries must be at most 1048576",
        ),
    ] {
        let message = message.to_string();
        let err = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |frame| {
            panic!(
                "{message}: no job may run, got job {}",
                frame.result.job_index
            )
        })
        .expect_err("a bad prefetcher spec is refused");
        match err {
            client::ClientError::Server(frame) => {
                assert_eq!(frame.code, ErrorFrame::BAD_SPEC);
                assert!(frame.message.starts_with(&message), "{}", frame.message);
            }
            other => panic!("expected a bad_spec frame, got {other:?}"),
        }
    }

    // The server keeps serving.
    let outcome = client::submit(
        &endpoint,
        &job_list(2_000),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("a healthy spec still runs");
    assert_eq!(outcome.done.jobs, 2);

    let metrics = server.shutdown();
    assert_eq!(metrics.jobs_served, 2, "only the healthy submission ran");
}

#[test]
fn a_deeply_nested_request_line_gets_bad_request_and_the_server_lives_on() {
    use server::Frame;
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;

    let (server, endpoint) = start_unix("nested", ServerConfig::default());
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };
    // Nested far past the parser's 128 levels: a parser that recursed once
    // per level would overflow the connection thread's stack and abort the
    // whole server.
    let mut stream = UnixStream::connect(path).expect("connect");
    stream
        .write_all(format!("{}\n", "[".repeat(10_000)).as_bytes())
        .unwrap();
    let mut reader = BufReader::new(stream);
    let frame: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("one frame");
    match frame {
        Frame::Error(error) => {
            assert_eq!(error.code, ErrorFrame::BAD_REQUEST);
            assert!(error.message.contains("nesting"), "{}", error.message);
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    client::status(&endpoint).expect("the same server still answers Status");
    server.shutdown();
}

#[test]
fn a_legacy_speculate_field_is_accepted_ignored_and_shares_the_cache_entry() {
    let list = job_list(4_000);
    let (server, endpoint) = start_unix("legacy-speculate", ServerConfig::default());
    let first = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |_| {})
        .expect("first submission");
    assert!(!first.accepted.cache_hit);

    // A client that still sends a run-ahead depth: the field decodes, is
    // ignored, and keys the same cache entry as `"speculate": 0`.
    let (hit, results) = submit_raw(
        &endpoint,
        server::SubmitRequest {
            client: "legacy".to_string(),
            priority: 0,
            workers: 0,
            segment_size: 0,
            speculate: 3,
            timeout_ms: None,
            spec: serde_json::to_value(&list).unwrap(),
        },
    );
    assert!(hit);
    let first_results: Vec<engine::JobResult> =
        first.frames.iter().map(|f| f.result.clone()).collect();
    assert_eq!(
        serde_json::to_string_pretty(&results).unwrap(),
        serde_json::to_string_pretty(&first_results).unwrap(),
        "byte-identical results"
    );

    let metrics = server.shutdown();
    assert_eq!((metrics.cache_hits, metrics.cache_misses), (1, 1));
}

#[test]
fn graceful_shutdown_drains_queued_submissions() {
    let (server, endpoint) = start_unix("drain", ServerConfig::default());

    // A slow submission to occupy the scheduler, then a fast one that must
    // sit in the queue behind it.
    let slow = JobList::new(vec![job(
        Application::OltpDb2,
        PrefetcherSpec::sms_paper_default(),
        400_000,
    )]);
    let fast = job_list(2_000);

    let slow_thread = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            client::submit(&endpoint, &slow, &SubmitOptions::default(), &mut |_| {})
        })
    };
    wait_for(
        || server.metrics().submissions >= 1,
        "slow submission admitted",
    );

    let fast_thread = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            client::submit(&endpoint, &fast, &SubmitOptions::default(), &mut |_| {})
        })
    };
    wait_for(
        || server.metrics().submissions >= 2,
        "fast submission queued",
    );

    // Shutdown with work still queued: the ack names the backlog and both
    // submissions complete with full result streams.
    let ack = client::shutdown(&endpoint).expect("shutdown request");
    let slow_outcome = slow_thread.join().unwrap().expect("slow submission drains");
    let fast_outcome = fast_thread.join().unwrap().expect("fast submission drains");
    assert_eq!(slow_outcome.frames.len(), 1);
    assert_eq!(fast_outcome.frames.len(), 2);

    // New submissions are refused while (and after) draining.
    let refused = client::submit(
        &endpoint,
        &job_list(1_000),
        &SubmitOptions::default(),
        &mut |_| {},
    );
    match refused {
        Err(client::ClientError::Server(frame)) => {
            assert_eq!(frame.code, ErrorFrame::SHUTTING_DOWN)
        }
        // The listener may already be gone (connection refused, or accepted
        // into the backlog and then reset), which is an equally valid way
        // to learn the server is stopping.
        Err(client::ClientError::Io(_)) | Err(client::ClientError::Protocol(_)) => {}
        other => panic!("expected refusal, got {other:?}"),
    }

    let metrics = server.wait();
    assert_eq!(metrics.queue_depth, 0, "queue fully drained");
    assert_eq!(metrics.jobs_served, 3);
    // `draining` counted the backlog at ack time; it can only have been the
    // fast submission (1) or nothing if the scheduler had already started
    // it (0).
    assert!(ack.draining <= 1, "draining = {}", ack.draining);
}

#[test]
fn queued_submissions_run_in_arrival_order_whatever_priority_they_send() {
    use tracelog::ArgValue;

    let trace = tracelog::Trace::enabled();
    let (server, endpoint) = start_unix(
        "fifo",
        ServerConfig {
            registry: Some(std::sync::Arc::new(faultinject::registry())),
            trace: trace.clone(),
            ..ServerConfig::default()
        },
    );
    // Hold the scheduler on a job gated on a file only this test creates,
    // so both submissions below provably wait in the queue together.
    let token = u64::from(std::process::id());
    faultinject::close_gate(token).ok();
    let gated = JobList::new(vec![job(
        Application::OltpDb2,
        faultinject::Fault::Gate { token }.spec(),
        3_000,
    )]);
    let gated_thread = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            client::submit(&endpoint, &gated, &SubmitOptions::default(), &mut |_| {})
        })
    };
    wait_for(|| server.metrics().running == 1, "gated submission running");

    // The first arrives with priority 0, the second with priority 9: the
    // priority decodes and is ignored.
    let mut queued = Vec::new();
    for (client, priority, app) in [
        ("first", 0, Application::Ocean),
        ("second", 9, Application::Sparse),
    ] {
        let request = server::SubmitRequest {
            client: client.to_string(),
            priority,
            workers: 0,
            segment_size: 0,
            speculate: 0,
            timeout_ms: None,
            spec: serde_json::to_value(&JobList::new(vec![job(
                app,
                PrefetcherSpec::null(),
                3_000,
            )]))
            .unwrap(),
        };
        let endpoint = endpoint.clone();
        queued.push(std::thread::spawn(move || submit_raw(&endpoint, request)));
        let depth = queued.len() as u64;
        wait_for(
            || server.metrics().queue_depth == depth,
            "submission queued",
        );
    }

    faultinject::open_gate(token).expect("open gate");
    gated_thread.join().unwrap().expect("gated submission");
    for thread in queued {
        let (hit, results) = thread.join().unwrap();
        assert!(!hit);
        assert_eq!(results.len(), 1);
    }
    faultinject::close_gate(token).ok();
    server.shutdown();

    // One scheduler runs one submission at a time, so its submission spans,
    // each labelled with its client, close in the order they ran.
    let ran: Vec<String> = trace
        .logs()
        .iter()
        .filter(|log| log.label == "scheduler")
        .flat_map(|log| &log.events)
        .filter(|event| event.name == "submission")
        .filter_map(
            |event| match event.args.iter().find(|(key, _)| *key == "client") {
                Some((_, ArgValue::Text(client))) => Some(client.clone()),
                _ => None,
            },
        )
        .collect();
    assert_eq!(ran, ["anonymous", "first", "second"]);
}

#[test]
fn tcp_endpoint_is_loopback_only() {
    // Loopback works end to end.
    let server = Server::start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("loopback TCP server starts");
    let addr = server.tcp_addr().expect("bound address");
    let endpoint = Endpoint::Tcp(addr.to_string());
    let outcome = client::submit(
        &endpoint,
        &job_list(2_000),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("TCP submission succeeds");
    assert_eq!(outcome.frames.len(), 2);
    server.shutdown();

    // Anything routable is refused outright.
    let err = Server::start(ServerConfig {
        tcp: Some("0.0.0.0:0".to_string()),
        ..ServerConfig::default()
    })
    .expect_err("non-loopback must be refused");
    assert!(matches!(err, ServerError::Config(_)), "{err}");
    assert!(err.to_string().contains("loopback"), "{err}");

    // No endpoint at all is a configuration error too.
    let err = Server::start(ServerConfig::default()).expect_err("no endpoint");
    assert!(matches!(err, ServerError::Config(_)), "{err}");
}

#[test]
fn timed_out_submission_gets_deadline_exceeded_and_the_server_moves_on() {
    let (server, endpoint) = start_unix("timeout", ServerConfig::default());
    // Four jobs far too slow for a 50 ms deadline, run serially so the
    // deadline provably cuts the run short between jobs.
    let slow = JobList::new(vec![
        job(
            Application::OltpDb2,
            PrefetcherSpec::sms_paper_default(),
            300_000,
        ),
        job(
            Application::Ocean,
            PrefetcherSpec::sms_paper_default(),
            300_000,
        ),
        job(
            Application::Sparse,
            PrefetcherSpec::sms_paper_default(),
            300_000,
        ),
        job(
            Application::DssQry1,
            PrefetcherSpec::sms_paper_default(),
            300_000,
        ),
    ]);
    let options = SubmitOptions {
        workers: 1,
        timeout_ms: 50,
        ..SubmitOptions::default()
    };
    let mut streamed = 0usize;
    let err = client::submit(&endpoint, &slow, &options, &mut |_| {
        streamed += 1;
    })
    .expect_err("the deadline must cut the submission short");
    match err {
        client::ClientError::Server(frame) => {
            assert_eq!(frame.code, ErrorFrame::DEADLINE_EXCEEDED);
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    assert!(streamed < 4, "the full stream must not have been delivered");

    // The scheduler survives the cancellation and serves the next client.
    client::submit(
        &endpoint,
        &job_list(2_000),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("healthy follow-up submission");
    let metrics = server.shutdown();
    assert_eq!(metrics.deadline_cancellations, 1);
}

#[test]
fn panicking_plugin_fails_its_submission_not_the_server() {
    let (server, endpoint) = start_unix(
        "panic",
        ServerConfig {
            registry: Some(std::sync::Arc::new(faultinject::registry())),
            ..ServerConfig::default()
        },
    );
    let list = JobList::new(vec![
        job(Application::OltpDb2, PrefetcherSpec::null(), 2_000),
        job(
            Application::Ocean,
            faultinject::Fault::Panic { after: 1 }.spec(),
            2_000,
        ),
        job(Application::Sparse, PrefetcherSpec::null(), 2_000),
    ]);
    let options = SubmitOptions {
        workers: 1,
        ..SubmitOptions::default()
    };
    let mut streamed = Vec::new();
    let err = client::submit(&endpoint, &list, &options, &mut |frame| {
        streamed.push(frame.result.job_index);
    })
    .expect_err("the panicking job must fail the submission");
    match err {
        client::ClientError::Server(frame) => {
            assert_eq!(frame.code, ErrorFrame::ENGINE);
            assert!(
                frame
                    .message
                    .contains("job 1: panicked: injected chaos panic"),
                "{}",
                frame.message
            );
        }
        other => panic!("expected a structured engine error, got {other:?}"),
    }
    assert_eq!(streamed, vec![0], "clean prefix before the panicking job");

    // Panic isolation: the scheduler thread survives and keeps serving.
    client::submit(
        &endpoint,
        &job_list(2_000),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("healthy follow-up submission");
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_cancels_the_rest_of_the_run() {
    use server::{Frame, Request, SubmitRequest};
    use std::io::BufReader;
    use std::os::unix::net::UnixStream;

    let (server, endpoint) = start_unix(
        "disconnect",
        ServerConfig {
            registry: Some(std::sync::Arc::new(faultinject::registry())),
            ..ServerConfig::default()
        },
    );
    let Endpoint::Unix(path) = &endpoint else {
        unreachable!()
    };

    // Eight deliberately slow jobs (every access sleeps), run serially, so
    // the run is provably still going when the client vanishes.
    let jobs: Vec<SimJob> = (0..8)
        .map(|_| {
            job(
                Application::OltpDb2,
                faultinject::Fault::Delay {
                    every: 1,
                    micros: 100,
                }
                .spec(),
                3_000,
            )
        })
        .collect();
    let request = Request::Submit(SubmitRequest {
        client: "flaky".to_string(),
        priority: 0,
        workers: 1,
        segment_size: 0,
        speculate: 0,
        timeout_ms: None,
        spec: serde_json::to_value(&JobList::new(jobs)).unwrap(),
    });
    let mut stream = UnixStream::connect(path).expect("connect");
    server::protocol::write_line(&mut stream, &request).expect("send");
    let mut reader = BufReader::new(stream);
    let accepted: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("accepted frame");
    assert!(matches!(accepted, Frame::Accepted(_)), "{accepted:?}");
    let first: Frame = server::protocol::read_line(&mut reader)
        .expect("read")
        .expect("first result");
    assert!(matches!(first, Frame::Result(_)), "{first:?}");
    drop(reader); // hang up mid-stream

    // The handler notices on its next write, trips the cancel token, and
    // the scheduler stops without waiting for all eight jobs.
    wait_for(
        || {
            let metrics = server.metrics();
            metrics.disconnect_cancellations >= 1 && metrics.running == 0
        },
        "disconnect cancelled the run",
    );
    assert!(
        server.metrics().jobs_served < 8,
        "the run must have been cut short, served {}",
        server.metrics().jobs_served
    );

    // And the server still answers the next client.
    client::submit(
        &endpoint,
        &job_list(2_000),
        &SubmitOptions::default(),
        &mut |_| {},
    )
    .expect("healthy follow-up submission");
    server.shutdown();
}

#[test]
fn cache_dir_persists_results_across_restarts_and_tolerates_corruption() {
    let dir = std::env::temp_dir().join(format!("sms-lifecycle-cachedir-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let list = job_list(2_000);

    let first_frames = {
        let (server, endpoint) = start_unix(
            "cachedir-first",
            ServerConfig {
                cache_dir: Some(dir.clone()),
                ..ServerConfig::default()
            },
        );
        let outcome = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |_| {})
            .expect("first run");
        assert!(!outcome.accepted.cache_hit);
        server.shutdown();
        outcome.frames
    };

    // A corrupt entry dropped into the directory must cost one skip, not
    // the restart.
    std::fs::write(
        dir.join("deadbeefdeadbeef.smsc"),
        b"SMSCACHE 3 0123456789abcdef 4\nXXXX",
    )
    .expect("plant corrupt entry");

    let (server, endpoint) = start_unix(
        "cachedir-second",
        ServerConfig {
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
    );
    let outcome = client::submit(&endpoint, &list, &SubmitOptions::default(), &mut |_| {})
        .expect("replayed run");
    assert!(
        outcome.accepted.cache_hit,
        "restart must hit the persisted cache"
    );
    assert_eq!(outcome.frames, first_frames, "byte-identical replay");
    let metrics = server.shutdown();
    assert_eq!(metrics.cache_loaded, 1);
    assert_eq!(metrics.cache_load_skipped, 1);
    std::fs::remove_dir_all(&dir).ok();
}

fn wait_for(mut condition: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
