//! `sms-experiments`: regenerate the tables and figures of
//! *Spatial Memory Streaming* (ISCA 2006), and run arbitrary serialized job
//! lists through the engine.
//!
//! Usage:
//!
//! ```text
//! sms-experiments <experiment> [--quick] [--jobs N] [--segment-size N]
//!                 [--json <path>] [--out <path>] [--emit-spec <path>]
//!                 [--trace-out <path>]
//! sms-experiments --figure <experiment> [same flags]
//! sms-experiments run --spec <jobs.json> [--jobs N] [--segment-size N]
//!                 [--timeout MS] [--out <path>] [--trace-out <path>]
//! sms-experiments list [--json]
//! sms-experiments serve (--socket PATH | --tcp ADDR) [--quota N] [--jobs N]
//!                 [--cache-max-entries N] [--cache-max-bytes N]
//!                 [--queue-max N] [--cache-dir DIR]
//!                 [--metrics-out <path>] [--trace-out <path>]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --spec <jobs.json>
//!                 [--client NAME] [--priority N] [--jobs N]
//!                 [--segment-size N] [--timeout MS] [--retries N]
//!                 [--out <path>] [--expect-cache-hit]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --status [--json]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --shutdown
//! sms-experiments trace-check <trace.json> [--require NAME]...
//!
//! experiments: all, table1, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
//!              agt-size, fig11, fig12, fig13 (leading zeros accepted: fig05)
//! list           print the experiments and the registered prefetcher plugins
//!                (--json: the machine-readable catalog)
//! run --spec P   execute a serialized engine job list (see --emit-spec)
//! serve          start the resident job server on a unix-domain socket
//!                and/or loopback TCP; submissions stream back results as
//!                jobs finish, identical resubmissions are answered from the
//!                content-addressed result cache, and graceful shutdown
//!                drains the queue (--quota caps jobs queued+running per
//!                client; --cache-max-entries / --cache-max-bytes bound the
//!                result cache with LRU eviction, 0 = unlimited;
//!                --metrics-out writes the server's counters as a metrics
//!                report on exit)
//! submit         send a serialized job list to a running server; prints the
//!                same table and writes the same --out file as `run --spec`,
//!                byte for byte (--expect-cache-hit fails unless the reply
//!                came from the cache; --status prints a human-readable
//!                summary of the server's counters, or the raw metrics
//!                report with --json; --shutdown asks the server to drain
//!                and exit)
//! trace-check P  validate a Chrome trace-event file produced by --trace-out:
//!                well-formed JSON, spans paired and monotonic, and every
//!                --require NAME present among the span names (repeatable)
//! --figure NAME  name the experiment as a flag instead of positionally
//! --quick        use shorter traces and representative applications per class
//! --jobs N       engine worker threads (default: all hardware threads;
//!                1 forces the serial path)
//! --segment-size N
//!                run every job through the intra-job segment pipeline with
//!                N accesses per segment (results are bit-identical; long
//!                jobs stop pinning one worker)
//! --timeout MS   (run, submit) deadline for the whole job list in
//!                milliseconds: a run that exceeds it is cancelled at the
//!                next job boundary and fails with a structured
//!                deadline-exceeded error instead of hanging; results
//!                finished before the deadline are still printed (0 = none)
//! --retries N    (submit) reconnect and resubmit up to N times after a
//!                connection-level failure, with exponential backoff.  Safe:
//!                submissions are content-addressed, so work the server
//!                already finished replays from its result cache instead of
//!                recomputing.  Structured refusals are never retried
//! --queue-max N  (serve) bound the submission queue: submissions arriving
//!                when N are already queued are shed with a structured
//!                `overloaded` error instead of growing the backlog without
//!                limit; cache hits are still answered (0 = unbounded)
//! --cache-dir DIR
//!                (serve) persist the result cache in DIR as checksummed
//!                entry files and reload them on start, so a restarted
//!                server answers repeat submissions from disk; corrupt or
//!                truncated entries are skipped and recomputed, never fatal
//! --trace-out PATH
//!                record spans of the run (workers, jobs, segment pipeline
//!                stages, server submissions) and write them as Chrome
//!                trace-event JSON — load the file at https://ui.perfetto.dev
//!                or chrome://tracing.  Tracing is off (and costs nothing)
//!                without this flag, and simulated results are bit-identical
//!                either way
//! --json PATH    additionally dump the figure-level results as JSON
//! --out PATH     dump the raw engine JobResults as JSON (byte-identical to
//!                what `run --spec` produces for the same jobs)
//! --emit-spec P  write the exact engine jobs the experiment would run as a
//!                JSON spec file instead of running them
//! ```

use engine::{EngineConfig, JobList, JobResult, Registry};
use experiments::catalog::{catalog, figure_jobs, EXPERIMENTS};
use experiments::common::ExperimentConfig;
use experiments::{
    agt_size, fig04_block_size, fig05_density, fig06_indexing, fig07_pht_size, fig08_training,
    fig09_pht_training, fig10_region_size, fig11_ghb_comparison, fig12_speedup, fig13_breakdown,
    table1,
};
use serde::Serialize;
use server::{Endpoint, Server, ServerConfig, ServerMetrics, SubmitOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use timing::TimingConfig;
use trace::Application;
use tracelog::Trace;

#[derive(Debug, Default, Serialize)]
struct JsonDump {
    fig4: Option<fig04_block_size::Fig4Result>,
    fig5: Option<fig05_density::Fig5Result>,
    fig6: Option<fig06_indexing::Fig6Result>,
    fig7: Option<fig07_pht_size::Fig7Result>,
    fig8: Option<fig08_training::Fig8Result>,
    fig9: Option<fig09_pht_training::Fig9Result>,
    fig10: Option<fig10_region_size::Fig10Result>,
    agt_size: Option<agt_size::AgtSizeResult>,
    fig11: Option<fig11_ghb_comparison::Fig11Result>,
    fig12: Option<fig12_speedup::Fig12Result>,
    fig13: Option<fig13_breakdown::Fig13Result>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sms-experiments <all|table1|fig4|fig5|fig6|fig7|fig8|fig9|fig10|agt-size|fig11|fig12|fig13> \
         [--quick] [--jobs N] [--segment-size N] [--json PATH] [--out PATH] [--emit-spec PATH] [--trace-out PATH]\n\
       \x20      sms-experiments run --spec JOBS.json [--jobs N] [--segment-size N] [--timeout MS] [--out PATH] [--trace-out PATH]\n\
       \x20      sms-experiments list [--json]\n\
       \x20      sms-experiments serve (--socket PATH | --tcp ADDR) [--quota N] [--jobs N] [--cache-max-entries N]\n\
       \x20                            [--cache-max-bytes N] [--queue-max N] [--cache-dir DIR] [--metrics-out PATH] [--trace-out PATH]\n\
       \x20      sms-experiments submit (--socket PATH | --tcp ADDR) --spec JOBS.json [--client NAME] [--priority N]\n\
       \x20                             [--jobs N] [--segment-size N] [--timeout MS] [--retries N]\n\
       \x20                             [--out PATH] [--expect-cache-hit]\n\
       \x20      sms-experiments submit (--socket PATH | --tcp ADDR) --status [--json] | --shutdown\n\
       \x20      sms-experiments trace-check TRACE.json [--require NAME]..."
    );
    ExitCode::from(2)
}

/// Writes the spans recorded in `trace` as Chrome trace-event JSON (the
/// `--trace-out` output, loadable at <https://ui.perfetto.dev>).
fn write_trace(trace: &Trace, path: &str) -> Result<(), ExitCode> {
    match trace.write_chrome_trace(std::path::Path::new(path)) {
        Ok(true) => {
            println!("chrome trace written to {path} (load in Perfetto or chrome://tracing)");
            Ok(())
        }
        // Unreachable from the CLI — the trace is enabled whenever
        // --trace-out is given — but a disabled trace is not an error.
        Ok(false) => Ok(()),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Canonicalizes an experiment name: lowercase, zero-padded figure numbers
/// accepted ("fig05" and "fig5" both select Figure 5).
fn normalize_experiment(name: &str) -> String {
    let name = name.to_ascii_lowercase();
    match name.strip_prefix("fig").and_then(|n| n.parse::<u32>().ok()) {
        Some(number) => format!("fig{number}"),
        None => name,
    }
}

/// Prints the experiments and the plugins of the built-in registry —
/// human-readable by default, the machine-readable catalog with `--json`.
fn list(json: bool) -> ExitCode {
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&catalog()).expect("catalog serializes")
        );
        return ExitCode::SUCCESS;
    }
    println!("experiments:");
    for name in EXPERIMENTS {
        println!("  {name}");
    }
    println!("\nprefetcher plugins (built-in registry):");
    let registry = Registry::builtin();
    for name in registry.names() {
        let description = registry.get(name).map(|p| p.description()).unwrap_or("");
        if description.is_empty() {
            println!("  {name}");
        } else {
            println!("  {name:<14} {description}");
        }
    }
    ExitCode::SUCCESS
}

/// Header of the per-job summary table shared by `run --spec` and `submit`
/// (the two must stay byte-identical on stdout).
const SPEC_TABLE_HEADER: &str =
    "job  prefetcher     source                accesses  L1 MPKI  L2 MPKI  prefetches";

/// Prints one row of the per-job summary table (shared by `run --spec` and
/// `submit`).
fn print_spec_row(job: &engine::SimJob, result: &JobResult) {
    println!(
        "{:<4} {:<14} {:<21} {:>8}  {:>7.2}  {:>7.2}  {:>10}",
        result.job_index,
        job.sim.prefetcher.plugin,
        job.sim.source.describe(),
        result.summary.accesses,
        result.summary.l1_read_mpki(),
        result.summary.l2_read_mpki(),
        result.summary.prefetch_requests,
    );
}

/// Prints a job's warnings to stderr (shared by `run --spec` and `submit`).
fn print_spec_warnings(result: &JobResult) {
    for warning in &result.warnings {
        eprintln!(
            "warning: job {} [{}]: {}",
            result.job_index, warning.kind, warning.message
        );
    }
}

/// Flags of the `serve` subcommand beyond the shared ones.
struct ServeFlags {
    socket: Option<String>,
    tcp: Option<String>,
    quota: usize,
    cache_max_entries: usize,
    cache_max_bytes: u64,
    queue_max: usize,
    cache_dir: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

/// Starts the resident job server (`serve`) and blocks until a client asks
/// it to shut down, then optionally writes the server's counters as a
/// metrics report and its recorded spans as a Chrome trace.
fn run_serve(flags: &ServeFlags, workers: usize, trace: &Trace) -> ExitCode {
    let server = match Server::start(ServerConfig {
        unix_socket: flags.socket.clone().map(PathBuf::from),
        tcp: flags.tcp.clone(),
        quota: flags.quota,
        workers,
        cache_max_entries: flags.cache_max_entries,
        cache_max_bytes: flags.cache_max_bytes,
        queue_max: flags.queue_max,
        cache_dir: flags.cache_dir.clone().map(PathBuf::from),
        trace: trace.clone(),
        ..ServerConfig::default()
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = server.unix_socket() {
        println!("serving on unix:{}", path.display());
    }
    if let Some(addr) = server.tcp_addr() {
        println!("serving on tcp:{addr}");
    }
    if flags.quota > 0 {
        println!("per-client quota: {} jobs queued or running", flags.quota);
    }
    if flags.cache_max_entries > 0 || flags.cache_max_bytes > 0 {
        println!(
            "result cache budget: {} entries, {} bytes (0 = unlimited)",
            flags.cache_max_entries, flags.cache_max_bytes
        );
    }
    if flags.queue_max > 0 {
        println!(
            "submission queue bound: {} (excess submissions are shed as `overloaded`)",
            flags.queue_max
        );
    }
    if let Some(dir) = &flags.cache_dir {
        let m = server.metrics();
        println!(
            "result cache persisted in {dir}: {} entries reloaded, {} skipped as corrupt",
            m.cache_loaded, m.cache_load_skipped
        );
    }
    println!("waiting for submissions; stop with `sms-experiments submit --shutdown`");
    let metrics = server.wait();
    println!(
        "served {} submissions / {} jobs ({} cache hits, {} misses, {} evictions); \
         max queue depth {}",
        metrics.submissions,
        metrics.jobs_served,
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.cache_evictions,
        metrics.max_queue_depth,
    );
    if metrics.deadline_cancellations > 0
        || metrics.disconnect_cancellations > 0
        || metrics.overload_rejections > 0
    {
        println!(
            "faults tolerated: {} deadline cancellations, {} client disconnects, {} overload sheds",
            metrics.deadline_cancellations,
            metrics.disconnect_cancellations,
            metrics.overload_rejections,
        );
    }
    if let Some(path) = &flags.metrics_out {
        let json = serde_json::to_string_pretty(&metrics.report())
            .expect("server metrics report serializes");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("server metrics written to {path}");
    }
    if let Some(path) = &flags.trace_out {
        if let Err(code) = write_trace(trace, path) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Flags of the `submit` subcommand beyond the shared ones.
struct SubmitFlags {
    socket: Option<String>,
    tcp: Option<String>,
    spec: Option<String>,
    client: String,
    priority: i64,
    timeout_ms: u64,
    retries: usize,
    expect_cache_hit: bool,
    status: bool,
    status_json: bool,
    shutdown: bool,
    out: Option<String>,
}

/// Renders the server's counters as the human-readable `submit --status`
/// summary (`--json` keeps the raw metrics report for scripts).
fn render_status(m: &ServerMetrics) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "queue depth       {:>10}  (max seen {})",
        m.queue_depth, m.max_queue_depth
    );
    let _ = writeln!(out, "running           {:>10}", m.running);
    let _ = writeln!(
        out,
        "submissions       {:>10}  ({} jobs served, {} results streamed)",
        m.submissions, m.jobs_served, m.results_streamed
    );
    let _ = writeln!(
        out,
        "cache             {:>10}  hits, {} misses ({} entries / {} bytes resident)",
        m.cache_hits, m.cache_misses, m.cache_entries, m.cache_bytes
    );
    let _ = writeln!(
        out,
        "cache evictions   {:>10}  ({} bytes reclaimed)",
        m.cache_evictions, m.cache_evicted_bytes
    );
    let _ = writeln!(out, "quota rejections  {:>10}", m.quota_rejections);
    let _ = writeln!(
        out,
        "overload sheds    {:>10}  (queue at its bound on arrival)",
        m.overload_rejections
    );
    let _ = writeln!(
        out,
        "cancellations     {:>10}  deadline, {} client-disconnect",
        m.deadline_cancellations, m.disconnect_cancellations
    );
    if m.cache_loaded > 0 || m.cache_load_skipped > 0 || m.cache_persist_failures > 0 {
        let _ = writeln!(
            out,
            "persistent cache  {:>10}  entries reloaded, {} skipped as corrupt, {} persist failures",
            m.cache_loaded, m.cache_load_skipped, m.cache_persist_failures
        );
    }
    if m.queue_wait_us.count() > 0 {
        let _ = writeln!(
            out,
            "queue wait (us)   {:>10}  p50, {} p90, {} p99, {} max over {} submissions",
            m.queue_wait_us.p50(),
            m.queue_wait_us.p90(),
            m.queue_wait_us.p99(),
            m.queue_wait_us.max().unwrap_or(0),
            m.queue_wait_us.count()
        );
    }
    if m.clients.is_empty() {
        let _ = writeln!(out, "clients           {:>10}  with active jobs", 0);
    } else {
        let _ = writeln!(out, "clients with active jobs:");
        for client in &m.clients {
            let _ = writeln!(
                out,
                "  {:<24} {:>6} jobs",
                client.client, client.active_jobs
            );
        }
    }
    out
}

/// Sends a serialized job list to a running server (`submit`), streaming the
/// same per-job table `run --spec` prints as result frames arrive.  Also
/// carries the server's control verbs (`--status`, `--shutdown`).
fn run_submit(flags: &SubmitFlags, workers: usize, segment_size: usize) -> ExitCode {
    let endpoint = match (&flags.socket, &flags.tcp) {
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr.clone()),
        (Some(_), Some(_)) => {
            eprintln!("submit takes --socket PATH or --tcp ADDR, not both");
            return usage();
        }
        (None, None) => {
            eprintln!("submit requires the server endpoint: --socket PATH or --tcp ADDR");
            return usage();
        }
    };
    if flags.status {
        return match server::client::status(&endpoint) {
            Ok(report) if flags.status_json => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&report)
                        .expect("server metrics report serializes")
                );
                ExitCode::SUCCESS
            }
            Ok(report) => match report.decode::<ServerMetrics>(server::REPORT_KIND) {
                Ok(Some(metrics)) => {
                    print!("{}", render_status(&metrics));
                    ExitCode::SUCCESS
                }
                Ok(None) => {
                    eprintln!(
                        "{endpoint}: unexpected report kind {:?} (try --status --json)",
                        report.kind
                    );
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("{endpoint}: undecodable status report: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("{endpoint}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if flags.shutdown {
        return match server::client::shutdown(&endpoint) {
            Ok(ack) => {
                println!(
                    "server shutting down ({} submissions draining)",
                    ack.draining
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{endpoint}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec_path) = &flags.spec else {
        eprintln!("submit requires --spec JOBS.json (or --status / --shutdown)");
        return usage();
    };
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The spec is validated client-side first so a bad file gets the same
    // error `run --spec` prints, without a server round trip.
    let list = match JobList::from_json(&text) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = SubmitOptions {
        client: flags.client.clone(),
        priority: flags.priority,
        workers,
        segment_size,
        timeout_ms: flags.timeout_ms,
        retries: flags.retries,
    };
    // Rows stream as frames arrive; the header waits for the first frame so
    // a refused submission leaves stdout untouched.
    let mut header_printed = false;
    let mut print_frame = |frame: &server::JobFrame| {
        if !header_printed {
            println!("{SPEC_TABLE_HEADER}");
            header_printed = true;
        }
        if let Some(job) = list.jobs.get(frame.result.job_index) {
            print_spec_row(job, &frame.result);
        }
    };
    let outcome = match server::client::submit(&endpoint, &list, &options, &mut print_frame) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !header_printed {
        // `run --spec` prints the header even for an empty job list.
        println!("{SPEC_TABLE_HEADER}");
    }
    for frame in &outcome.frames {
        print_spec_warnings(&frame.result);
    }
    if outcome.done.cache_hit {
        // Informational only, and on stderr: stdout stays byte-identical to
        // `run --spec` whether or not the cache answered.
        eprintln!(
            "note: answered from the server's result cache ({} jobs)",
            outcome.done.jobs
        );
    }
    if flags.expect_cache_hit && !outcome.done.cache_hit {
        eprintln!("--expect-cache-hit: the submission was computed, not replayed from the cache");
        return ExitCode::FAILURE;
    }
    if let Some(path) = &flags.out {
        let results: Vec<JobResult> = outcome.frames.iter().map(|f| f.result.clone()).collect();
        if let Err(code) = write_results(path, &results) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Flags of the `run` subcommand beyond the shared ones.
struct RunFlags<'a> {
    spec_path: &'a str,
    timeout_ms: u64,
    out: Option<&'a str>,
    trace_out: Option<&'a str>,
}

/// Executes a serialized job list (`run --spec`), printing a per-job summary
/// table and optionally dumping the raw results.
fn run_spec(flags: &RunFlags<'_>, workers: usize, segment_size: usize, trace: &Trace) -> ExitCode {
    let RunFlags {
        spec_path,
        timeout_ms,
        out,
        trace_out,
    } = *flags;
    let text = match std::fs::read_to_string(spec_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `from_json` checks the spec version before decoding jobs, so a
    // future-versioned spec gets the actionable version error rather than a
    // confusing field-level parse failure.
    let list = match JobList::from_json(&text) {
        Ok(list) => list,
        Err(e) => {
            eprintln!("{spec_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The streamed entry point is used even without a deadline so the two
    // paths cannot drift; an un-cancelled token makes it byte-identical to
    // the plain run.
    let cancel = engine::CancelToken::new();
    let watchdog_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watchdog = (timeout_ms > 0).then(|| {
        let cancel = cancel.clone();
        let done = std::sync::Arc::clone(&watchdog_done);
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(timeout_ms);
        std::thread::spawn(move || {
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                let now = std::time::Instant::now();
                if now >= deadline {
                    cancel.cancel();
                    return;
                }
                std::thread::park_timeout(deadline - now);
            }
        })
    });
    let mut results: Vec<JobResult> = Vec::new();
    let outcome = engine::run_jobs_streamed_observed(
        &list.jobs,
        &EngineConfig::with_workers(workers).with_segment_size(segment_size),
        Registry::builtin(),
        &metrics::MetricsConfig::disabled(),
        trace,
        &cancel,
        &mut |result, _| results.push(result),
    );
    if let Some(handle) = watchdog {
        watchdog_done.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.thread().unpark();
        handle.join().expect("deadline watchdog never panics");
    }
    let timed_out = match outcome {
        Ok((delivered, _)) => delivered < list.jobs.len(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{SPEC_TABLE_HEADER}");
    for (job, result) in list.jobs.iter().zip(&results) {
        print_spec_row(job, result);
    }
    for result in &results {
        print_spec_warnings(result);
    }
    if timed_out {
        // Partial results were printed above but are not dumped to --out: a
        // truncated dump must not masquerade as the full run.
        eprintln!(
            "deadline exceeded: {} of {} jobs finished within {timeout_ms} ms; \
             the run was cancelled at the next job boundary",
            results.len(),
            list.jobs.len(),
        );
        if let Some(path) = trace_out {
            if let Err(code) = write_trace(trace, path) {
                return code;
            }
        }
        return ExitCode::FAILURE;
    }
    if let Some(path) = out {
        if let Err(code) = write_results(path, &results) {
            return code;
        }
    }
    if let Some(path) = trace_out {
        if let Err(code) = write_trace(trace, path) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Writes raw engine results as pretty JSON (the `--out` format, shared by
/// `run --spec` and direct figure runs so the two are byte-comparable).
fn write_results(path: &str, results: &[JobResult]) -> Result<(), ExitCode> {
    let json = serde_json::to_string_pretty(results).expect("results serialize");
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("failed to write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("\nraw engine results written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // The experiment (or subcommand) is named positionally or via --figure.
    let experiment = match flag_value("--figure") {
        Some(name) => name,
        None => match args.first() {
            Some(first) if !first.starts_with("--") => first.clone(),
            _ => return usage(),
        },
    };
    let experiment = normalize_experiment(&experiment);
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = flag_value("--json");
    let out_path = flag_value("--out");
    let emit_spec_path = flag_value("--emit-spec");
    let trace_out = flag_value("--trace-out");
    if trace_out.is_none() && args.iter().any(|a| a == "--trace-out") {
        eprintln!("--trace-out requires the output path for the chrome trace");
        return usage();
    }
    // Tracing is enabled only when there is somewhere to write it; a
    // disabled trace records nothing and costs nothing on the hot paths.
    let run_trace = if trace_out.is_some() {
        Trace::enabled()
    } else {
        Trace::disabled()
    };
    let workers = match flag_value("--jobs") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--jobs expects a number, got {n:?}");
                return usage();
            }
        },
        None => 0,
    };
    let segment_size = match flag_value("--segment-size") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--segment-size expects a number of accesses, got {n:?}");
                return usage();
            }
        },
        None => 0,
    };
    let timeout_ms = match flag_value("--timeout") {
        Some(n) => match n.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--timeout expects a deadline in milliseconds, got {n:?}");
                return usage();
            }
        },
        None => 0,
    };

    if experiment == "list" {
        return list(args.iter().any(|a| a == "--json"));
    }
    if experiment == "trace-check" {
        // The file is named positionally right after the subcommand.
        let path = match args.get(1) {
            Some(path) if !path.starts_with("--") => path.clone(),
            _ => {
                eprintln!("trace-check requires the trace file to validate");
                return usage();
            }
        };
        let required: Vec<&str> = args
            .iter()
            .enumerate()
            .filter(|(_, a)| *a == "--require")
            .filter_map(|(i, _)| args.get(i + 1))
            .map(String::as_str)
            .collect();
        if required.len() != args.iter().filter(|a| *a == "--require").count() {
            eprintln!("--require expects a span name after each occurrence");
            return usage();
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match tracelog::check_chrome_trace(&text, &required) {
            Ok(check) => {
                println!(
                    "{path}: valid chrome trace: {} events, {} spans ({} distinct names), \
                     ends at {} us, {} events dropped to ring overflow",
                    check.events,
                    check.spans,
                    check.span_names.len(),
                    check.end_us,
                    check.dropped,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if experiment == "run" {
        let Some(spec_path) = flag_value("--spec") else {
            eprintln!("run requires --spec JOBS.json");
            return usage();
        };
        return run_spec(
            &RunFlags {
                spec_path: &spec_path,
                timeout_ms,
                out: out_path.as_deref(),
                trace_out: trace_out.as_deref(),
            },
            workers,
            segment_size,
            &run_trace,
        );
    }
    if experiment == "serve" {
        let quota = match flag_value("--quota") {
            Some(n) => match n.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--quota expects a number of jobs, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        let cache_max_entries = match flag_value("--cache-max-entries") {
            Some(n) => match n.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--cache-max-entries expects a number of entries, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        let cache_max_bytes = match flag_value("--cache-max-bytes") {
            Some(n) => match n.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--cache-max-bytes expects a number of bytes, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        let queue_max = match flag_value("--queue-max") {
            Some(n) => match n.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--queue-max expects a number of submissions, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        return run_serve(
            &ServeFlags {
                socket: flag_value("--socket"),
                tcp: flag_value("--tcp"),
                quota,
                cache_max_entries,
                cache_max_bytes,
                queue_max,
                cache_dir: flag_value("--cache-dir"),
                metrics_out: flag_value("--metrics-out"),
                trace_out,
            },
            workers,
            &run_trace,
        );
    }
    if experiment == "submit" {
        let priority = match flag_value("--priority") {
            Some(n) => match n.parse::<i64>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--priority expects an integer, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        let retries = match flag_value("--retries") {
            Some(n) => match n.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--retries expects a retry count, got {n:?}");
                    return usage();
                }
            },
            None => 0,
        };
        return run_submit(
            &SubmitFlags {
                socket: flag_value("--socket"),
                tcp: flag_value("--tcp"),
                spec: flag_value("--spec"),
                client: flag_value("--client").unwrap_or_else(|| "anonymous".to_string()),
                priority,
                timeout_ms,
                retries,
                expect_cache_hit: args.iter().any(|a| a == "--expect-cache-hit"),
                status: args.iter().any(|a| a == "--status"),
                status_json: args.iter().any(|a| a == "--json"),
                shutdown: args.iter().any(|a| a == "--shutdown"),
                out: out_path,
            },
            workers,
            segment_size,
        );
    }
    if !EXPERIMENTS.contains(&experiment.as_str()) {
        match engine::closest_match(&experiment, EXPERIMENTS.into_iter()) {
            Some(suggestion) => {
                eprintln!("unknown experiment {experiment:?} (did you mean {suggestion:?}?)")
            }
            None => eprintln!(
                "unknown experiment {experiment:?}; `sms-experiments list` shows the choices"
            ),
        }
        return ExitCode::from(2);
    }

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    }
    .with_workers(workers)
    .with_segment_size(segment_size);
    // Quick runs restrict class-level experiments to representative
    // applications; full runs use the whole suite.
    let representative_only = quick;
    let want = |name: &str| experiment == "all" || experiment == name;

    // With --emit-spec, collect the exact jobs the selected experiment would
    // run and write them as a spec file instead of executing anything.
    if let Some(path) = emit_spec_path {
        let mut jobs = Vec::new();
        let mut fig12_emitted = false;
        for name in EXPERIMENTS {
            if !want(name) {
                continue;
            }
            // Figures 12 and 13 share one job list; emit it once.
            if name == "fig12" || name == "fig13" {
                if fig12_emitted {
                    continue;
                }
                fig12_emitted = true;
            }
            if let Some(figure_jobs) = figure_jobs(name, &config, representative_only) {
                jobs.extend(figure_jobs);
            }
        }
        if jobs.is_empty() {
            eprintln!("{experiment}: declares no engine jobs (nothing to emit)");
            return ExitCode::FAILURE;
        }
        let json = serde_json::to_string_pretty(&JobList::new(jobs)).expect("jobs serialize");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("engine job spec written to {path}");
        return ExitCode::SUCCESS;
    }

    let mut dump = JsonDump::default();
    let mut raw_results: Vec<JobResult> = Vec::new();
    // Runs one experiment's job list through the engine and, with --out,
    // accumulates the raw results.  Accumulated job indices are shifted to
    // continue across experiments, so a multi-figure --out dump is
    // byte-identical to `run --spec` over the same figures' emitted spec
    // (which concatenates the job lists into one continuously-indexed run).
    let mut run_figure = |name: &str| -> Vec<JobResult> {
        let jobs = figure_jobs(name, &config, representative_only).expect("experiment with jobs");
        let results = config.run_jobs_traced(&jobs, &run_trace);
        if out_path.is_some() {
            let offset = raw_results.len();
            raw_results.extend(results.iter().cloned().map(|mut r| {
                r.job_index += offset;
                r
            }));
        }
        results
    };

    if want("table1") {
        println!(
            "{}",
            table1::system_table(&config.hierarchy, &TimingConfig::table1(), config.cpus)
        );
        println!("{}", table1::application_table());
    }
    if want("fig4") {
        let results = run_figure("fig4");
        let r = fig04_block_size::from_results(representative_only, &results);
        println!("{}", fig04_block_size::table(&r));
        dump.fig4 = Some(r);
    }
    if want("fig5") {
        let apps = experiments::common::apps_or_all(&[]);
        let results = run_figure("fig5");
        let r = fig05_density::from_results(&apps, &results);
        println!("{}", fig05_density::table(&r));
        dump.fig5 = Some(r);
    }
    if want("fig6") {
        let results = run_figure("fig6");
        let r = fig06_indexing::from_results(&config, representative_only, &results);
        println!("{}", fig06_indexing::table(&r));
        dump.fig6 = Some(r);
    }
    if want("fig7") {
        let results = run_figure("fig7");
        let r = fig07_pht_size::from_results(&config, representative_only, &[], &results);
        println!("{}", fig07_pht_size::table(&r));
        dump.fig7 = Some(r);
    }
    if want("fig8") {
        let results = run_figure("fig8");
        let r = fig08_training::from_results(&config, representative_only, &results);
        println!("{}", fig08_training::table(&r));
        dump.fig8 = Some(r);
    }
    if want("fig9") {
        let results = run_figure("fig9");
        let r = fig09_pht_training::from_results(&config, representative_only, &results);
        println!("{}", fig09_pht_training::table(&r));
        dump.fig9 = Some(r);
    }
    if want("fig10") {
        let results = run_figure("fig10");
        let r = fig10_region_size::from_results(&config, representative_only, &results);
        println!("{}", fig10_region_size::table(&r));
        dump.fig10 = Some(r);
    }
    if want("agt-size") {
        let results = run_figure("agt-size");
        let r = agt_size::from_results(&config, representative_only, &results);
        println!("{}", agt_size::table(&r));
        dump.agt_size = Some(r);
    }
    if want("fig11") {
        let apps = experiments::common::apps_or_all(&[]);
        let results = run_figure("fig11");
        let r = fig11_ghb_comparison::from_results(&config, &apps, &results);
        println!("{}", fig11_ghb_comparison::table(&r));
        dump.fig11 = Some(r);
    }
    if want("fig12") || want("fig13") {
        // Figures 12 and 13 post-process the same (baseline, SMS) timing
        // evaluations, so an `all` run executes the job list only once.
        let apps = Application::ALL;
        let results = run_figure("fig12");
        let evaluations = fig12_speedup::evaluations_from_results(&results);
        if want("fig12") {
            let r = fig12_speedup::from_evaluations(&apps, &evaluations);
            println!("{}", fig12_speedup::table(&r));
            dump.fig12 = Some(r);
        }
        if want("fig13") {
            let r = fig13_breakdown::from_evaluations(&apps, &evaluations);
            println!("{}", fig13_breakdown::table(&r));
            dump.fig13 = Some(r);
        }
    }

    if let Some(path) = out_path {
        if let Err(code) = write_results(&path, &raw_results) {
            return code;
        }
    }
    if let Some(path) = json_path {
        match serde_json::to_string_pretty(&dump) {
            Ok(json) => {
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("\nraw results written to {path}");
            }
            Err(e) => {
                eprintln!("failed to serialize results: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = trace_out {
        if let Err(code) = write_trace(&run_trace, &path) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
