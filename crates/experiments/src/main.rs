//! `sms-experiments`: regenerate the tables and figures of
//! *Spatial Memory Streaming* (ISCA 2006), and run arbitrary serialized job
//! lists through the engine.
//!
//! Usage:
//!
//! ```text
//! sms-experiments <experiment> [--quick] [--jobs N]
//!                 [--json <path>] [--out <path>] [--emit-spec <path>]
//!                 [--trace-out <path>]
//! sms-experiments --figure <experiment> [same flags]
//! sms-experiments run --spec <jobs.json> [--jobs N]
//!                 [--timeout MS] [--out <path>] [--trace-out <path>]
//! sms-experiments list [--json]
//! sms-experiments serve (--socket PATH | --tcp ADDR) [--quota N] [--jobs N]
//!                 [--cache-max-entries N] [--cache-max-bytes N]
//!                 [--queue-max N] [--cache-dir DIR]
//!                 [--metrics-out <path>] [--trace-out <path>]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --spec <jobs.json>
//!                 [--client NAME] [--priority N] [--jobs N]
//!                 [--timeout MS] [--retries N]
//!                 [--out <path>] [--expect-cache-hit]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --status [--json]
//! sms-experiments submit (--socket PATH | --tcp ADDR) --shutdown
//! sms-experiments trace-check <trace.json> [--require NAME]...
//!
//! experiments: `all`, or any experiment `list` prints (leading zeros
//!              accepted: fig05)
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
//!                1 runs every job on the calling thread)
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
//!                record spans of the run (workers, jobs, each job's
//!                per-segment steps, server submissions) and write them as Chrome
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
//!
//! A `--flag` the chosen subcommand does not take is an error (exit 2, with
//! a "did you mean" suggestion when one is close), never silently ignored;
//! so is an argument that is neither the command nor an operand it takes,
//! and a second command.

use engine::{CancelToken, JobList, JobResult, Registry, RunOptions};
use experiments::catalog::{self, catalog};
use experiments::common::ExperimentConfig;
use serde_json::Value;
use server::{Endpoint, Server, ServerConfig, ServerMetrics, SubmitOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::{Duration, Instant};
use tracelog::Trace;

/// `println!` that returns `Result<(), ExitCode>` (see [`write_stdout`]).
macro_rules! say {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes the command's output.  A write to a stdout its reader has closed
/// (`sms-experiments all --quick | head -3`) ends the command quietly with
/// status 1 instead of a panic; any other write error is reported.
fn write_stdout(text: std::fmt::Arguments) -> Result<(), ExitCode> {
    std::io::stdout().lock().write_fmt(text).map_err(|e| {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("failed to write to stdout: {e}");
        }
        ExitCode::FAILURE
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sms-experiments <{}> \
         [--quick] [--jobs N] [--json PATH] [--out PATH] [--emit-spec PATH] [--trace-out PATH]\n\
       \x20      sms-experiments run --spec JOBS.json [--jobs N] [--timeout MS] [--out PATH] [--trace-out PATH]\n\
       \x20      sms-experiments list [--json]\n\
       \x20      sms-experiments serve (--socket PATH | --tcp ADDR) [--quota N] [--jobs N] [--cache-max-entries N]\n\
       \x20                            [--cache-max-bytes N] [--queue-max N] [--cache-dir DIR] [--metrics-out PATH] [--trace-out PATH]\n\
       \x20      sms-experiments submit (--socket PATH | --tcp ADDR) --spec JOBS.json [--client NAME] [--priority N]\n\
       \x20                             [--jobs N] [--timeout MS] [--retries N]\n\
       \x20                             [--out PATH] [--expect-cache-hit]\n\
       \x20      sms-experiments submit (--socket PATH | --tcp ADDR) --status [--json] | --shutdown\n\
       \x20      sms-experiments trace-check TRACE.json [--require NAME]...",
        catalog::names().collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

/// A flag: its name, the commands that take it (`experiment` stands for
/// `all` and every experiment) and, for a flag followed by a value, what
/// that value is, in the words of its error messages; a switch has `None`.
type Flag = (&'static str, &'static str, Option<&'static str>);

/// Every flag, in the order a command suggests them for a mistyped flag.
const FLAGS: [Flag; 24] = [
    ("--socket", "serve submit", Some("a socket path")),
    ("--tcp", "serve submit", Some("an address")),
    ("--spec", "run submit", Some("a job spec path")),
    ("--client", "submit", Some("a client name")),
    ("--priority", "submit", Some("an integer")),
    ("--quota", "serve", Some("a number of jobs")),
    ("--jobs", "run serve submit experiment", Some("a number")),
    ("--cache-max-entries", "serve", Some("a number of entries")),
    ("--cache-max-bytes", "serve", Some("a number of bytes")),
    ("--queue-max", "serve", Some("a number of submissions")),
    ("--cache-dir", "serve", Some("a directory")),
    ("--metrics-out", "serve", Some("an output path")),
    ("--json", "experiment", Some("an output path")),
    (
        "--timeout",
        "run submit",
        Some("a deadline in milliseconds"),
    ),
    ("--retries", "submit", Some("a retry count")),
    ("--out", "run submit experiment", Some("an output path")),
    ("--emit-spec", "experiment", Some("an output path")),
    (
        "--trace-out",
        "run serve experiment",
        Some("the output path for the chrome trace"),
    ),
    (
        "--require",
        "trace-check",
        Some("a span name after each occurrence"),
    ),
    ("--quick", "experiment", None),
    ("--expect-cache-hit", "submit", None),
    ("--status", "submit", None),
    ("--json", "list submit", None),
    ("--shutdown", "submit", None),
];

/// `--figure NAME` names the command, so every command takes it; it is
/// never suggested.
const FIGURE: Flag = ("--figure", "", Some("an experiment name"));

/// The flags `command` takes, in suggestion order.
fn flags(command: &str) -> impl Iterator<Item = &'static Flag> + '_ {
    let kind = match command {
        "list" | "trace-check" | "run" | "serve" | "submit" => command,
        _ => "experiment",
    };
    FLAGS
        .iter()
        .filter(move |(_, commands, _)| commands.split_whitespace().any(|c| c == kind))
}

/// The command line, checked against the flag table.
struct Args {
    /// The experiment or subcommand, named positionally or by `--figure`.
    command: String,
    /// The arguments as given.
    raw: Vec<String>,
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(&'static Flag, Option<String>)>,
}

impl Args {
    /// Parses the command line.  A `--flag` the command does not take, a
    /// flag that takes a value given without one, an argument that is
    /// neither the command nor an operand it takes, or a second command,
    /// exits 2: a mistyped or retired flag, or a flag missing its dashes,
    /// fails loudly instead of being silently ignored.
    fn parse(raw: Vec<String>) -> Result<Self, ExitCode> {
        let positional = raw.first().filter(|a| !a.starts_with("--"));
        let named = raw
            .iter()
            .position(|a| a == FIGURE.0)
            .and_then(|i| raw.get(i + 1));
        let Some(command) = named.or(positional) else {
            return Err(usage());
        };
        let command = normalize_experiment(command);
        // Every argument that names the command: the first, and each value
        // of `--figure`.
        let mut names: Vec<&str> = positional.into_iter().map(String::as_str).collect();
        let mut given = Vec::new();
        let mut args = raw.iter().enumerate();
        while let Some((i, arg)) = args.next() {
            if !arg.starts_with("--") {
                // `trace-check` takes the file to check right after its name.
                let operand = i == 1 && command == "trace-check";
                if i == 0 || operand {
                    continue;
                }
                let dashed = format!("--{arg}");
                match flags(&command).find(|f| f.0 == dashed) {
                    Some(_) => eprintln!(
                        "{command}: unexpected argument {arg:?} (did you mean {dashed:?}?)"
                    ),
                    None => eprintln!(
                        "{command}: unexpected argument {arg:?}; run without arguments for usage"
                    ),
                }
                return Err(ExitCode::from(2));
            }
            let Some(flag) = flags(&command).chain([&FIGURE]).find(|f| f.0 == arg) else {
                match engine::closest_match(arg, flags(&command).map(|f| f.0)) {
                    Some(suggestion) => {
                        eprintln!("{command}: unknown flag {arg:?} (did you mean {suggestion:?}?)")
                    }
                    None => eprintln!(
                        "{command}: unknown flag {arg:?}; run without arguments for usage"
                    ),
                }
                return Err(ExitCode::from(2));
            };
            let value = match flag {
                (_, _, None) => None,
                // The value may itself start with `--`.
                (name, _, Some(what)) => match args.next() {
                    Some((_, value)) => Some(value),
                    None => {
                        eprintln!("{name} expects {what}");
                        return Err(usage());
                    }
                },
            };
            if flag.0 == FIGURE.0 {
                names.extend(value.map(String::as_str));
            }
            given.push((flag, value.cloned()));
        }
        if let [first, second, ..] = names[..] {
            eprintln!("name one experiment or command, not both {first:?} and {second:?}");
            return Err(ExitCode::from(2));
        }
        Ok(Self {
            command,
            raw,
            given,
        })
    }

    /// Every value given for `flag`, in order.
    fn values(&self, flag: &'static str) -> impl Iterator<Item = &str> {
        self.given
            .iter()
            .filter(move |(given, _)| given.0 == flag)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The value given for `flag`; the first, if it was given twice.
    fn value(&self, flag: &'static str) -> Option<&str> {
        self.values(flag).next()
    }

    /// Whether switch `flag` was given.
    fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(given, _)| given.0 == flag)
    }

    /// The number given for `flag`, or 0 when it is absent.  A value that
    /// does not parse exits 2, saying what the flag expects.
    fn number<T: FromStr + Default>(&self, flag: &str) -> Result<T, ExitCode> {
        let Some(((_, _, Some(what)), Some(text))) = self.given.iter().find(|(f, _)| f.0 == flag)
        else {
            return Ok(T::default());
        };
        text.parse().map_err(|_| {
            eprintln!("{flag} expects {what}, got {text:?}");
            usage()
        })
    }
}

/// Reads `path`, or reports why it could not (exit 1).
fn read_file(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("failed to read {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Writes `contents` to `path`, or reports why it could not (exit 1).
fn write_file(path: &str, contents: String) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("failed to write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Writes the spans recorded in `trace` as Chrome trace-event JSON to the
/// `--trace-out` path, if one was given (loadable at
/// <https://ui.perfetto.dev>).
fn write_trace_out(args: &Args, trace: &Trace) -> Result<(), ExitCode> {
    let Some(path) = args.value("--trace-out") else {
        return Ok(());
    };
    match trace.write_chrome_trace(std::path::Path::new(path)) {
        Ok(true) => say!("chrome trace written to {path} (load in Perfetto or chrome://tracing)"),
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
fn list(json: bool) -> Result<(), ExitCode> {
    let catalog = catalog();
    if json {
        let json = serde_json::to_string_pretty(&catalog).expect("catalog serializes");
        return say!("{json}");
    }
    say!("experiments:")?;
    for name in &catalog.experiments {
        say!("  {name}")?;
    }
    say!("\nprefetcher plugins (built-in registry):")?;
    for plugin in &catalog.plugins {
        if plugin.description.is_empty() {
            say!("  {}", plugin.name)?;
        } else {
            say!("  {:<14} {}", plugin.name, plugin.description)?;
        }
    }
    Ok(())
}

/// Validates a Chrome trace-event file (`trace-check`).
fn trace_check(args: &Args) -> Result<(), ExitCode> {
    // The file is named positionally right after the subcommand.
    let Some(path) = args.raw.get(1).filter(|path| !path.starts_with("--")) else {
        eprintln!("trace-check requires the trace file to validate");
        return Err(usage());
    };
    let required: Vec<&str> = args.values("--require").collect();
    let text = read_file(path)?;
    match tracelog::check_chrome_trace(&text, &required) {
        Ok(check) => say!(
            "{path}: valid chrome trace: {} events, {} spans ({} distinct names), \
             ends at {} us, {} events dropped to ring overflow",
            check.events,
            check.spans,
            check.span_names.len(),
            check.end_us,
            check.dropped,
        ),
        Err(e) => {
            eprintln!("{path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// Header of the per-job summary table shared by `run --spec` and `submit`
/// (the two must stay byte-identical on stdout).
const SPEC_TABLE_HEADER: &str =
    "job  prefetcher     source                accesses  L1 MPKI  L2 MPKI  prefetches";

/// Prints one row of the per-job summary table (shared by `run --spec` and
/// `submit`).
fn print_spec_row(job: &engine::SimJob, result: &JobResult) -> Result<(), ExitCode> {
    say!(
        "{:<4} {:<14} {:<21} {:>8}  {:>7.2}  {:>7.2}  {:>10}",
        result.job_index,
        job.sim.prefetcher.plugin,
        job.sim.source.describe(),
        result.summary.accesses,
        result.summary.l1_read_mpki(),
        result.summary.l2_read_mpki(),
        result.summary.prefetch_requests,
    )
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

/// Starts the resident job server (`serve`) and blocks until a client asks
/// it to shut down, then optionally writes the server's counters as a
/// metrics report and its recorded spans as a Chrome trace.
fn run_serve(args: &Args, trace: &Trace) -> Result<(), ExitCode> {
    let workers = args.number("--jobs")?;
    let quota = args.number("--quota")?;
    let cache_max_entries = args.number("--cache-max-entries")?;
    let cache_max_bytes = args.number("--cache-max-bytes")?;
    let queue_max = args.number("--queue-max")?;
    let cache_dir = args.value("--cache-dir");
    let server = Server::start(ServerConfig {
        unix_socket: args.value("--socket").map(PathBuf::from),
        tcp: args.value("--tcp").map(str::to_string),
        quota,
        workers,
        cache_max_entries,
        cache_max_bytes,
        queue_max,
        cache_dir: cache_dir.map(PathBuf::from),
        trace: trace.clone(),
        ..ServerConfig::default()
    })
    .map_err(|e| {
        eprintln!("serve: {e}");
        ExitCode::FAILURE
    })?;
    if let Some(path) = server.unix_socket() {
        say!("serving on unix:{}", path.display())?;
    }
    if let Some(addr) = server.tcp_addr() {
        say!("serving on tcp:{addr}")?;
    }
    if quota > 0 {
        say!("per-client quota: {quota} jobs queued or running")?;
    }
    if cache_max_entries > 0 || cache_max_bytes > 0 {
        say!(
            "result cache budget: {cache_max_entries} entries, {cache_max_bytes} bytes (0 = unlimited)"
        )?;
    }
    if queue_max > 0 {
        say!("submission queue bound: {queue_max} (excess submissions are shed as `overloaded`)")?;
    }
    if let Some(dir) = cache_dir {
        let m = server.metrics();
        say!(
            "result cache persisted in {dir}: {} entries reloaded, {} skipped as corrupt",
            m.cache_loaded,
            m.cache_load_skipped
        )?;
    }
    say!("waiting for submissions; stop with `sms-experiments submit --shutdown`")?;
    let metrics = server.wait();
    say!(
        "served {} submissions / {} jobs ({} cache hits, {} misses, {} evictions); \
         max queue depth {}",
        metrics.submissions,
        metrics.jobs_served,
        metrics.cache_hits,
        metrics.cache_misses,
        metrics.cache_evictions,
        metrics.max_queue_depth,
    )?;
    if metrics.deadline_cancellations > 0
        || metrics.disconnect_cancellations > 0
        || metrics.overload_rejections > 0
    {
        say!(
            "faults tolerated: {} deadline cancellations, {} client disconnects, {} overload sheds",
            metrics.deadline_cancellations,
            metrics.disconnect_cancellations,
            metrics.overload_rejections,
        )?;
    }
    if let Some(path) = args.value("--metrics-out") {
        let json = serde_json::to_string_pretty(&metrics.report())
            .expect("server metrics report serializes");
        write_file(path, json)?;
        say!("server metrics written to {path}")?;
    }
    write_trace_out(args, trace)
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
fn run_submit(args: &Args) -> Result<(), ExitCode> {
    let workers = args.number("--jobs")?;
    let timeout_ms = args.number("--timeout")?;
    let priority = args.number("--priority")?;
    let retries = args.number("--retries")?;
    let endpoint = match (args.value("--socket"), args.value("--tcp")) {
        (Some(path), None) => Endpoint::Unix(PathBuf::from(path)),
        (None, Some(addr)) => Endpoint::Tcp(addr.to_string()),
        (Some(_), Some(_)) => {
            eprintln!("submit takes --socket PATH or --tcp ADDR, not both");
            return Err(usage());
        }
        (None, None) => {
            eprintln!("submit requires the server endpoint: --socket PATH or --tcp ADDR");
            return Err(usage());
        }
    };
    let failed = |e: &dyn std::fmt::Display| {
        eprintln!("{endpoint}: {e}");
        ExitCode::FAILURE
    };
    if args.switch("--status") {
        let report = server::client::status(&endpoint).map_err(|e| failed(&e))?;
        if args.switch("--json") {
            return say!(
                "{}",
                serde_json::to_string_pretty(&report).expect("server metrics report serializes")
            );
        }
        let metrics = match report.decode::<ServerMetrics>(server::REPORT_KIND) {
            Ok(Some(metrics)) => metrics,
            Ok(None) => {
                let kind = &report.kind;
                return Err(failed(&format!(
                    "unexpected report kind {kind:?} (try --status --json)"
                )));
            }
            Err(e) => return Err(failed(&format!("undecodable status report: {e}"))),
        };
        return write_stdout(format_args!("{}", render_status(&metrics)));
    }
    if args.switch("--shutdown") {
        let ack = server::client::shutdown(&endpoint).map_err(|e| failed(&e))?;
        return say!(
            "server shutting down ({} submissions draining)",
            ack.draining
        );
    }
    let Some(spec_path) = args.value("--spec") else {
        eprintln!("submit requires --spec JOBS.json (or --status / --shutdown)");
        return Err(usage());
    };
    // The spec is validated client-side first so a bad file gets the same
    // error `run --spec` prints, without a server round trip.
    let list = JobList::from_json(&read_file(spec_path)?).map_err(|e| {
        eprintln!("{spec_path}: {e}");
        ExitCode::FAILURE
    })?;
    let options = SubmitOptions {
        client: args.value("--client").unwrap_or("anonymous").to_string(),
        priority,
        workers,
        timeout_ms,
        retries,
    };
    // Rows stream as frames arrive; the header waits for the first frame so
    // a refused submission leaves stdout untouched.  After a failed write
    // the rest of the rows are dropped.
    let mut header_printed = false;
    let mut printed = Ok(());
    let mut print_frame = |frame: &server::JobFrame| {
        if printed.is_err() {
            return;
        }
        if !header_printed {
            printed = say!("{SPEC_TABLE_HEADER}");
            header_printed = true;
        }
        if let Some(job) = list.jobs.get(frame.result.job_index) {
            printed = printed.and_then(|()| print_spec_row(job, &frame.result));
        }
    };
    let outcome = server::client::submit(&endpoint, &list, &options, &mut print_frame)
        .map_err(|e| failed(&e))?;
    printed?;
    if !header_printed {
        // `run --spec` prints the header even for an empty job list.
        say!("{SPEC_TABLE_HEADER}")?;
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
    if args.switch("--expect-cache-hit") && !outcome.done.cache_hit {
        eprintln!("--expect-cache-hit: the submission was computed, not replayed from the cache");
        return Err(ExitCode::FAILURE);
    }
    if let Some(path) = args.value("--out") {
        let results: Vec<JobResult> = outcome.frames.iter().map(|f| f.result.clone()).collect();
        write_results(path, &results)?;
    }
    Ok(())
}

/// Executes a serialized job list (`run --spec`), printing a per-job summary
/// table and optionally dumping the raw results.
fn run_spec(args: &Args, trace: &Trace) -> Result<(), ExitCode> {
    let workers = args.number("--jobs")?;
    let timeout_ms = args.number("--timeout")?;
    let Some(spec_path) = args.value("--spec") else {
        eprintln!("run requires --spec JOBS.json");
        return Err(usage());
    };
    let text = read_file(spec_path)?;
    // `from_json` checks the spec version before decoding jobs, so a
    // future-versioned spec gets the actionable version error rather than a
    // confusing field-level parse failure; `check` then refuses a prefetcher
    // spec its plugin would reject, before any job runs.
    let list = JobList::from_json(&text)
        .and_then(|list| {
            list.check(Registry::builtin())?;
            Ok(list)
        })
        .map_err(|e| {
            eprintln!("{spec_path}: {e}");
            ExitCode::FAILURE
        })?;
    // The engine checks the token between jobs, so a run past its deadline
    // is cancelled at the next job boundary.
    let cancel = (timeout_ms > 0)
        .then(|| CancelToken::with_deadline(Instant::now() + Duration::from_millis(timeout_ms)));
    let options = RunOptions {
        trace,
        cancel: cancel.as_ref(),
        ..RunOptions::new(workers)
    };
    let mut results: Vec<JobResult> = Vec::new();
    let delivered = engine::execute(&list.jobs, &options, &mut |result| results.push(result))
        .map_err(|e| {
            eprintln!("{e}");
            ExitCode::FAILURE
        })?;
    say!("{SPEC_TABLE_HEADER}")?;
    for (job, result) in list.jobs.iter().zip(&results) {
        print_spec_row(job, result)?;
    }
    for result in &results {
        print_spec_warnings(result);
    }
    if delivered < list.jobs.len() {
        // Partial results were printed above but are not dumped to --out: a
        // truncated dump must not masquerade as the full run.
        eprintln!(
            "deadline exceeded: {} of {} jobs finished within {timeout_ms} ms; \
             the run was cancelled at the next job boundary",
            results.len(),
            list.jobs.len(),
        );
        write_trace_out(args, trace)?;
        return Err(ExitCode::FAILURE);
    }
    if let Some(path) = args.value("--out") {
        write_results(path, &results)?;
    }
    write_trace_out(args, trace)
}

/// Writes raw engine results as pretty JSON (the `--out` format, shared by
/// `run --spec` and direct figure runs so the two are byte-comparable).
fn write_results(path: &str, results: &[JobResult]) -> Result<(), ExitCode> {
    let json = serde_json::to_string_pretty(results).expect("results serialize");
    write_file(path, json)?;
    say!("\nraw engine results written to {path}")
}

/// Runs the experiments the command selects from the experiment table
/// (`all` runs every one), printing their tables; or, with `--emit-spec`,
/// writes their jobs as a spec file instead.
fn run_experiments(args: &Args, trace: &Trace) -> Result<(), ExitCode> {
    let workers = args.number("--jobs")?;
    let name = args.command.as_str();
    if !catalog::names().any(|known| known == name) {
        match engine::closest_match(name, catalog::names()) {
            Some(suggestion) => {
                eprintln!("unknown experiment {name:?} (did you mean {suggestion:?}?)")
            }
            None => {
                eprintln!("unknown experiment {name:?}; `sms-experiments list` shows the choices")
            }
        }
        return Err(ExitCode::from(2));
    }
    // Quick runs also restrict class-level experiments to representative
    // applications; full runs use the whole suite.
    let representative_only = args.switch("--quick");
    let config = if representative_only {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    }
    .with_workers(workers);
    let experiments = catalog::select(name);
    let lists = catalog::job_lists(&experiments, &config, representative_only);

    if let Some(path) = args.value("--emit-spec") {
        let jobs: Vec<_> = lists.into_iter().flatten().flatten().collect();
        if jobs.is_empty() {
            eprintln!("{name}: declares no engine jobs (nothing to emit)");
            return Err(ExitCode::FAILURE);
        }
        let json = serde_json::to_string_pretty(&JobList::new(jobs)).expect("jobs serialize");
        write_file(path, json)?;
        return say!("engine job spec written to {path}");
    }

    // The --out dump continues job indices from one list to the next, so it
    // is byte-identical to `run --spec` over the emitted spec, which
    // concatenates the lists into one run.
    let mut results = Vec::new();
    let mut raw_results = Vec::new();
    // The --json document: every experiment with a JSON key, in table
    // order, `null` where it does not run.
    let mut document: Vec<(String, Value)> = catalog::EXPERIMENTS
        .iter()
        .filter_map(|experiment| Some((experiment.json_key?.to_string(), Value::Null)))
        .collect();
    for (experiment, jobs) in experiments.iter().zip(lists) {
        // `None`: the experiment reports from the previous list's results.
        // An empty list (Table 1) runs nothing, so it records no spans.
        if let Some(jobs) = jobs {
            results = if jobs.is_empty() {
                Vec::new()
            } else {
                config.run_jobs_traced(&jobs, trace)
            };
            let offset = raw_results.len();
            raw_results.extend(results.iter().cloned().map(|mut result| {
                result.job_index += offset;
                result
            }));
        }
        let report = (experiment.report)(&config, representative_only, &results);
        for table in &report.tables {
            say!("{table}")?;
        }
        if let Some(entry) = document
            .iter_mut()
            .find(|(key, _)| Some(key.as_str()) == experiment.json_key)
        {
            entry.1 = report.json;
        }
    }

    if let Some(path) = args.value("--out") {
        write_results(path, &raw_results)?;
    }
    if let Some(path) = args.value("--json") {
        let json =
            serde_json::to_string_pretty(&Value::Object(document)).expect("results serialize");
        write_file(path, json)?;
        say!("\nraw results written to {path}")?;
    }
    write_trace_out(args, trace)
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1).collect()).and_then(|args| {
        // Tracing is enabled only when there is somewhere to write it; a
        // disabled trace records nothing and costs nothing on the hot paths.
        let trace = if args.value("--trace-out").is_some() {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        match args.command.as_str() {
            "list" => list(args.switch("--json")),
            "trace-check" => trace_check(&args),
            "run" => run_spec(&args, &trace),
            "serve" => run_serve(&args, &trace),
            "submit" => run_submit(&args),
            _ => run_experiments(&args, &trace),
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}
