//! Serializable descriptions of where a simulation's accesses come from.
//!
//! A [`TraceSource`] is plain data — it names either a synthetic workload
//! generator (application, generator parameters, seed) or a trace file on
//! disk — and [`TraceSource::open`] turns it into a live [`BoxedStream`] on
//! whatever thread executes the job.  File-backed sources replay through the
//! streaming readers in [`crate::io`], so a trace of any length is fed to
//! the simulator without ever being buffered whole.

use crate::access::MemAccess;
use crate::config::GeneratorConfig;
use crate::io::{read_binary_iter, read_text_iter};
use crate::stream::{AccessStream, BoxedStream};
use crate::suite::Application;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, BufReader};

/// Where a simulation job draws its memory accesses from.
///
/// Sources are serializable so jobs can be written to spec files, shipped
/// across threads, and replayed bit-identically: opening the same source
/// twice always yields the same access sequence (synthetic generators are
/// seeded; files are read in order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceSource {
    /// The deterministic synthetic generator for one application.
    Synthetic {
        /// Workload whose generator feeds the run.
        app: Application,
        /// Trace-generator parameters (CPU count, data-set size, sharing).
        generator: GeneratorConfig,
        /// Seed for the deterministic generator.
        seed: u64,
    },
    /// Streaming replay of a binary trace file written by
    /// [`crate::io::write_binary`].
    BinaryFile {
        /// Path of the trace file.
        path: String,
    },
    /// Streaming replay of a text trace file written by
    /// [`crate::io::write_text`].
    TextFile {
        /// Path of the trace file.
        path: String,
    },
}

impl TraceSource {
    /// A synthetic-generator source (the default experiment path).
    pub fn synthetic(app: Application, generator: GeneratorConfig, seed: u64) -> Self {
        TraceSource::Synthetic {
            app,
            generator,
            seed,
        }
    }

    /// A streaming binary-file source.
    pub fn binary_file(path: impl Into<String>) -> Self {
        TraceSource::BinaryFile { path: path.into() }
    }

    /// A streaming text-file source.
    pub fn text_file(path: impl Into<String>) -> Self {
        TraceSource::TextFile { path: path.into() }
    }

    /// A short human-readable description for reports and errors.
    pub fn describe(&self) -> String {
        match self {
            TraceSource::Synthetic { app, seed, .. } => format!("{app}@{seed}"),
            TraceSource::BinaryFile { path } => format!("bin:{path}"),
            TraceSource::TextFile { path } => format!("text:{path}"),
        }
    }

    /// Opens the source as a live access stream.
    ///
    /// Synthetic sources cannot fail; file sources validate that the file
    /// opens (and, for binary traces, that the header is well-formed) before
    /// returning.  A record-level corruption later in a file ends the stream
    /// early and is reported through
    /// [`AccessStream::take_error`](crate::stream::AccessStream::take_error)
    /// (the engine turns it into a job failure); tools that need per-record
    /// errors should use the iterators in [`crate::io`] directly.
    ///
    /// # Errors
    ///
    /// Any I/O error from opening the file, or `InvalidData` for a bad
    /// binary header.
    pub fn open(&self) -> io::Result<BoxedStream> {
        Ok(match self {
            TraceSource::Synthetic {
                app,
                generator,
                seed,
            } => Box::new(app.stream(*seed, generator)),
            TraceSource::BinaryFile { path } => {
                let reader =
                    read_binary_iter(BufReader::new(retry_transient(|| File::open(path))?))?;
                Box::new(ReplayStream::new(self.describe(), reader))
            }
            TraceSource::TextFile { path } => {
                let reader = read_text_iter(BufReader::new(retry_transient(|| File::open(path))?));
                Box::new(ReplayStream::new(self.describe(), reader))
            }
        })
    }
}

/// How many times [`retry_transient`] re-attempts an operation that keeps
/// failing transiently before giving up with the last error.
const TRANSIENT_RETRIES: u32 = 3;

/// Runs a fallible I/O operation, retrying **transient** failures
/// (`Interrupted`, `WouldBlock`, `TimedOut`) a bounded number of times with
/// short exponential backoff (1 ms doubling).  Every other error kind —
/// `NotFound`, `PermissionDenied`, `InvalidData`, ... — is a property of
/// the request, not of the moment, and fails immediately.  Jobs stream
/// traces from network filesystems in practice; a single load spike must
/// not fail a whole submission.
///
/// # Errors
///
/// The first permanent error, or the last transient one once the retry
/// budget is spent.
pub fn retry_transient<T>(mut attempt: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut backoff = std::time::Duration::from_millis(1);
    let mut retries_left = TRANSIENT_RETRIES;
    loop {
        match attempt() {
            Err(e) if retries_left > 0 && is_transient(e.kind()) => {
                retries_left -= 1;
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            outcome => return outcome,
        }
    }
}

/// Whether an error kind can plausibly succeed on an immediate re-attempt.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Adapts a fallible record iterator into an [`AccessStream`]: yields
/// accesses until the end of the trace or the first error, which it records
/// for inspection.
#[derive(Debug)]
pub struct ReplayStream<I> {
    name: String,
    inner: I,
    error: Option<io::Error>,
}

impl<I> ReplayStream<I> {
    /// Wraps `inner` under the given stream name.
    pub fn new(name: impl Into<String>, inner: I) -> Self {
        Self {
            name: name.into(),
            inner,
            error: None,
        }
    }

    /// The error that ended the stream early, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }
}

impl<I: Iterator<Item = io::Result<MemAccess>>> Iterator for ReplayStream<I> {
    type Item = MemAccess;

    fn next(&mut self) -> Option<MemAccess> {
        if self.error.is_some() {
            return None;
        }
        match self.inner.next()? {
            Ok(access) => Some(access),
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

impl<I: Iterator<Item = io::Result<MemAccess>>> AccessStream for ReplayStream<I> {
    fn name(&self) -> &str {
        &self.name
    }

    fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_binary;
    use crate::stream::collect_n;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sms-trace-source-{tag}-{}", std::process::id()))
    }

    #[test]
    fn synthetic_source_matches_direct_generator() {
        let generator = GeneratorConfig::default().with_cpus(2);
        let source = TraceSource::synthetic(Application::OltpDb2, generator.clone(), 7);
        let mut via_source = source.open().expect("synthetic sources cannot fail");
        let mut direct = Application::OltpDb2.stream(7, &generator);
        let a = collect_n(&mut *via_source, 500);
        let b = collect_n(&mut direct, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn binary_file_source_replays_recorded_trace() {
        let generator = GeneratorConfig::default().with_cpus(2);
        let recorded = collect_n(&mut Application::Sparse.stream(3, &generator), 1_000);
        let path = temp_path("replay");
        write_binary(File::create(&path).unwrap(), &recorded).unwrap();

        let source = TraceSource::binary_file(path.to_string_lossy());
        let mut stream = source.open().expect("valid trace file");
        let replayed = collect_n(&mut *stream, 2_000);
        std::fs::remove_file(&path).ok();
        assert_eq!(replayed, recorded);
    }

    #[test]
    fn missing_file_is_an_open_error() {
        let source = TraceSource::binary_file("/nonexistent/path/trace.bin");
        assert!(source.open().is_err());
        let source = TraceSource::text_file("/nonexistent/path/trace.txt");
        assert!(source.open().is_err());
    }

    #[test]
    fn corrupt_binary_header_fails_at_open() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"XXXX\x01\0\0\0\0\0\0\0\0").unwrap();
        let source = TraceSource::binary_file(path.to_string_lossy());
        let err = match source.open() {
            Err(e) => e,
            Ok(_) => panic!("corrupt header must fail at open"),
        };
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_binary_file_ends_stream_with_recorded_error() {
        let generator = GeneratorConfig::default().with_cpus(1);
        let recorded = collect_n(&mut Application::Ocean.stream(1, &generator), 10);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &recorded).unwrap();
        bytes.truncate(bytes.len() - 5);
        let path = temp_path("truncated");
        std::fs::write(&path, &bytes).unwrap();

        let reader = read_binary_iter(BufReader::new(File::open(&path).unwrap())).unwrap();
        let mut stream = ReplayStream::new("truncated", reader);
        let got: Vec<MemAccess> = (&mut stream).collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(got, recorded[..recorded.len() - 1]);
        assert!(stream.error().is_some(), "truncation must be recorded");
    }

    #[test]
    fn retry_transient_recovers_from_bounded_transient_failures() {
        let mut failures_left = 2;
        let result = retry_transient(|| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "signal"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(result.unwrap(), 42);
    }

    #[test]
    fn retry_transient_gives_up_after_the_budget() {
        let mut attempts = 0;
        let result: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(io::ErrorKind::TimedOut, "stuck"))
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert_eq!(attempts, 1 + TRANSIENT_RETRIES, "initial try plus retries");
    }

    #[test]
    fn retry_transient_fails_permanent_errors_immediately() {
        let mut attempts = 0;
        let result: io::Result<()> = retry_transient(|| {
            attempts += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "no such trace"))
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::NotFound);
        assert_eq!(attempts, 1, "NotFound cannot heal; never retried");
    }

    #[test]
    fn source_round_trips_through_json() {
        let cases = vec![
            TraceSource::synthetic(
                Application::DssQry2,
                GeneratorConfig::default().with_cpus(4),
                2006,
            ),
            TraceSource::binary_file("traces/oltp.bin"),
            TraceSource::text_file("traces/oltp.txt"),
        ];
        for source in cases {
            let json = serde_json::to_string(&source).expect("serialize");
            let back: TraceSource = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(source, back);
        }
    }
}
