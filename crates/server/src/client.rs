//! A blocking client for the job server: connect, send one request, read
//! the reply stream.  This is what `sms-experiments submit` and the
//! benchmark's `served` workload are built on.

use crate::protocol::{
    read_line, write_line, Accepted, Done, ErrorFrame, Frame, JobFrame, Request, ShutdownAck,
    SubmitRequest,
};
use engine::JobList;
use metrics::MetricsReport;
use std::fmt;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// Where the server lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7807`.
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> io::Result<Connection> {
        match self {
            Endpoint::Unix(path) => UnixStream::connect(path).map(Connection::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(Connection::Tcp),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

enum Connection {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Connection::Unix(stream) => stream.read(buf),
            Connection::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for Connection {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Connection::Unix(stream) => stream.write(buf),
            Connection::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Connection::Unix(stream) => stream.flush(),
            Connection::Tcp(stream) => stream.flush(),
        }
    }
}

/// A client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connecting, reading or writing failed.
    Io(String),
    /// The server sent something outside the protocol's reply grammar.
    Protocol(String),
    /// The server refused or aborted the request with a structured error.
    Server(ErrorFrame),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(message) => write!(f, "connection failed: {message}"),
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ClientError::Server(error) => {
                write!(f, "server error [{}]: {}", error.code, error.message)
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// Per-submission options (everything except the spec itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Client identity for quota accounting.
    pub client: String,
    /// Queue priority: higher runs first.
    pub priority: i64,
    /// Worker threads (`0` = server default).
    pub workers: usize,
    /// Submission deadline in milliseconds, measured from admission
    /// (`0` = none).
    pub timeout_ms: u64,
    /// Transport-failure retries: how many times [`submit`] reconnects and
    /// resubmits after a connection-level failure (`0` = fail fast).
    /// Resubmission is safe — the submission is content-addressed, so a
    /// retry of work the server already finished replays the cached frames
    /// instead of recomputing.  Structured server refusals and protocol
    /// violations are never retried.
    pub retries: usize,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            client: "anonymous".to_string(),
            priority: 0,
            workers: 0,
            timeout_ms: 0,
            retries: 0,
        }
    }
}

/// Everything a completed submission returned.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOutcome {
    /// The acceptance frame (cache-hit flag, queue depth).
    pub accepted: Accepted,
    /// The per-job frames, in submission order.
    pub frames: Vec<JobFrame>,
    /// The terminal frame.
    pub done: Done,
}

/// Submits a job list and blocks until the result stream completes,
/// invoking `on_frame` for each per-job frame as it arrives (before the
/// frame is appended to the returned outcome).
///
/// Connection-level failures ([`ClientError::Io`]) are retried up to
/// `options.retries` times with exponential backoff (50 ms doubling, capped
/// at 1 s), reconnecting and resubmitting from scratch each time; `on_frame`
/// may therefore see a prefix of frames more than once across attempts.
/// Structured refusals and protocol violations fail immediately — the
/// server answered, so resubmitting the same request cannot help.
///
/// # Errors
///
/// [`ClientError::Server`] for a structured refusal (bad spec, quota,
/// shutdown, engine failure), [`ClientError::Io`] /
/// [`ClientError::Protocol`] for transport or grammar violations
/// ([`ClientError::Io`] only after the configured retries are exhausted).
pub fn submit(
    endpoint: &Endpoint,
    list: &JobList,
    options: &SubmitOptions,
    on_frame: &mut dyn FnMut(&JobFrame),
) -> Result<SubmitOutcome, ClientError> {
    let mut backoff = Duration::from_millis(50);
    let mut attempts_left = options.retries;
    loop {
        match submit_once(endpoint, list, options, on_frame) {
            Err(ClientError::Io(_)) if attempts_left > 0 => {
                attempts_left -= 1;
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
            outcome => return outcome,
        }
    }
}

/// One connect-submit-stream attempt; [`submit`] adds the retry loop.
fn submit_once(
    endpoint: &Endpoint,
    list: &JobList,
    options: &SubmitOptions,
    on_frame: &mut dyn FnMut(&JobFrame),
) -> Result<SubmitOutcome, ClientError> {
    let request = Request::Submit(SubmitRequest {
        client: options.client.clone(),
        priority: options.priority,
        workers: options.workers,
        segment_size: 0,
        speculate: 0,
        timeout_ms: (options.timeout_ms > 0).then_some(options.timeout_ms),
        spec: serde_json::to_value(list).expect("value-tree serialization cannot fail"),
    });
    let mut reader = send(endpoint, &request)?;
    let accepted = match next_frame(&mut reader)? {
        Frame::Accepted(accepted) => accepted,
        Frame::Error(error) => return Err(ClientError::Server(error)),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected Accepted, got {other:?}"
            )))
        }
    };
    let mut frames = Vec::new();
    loop {
        match next_frame(&mut reader)? {
            Frame::Result(frame) => {
                on_frame(&frame);
                frames.push(*frame);
            }
            Frame::Done(done) => {
                return Ok(SubmitOutcome {
                    accepted,
                    frames,
                    done,
                })
            }
            Frame::Error(error) => return Err(ClientError::Server(error)),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Result or Done, got {other:?}"
                )))
            }
        }
    }
}

/// Asks for the server's counters.
///
/// # Errors
///
/// As [`submit`].
pub fn status(endpoint: &Endpoint) -> Result<MetricsReport, ClientError> {
    let mut reader = send(endpoint, &Request::Status)?;
    match next_frame(&mut reader)? {
        Frame::Metrics(report) => Ok(report),
        Frame::Error(error) => Err(ClientError::Server(error)),
        other => Err(ClientError::Protocol(format!(
            "expected Metrics, got {other:?}"
        ))),
    }
}

/// Requests graceful shutdown.
///
/// # Errors
///
/// As [`submit`].
pub fn shutdown(endpoint: &Endpoint) -> Result<ShutdownAck, ClientError> {
    let mut reader = send(endpoint, &Request::Shutdown)?;
    match next_frame(&mut reader)? {
        Frame::ShutdownAck(ack) => Ok(ack),
        Frame::Error(error) => Err(ClientError::Server(error)),
        other => Err(ClientError::Protocol(format!(
            "expected ShutdownAck, got {other:?}"
        ))),
    }
}

fn send(endpoint: &Endpoint, request: &Request) -> Result<BufReader<Connection>, ClientError> {
    let mut connection = endpoint
        .connect()
        .map_err(|e| ClientError::Io(format!("{endpoint}: {e}")))?;
    write_line(&mut connection, request)?;
    Ok(BufReader::new(connection))
}

fn next_frame(reader: &mut BufReader<Connection>) -> Result<Frame, ClientError> {
    match read_line(reader) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err(ClientError::Protocol(
            "server closed the connection mid-reply".to_string(),
        )),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Err(ClientError::Protocol(e.to_string()))
        }
        Err(e) => Err(ClientError::Io(e.to_string())),
    }
}
