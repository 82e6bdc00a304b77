//! The wire protocol: line-delimited JSON over a byte stream.
//!
//! Framing is one JSON document per `\n`-terminated line.  A connection
//! carries exactly one [`Request`] from the client followed by a stream of
//! [`Frame`]s from the server; the server closes the connection after the
//! terminal frame.  Requests and frames are externally tagged by their
//! variant name (`{"Submit": {...}}`, `{"Result": {...}}`, bare `"Status"`
//! for unit variants), which is exactly what the workspace serde derive
//! emits — no hand-written codecs.
//!
//! Reply sequence for a `Submit`:
//!
//! 1. [`Frame::Accepted`] (or a terminal [`Frame::Error`] — bad request,
//!    bad spec, server shutting down);
//! 2. one [`Frame::Result`] per job, **in submission order**, each carrying
//!    the job's [`JobResult`] as it completes;
//! 3. a terminal [`Frame::Done`] (or [`Frame::Error`] if the deadline
//!    passed or the engine rejected a job after the results streamed so
//!    far).

use engine::JobResult;
use metrics::MetricsReport;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// Version of the request/frame wire format.
pub const PROTOCOL_VERSION: u32 = 1;

/// A job submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Client identity, the label on the submission's trace spans
    /// (free-form, non-empty).
    pub client: String,
    /// Ignored.  Kept on the wire so requests from clients that still send
    /// a queue priority decode; the queue runs submissions in arrival order
    /// and the priority was never part of the cache key, so any value runs
    /// (and caches) exactly like `0`.  Current clients send `0`.
    pub priority: i64,
    /// Worker threads for this submission (`0` = the server's default).
    pub workers: usize,
    /// Ignored.  Kept on the wire so requests from clients that still send
    /// an intra-job segment size decode; every job now runs one loop with
    /// a fixed segment size, so any value runs (and caches) exactly like
    /// `0`.  Current clients send `0`.
    pub segment_size: usize,
    /// Ignored.  Kept on the wire so requests from clients that still send
    /// a speculative run-ahead depth decode; speculation was removed and
    /// never changed a result, so any value runs (and caches) exactly like
    /// `0`.  Current clients send `0`.
    pub speculate: usize,
    /// Submission deadline in milliseconds, measured from admission
    /// (introduced after protocol version 1 shipped; absent on old clients
    /// and decoded as `None` — no deadline).  A submission still queued or
    /// running past its deadline is cancelled cleanly and answered with a
    /// terminal [`ErrorFrame::DEADLINE_EXCEEDED`] after the in-order result
    /// prefix streamed so far.
    pub timeout_ms: Option<u64>,
    /// The job spec: a [`engine::JobList`] document of any supported
    /// version (the server loads it through the same lenient path as
    /// `run --spec`).
    pub spec: serde_json::Value,
}

/// One client request; a connection carries exactly one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job list and stream its results back.
    Submit(SubmitRequest),
    /// Report the server's counters as a [`MetricsReport`].
    Status,
    /// Begin graceful shutdown: stop accepting, drain the queue, exit.
    Shutdown,
}

/// Submission accepted: the stream of per-job results follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Accepted {
    /// Number of jobs in the accepted submission.
    pub jobs: u64,
    /// Queue depth observed at acceptance (0 for a cache hit — the
    /// submission never enters the queue).
    pub queue_depth: u64,
    /// Whether the reply is served from the content-addressed result cache.
    pub cache_hit: bool,
}

/// One completed job.  Cache hits replay the frames the original run
/// recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobFrame {
    /// The job's result, bit-identical to a direct engine run.
    pub result: JobResult,
}

/// Terminal frame of a successful submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Done {
    /// Number of [`Frame::Result`] frames that preceded this one.
    pub jobs: u64,
    /// Whether the whole reply came from the result cache.
    pub cache_hit: bool,
}

/// Acknowledgement of a [`Request::Shutdown`]: the server stops accepting
/// new work and exits once the named backlog has drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownAck {
    /// Submissions still queued at the time of the request; all of them run
    /// to completion before the server exits.
    pub draining: u64,
}

/// A structured, terminal error reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorFrame {
    /// Stable machine-readable code (one of the `ErrorFrame::*` constants).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl ErrorFrame {
    /// The request line was not a well-formed [`Request`].
    pub const BAD_REQUEST: &'static str = "bad_request";
    /// The submitted spec failed to load (parse or version error).
    pub const BAD_SPEC: &'static str = "bad_spec";
    /// The engine rejected a job (unknown plugin, unopenable trace, ...).
    pub const ENGINE: &'static str = "engine";
    /// The server is draining for shutdown and accepts no new submissions.
    pub const SHUTTING_DOWN: &'static str = "shutting_down";
    /// The submission's deadline (`timeout_ms`) passed before it completed;
    /// results streamed before the cancellation stand.
    pub const DEADLINE_EXCEEDED: &'static str = "deadline_exceeded";

    /// An error frame with the given code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        Self {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

/// One server-to-client reply frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Submission accepted; results follow.
    Accepted(Accepted),
    /// One completed job.
    Result(Box<JobFrame>),
    /// Successful end of a submission's result stream.
    Done(Done),
    /// Reply to [`Request::Status`]: the server's counters in the standard
    /// envelope (`kind: "server"`).
    Metrics(MetricsReport),
    /// Reply to [`Request::Shutdown`].
    ShutdownAck(ShutdownAck),
    /// Terminal structured error.
    Error(ErrorFrame),
}

/// Writes one value as a JSON line and flushes (framing is per-line, so
/// every frame must reach the peer promptly).
///
/// # Errors
///
/// Any underlying I/O error.
pub fn write_line<W: Write, T: Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let line = serde_json::to_string(value).expect("value-tree serialization cannot fail");
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads one JSON line and decodes it; `None` on a clean EOF before any
/// bytes.
///
/// # Errors
///
/// An [`io::ErrorKind::InvalidData`] error when the line is not valid JSON
/// for `T`, or any underlying I/O error.
pub fn read_line<R: BufRead, T: Deserialize>(reader: &mut R) -> io::Result<Option<T>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    serde_json::from_str(line.trim_end_matches(['\r', '\n']))
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn requests_and_frames_round_trip_as_single_lines() {
        let request = Request::Submit(SubmitRequest {
            client: "ci".to_string(),
            priority: 3,
            workers: 0,
            segment_size: 10_000,
            speculate: 2,
            timeout_ms: Some(5_000),
            spec: serde_json::from_str(r#"{"version": 2, "name": null, "jobs": []}"#).unwrap(),
        });
        let mut bytes = Vec::new();
        write_line(&mut bytes, &request).unwrap();
        write_line(&mut bytes, &Request::Status).unwrap();
        assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 2);

        let mut reader = BufReader::new(bytes.as_slice());
        let back: Request = read_line(&mut reader).unwrap().expect("first line");
        assert_eq!(back, request);
        let status: Request = read_line(&mut reader).unwrap().expect("second line");
        assert_eq!(status, Request::Status);
        assert_eq!(read_line::<_, Request>(&mut reader).unwrap(), None, "EOF");
    }

    #[test]
    fn terminal_frames_round_trip() {
        for frame in [
            Frame::Accepted(Accepted {
                jobs: 4,
                queue_depth: 1,
                cache_hit: false,
            }),
            Frame::Done(Done {
                jobs: 4,
                cache_hit: true,
            }),
            Frame::ShutdownAck(ShutdownAck { draining: 2 }),
            Frame::Error(ErrorFrame::new(ErrorFrame::SHUTTING_DOWN, "draining")),
        ] {
            let mut bytes = Vec::new();
            write_line(&mut bytes, &frame).unwrap();
            let mut reader = BufReader::new(bytes.as_slice());
            let back: Frame = read_line(&mut reader).unwrap().expect("one frame");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn version_1_submit_requests_without_timeout_still_decode() {
        // A request rendered by a pre-deadline client has no `timeout_ms`
        // key at all; it must decode with no deadline, not error.
        let line = concat!(
            r#"{"Submit":{"client":"old","priority":0,"workers":0,"#,
            r#""segment_size":0,"speculate":0,"#,
            r#""spec":{"version":2,"name":null,"jobs":[]}}}"#,
            "\n"
        );
        let mut reader = BufReader::new(line.as_bytes());
        let request: Request = read_line(&mut reader).unwrap().expect("decodes");
        match request {
            Request::Submit(submit) => {
                assert_eq!(submit.client, "old");
                assert_eq!(submit.timeout_ms, None);
            }
            other => panic!("expected Submit, got {other:?}"),
        }
    }

    #[test]
    fn garbage_lines_are_invalid_data_not_panics() {
        let mut reader = BufReader::new(b"not json\n".as_slice());
        let err = read_line::<_, Request>(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
