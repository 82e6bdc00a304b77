//! What passes between connection handlers and the scheduler: the queued
//! [`Submission`] and the [`Event`]s streamed back for it.
//!
//! The queue itself is a FIFO (`VecDeque<Submission>` behind the server's
//! state mutex): the scheduler runs submissions in arrival order.

use crate::protocol::{ErrorFrame, JobFrame};
use engine::{CancelToken, SimJob};
use std::sync::mpsc;
use std::time::Instant;

/// An event streamed from the scheduler back to the submitting connection.
#[derive(Debug)]
pub enum Event {
    /// One completed job, in submission order.
    Result(Box<JobFrame>),
    /// The whole submission completed; `jobs` results were streamed.
    Done {
        /// Number of [`Event::Result`]s that preceded this event.
        jobs: u64,
    },
    /// The engine rejected a job; results streamed so far stand.
    Error(ErrorFrame),
}

/// A queued submission: the decoded jobs plus everything the scheduler
/// needs to run them and to account for the outcome.
#[derive(Debug)]
pub struct Submission {
    /// Arrival sequence number (unique, monotonically increasing).
    pub seq: u64,
    /// Client identity, the label on the submission's trace spans.
    pub client: String,
    /// The jobs, in submission order.
    pub jobs: Vec<SimJob>,
    /// Engine worker count resolved from the request and server defaults
    /// (`0` = one per available hardware thread).
    pub workers: usize,
    /// Content-addressed identity of the jobs; the cache key.
    pub fingerprint: String,
    /// Channel back to the connection handler streaming this submission.
    pub reply: mpsc::Sender<Event>,
    /// When the submission was admitted to the queue, for queue-wait
    /// latency accounting.
    pub queued_at: Instant,
    /// Cooperative cancellation shared between the scheduler's engine run
    /// and the connection handler (a disconnected client cancels its own
    /// submission through this token); it carries the deadline too.
    pub cancel: CancelToken,
    /// Absolute deadline derived from the request's `timeout_ms`, measured
    /// from admission; `None` means the submission never times out.  The
    /// scheduler reads it to tell a deadline from a client disconnect.
    pub deadline: Option<Instant>,
}
