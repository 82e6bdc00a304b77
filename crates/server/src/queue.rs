//! The prioritized submission queue between connection handlers and the
//! scheduler.
//!
//! Ordering is strict: higher [`Queued::priority`] first, ties broken by
//! arrival sequence (lower [`Queued::seq`] first), so equal-priority
//! traffic is FIFO and a flood of low-priority submissions can never starve
//! a later high-priority one.

use crate::protocol::{ErrorFrame, JobFrame};
use engine::{CancelToken, SimJob};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
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
    /// Client identity, for quota release on completion.
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
    /// Cooperative cancellation shared between the scheduler's engine run,
    /// the deadline watchdog and the connection handler (a disconnected
    /// client cancels its own submission through this token).
    pub cancel: CancelToken,
    /// Absolute deadline derived from the request's `timeout_ms`, measured
    /// from admission; `None` means the submission never times out.
    pub deadline: Option<Instant>,
}

/// A [`Submission`] with its queue ordering key.
#[derive(Debug)]
pub struct Queued {
    /// Arrival sequence number (unique, monotonically increasing).
    pub seq: u64,
    /// Queue priority: higher runs first.
    pub priority: i64,
    /// The submission itself.
    pub submission: Submission,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Queued {}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then earlier arrival (reversed
        // seq comparison, because BinaryHeap pops the maximum).
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The priority queue proper.
#[derive(Debug, Default)]
pub struct SubmissionQueue {
    heap: BinaryHeap<Queued>,
}

impl SubmissionQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueues a submission.
    pub fn push(&mut self, queued: Queued) {
        self.heap.push(queued);
    }

    /// Removes and returns the highest-priority (then oldest) submission.
    pub fn pop(&mut self) -> Option<Queued> {
        self.heap.pop()
    }

    /// Submissions currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queued(seq: u64, priority: i64) -> Queued {
        let (reply, _rx) = mpsc::channel();
        Queued {
            seq,
            priority,
            submission: Submission {
                client: format!("client-{seq}"),
                jobs: Vec::new(),
                workers: 1,
                fingerprint: format!("fp-{seq}"),
                reply,
                queued_at: Instant::now(),
                cancel: CancelToken::new(),
                deadline: None,
            },
        }
    }

    #[test]
    fn orders_by_priority_then_arrival() {
        let mut queue = SubmissionQueue::new();
        for (seq, priority) in [(0, 0), (1, 5), (2, 0), (3, 5), (4, -1)] {
            queue.push(queued(seq, priority));
        }
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop().map(|q| q.seq)).collect();
        // Priority 5 first in arrival order, then priority 0 in arrival
        // order, then the negative priority.
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
    }
}
