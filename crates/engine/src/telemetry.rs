//! Per-job telemetry: where each job's loop spent its time.
//!
//! Metrics travel on a **separate channel** from results: a
//! [`JobResult`](crate::runner::JobResult) carries only simulated state (so
//! `--out` files and golden hashes stay bit-identical), while
//! [`execute`](crate::runner::execute) hands every job's [`JobMetrics`] to
//! the sink beside its result.  Each job splits its loop into the pull,
//! simulate and account steps of its segments; the loop reads the clock once
//! at each step boundary, and the same instants feed the `seg.pull`,
//! `seg.simulate` and `seg.account` spans of a traced run.

use memsim::SegmentCounts;
use metrics::{per_sec, Histogram};
use serde::{Deserialize, Serialize};

/// Telemetry of one executed job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Index of the job in the submitted list.
    pub job_index: usize,
    /// Wall-clock seconds spent inside the job's loop (pulling, simulating
    /// and accounting its segments).  Job preparation — resolving the
    /// prefetcher spec, opening the trace source, building the system —
    /// happens before this clock starts and is not counted.
    pub elapsed_seconds: f64,
    /// Demand accesses the job simulated.
    pub accesses: u64,
    /// Demand accesses simulated per wall-clock second.
    pub accesses_per_sec: f64,
    /// Cache operations performed (demand accesses + applied prefetch
    /// fills).
    pub cache_ops: u64,
    /// Prefetch fills applied to a cache.
    pub prefetch_issues: u64,
    /// Non-empty prefetch-request batches drained by the driver.
    pub request_batches: u64,
    /// Segments the job's loop ran.
    pub segments: u64,
    /// Seconds the job's loop spent pulling the trace.
    pub pull_seconds: f64,
    /// Seconds the job's loop spent replaying outcome tapes into the
    /// classifiers and the timing model.
    pub account_seconds: f64,
    /// Per-segment pull latency distribution, microseconds.
    pub pull_segment_us: Histogram,
    /// Per-segment simulate latency distribution, microseconds.
    pub simulate_segment_us: Histogram,
    /// Per-segment account latency distribution, microseconds.
    pub account_segment_us: Histogram,
}

impl JobMetrics {
    /// Job telemetry from the driver's counters over a loop that ran for
    /// `elapsed_seconds`; the per-segment stage fields start empty.
    pub fn from_driver(job_index: usize, counts: &SegmentCounts, elapsed_seconds: f64) -> Self {
        Self {
            job_index,
            elapsed_seconds,
            accesses: counts.accesses,
            accesses_per_sec: per_sec(counts.accesses, elapsed_seconds),
            cache_ops: counts.accesses + counts.prefetch_issues,
            prefetch_issues: counts.prefetch_issues,
            request_batches: counts.request_batches,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_driver_recovers_demand_accesses() {
        let counts = SegmentCounts {
            accesses: 1_000,
            skipped_accesses: 3,
            prefetch_requests: 120,
            prefetch_issues: 100,
            request_batches: 40,
        };
        let job = JobMetrics::from_driver(3, &counts, 2.0);
        assert_eq!(job.job_index, 3);
        assert_eq!(job.accesses, 1_000);
        assert_eq!(job.cache_ops, 1_100, "demand accesses + applied fills");
        assert_eq!(job.prefetch_issues, 100);
        assert_eq!(job.request_batches, 40);
        assert!((job.accesses_per_sec - 500.0).abs() < 1e-9);
        assert_eq!(job.segments, 0);
        assert_eq!(job.simulate_segment_us.count(), 0);
    }
}
