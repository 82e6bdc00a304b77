//! Engine-level telemetry: per-job, per-worker and whole-run timing.
//!
//! Metrics travel on a **separate channel** from results: a
//! [`JobResult`](crate::runner::JobResult) carries only simulated state (so
//! `--out` files and golden hashes stay bit-identical whether or not
//! telemetry is collected), while [`run_jobs_metered`](crate::runner::run_jobs_metered)
//! returns an [`EngineMetrics`] alongside the results.  The whole-run view
//! splits wall-clock time into the three phases of the engine — in-loop
//! **simulate** time per worker, the residual **queue wait** (claiming from
//! the shared cursor plus per-job preparation), and the deterministic
//! result **merge** — which is exactly the breakdown the next scaling steps
//! (segment sharding, async trace IO) need as a baseline.

use memsim::DriverMetrics;
use metrics::{per_sec, Histogram, MetricsReport};
use serde::{Deserialize, Serialize};

/// Telemetry of one executed job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Index of the job in the submitted list.
    pub job_index: usize,
    /// Wall-clock seconds spent inside the job's simulation loop (driving
    /// accesses through the system, or the timing model's walk).  Job
    /// preparation — resolving the prefetcher spec, opening the trace
    /// source, building the system — happens before this clock starts and
    /// lands in the worker's
    /// [`queue_wait_seconds`](WorkerMetrics::queue_wait_seconds).
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
    /// Segments the job was split into (zero for unsegmented execution).
    pub segments: u64,
    /// Busy seconds the segment pipeline's pull stage spent reading the
    /// trace (zero for unsegmented execution).
    pub pull_seconds: f64,
    /// Busy seconds the segment pipeline's account stage spent replaying
    /// outcome tapes (zero for unsegmented execution).
    pub account_seconds: f64,
    /// Per-segment pull-stage latency distribution, microseconds (empty for
    /// unsegmented execution or disabled metrics).
    pub pull_segment_us: Histogram,
    /// Per-segment simulate-stage latency distribution, microseconds.
    pub simulate_segment_us: Histogram,
    /// Per-segment account-stage latency distribution, microseconds.
    pub account_segment_us: Histogram,
}

impl JobMetrics {
    /// Job telemetry from the driver's own metrics (plain cache-simulation
    /// jobs, where the driver's loop time is the job time).
    pub fn from_driver(job_index: usize, driver: &DriverMetrics) -> Self {
        Self {
            job_index,
            elapsed_seconds: driver.elapsed_seconds,
            accesses: driver.cache_ops - driver.prefetch_issues,
            accesses_per_sec: driver.accesses_per_sec,
            cache_ops: driver.cache_ops,
            prefetch_issues: driver.prefetch_issues,
            request_batches: driver.request_batches,
            segments: 0,
            pull_seconds: 0.0,
            account_seconds: 0.0,
            pull_segment_us: Histogram::new(),
            simulate_segment_us: Histogram::new(),
            account_segment_us: Histogram::new(),
        }
    }

    /// Job telemetry derived from a run summary plus an externally measured
    /// elapsed time (timing-model jobs, whose loop lives in the `timing`
    /// crate).
    pub fn from_summary(
        job_index: usize,
        summary: &memsim::RunSummary,
        elapsed_seconds: f64,
    ) -> Self {
        let prefetch_issues = summary.l1.prefetch_fills + summary.l2.prefetch_fills;
        Self {
            job_index,
            elapsed_seconds,
            accesses: summary.accesses,
            accesses_per_sec: per_sec(summary.accesses, elapsed_seconds),
            cache_ops: summary.accesses + prefetch_issues,
            prefetch_issues,
            request_batches: 0,
            segments: 0,
            pull_seconds: 0.0,
            account_seconds: 0.0,
            pull_segment_us: Histogram::new(),
            simulate_segment_us: Histogram::new(),
            account_segment_us: Histogram::new(),
        }
    }
}

/// Telemetry of one engine worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerMetrics {
    /// Worker index (0-based; the serial path is a single worker 0).
    pub worker: usize,
    /// Jobs this worker executed.
    pub jobs_run: u64,
    /// Wall-clock seconds spent inside claimed jobs' simulation loops (the
    /// sum of their [`JobMetrics::elapsed_seconds`]).
    pub simulate_seconds: f64,
    /// Worker lifetime not spent simulating: claiming jobs from the shared
    /// cursor, per-job preparation (plugin resolution, trace opening,
    /// system construction — significant for file-backed traces on slow
    /// storage), and waiting for the scope to wind down.
    pub queue_wait_seconds: f64,
    /// Total worker lifetime.
    pub total_seconds: f64,
}

/// Whole-run engine telemetry: every worker, every job, and the run-level
/// aggregate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Per-worker timing, in worker order.
    pub workers: Vec<WorkerMetrics>,
    /// Per-job telemetry, in submission order.
    pub jobs: Vec<JobMetrics>,
    /// Demand accesses simulated across all jobs.
    pub total_accesses: u64,
    /// Sum of worker simulate time (CPU-seconds of useful work).
    pub simulate_seconds: f64,
    /// Wall-clock seconds spent merging results back into submission order.
    pub merge_seconds: f64,
    /// Whole-run wall-clock seconds.
    pub total_seconds: f64,
    /// Aggregate throughput: total accesses over whole-run wall-clock time.
    pub accesses_per_sec: f64,
}

impl EngineMetrics {
    /// The [`MetricsReport`] kind tag of serialized engine metrics.
    pub const REPORT_KIND: &'static str = "engine-run";

    /// Stamps the run-level aggregates from the collected parts.
    pub(crate) fn finish(&mut self, merge_seconds: f64, total_seconds: f64) {
        self.total_accesses = self.jobs.iter().map(|j| j.accesses).sum();
        self.simulate_seconds = self.workers.iter().map(|w| w.simulate_seconds).sum();
        self.merge_seconds = merge_seconds;
        self.total_seconds = total_seconds;
        self.accesses_per_sec = per_sec(self.total_accesses, total_seconds);
    }

    /// Wraps the metrics in the shared schema-versioned report envelope.
    pub fn report(&self) -> MetricsReport {
        MetricsReport::new(Self::REPORT_KIND, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_driver_recovers_demand_accesses() {
        let driver = DriverMetrics {
            elapsed_seconds: 2.0,
            accesses_per_sec: 500.0,
            cache_ops: 1_100,
            prefetch_issues: 100,
            request_batches: 40,
            max_batch_len: 8,
            batch_len_hist: Histogram::new(),
        };
        let job = JobMetrics::from_driver(3, &driver);
        assert_eq!(job.job_index, 3);
        assert_eq!(job.accesses, 1_000);
        assert_eq!(job.cache_ops, 1_100);
        assert_eq!(job.request_batches, 40);
    }

    #[test]
    fn finish_aggregates_and_reports() {
        let mut m = EngineMetrics {
            workers: vec![
                WorkerMetrics {
                    worker: 0,
                    jobs_run: 2,
                    simulate_seconds: 1.0,
                    queue_wait_seconds: 0.5,
                    total_seconds: 1.5,
                },
                WorkerMetrics {
                    worker: 1,
                    jobs_run: 1,
                    simulate_seconds: 2.0,
                    queue_wait_seconds: 0.0,
                    total_seconds: 2.0,
                },
            ],
            jobs: vec![
                JobMetrics {
                    job_index: 0,
                    accesses: 600,
                    ..JobMetrics::default()
                },
                JobMetrics {
                    job_index: 1,
                    accesses: 400,
                    ..JobMetrics::default()
                },
            ],
            ..EngineMetrics::default()
        };
        m.finish(0.25, 2.0);
        assert_eq!(m.total_accesses, 1_000);
        assert!((m.simulate_seconds - 3.0).abs() < 1e-12);
        assert!((m.accesses_per_sec - 500.0).abs() < 1e-9);

        let report = m.report();
        assert_eq!(report.kind, EngineMetrics::REPORT_KIND);
        assert!(report.validate().is_ok());
        let back: EngineMetrics = report
            .decode(EngineMetrics::REPORT_KIND)
            .expect("decodes")
            .expect("matching kind");
        assert_eq!(back, m);
    }
}
