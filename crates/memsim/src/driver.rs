//! The trace-driven simulation loop.
//!
//! [`run`] pushes accesses from a stream through a [`MultiCpuSystem`], lets a
//! [`Prefetcher`] react to every outcome, applies the requested fills, and
//! accumulates a [`RunSummary`] of per-level statistics and miss breakdowns.
//! The loop is **batched**: one reusable request buffer collects every
//! access's stream requests ([`Prefetcher::on_access_into`]), so issuing
//! prefetchers stop paying one vector allocation per triggering access.
//!
//! [`run_job`] is the self-contained variant: a [`SimJob`] fully describes
//! one run (trace source, system, prefetcher spec, access budget) so that
//! jobs can be executed on any thread and always reproduce bit-identical
//! summaries.  The `engine` crate wraps the same job type with a plugin
//! registry and an optional timing-model evaluation.
//!
//! Telemetry follows the zero-cost-when-disabled pattern from the `metrics`
//! crate: the loop is generic over a [`DriverMeter`], the no-op meter `()`
//! compiles the instrumentation away entirely, and the metered entry points
//! ([`run_metered`], [`run_job_metered`]) collect a [`DriverMetrics`] —
//! wall-clock time, accesses/second, cache-operation and prefetch-issue
//! counts — without ever feeding anything back into the simulation.

use crate::classify::MissBreakdown;
use crate::config::HierarchyConfig;
use crate::prefetch::{NullPrefetcher, PrefetchLevel, PrefetchRequest, Prefetcher};
use crate::stats::CacheStats;
use crate::system::MultiCpuSystem;
use metrics::{per_sec, MetricsConfig, Stopwatch};
use serde::{Deserialize, Serialize, Value};
use std::io;
use trace::{MemAccess, TraceSource};

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Number of demand accesses simulated.
    pub accesses: u64,
    /// Accesses naming CPUs outside the simulated system, dropped without
    /// touching any cache.  Always zero when the trace generator and the
    /// system agree on the processor count.
    pub skipped_accesses: u64,
    /// L1 statistics summed over all processors.
    pub l1: CacheStats,
    /// L2 statistics summed over all processors.
    pub l2: CacheStats,
    /// Classification of L1 read misses.
    pub l1_breakdown: MissBreakdown,
    /// Classification of off-chip read misses.
    pub l2_breakdown: MissBreakdown,
    /// Total prefetch requests issued by the attached prefetcher.
    pub prefetch_requests: u64,
}

impl RunSummary {
    /// L1 read misses per 1000 accesses (a stand-in for the paper's misses
    /// per instruction, which differs only by a constant factor).
    pub fn l1_read_mpki(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1000.0 * self.l1.read_misses as f64 / self.accesses as f64
        }
    }

    /// Off-chip read misses per 1000 accesses.
    pub fn l2_read_mpki(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1000.0 * self.l2.read_misses as f64 / self.accesses as f64
        }
    }
}

/// Hot-path telemetry of one driver run, collected by [`run_metered`] /
/// [`run_job_metered`] with no effect on simulated results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DriverMetrics {
    /// Wall-clock seconds spent inside the simulation loop.
    pub elapsed_seconds: f64,
    /// Demand accesses simulated per wall-clock second.
    pub accesses_per_sec: f64,
    /// Cache operations performed: demand accesses applied plus prefetch
    /// fills applied.
    pub cache_ops: u64,
    /// Prefetch fills actually applied to a cache (stream fills into the L1
    /// plus conventional fills into the L2).
    pub prefetch_issues: u64,
    /// Non-empty request batches drained from the shared request buffer.
    pub request_batches: u64,
    /// Largest single batch of requests one access produced.
    pub max_batch_len: u64,
    /// Distribution of drained batch lengths (log2 buckets); `p50`/`p99`
    /// show whether `max_batch_len` is typical or a one-off burst.
    pub batch_len_hist: metrics::Histogram,
}

impl DriverMetrics {
    /// Stamps wall-clock-derived fields from `accesses` demand accesses over
    /// `seconds` of loop time.
    fn finish(&mut self, accesses: u64, seconds: f64) {
        self.elapsed_seconds = seconds;
        self.accesses_per_sec = per_sec(accesses, seconds);
    }
}

/// Events the simulation loop reports to its (possibly no-op) meter.
///
/// The loop is generic over this trait so that the unmetered entry points
/// monomorphize with the `()` implementation below and compile every
/// callback away — disabled telemetry costs literally nothing.
pub trait DriverMeter {
    /// A demand access was applied to the system.
    fn demand_access(&mut self);
    /// A prefetch fill was applied to a cache.
    fn prefetch_issue(&mut self);
    /// One access's request batch was drained (`len > 0`).
    fn batch(&mut self, len: usize);
}

/// The no-op meter: all callbacks are empty and inline to nothing.
impl DriverMeter for () {
    #[inline(always)]
    fn demand_access(&mut self) {}
    #[inline(always)]
    fn prefetch_issue(&mut self) {}
    #[inline(always)]
    fn batch(&mut self, _len: usize) {}
}

impl DriverMeter for DriverMetrics {
    #[inline]
    fn demand_access(&mut self) {
        self.cache_ops += 1;
    }

    #[inline]
    fn prefetch_issue(&mut self) {
        self.cache_ops += 1;
        self.prefetch_issues += 1;
    }

    #[inline]
    fn batch(&mut self, len: usize) {
        self.request_batches += 1;
        self.max_batch_len = self.max_batch_len.max(len as u64);
        self.batch_len_hist.record(len as u64);
    }
}

/// Builds a [`Prefetcher`] from a (typically serializable) specification.
///
/// The driver and the `engine` crate construct prefetchers from specs rather
/// than taking live instances, so a [`SimJob`] can be shipped to any worker
/// thread and instantiated there.  Implementations must be deterministic:
/// building twice from the same spec yields prefetchers with identical
/// behavior.
pub trait PrefetcherFactory {
    /// The concrete prefetcher this factory builds.
    type Output: Prefetcher;

    /// Instantiates a fresh prefetcher for a `num_cpus`-processor system.
    fn build(&self, num_cpus: usize) -> Self::Output;
}

impl<F: PrefetcherFactory> PrefetcherFactory for &F {
    type Output = F::Output;

    fn build(&self, num_cpus: usize) -> Self::Output {
        (*self).build(num_cpus)
    }
}

/// The stateless null prefetcher is its own factory.
impl PrefetcherFactory for NullPrefetcher {
    type Output = NullPrefetcher;

    fn build(&self, _num_cpus: usize) -> NullPrefetcher {
        NullPrefetcher::new()
    }
}

/// A complete, self-contained description of one simulation run: where the
/// trace comes from, what system to build, which prefetcher to attach, and
/// how many accesses to simulate.
///
/// Jobs own no live state — the access stream and the prefetcher are both
/// constructed from the job when it runs — so the same job always produces a
/// bit-identical [`RunSummary`], regardless of which thread executes it.
/// The [`TraceSource`] names either a synthetic generator (application,
/// parameters, seed) or a trace file replayed through the streaming readers
/// in `trace::io`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob<F> {
    /// Where the run's accesses come from (synthetic generator or file).
    pub source: TraceSource,
    /// Number of simulated processors.
    pub cpus: usize,
    /// Cache hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Prefetcher specification, instantiated when the job runs.
    pub prefetcher: F,
    /// Demand accesses to simulate.
    pub accesses: usize,
}

impl<F> SimJob<F> {
    /// A job over the synthetic generator for `app` (the usual path).
    pub fn synthetic(
        app: trace::Application,
        generator: trace::GeneratorConfig,
        seed: u64,
        cpus: usize,
        hierarchy: HierarchyConfig,
        prefetcher: F,
        accesses: usize,
    ) -> Self {
        Self {
            source: TraceSource::synthetic(app, generator, seed),
            cpus,
            hierarchy,
            prefetcher,
            accesses,
        }
    }
}

// The vendored serde derive does not handle generic types, so the job's
// (de)serialization over the value tree is written out by hand.  The field
// layout matches what a non-generic derive would produce.
impl<F: Serialize> Serialize for SimJob<F> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("source".to_string(), self.source.to_value()),
            ("cpus".to_string(), self.cpus.to_value()),
            ("hierarchy".to_string(), self.hierarchy.to_value()),
            ("prefetcher".to_string(), self.prefetcher.to_value()),
            ("accesses".to_string(), self.accesses.to_value()),
        ])
    }
}

impl<F: Deserialize> Deserialize for SimJob<F> {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::de::Error::custom("expected object for struct SimJob"))?;
        Ok(SimJob {
            source: Deserialize::from_value(serde::field(obj, "source"))?,
            cpus: Deserialize::from_value(serde::field(obj, "cpus"))?,
            hierarchy: Deserialize::from_value(serde::field(obj, "hierarchy"))?,
            prefetcher: Deserialize::from_value(serde::field(obj, "prefetcher"))?,
            accesses: Deserialize::from_value(serde::field(obj, "accesses"))?,
        })
    }
}

/// Runs one [`SimJob`] from scratch: builds the system, instantiates the
/// prefetcher from its spec, opens the trace source, and drives [`run`].
///
/// The built prefetcher is returned alongside the summary so callers can
/// extract post-run state (predictor counters, observer histograms).
///
/// # Errors
///
/// Any I/O error from opening a file-backed trace source; synthetic sources
/// cannot fail.
pub fn run_job<F: PrefetcherFactory>(job: &SimJob<F>) -> io::Result<(RunSummary, F::Output)> {
    let mut system = MultiCpuSystem::new(job.cpus, &job.hierarchy);
    let mut prefetcher = job.prefetcher.build(job.cpus);
    let mut stream = job.source.open()?;
    let summary = run(&mut system, &mut prefetcher, &mut stream, job.accesses);
    Ok((summary, prefetcher))
}

/// [`run_job`] with telemetry: additionally collects the [`DriverMetrics`]
/// of the run (wall-clock time, accesses/second, cache-op and prefetch-issue
/// counts) when `metrics.enabled`.
///
/// The summary is bit-identical to [`run_job`]'s regardless of the metrics
/// setting — telemetry observes the run, it never influences it.
///
/// # Errors
///
/// Any I/O error from opening a file-backed trace source; synthetic sources
/// cannot fail.
pub fn run_job_metered<F: PrefetcherFactory>(
    job: &SimJob<F>,
    metrics: &MetricsConfig,
) -> io::Result<(RunSummary, F::Output, DriverMetrics)> {
    let mut system = MultiCpuSystem::new(job.cpus, &job.hierarchy);
    let mut prefetcher = job.prefetcher.build(job.cpus);
    let mut stream = job.source.open()?;
    let (summary, driver) = run_metered(
        &mut system,
        &mut prefetcher,
        &mut stream,
        job.accesses,
        metrics,
    );
    Ok((summary, prefetcher, driver))
}

/// Runs `num_accesses` accesses from `stream` through `system` with
/// `prefetcher` attached.
///
/// Accesses naming CPUs outside the system are dropped and counted in
/// [`RunSummary::skipped_accesses`] (the generators are normally configured
/// with the same CPU count as the system, so this is a defensive measure,
/// not an expected path).
pub fn run<S>(
    system: &mut MultiCpuSystem,
    prefetcher: &mut dyn Prefetcher,
    stream: &mut S,
    num_accesses: usize,
) -> RunSummary
where
    S: Iterator<Item = MemAccess> + ?Sized,
{
    // The `()` meter monomorphizes to the bare loop: no telemetry cost.
    run_with_meter(system, prefetcher, stream, num_accesses, &mut ())
}

/// [`run`] with telemetry: additionally collects a [`DriverMetrics`] when
/// `metrics.enabled` (all fields zero otherwise).  The summary is
/// bit-identical either way.
pub fn run_metered<S>(
    system: &mut MultiCpuSystem,
    prefetcher: &mut dyn Prefetcher,
    stream: &mut S,
    num_accesses: usize,
    metrics: &MetricsConfig,
) -> (RunSummary, DriverMetrics)
where
    S: Iterator<Item = MemAccess> + ?Sized,
{
    if !metrics.enabled {
        return (
            run(system, prefetcher, stream, num_accesses),
            DriverMetrics::default(),
        );
    }
    let mut driver = DriverMetrics::default();
    let watch = Stopwatch::started();
    let summary = run_with_meter(system, prefetcher, stream, num_accesses, &mut driver);
    driver.finish(summary.accesses, watch.elapsed_seconds());
    (summary, driver)
}

/// The batched simulation loop, generic over the telemetry meter.
///
/// One request buffer lives across the whole run: every access's requests
/// are appended by [`Prefetcher::on_access_into`] and drained immediately,
/// in order, so no per-access vector is ever allocated and the applied
/// request sequence is exactly what one [`Prefetcher::on_access`] vector
/// per access would produce (the driver and telemetry tests compare both).
fn run_with_meter<S, M>(
    system: &mut MultiCpuSystem,
    prefetcher: &mut dyn Prefetcher,
    stream: &mut S,
    num_accesses: usize,
    meter: &mut M,
) -> RunSummary
where
    S: Iterator<Item = MemAccess> + ?Sized,
    M: DriverMeter,
{
    let mut summary = RunSummary::default();
    let mut batch: Vec<PrefetchRequest> = Vec::new();
    for access in stream.take(num_accesses) {
        if (access.cpu as usize) >= system.num_cpus() {
            summary.skipped_accesses += 1;
            continue;
        }
        let outcome = system.access(&access);
        summary.accesses += 1;
        meter.demand_access();
        prefetcher.on_access_into(&access, &outcome, &mut batch);
        summary.prefetch_requests += batch.len() as u64;
        if !batch.is_empty() {
            meter.batch(batch.len());
        }
        for req in batch.drain(..) {
            if (req.cpu as usize) >= system.num_cpus() {
                continue;
            }
            meter.prefetch_issue();
            match req.level {
                PrefetchLevel::L1 => {
                    if let Some(victim) = system.cpu_mut(req.cpu).stream_fill(req.addr) {
                        prefetcher.on_stream_eviction(req.cpu, victim.block_addr);
                    }
                }
                PrefetchLevel::L2 => {
                    system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                }
            }
        }
    }
    summary.l1 = system.l1_stats_total();
    summary.l2 = system.l2_stats_total();
    summary.l1_breakdown = *system.l1_breakdown();
    summary.l2_breakdown = *system.l2_breakdown();
    summary
}

/// Driver-side counters of a segmented run, accumulated across segments by
/// the simulate stage (the summary fields the cache statistics do not cover).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentCounts {
    /// Demand accesses simulated so far.
    pub accesses: u64,
    /// Accesses dropped for naming CPUs outside the system.
    pub skipped_accesses: u64,
    /// Prefetch requests issued by the attached prefetcher.
    pub prefetch_requests: u64,
}

/// Runs one buffered segment through the system with classification
/// deferred onto `tape`: the cache, coherence and prefetcher updates are
/// exactly those of [`run`] over the same accesses, but the miss classifiers
/// are not touched — a standalone [`MissAccounting`](crate::classify::MissAccounting)
/// replays the tape later (typically on another thread).
///
/// `batch` is the caller's reusable request buffer and `counts` accumulates
/// across segments; both belong to the simulate stage's hand-off state.  The
/// tape is appended to, one entry per access in `accesses`.
pub fn run_segment_deferred<M: DriverMeter>(
    system: &mut MultiCpuSystem,
    prefetcher: &mut dyn Prefetcher,
    accesses: &[MemAccess],
    batch: &mut Vec<PrefetchRequest>,
    tape: &mut crate::classify::OutcomeTape,
    counts: &mut SegmentCounts,
    meter: &mut M,
) {
    for access in accesses {
        if (access.cpu as usize) >= system.num_cpus() {
            counts.skipped_accesses += 1;
            tape.push_skipped();
            continue;
        }
        let outcome = system.access_deferred(access, tape);
        counts.accesses += 1;
        meter.demand_access();
        prefetcher.on_access_into(access, &outcome, batch);
        counts.prefetch_requests += batch.len() as u64;
        if !batch.is_empty() {
            meter.batch(batch.len());
        }
        for req in batch.drain(..) {
            if (req.cpu as usize) >= system.num_cpus() {
                continue;
            }
            meter.prefetch_issue();
            match req.level {
                PrefetchLevel::L1 => {
                    if let Some(victim) = system.cpu_mut(req.cpu).stream_fill(req.addr) {
                        prefetcher.on_stream_eviction(req.cpu, victim.block_addr);
                    }
                }
                PrefetchLevel::L2 => {
                    system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                }
            }
        }
    }
}

/// Assembles the final [`RunSummary`] of a segmented run from its three
/// state holders: the simulate stage's system (cache statistics) and counts,
/// and the accounting stage's replayed breakdowns.
///
/// The result is field-for-field what the serial [`run`] builds at the end of
/// its loop, because each holder performed the identical updates.
pub fn summarize_segmented(
    system: &MultiCpuSystem,
    accounting: &crate::classify::MissAccounting,
    counts: &SegmentCounts,
) -> RunSummary {
    RunSummary {
        accesses: counts.accesses,
        skipped_accesses: counts.skipped_accesses,
        l1: system.l1_stats_total(),
        l2: system.l2_stats_total(),
        l1_breakdown: *accounting.l1_breakdown(),
        l2_breakdown: *accounting.l2_breakdown(),
        prefetch_requests: counts.prefetch_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheConfig, HierarchyConfig};
    use crate::prefetch::{NullPrefetcher, PrefetchRequest};
    use crate::system::SystemOutcome;

    fn tiny_config() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig::new(1024, 2, 64),
            l2: CacheConfig::new(8192, 4, 64),
        }
    }

    #[test]
    fn baseline_run_counts_accesses_and_misses() {
        let mut sys = MultiCpuSystem::new(1, &tiny_config());
        let mut p = NullPrefetcher::new();
        let accesses: Vec<MemAccess> = (0..100)
            .map(|i| MemAccess::read(0, 0x400, i * 64))
            .collect();
        let summary = run(&mut sys, &mut p, &mut accesses.into_iter(), 100);
        assert_eq!(summary.accesses, 100);
        assert_eq!(summary.skipped_accesses, 0);
        assert_eq!(summary.l1.read_misses, 100);
        assert!(summary.l1_read_mpki() > 999.0);
    }

    /// A prefetcher that always requests the next sequential block.
    struct NextLine;
    impl Prefetcher for NextLine {
        fn on_access(
            &mut self,
            access: &MemAccess,
            outcome: &SystemOutcome,
        ) -> Vec<PrefetchRequest> {
            if outcome.hierarchy.l1_miss() {
                vec![PrefetchRequest {
                    cpu: access.cpu,
                    addr: access.addr + 64,
                    level: PrefetchLevel::L1,
                }]
            } else {
                Vec::new()
            }
        }
        fn name(&self) -> &str {
            "next-line"
        }
    }

    #[test]
    fn next_line_prefetcher_halves_sequential_misses() {
        let mut sys = MultiCpuSystem::new(1, &tiny_config());
        let mut p = NextLine;
        let accesses: Vec<MemAccess> = (0..200)
            .map(|i| MemAccess::read(0, 0x400, i * 64))
            .collect();
        let summary = run(&mut sys, &mut p, &mut accesses.clone().into_iter(), 200);

        let mut base_sys = MultiCpuSystem::new(1, &tiny_config());
        let mut base = NullPrefetcher::new();
        let base_summary = run(&mut base_sys, &mut base, &mut accesses.into_iter(), 200);

        assert!(summary.l1.read_misses < base_summary.l1.read_misses);
        assert!(summary.l1.prefetch_hits > 0);
        assert!(summary.prefetch_requests > 0);
    }

    #[test]
    fn accesses_to_unknown_cpus_are_skipped_and_counted() {
        let mut sys = MultiCpuSystem::new(1, &tiny_config());
        let mut p = NullPrefetcher::new();
        let accesses = vec![
            MemAccess::read(7, 0x400, 0x40),
            MemAccess::read(0, 0x400, 0x80),
        ];
        let summary = run(&mut sys, &mut p, &mut accesses.into_iter(), 10);
        assert_eq!(summary.accesses, 1);
        assert_eq!(summary.skipped_accesses, 1);
    }

    #[test]
    fn run_job_is_reproducible_and_skips_nothing() {
        let job = SimJob::synthetic(
            trace::Application::OltpDb2,
            trace::GeneratorConfig::default().with_cpus(2),
            7,
            2,
            HierarchyConfig::scaled(),
            NullPrefetcher::new(),
            5_000,
        );
        let (first, _) = run_job(&job).expect("synthetic source");
        let (second, _) = run_job(&job).expect("synthetic source");
        assert_eq!(first, second, "same job must give bit-identical summaries");
        assert_eq!(first.accesses, 5_000);
        // A well-formed job pairs generator and system CPU counts, so nothing
        // is silently dropped.
        assert_eq!(first.skipped_accesses, 0);
    }

    #[test]
    fn mismatched_generator_reports_skips() {
        // Generator emits accesses for 4 CPUs but the system only has 2:
        // roughly half the stream must be counted as skipped.
        let job = SimJob::synthetic(
            trace::Application::Ocean,
            trace::GeneratorConfig::default().with_cpus(4),
            7,
            2,
            HierarchyConfig::scaled(),
            NullPrefetcher::new(),
            4_000,
        );
        let (summary, _) = run_job(&job).expect("synthetic source");
        assert!(summary.skipped_accesses > 0, "mismatch must be visible");
        assert_eq!(summary.accesses + summary.skipped_accesses, 4_000);
    }

    #[test]
    fn sim_job_serializes_and_deserializes_by_hand_written_impls() {
        // `Option<u32>` stands in for any serializable prefetcher spec (the
        // engine uses its own spec type here).
        let job: SimJob<Option<u32>> = SimJob {
            source: TraceSource::text_file("traces/t.txt"),
            cpus: 3,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: Some(7),
            accesses: 1234,
        };
        let value = job.to_value();
        let back: SimJob<Option<u32>> = Deserialize::from_value(&value).expect("round trip");
        assert_eq!(job, back);
    }

    #[test]
    fn batched_and_unbatched_loops_agree_bit_for_bit() {
        // NextLine issues a request on every L1 miss, so both the batching
        // seam and the eviction-callback ordering are exercised.
        let accesses: Vec<MemAccess> = (0..400)
            .map(|i| MemAccess::read(0, 0x400, (i % 97) * 64))
            .collect();

        let mut sys_a = MultiCpuSystem::new(1, &tiny_config());
        let mut a_pref = NextLine;
        let batched = run(
            &mut sys_a,
            &mut a_pref,
            &mut accesses.clone().into_iter(),
            400,
        );

        // The pre-batching loop: one request vector per access through
        // `Prefetcher::on_access`, applied in order.
        let mut sys_b = MultiCpuSystem::new(1, &tiny_config());
        let mut b_pref = NextLine;
        let mut unbatched = RunSummary::default();
        for access in &accesses {
            let outcome = sys_b.access(access);
            unbatched.accesses += 1;
            let requests = b_pref.on_access(access, &outcome);
            unbatched.prefetch_requests += requests.len() as u64;
            for req in requests {
                assert_eq!(req.level, PrefetchLevel::L1);
                if let Some(victim) = sys_b.cpu_mut(req.cpu).stream_fill(req.addr) {
                    b_pref.on_stream_eviction(req.cpu, victim.block_addr);
                }
            }
        }
        unbatched.l1 = sys_b.l1_stats_total();
        unbatched.l2 = sys_b.l2_stats_total();
        unbatched.l1_breakdown = *sys_b.l1_breakdown();
        unbatched.l2_breakdown = *sys_b.l2_breakdown();

        assert_eq!(batched, unbatched);
        assert!(batched.prefetch_requests > 0);
    }

    #[test]
    fn metered_run_counts_ops_without_changing_results() {
        let job = SimJob::synthetic(
            trace::Application::Sparse,
            trace::GeneratorConfig::default().with_cpus(2),
            11,
            2,
            HierarchyConfig::scaled(),
            NullPrefetcher::new(),
            5_000,
        );
        let (plain, _) = run_job(&job).expect("synthetic source");
        let (metered, _, driver) =
            run_job_metered(&job, &metrics::MetricsConfig::enabled()).expect("synthetic source");
        assert_eq!(plain, metered, "telemetry must not perturb the simulation");
        assert_eq!(driver.cache_ops, 5_000, "null prefetcher: demand ops only");
        assert_eq!(driver.prefetch_issues, 0);
        assert_eq!(driver.request_batches, 0);
        assert!(driver.elapsed_seconds > 0.0);
        assert!(driver.accesses_per_sec > 0.0);

        // Disabled collection reports all-zero metrics and the same summary.
        let (disabled, _, zeros) =
            run_job_metered(&job, &metrics::MetricsConfig::disabled()).expect("synthetic source");
        assert_eq!(plain, disabled);
        assert_eq!(zeros, DriverMetrics::default());
    }

    #[test]
    fn meter_counts_prefetch_issues_and_batches() {
        let mut sys = MultiCpuSystem::new(1, &tiny_config());
        let mut p = NextLine;
        let accesses: Vec<MemAccess> = (0..100)
            .map(|i| MemAccess::read(0, 0x400, i * 64))
            .collect();
        let (summary, driver) = run_metered(
            &mut sys,
            &mut p,
            &mut accesses.into_iter(),
            100,
            &metrics::MetricsConfig::enabled(),
        );
        assert!(summary.prefetch_requests > 0);
        assert_eq!(driver.prefetch_issues, summary.prefetch_requests);
        assert_eq!(
            driver.cache_ops,
            summary.accesses + driver.prefetch_issues,
            "cache ops = demand accesses + applied fills"
        );
        assert_eq!(driver.request_batches, summary.prefetch_requests);
        assert_eq!(
            driver.max_batch_len, 1,
            "NextLine issues one request at a time"
        );
    }

    #[test]
    fn job_with_missing_trace_file_fails_cleanly() {
        let job = SimJob {
            source: TraceSource::binary_file("/nonexistent/trace.bin"),
            cpus: 1,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher: NullPrefetcher::new(),
            accesses: 100,
        };
        assert!(run_job(&job).is_err());
    }
}
