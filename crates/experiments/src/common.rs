//! Shared experiment infrastructure: configuration, job construction and
//! per-class aggregation.
//!
//! Every figure declares a list of [`SimJob`]s and hands it to the engine;
//! the helpers here build those jobs from the experiment-wide scale
//! parameters ([`ExperimentConfig`]) so the modules only describe *what* to
//! run, never *how*.

use engine::{JobResult, PrefetcherSpec, RunOptions, SimJob};
use memsim::{HierarchyConfig, RunSummary};
use serde::{Deserialize, Serialize};
use sms::{CoverageLevel, CoverageStats};
use stats::mean;
use timing::TimingConfig;
use trace::{Application, ApplicationClass, GeneratorConfig};

/// Scale and substrate parameters shared by all experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Number of simulated processors (the paper uses 16; the default here is
    /// 4 to keep laptop runtimes reasonable).  Coverage is *not* insensitive
    /// to it: at a fixed total trace length, more processors means fewer
    /// accesses per processor to train on — OLTP off-chip coverage falls
    /// from about 0.40 at 4 CPUs to 0.20 at 16 CPUs over 300 k accesses.
    pub cpus: usize,
    /// Demand accesses simulated per application.
    pub accesses: usize,
    /// Seed for the deterministic workload generators.
    pub seed: u64,
    /// Cache hierarchy (defaults to the scaled hierarchy so the shorter
    /// synthetic traces still produce off-chip misses).
    pub hierarchy: HierarchyConfig,
    /// Engine worker threads used to execute job lists (`0` = one per
    /// available hardware thread, `1` = serial).
    pub workers: usize,
}

impl ExperimentConfig {
    /// The default experiment scale: 4 CPUs, 300 k accesses per application.
    pub fn full() -> Self {
        Self {
            cpus: 4,
            accesses: 300_000,
            seed: 2006,
            hierarchy: HierarchyConfig::scaled(),
            workers: 0,
        }
    }

    /// A reduced scale for quick runs and continuous integration.
    pub fn quick() -> Self {
        Self {
            cpus: 2,
            accesses: 60_000,
            seed: 2006,
            hierarchy: HierarchyConfig::scaled(),
            workers: 0,
        }
    }

    /// A tiny scale for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            cpus: 2,
            accesses: 20_000,
            seed: 2006,
            hierarchy: HierarchyConfig::scaled(),
            workers: 0,
        }
    }

    /// Returns a copy with an explicit engine worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The generator configuration implied by this experiment configuration.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig::default().with_cpus(self.cpus)
    }

    /// The engine options implied by this experiment configuration:
    /// [`workers`](Self::workers) workers over the built-in plugins.
    pub fn engine(&self) -> RunOptions<'static> {
        RunOptions::new(self.workers)
    }

    /// A job running `app` with `prefetcher` on this configuration's
    /// hierarchy.
    pub fn job(&self, app: Application, prefetcher: PrefetcherSpec) -> SimJob {
        self.job_with_hierarchy(app, prefetcher, self.hierarchy)
    }

    /// A job with an explicit hierarchy (used by the block-size sweep).
    pub fn job_with_hierarchy(
        &self,
        app: Application,
        prefetcher: PrefetcherSpec,
        hierarchy: HierarchyConfig,
    ) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            self.generator(),
            self.seed,
            self.cpus,
            hierarchy,
            prefetcher,
            self.accesses,
        ))
    }

    /// A baseline (no prefetching) job for `app`.
    pub fn baseline_job(&self, app: Application) -> SimJob {
        self.job(app, PrefetcherSpec::null())
    }

    /// A job evaluated through the timing model with `segments` paired
    /// sampling segments.
    pub fn timing_job(
        &self,
        app: Application,
        prefetcher: PrefetcherSpec,
        timing: TimingConfig,
        segments: usize,
    ) -> SimJob {
        self.job(app, prefetcher).with_timing(timing, segments)
    }

    /// Executes `jobs` with this configuration's engine settings, returning
    /// results in submission order.
    pub fn run_jobs(&self, jobs: &[SimJob]) -> Vec<JobResult> {
        self.run_jobs_traced(jobs, &tracelog::Trace::disabled())
    }

    /// [`run_jobs`](Self::run_jobs) with span tracing: workers, jobs, and
    /// each job's per-segment steps record into `trace` when it is enabled.  The
    /// results are bit-identical either way — a disabled trace records
    /// nothing and costs nothing.
    ///
    /// # Panics
    ///
    /// As [`run_jobs`](Self::run_jobs): panics if a job fails to prepare
    /// (cannot happen for catalog-declared jobs unless the build is broken).
    pub fn run_jobs_traced(&self, jobs: &[SimJob], trace: &tracelog::Trace) -> Vec<JobResult> {
        let options = RunOptions {
            trace,
            ..self.engine()
        };
        let mut results = Vec::with_capacity(jobs.len());
        engine::execute(jobs, &options, &mut |result, _| results.push(result))
            .expect("job failed to prepare");
        results
    }

    /// Coverage of a predictor run against a baseline run at `level`.
    pub fn coverage(
        &self,
        baseline: &RunSummary,
        with: &RunSummary,
        level: CoverageLevel,
    ) -> CoverageStats {
        CoverageStats::from_runs(baseline, with, level)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Per-application coverage results aggregated into a class average.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassAverage {
    /// Mean coverage fraction over the class's applications.
    pub coverage: f64,
    /// Mean uncovered fraction.
    pub uncovered: f64,
    /// Mean overprediction fraction.
    pub overpredictions: f64,
}

/// Averages coverage statistics over a set of per-application results.
pub fn class_average(stats: &[CoverageStats]) -> ClassAverage {
    ClassAverage {
        coverage: mean(&stats.iter().map(|s| s.coverage()).collect::<Vec<_>>()),
        uncovered: mean(&stats.iter().map(|s| s.uncovered()).collect::<Vec<_>>()),
        overpredictions: mean(
            &stats
                .iter()
                .map(|s| s.overprediction_fraction())
                .collect::<Vec<_>>(),
        ),
    }
}

/// Resolves an application selection: an empty slice means the full suite
/// (the convention of the per-application figures 5, 11, 12 and 13).
pub fn apps_or_all(apps: &[Application]) -> Vec<Application> {
    if apps.is_empty() {
        Application::ALL.to_vec()
    } else {
        apps.to_vec()
    }
}

/// The applications evaluated for a class in class-level figures.
///
/// Quick-mode experiments evaluate one representative application per class to
/// bound runtime; full runs evaluate the complete suite.
pub fn class_applications(class: ApplicationClass, representative_only: bool) -> Vec<Application> {
    if representative_only {
        match class {
            ApplicationClass::Oltp => vec![Application::OltpDb2],
            ApplicationClass::Dss => vec![Application::DssQry1, Application::DssQry2],
            ApplicationClass::Web => vec![Application::WebApache],
            ApplicationClass::Scientific => vec![Application::Ocean, Application::Sparse],
        }
    } else {
        class.applications().to_vec()
    }
}

/// The class/application pairs evaluated by a class-level figure, in figure
/// order.
pub fn classes_with_applications(
    representative_only: bool,
) -> Vec<(ApplicationClass, Vec<Application>)> {
    ApplicationClass::ALL
        .into_iter()
        .map(|class| (class, class_applications(class, representative_only)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms::SmsConfig;

    #[test]
    fn baseline_and_sms_jobs_complete() {
        let cfg = ExperimentConfig::tiny();
        let jobs = vec![
            cfg.baseline_job(Application::Sparse),
            cfg.job(
                Application::Sparse,
                PrefetcherSpec::sms(&SmsConfig::default()),
            ),
        ];
        let results = cfg.run_jobs(&jobs);
        let baseline = &results[0].summary;
        assert_eq!(baseline.accesses, cfg.accesses as u64);
        assert_eq!(baseline.skipped_accesses, 0);
        let cov = cfg.coverage(baseline, &results[1].summary, CoverageLevel::L1);
        assert!(cov.coverage() > 0.0);
    }

    #[test]
    fn class_average_averages() {
        let a = CoverageStats {
            baseline_misses: 100,
            remaining_misses: 40,
            overpredictions: 10,
            useful_prefetches: 60,
        };
        let b = CoverageStats {
            baseline_misses: 100,
            remaining_misses: 60,
            overpredictions: 30,
            useful_prefetches: 40,
        };
        let avg = class_average(&[a, b]);
        assert!((avg.coverage - 0.5).abs() < 1e-12);
        assert!((avg.uncovered - 0.5).abs() < 1e-12);
        assert!((avg.overpredictions - 0.2).abs() < 1e-12);
    }

    #[test]
    fn representative_sets_are_subsets() {
        for class in ApplicationClass::ALL {
            let reps = class_applications(class, true);
            let all = class_applications(class, false);
            assert!(!reps.is_empty());
            assert!(reps.iter().all(|a| all.contains(a)));
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(ExperimentConfig::tiny().accesses < ExperimentConfig::quick().accesses);
        assert!(ExperimentConfig::quick().accesses < ExperimentConfig::full().accesses);
    }

    #[test]
    fn worker_override_threads_through() {
        let cfg = ExperimentConfig::tiny().with_workers(3);
        assert_eq!(cfg.engine().workers, 3);
    }
}
