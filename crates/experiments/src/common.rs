//! Shared experiment infrastructure: configuration, job construction,
//! per-class aggregation and the class sweep.
//!
//! Every figure declares a list of [`SimJob`]s and hands it to the engine;
//! the helpers here build those jobs from the experiment-wide scale
//! parameters ([`ExperimentConfig`]) so the modules only describe *what* to
//! run, never *how*.
//!
//! Most of the paper's evaluation is one experiment: per workload class,
//! SMS's L1 read-miss coverage against a no-prefetch baseline while one
//! design parameter varies (the index scheme, PHT size, training structure,
//! region size or AGT size).  [`class_sweep_jobs`] declares that sweep,
//! [`class_sweep_points`] walks its results and [`coverage_grid`] prints the
//! class × variant table, so Figures 6–10 and the AGT sizing experiment
//! each declare only their variants and their per-point arithmetic.

use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, RunOptions, SimJob};
use memsim::{HierarchyConfig, RunSummary};
use serde::{Deserialize, Serialize};
use sms::{CoverageLevel, CoverageStats, PhtCapacity};
use stats::mean;
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
            ..Self::full()
        }
    }

    /// A tiny scale for unit/integration tests.
    pub fn tiny() -> Self {
        Self {
            accesses: 20_000,
            ..Self::quick()
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
        engine::execute(jobs, &options, &mut |result| results.push(result))
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

    /// The L1 read-miss coverage of each application at one point of a
    /// class sweep.
    pub fn l1_coverage(&self, runs: &[SweepRun<'_>]) -> Vec<CoverageStats> {
        runs.iter()
            .map(|run| self.coverage(&run.baseline.summary, &run.with.summary, CoverageLevel::L1))
            .collect()
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

/// The applications evaluated for a class in class-level figures.
///
/// Quick-mode experiments evaluate six representative applications to bound
/// runtime: one each for OLTP and web, two each for DSS and scientific.
/// Full runs evaluate the complete suite.
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

/// One application at one point of a class sweep: its no-prefetch baseline
/// and its run with the point's variant.
#[derive(Debug, Clone, Copy)]
pub struct SweepRun<'a> {
    /// The baseline run, shared by every variant of the class.
    pub baseline: &'a JobResult,
    /// The run with the variant's prefetcher.
    pub with: &'a JobResult,
}

/// The engine jobs of a class sweep: per class, one baseline per
/// application, then one job per (variant, application) running
/// `prefetcher(variant)`.
pub fn class_sweep_jobs<V: Copy>(
    config: &ExperimentConfig,
    representative_only: bool,
    variants: &[V],
    prefetcher: impl Fn(V) -> PrefetcherSpec,
) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for (_, apps) in classes_with_applications(representative_only) {
        jobs.extend(apps.iter().map(|&app| config.baseline_job(app)));
        for &variant in variants {
            let spec = prefetcher(variant);
            jobs.extend(apps.iter().map(|&app| config.job(app, spec.clone())));
        }
    }
    jobs
}

/// Walks the results of [`class_sweep_jobs`], in submission order: calls
/// `point` once per class and variant with each application's runs, and
/// collects what it returns.
///
/// # Panics
///
/// Panics unless `results` is exactly the sweep's result list.
pub fn class_sweep_points<V: Copy, P>(
    representative_only: bool,
    variants: &[V],
    results: &[JobResult],
    mut point: impl FnMut(ApplicationClass, V, &[SweepRun<'_>]) -> P,
) -> Vec<P> {
    let mut cursor = results.iter();
    let mut points = Vec::new();
    for (class, apps) in classes_with_applications(representative_only) {
        let baselines: Vec<&JobResult> = apps
            .iter()
            .map(|_| cursor.next().expect("baseline"))
            .collect();
        for &variant in variants {
            let runs: Vec<SweepRun<'_>> = baselines
                .iter()
                .map(|&baseline| SweepRun {
                    baseline,
                    with: cursor.next().expect("sweep run"),
                })
                .collect();
            points.push(point(class, variant, &runs));
        }
    }
    assert!(
        cursor.next().is_none(),
        "job declaration and result post-processing fell out of sync"
    );
    points
}

/// Renders class-sweep coverage as a grid: one row per distinct label (the
/// class, then the variant's row part, if any) in the order the points
/// first name it, and one column per entry of `columns`, headed by
/// `column_label`.  A cell no point fills reads 0.0%.
pub fn coverage_grid<C: Copy + PartialEq>(
    title: &str,
    row_headers: &[&str],
    columns: &[C],
    column_label: impl Fn(C) -> String,
    points: impl IntoIterator<Item = (Vec<String>, C, f64)>,
) -> Table {
    let mut headers: Vec<String> = row_headers.iter().map(|h| h.to_string()).collect();
    headers.extend(columns.iter().map(|&column| column_label(column)));
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows: Vec<(Vec<String>, Vec<Option<f64>>)> = Vec::new();
    for (label, column, coverage) in points {
        let row = match rows.iter().position(|(seen, _)| *seen == label) {
            Some(row) => row,
            None => {
                rows.push((label, vec![None; columns.len()]));
                rows.len() - 1
            }
        };
        if let Some(cell) = columns.iter().position(|&c| c == column) {
            rows[row].1[cell].get_or_insert(coverage);
        }
    }
    let mut table = Table::new(title, &headers);
    for (mut row, cells) in rows {
        row.extend(cells.iter().map(|cell| Table::pct(cell.unwrap_or(0.0))));
        table.push_row(row);
    }
    table
}

/// PHT sizes swept by Figures 7 and 9 (`None` is the unbounded table).
pub const PHT_SIZES: [Option<usize>; 5] = [Some(256), Some(1024), Some(4096), Some(16384), None];

/// The 16-way set-associative PHT of `entries` entries (`None`: unbounded)
/// that Figures 7 and 9 sweep.
pub fn pht_capacity(entries: Option<usize>) -> PhtCapacity {
    match entries {
        Some(entries) => PhtCapacity::Bounded {
            entries,
            associativity: 16,
        },
        None => PhtCapacity::Unbounded,
    }
}

/// Every `(row, PHT size)` pair, rows outermost: the variants of a PHT-size
/// sweep.
pub fn with_pht_sizes<T: Copy>(rows: &[T]) -> Vec<(T, Option<usize>)> {
    rows.iter()
        .flat_map(|&row| PHT_SIZES.map(|entries| (row, entries)))
        .collect()
}

/// A PHT size as a column header: its entry count, or `infinite`.
pub fn pht_size_label(entries: Option<usize>) -> String {
    match entries {
        Some(n) => n.to_string(),
        None => "infinite".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms::{IndexScheme, SmsConfig};

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
    fn a_class_sweep_declares_baselines_then_every_variant_and_walks_back_in_order() {
        let config = ExperimentConfig::tiny();
        let variants = [IndexScheme::Address, IndexScheme::PcOffset];
        let spec = |scheme| {
            PrefetcherSpec::sms(&SmsConfig::idealized(
                scheme,
                sms::RegionConfig::paper_default(),
            ))
        };
        let jobs = class_sweep_jobs(&config, true, &variants, spec);
        let mut expected = Vec::new();
        for (_, apps) in classes_with_applications(true) {
            expected.extend(apps.iter().map(|&app| config.baseline_job(app)));
            for scheme in variants {
                expected.extend(apps.iter().map(|&app| config.job(app, spec(scheme))));
            }
        }
        assert_eq!(jobs, expected);

        let results = stand_in_results(jobs.len());
        let points = class_sweep_points(true, &variants, &results, |class, scheme, runs| {
            let pairs: Vec<(usize, usize)> = runs
                .iter()
                .map(|run| (run.baseline.job_index, run.with.job_index))
                .collect();
            (class, scheme, pairs)
        });
        assert_eq!(points.len(), ApplicationClass::ALL.len() * variants.len());
        for (class, scheme, pairs) in points {
            for (baseline, with) in pairs {
                assert_eq!(jobs[baseline].sim.prefetcher, PrefetcherSpec::null());
                assert_eq!(jobs[with].sim.prefetcher, spec(scheme), "{class}");
                assert_eq!(jobs[baseline].sim.source, jobs[with].sim.source);
            }
        }
    }

    /// Results without simulation, whose index names the job they stand in
    /// for.
    fn stand_in_results(jobs: usize) -> Vec<JobResult> {
        (0..jobs)
            .map(|job_index| JobResult {
                job_index,
                summary: RunSummary::default(),
                probe: engine::ProbeReport::none(),
                timing: None,
                warnings: Vec::new(),
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "fell out of sync")]
    fn a_class_sweep_refuses_a_result_list_longer_than_its_own() {
        let config = ExperimentConfig::tiny();
        let jobs = class_sweep_jobs(&config, true, &[()], |_| PrefetcherSpec::null());
        let _ = class_sweep_points(true, &[()], &stand_in_results(jobs.len() + 1), |_, _, _| ());
    }

    #[test]
    fn the_coverage_grid_keeps_first_seen_rows_and_fills_gaps_with_zero() {
        let table = coverage_grid(
            "Grid",
            &["Class", "Trainer"],
            &[1u32, 2],
            |n| format!("{n}B"),
            [
                (vec!["DSS".to_string(), "AGT".to_string()], 2, 0.5),
                (vec!["OLTP".to_string(), "LS".to_string()], 1, 0.25),
                (vec!["DSS".to_string(), "AGT".to_string()], 1, 0.125),
                (vec!["DSS".to_string(), "AGT".to_string()], 1, 0.75),
            ],
        );
        assert_eq!(table.headers, ["Class", "Trainer", "1B", "2B"]);
        assert_eq!(
            table.rows,
            [
                ["DSS", "AGT", "12.5%", "50.0%"],
                ["OLTP", "LS", "25.0%", "0.0%"],
            ]
        );
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
