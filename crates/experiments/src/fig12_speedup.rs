//! Figure 12: speedup of SMS over the baseline system with 95 % confidence
//! intervals, per application, plus the geometric mean.

use crate::common::ExperimentConfig;
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::SmsConfig;
use stats::{geometric_mean, ConfidenceInterval};
use timing::{speedup_with_ci, TimingConfig, TimingResult};
use trace::{Application, ApplicationClass};

/// Number of paired-sampling segments per run.
pub const SEGMENTS: usize = 20;

/// Speedup of one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupPoint {
    /// Application evaluated.
    pub app: Application,
    /// Speedup with its 95 % confidence interval (paired segments).
    pub speedup: ConfidenceInterval,
    /// Aggregate speedup from total cycles (base / SMS).
    pub aggregate: f64,
}

/// Complete result of the Figure 12 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig12Result {
    /// One point per application.
    pub points: Vec<SpeedupPoint>,
    /// Geometric mean of the aggregate speedups.
    pub geometric_mean: f64,
}

/// System-busy fraction per workload class: commercial workloads spend far
/// more time in the operating system than scientific kernels.
fn system_busy_fraction(class: ApplicationClass) -> f64 {
    match class {
        ApplicationClass::Oltp => 0.25,
        ApplicationClass::Dss => 0.10,
        ApplicationClass::Web => 0.30,
        ApplicationClass::Scientific => 0.02,
    }
}

/// The pair of timing jobs (baseline, practical SMS) evaluating one
/// application; shared with Figure 13.
pub fn timing_jobs(config: &ExperimentConfig, app: Application) -> [SimJob; 2] {
    let timing =
        TimingConfig::table1().with_system_busy_fraction(system_busy_fraction(app.class()));
    [
        PrefetcherSpec::null(),
        PrefetcherSpec::sms(&SmsConfig::paper_default()),
    ]
    .map(|prefetcher| config.job(app, prefetcher).with_timing(timing, SEGMENTS))
}

/// The engine jobs this figure declares: a (baseline, SMS) timing pair per
/// application.
pub fn jobs(config: &ExperimentConfig, apps: &[Application]) -> Vec<SimJob> {
    apps.iter()
        .flat_map(|&app| timing_jobs(config, app))
        .collect()
}

/// Extracts the per-application (baseline, SMS) timing pairs from the
/// [`JobResult`]s of this figure's [`jobs`] list, in submission order;
/// shared with Figure 13, which reads the same pairs.
pub fn evaluations_from_results(results: &[JobResult]) -> Vec<(TimingResult, TimingResult)> {
    results
        .chunks_exact(2)
        .map(|pair| {
            let base = pair[0].timing.clone().expect("baseline timing job");
            let sms = pair[1].timing.clone().expect("sms timing job");
            (base, sms)
        })
        .collect()
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(apps: &[Application], results: &[JobResult]) -> Fig12Result {
    let evaluations = evaluations_from_results(results);
    assert_eq!(apps.len(), evaluations.len(), "one timing pair per app");
    let mut result = Fig12Result::default();
    let mut aggregates = Vec::new();
    for (app, (base_result, sms_result)) in apps.iter().zip(&evaluations) {
        let ci = speedup_with_ci(base_result, sms_result);
        let aggregate = base_result.total_cycles / sms_result.total_cycles.max(1e-9);
        aggregates.push(aggregate);
        result.points.push(SpeedupPoint {
            app: *app,
            speedup: ci,
            aggregate,
        });
    }
    result.geometric_mean = geometric_mean(&aggregates);
    result
}

/// Runs the Figure 12 experiment over `apps`.
pub fn run(config: &ExperimentConfig, apps: &[Application]) -> Fig12Result {
    from_results(apps, &config.run_jobs(&jobs(config, apps)))
}

/// Renders the figure as a text table.
pub fn table(result: &Fig12Result) -> Table {
    let mut t = Table::new(
        "Figure 12: speedup over the baseline (95% confidence intervals)",
        &["App", "Speedup", "95% CI", "Aggregate"],
    );
    for p in &result.points {
        t.push_row(vec![
            p.app.short_name().to_string(),
            format!("{:.3}", p.speedup.mean),
            format!("±{:.3}", p.speedup.half_width),
            format!("{:.3}", p.aggregate),
        ]);
    }
    t.push_row(vec![
        "geomean".to_string(),
        format!("{:.3}", result.geometric_mean),
        String::new(),
        format!("{:.3}", result.geometric_mean),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sms_speeds_up_predictable_workloads() {
        let config = ExperimentConfig::tiny();
        let result = run(&config, &[Application::Sparse, Application::OltpDb2]);
        assert_eq!(result.points.len(), 2);
        let sparse = &result.points[0];
        assert!(
            sparse.aggregate > 1.05,
            "sparse should speed up clearly (got {:.3})",
            sparse.aggregate
        );
        // OLTP speedup is muted relative to coverage but must not be a
        // slowdown beyond noise.
        let oltp = &result.points[1];
        assert!(
            oltp.aggregate > 0.95,
            "OLTP aggregate {:.3}",
            oltp.aggregate
        );
        assert!(
            sparse.aggregate > oltp.aggregate,
            "scientific speedup should exceed OLTP speedup"
        );
        assert!(result.geometric_mean > 1.0);
        assert!(table(&result).to_string().contains("geomean"));
    }
}
