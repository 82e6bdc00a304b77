//! Figure 5: memory access density — the fraction of L1/L2 read misses that
//! fall in spatial region generations of each density class (2 kB regions).

use crate::common::ExperimentConfig;
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::{DensityBin, DensityHistogram, RegionConfig};
use trace::Application;

/// Density histograms for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityResult {
    /// Application measured.
    pub app: Application,
    /// L1 read-miss density histogram.
    pub l1: DensityHistogram,
    /// Off-chip read-miss density histogram.
    pub l2: DensityHistogram,
}

/// Complete result of the Figure 5 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig5Result {
    /// One entry per application, in suite order.
    pub per_app: Vec<DensityResult>,
}

/// The engine jobs this figure declares: one density-probe run per
/// application.
pub fn jobs(config: &ExperimentConfig, apps: &[Application]) -> Vec<SimJob> {
    apps.iter()
        .map(|&app| {
            config.job(
                app,
                PrefetcherSpec::density_probe(&RegionConfig::paper_default()),
            )
        })
        .collect()
}

/// Runs the Figure 5 experiment over `apps`.
pub fn run(config: &ExperimentConfig, apps: &[Application]) -> Fig5Result {
    let results = config.run_jobs(&jobs(config, apps));
    from_results(apps, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(apps: &[Application], results: &[JobResult]) -> Fig5Result {
    assert_eq!(results.len(), apps.len(), "one density result per app");
    let mut result = Fig5Result::default();
    for (&app, job) in apps.iter().zip(results) {
        let density = job.probe.density().expect("density probe job");
        result.per_app.push(DensityResult {
            app,
            l1: density.l1,
            l2: density.l2,
        });
    }
    result
}

/// Renders the figure as a text table (one row per application and level).
pub fn table(result: &Fig5Result) -> Table {
    let mut headers = vec!["App".to_string(), "Level".to_string()];
    headers.extend(DensityBin::PAPER_BINS.iter().map(|b| b.label()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 5: fraction of read misses by generation density (2kB regions)",
        &headers_ref,
    );
    for entry in &result.per_app {
        for (level, hist) in [("L1", &entry.l1), ("L2", &entry.l2)] {
            let mut row = vec![entry.app.short_name().to_string(), level.to_string()];
            row.extend(hist.fractions().iter().map(|&f| Table::pct(f)));
            t.push_row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Application;

    #[test]
    fn fractions_sum_to_one_and_shapes_differ() {
        let config = ExperimentConfig::tiny();
        let result = run(&config, &[Application::OltpDb2, Application::Ocean]);
        assert_eq!(result.per_app.len(), 2);
        for entry in &result.per_app {
            let sum: f64 = entry.l1.fractions().iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{:?} fractions must sum to 1",
                entry.app
            );
        }
        // OLTP is dominated by sparse generations, ocean by dense ones.
        let oltp = &result.per_app[0].l1;
        let ocean = &result.per_app[1].l1;
        let oltp_sparse: f64 = oltp.fractions()[..3].iter().sum();
        let ocean_dense: f64 = ocean.fractions()[4..].iter().sum();
        assert!(
            oltp_sparse > 0.4,
            "OLTP sparse-generation share: {oltp_sparse}"
        );
        assert!(
            ocean_dense > 0.4,
            "ocean dense-generation share: {ocean_dense}"
        );
        let rendered = table(&result).to_string();
        assert!(rendered.contains("ocean"));
    }
}
