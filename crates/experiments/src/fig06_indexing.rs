//! Figure 6: prediction-index comparison (Address, PC+address, PC, PC+offset)
//! with an unbounded PHT.

use crate::common::{
    class_average, class_sweep_jobs, class_sweep_points, ClassAverage, ExperimentConfig,
};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::{IndexScheme, RegionConfig, SmsConfig};
use trace::ApplicationClass;

/// Result for one (class, index scheme) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexingPoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Index scheme evaluated.
    pub scheme: IndexScheme,
    /// Class-average coverage / uncovered / overprediction fractions.
    pub average: ClassAverage,
}

/// Complete result of the Figure 6 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One point per (class, scheme).
    pub points: Vec<IndexingPoint>,
}

/// The engine jobs this figure declares: a class sweep of idealized SMS
/// over the index schemes.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(config, representative_only, &IndexScheme::ALL, |scheme| {
        PrefetcherSpec::sms(&SmsConfig::idealized(scheme, RegionConfig::paper_default()))
    })
}

/// Runs the Figure 6 experiment.
pub fn run(config: &ExperimentConfig, representative_only: bool) -> Fig6Result {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig6Result {
    let points = class_sweep_points(
        representative_only,
        &IndexScheme::ALL,
        results,
        |class, scheme, runs| IndexingPoint {
            class,
            scheme,
            average: class_average(&config.l1_coverage(runs)),
        },
    );
    Fig6Result { points }
}

/// Renders the figure as a text table.
pub fn table(result: &Fig6Result) -> Table {
    let mut t = Table::new(
        "Figure 6: index comparison, L1 read misses, unbounded PHT",
        &["Class", "Index", "Coverage", "Uncovered", "Overpredictions"],
    );
    for p in &result.points {
        t.push_row(vec![
            p.class.to_string(),
            p.scheme.label().to_string(),
            Table::pct(p.average.coverage),
            Table::pct(p.average.uncovered),
            Table::pct(p.average.overpredictions),
        ]);
    }
    t
}

/// Convenience lookup of the coverage for a (class, scheme) pair.
pub fn coverage_of(result: &Fig6Result, class: ApplicationClass, scheme: IndexScheme) -> f64 {
    result
        .points
        .iter()
        .find(|p| p.class == class && p.scheme == scheme)
        .map(|p| p.average.coverage)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_offset_beats_address_on_dss() {
        let result = run(&ExperimentConfig::tiny(), true);
        assert_eq!(result.points.len(), 16);
        // DSS scans visit data once: address-based indexing cannot predict
        // previously-unvisited regions, PC+offset can (the paper's headline
        // qualitative result).
        let dss_pc_off = coverage_of(&result, ApplicationClass::Dss, IndexScheme::PcOffset);
        let dss_addr = coverage_of(&result, ApplicationClass::Dss, IndexScheme::Address);
        assert!(
            dss_pc_off > dss_addr + 0.1,
            "PC+offset ({dss_pc_off:.2}) must clearly beat Address ({dss_addr:.2}) on DSS"
        );
        // All coverages are valid fractions.
        for p in &result.points {
            assert!(p.average.coverage <= 1.0 + 1e-9);
        }
        assert!(table(&result).to_string().contains("PC+off"));
    }
}
