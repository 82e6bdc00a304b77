//! Figure 10: coverage versus spatial region size (PC+offset indexing, AGT
//! training, unbounded PHT).

use crate::common::{
    class_average, class_sweep_jobs, class_sweep_points, coverage_grid, ExperimentConfig,
};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::{IndexScheme, RegionConfig, SmsConfig};
use trace::ApplicationClass;

/// Region sizes swept by the paper (bytes).
pub const REGION_SIZES: [u64; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// Coverage at one (class, region size) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSizePoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Spatial region size in bytes.
    pub region_bytes: u64,
    /// Class-average L1 coverage.
    pub coverage: f64,
}

/// Complete result of the Figure 10 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig10Result {
    /// One point per (class, region size).
    pub points: Vec<RegionSizePoint>,
}

/// The engine jobs this figure declares: a class sweep of idealized
/// PC+offset SMS over the region sizes.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(config, representative_only, &REGION_SIZES, |region_bytes| {
        PrefetcherSpec::sms(&SmsConfig::idealized(
            IndexScheme::PcOffset,
            RegionConfig::new(region_bytes, 64),
        ))
    })
}

/// Runs the Figure 10 experiment.
pub fn run(config: &ExperimentConfig, representative_only: bool) -> Fig10Result {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig10Result {
    let points = class_sweep_points(
        representative_only,
        &REGION_SIZES,
        results,
        |class, region_bytes, runs| RegionSizePoint {
            class,
            region_bytes,
            coverage: class_average(&config.l1_coverage(runs)).coverage,
        },
    );
    Fig10Result { points }
}

/// Renders the figure as a text table.
pub fn table(result: &Fig10Result) -> Table {
    coverage_grid(
        "Figure 10: coverage vs spatial region size (PC+offset, AGT, unbounded PHT)",
        &["Class"],
        &REGION_SIZES,
        |size| format!("{size}B"),
        result
            .points
            .iter()
            .map(|p| (vec![p.class.to_string()], p.region_bytes, p.coverage)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_grows_from_tiny_regions_to_2kb() {
        let result = run(&ExperimentConfig::tiny(), true);
        assert_eq!(result.points.len(), 4 * REGION_SIZES.len());
        for class in [ApplicationClass::Dss, ApplicationClass::Scientific] {
            let cov = |size: u64| {
                result
                    .points
                    .iter()
                    .find(|p| p.class == class && p.region_bytes == size)
                    .map(|p| p.coverage)
                    .unwrap()
            };
            assert!(
                cov(2048) > cov(128),
                "{class}: 2kB regions ({:.2}) should beat 128B regions ({:.2})",
                cov(2048),
                cov(128)
            );
        }
        assert!(table(&result).to_string().contains("2048B"));
    }
}
