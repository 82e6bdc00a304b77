//! Section 4.5: Active Generation Table sizing.
//!
//! The paper reports that a 32-entry filter table and a 64-entry accumulation
//! table achieve the same coverage as unbounded tables.  This experiment
//! sweeps AGT sizes and reports class-average coverage.

use crate::common::{
    class_average, class_sweep_jobs, class_sweep_points, coverage_grid, ExperimentConfig,
};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::{AgtConfig, IndexScheme, PhtCapacity, RegionConfig, SmsConfig};
use trace::ApplicationClass;

/// The (filter, accumulation) sizes swept; `None` is the unbounded AGT.
pub const AGT_SIZES: [Option<(usize, usize)>; 5] = [
    Some((4, 8)),
    Some((8, 16)),
    Some((16, 32)),
    Some((32, 64)),
    None,
];

/// Coverage at one (class, AGT size) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgtSizePoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Filter/accumulation entries (`None` = unbounded).
    pub sizes: Option<(usize, usize)>,
    /// Class-average L1 coverage.
    pub coverage: f64,
}

/// Complete result of the AGT sizing experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AgtSizeResult {
    /// One point per (class, size).
    pub points: Vec<AgtSizePoint>,
}

/// The SMS configuration evaluated at one AGT size.
fn sms_config(sizes: Option<(usize, usize)>) -> SmsConfig {
    let agt = match sizes {
        Some((filter, accumulation)) => AgtConfig {
            filter_entries: Some(filter),
            accumulation_entries: Some(accumulation),
        },
        None => AgtConfig::unbounded(),
    };
    SmsConfig {
        region: RegionConfig::paper_default(),
        index_scheme: IndexScheme::PcOffset,
        agt,
        pht: PhtCapacity::Unbounded,
        streamer: sms::StreamerConfig::paper_default(),
    }
}

/// The engine jobs this experiment declares: a class sweep of SMS over the
/// AGT sizes.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(config, representative_only, &AGT_SIZES, |sizes| {
        PrefetcherSpec::sms(&sms_config(sizes))
    })
}

/// Runs the AGT sizing experiment.
pub fn run(config: &ExperimentConfig, representative_only: bool) -> AgtSizeResult {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this experiment's [`jobs`] list (in
/// submission order) into the result.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> AgtSizeResult {
    let points = class_sweep_points(
        representative_only,
        &AGT_SIZES,
        results,
        |class, sizes, runs| AgtSizePoint {
            class,
            sizes,
            coverage: class_average(&config.l1_coverage(runs)).coverage,
        },
    );
    AgtSizeResult { points }
}

/// Renders the experiment as a text table.
pub fn table(result: &AgtSizeResult) -> Table {
    coverage_grid(
        "Section 4.5: coverage vs AGT size (filter/accumulation entries)",
        &["Class"],
        &AGT_SIZES,
        |sizes| match sizes {
            Some((filter, accumulation)) => format!("{filter}/{accumulation}"),
            None => "infinite".to_string(),
        },
        result
            .points
            .iter()
            .map(|p| (vec![p.class.to_string()], p.sizes, p.coverage)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_unbounded_coverage() {
        let result = run(&ExperimentConfig::tiny(), true);
        for class in ApplicationClass::ALL {
            let cov = |sizes: Option<(usize, usize)>| {
                result
                    .points
                    .iter()
                    .find(|p| p.class == class && p.sizes == sizes)
                    .map(|p| p.coverage)
                    .unwrap()
            };
            let practical = cov(Some((32, 64)));
            let unbounded = cov(None);
            assert!(
                practical >= unbounded - 0.05,
                "{class}: 32/64 AGT ({practical:.2}) should match unbounded ({unbounded:.2})"
            );
        }
        assert!(table(&result).to_string().contains("32/64"));
    }
}
