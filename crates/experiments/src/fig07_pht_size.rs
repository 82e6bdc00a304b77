//! Figure 7: PHT storage sensitivity for PC+address versus PC+offset
//! indexing (16-way set-associative finite PHTs).

use crate::common::{
    class_average, class_sweep_jobs, class_sweep_points, coverage_grid, pht_capacity,
    pht_size_label, with_pht_sizes, ExperimentConfig, PHT_SIZES,
};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use serde::{Deserialize, Serialize};
use sms::{IndexScheme, RegionConfig, SmsConfig};
use trace::ApplicationClass;

/// The index schemes this figure compares, in figure order.
const SCHEMES: [IndexScheme; 2] = [IndexScheme::PcAddress, IndexScheme::PcOffset];

/// Coverage at one (class, scheme, PHT size) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhtSizePoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Index scheme (PC+address or PC+offset).
    pub scheme: IndexScheme,
    /// PHT entries (`None` = unbounded).
    pub pht_entries: Option<usize>,
    /// Class-average L1 coverage.
    pub coverage: f64,
}

/// Complete result of the Figure 7 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// One point per (class, scheme, size).
    pub points: Vec<PhtSizePoint>,
}

/// The engine jobs this figure declares: a class sweep of idealized SMS
/// over every (index scheme, PHT size) pair.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(
        config,
        representative_only,
        &with_pht_sizes(&SCHEMES),
        |(scheme, entries)| {
            PrefetcherSpec::sms(
                &SmsConfig::idealized(scheme, RegionConfig::paper_default())
                    .with_pht(pht_capacity(entries)),
            )
        },
    )
}

/// Runs the Figure 7 experiment: PC+address versus PC+offset indexing.
pub fn run(config: &ExperimentConfig, representative_only: bool) -> Fig7Result {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig7Result {
    let points = class_sweep_points(
        representative_only,
        &with_pht_sizes(&SCHEMES),
        results,
        |class, (scheme, pht_entries), runs| PhtSizePoint {
            class,
            scheme,
            pht_entries,
            coverage: class_average(&config.l1_coverage(runs)).coverage,
        },
    );
    Fig7Result { points }
}

/// Renders the figure as a text table (one row per class and scheme, one
/// column per PHT size).
pub fn table(result: &Fig7Result) -> Table {
    coverage_grid(
        "Figure 7: coverage vs PHT size (16-way)",
        &["Class", "Index"],
        &PHT_SIZES,
        pht_size_label,
        result.points.iter().map(|p| {
            let row = vec![p.class.to_string(), p.scheme.label().to_string()];
            (row, p.pht_entries, p.coverage)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_offset_reaches_peak_with_small_tables() {
        // Restrict to DSS (the most size-sensitive class for PC+address) to
        // keep the test fast; check the paper's qualitative claims.
        let config = ExperimentConfig::tiny();
        let result = run(&config, true);
        let dss_points: Vec<&PhtSizePoint> = result
            .points
            .iter()
            .filter(|p| p.class == ApplicationClass::Dss)
            .collect();
        let cov = |scheme: IndexScheme, entries: Option<usize>| {
            dss_points
                .iter()
                .find(|p| p.scheme == scheme && p.pht_entries == entries)
                .map(|p| p.coverage)
                .unwrap()
        };
        // PC+offset at 16k entries is close to its unbounded coverage.
        let pcoff_16k = cov(IndexScheme::PcOffset, Some(16384));
        let pcoff_inf = cov(IndexScheme::PcOffset, None);
        assert!(
            pcoff_16k >= pcoff_inf * 0.8,
            "PC+offset at 16k ({pcoff_16k:.2}) should approach its unbounded coverage ({pcoff_inf:.2})"
        );
        // PC+address needs storage proportional to the data set: at 16k
        // entries it trails PC+offset on DSS.
        let pcaddr_16k = cov(IndexScheme::PcAddress, Some(16384));
        assert!(
            pcoff_16k >= pcaddr_16k,
            "PC+offset ({pcoff_16k:.2}) should beat PC+address ({pcaddr_16k:.2}) at 16k entries on DSS"
        );
        assert!(table(&result).to_string().contains("infinite"));
    }
}
