//! Figure 9: PHT storage sensitivity of the logical sectored trainer versus
//! the AGT.

use crate::common::{
    class_average, class_sweep_jobs, class_sweep_points, coverage_grid, pht_capacity,
    pht_size_label, with_pht_sizes, ExperimentConfig, PHT_SIZES,
};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob, TrainingSpec};
use serde::{Deserialize, Serialize};
use sms::{IndexScheme, RegionConfig, TrainerKind};
use trace::ApplicationClass;

/// Coverage at one (class, trainer, PHT size) point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhtTrainingPoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Training structure (LS or AGT).
    pub trainer: TrainerKind,
    /// PHT entries (`None` = unbounded).
    pub pht_entries: Option<usize>,
    /// Class-average L1 coverage.
    pub coverage: f64,
}

/// Complete result of the Figure 9 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig9Result {
    /// One point per (class, trainer, size).
    pub points: Vec<PhtTrainingPoint>,
}

/// The trainers this figure compares, in figure order.
const TRAINERS: [TrainerKind; 2] = [TrainerKind::LogicalSectored, TrainerKind::Agt];

/// The engine jobs this figure declares: a class sweep of the training
/// prefetcher over every (trainer, PHT size) pair.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(
        config,
        representative_only,
        &with_pht_sizes(&TRAINERS),
        |(trainer, entries)| {
            PrefetcherSpec::training(&TrainingSpec {
                trainer,
                region: RegionConfig::paper_default(),
                index_scheme: IndexScheme::PcOffset,
                pht: pht_capacity(entries),
                l1_capacity_bytes: config.hierarchy.l1.capacity_bytes,
            })
        },
    )
}

/// Runs the Figure 9 experiment.
pub fn run(config: &ExperimentConfig, representative_only: bool) -> Fig9Result {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig9Result {
    let points = class_sweep_points(
        representative_only,
        &with_pht_sizes(&TRAINERS),
        results,
        |class, (trainer, pht_entries), runs| PhtTrainingPoint {
            class,
            trainer,
            pht_entries,
            coverage: class_average(&config.l1_coverage(runs)).coverage,
        },
    );
    Fig9Result { points }
}

/// Renders the figure as a text table.
pub fn table(result: &Fig9Result) -> Table {
    coverage_grid(
        "Figure 9: coverage vs PHT size, LS vs AGT training",
        &["Class", "Trainer"],
        &PHT_SIZES,
        pht_size_label,
        result.points.iter().map(|p| {
            let row = vec![p.class.to_string(), p.trainer.label().to_string()];
            (row, p.pht_entries, p.coverage)
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agt_needs_no_more_pht_storage_than_ls_for_same_coverage() {
        let result = run(&ExperimentConfig::tiny(), true);
        assert_eq!(result.points.len(), 4 * 2 * PHT_SIZES.len());
        // At the largest bounded size the AGT's coverage should be at least
        // in the same ballpark as LS for OLTP (the class with the most
        // interleaving, where LS fragments patterns).
        let find = |trainer: TrainerKind, entries: Option<usize>| {
            result
                .points
                .iter()
                .find(|p| {
                    p.class == ApplicationClass::Oltp
                        && p.trainer == trainer
                        && p.pht_entries == entries
                })
                .map(|p| p.coverage)
                .unwrap()
        };
        let agt = find(TrainerKind::Agt, Some(16384));
        let ls = find(TrainerKind::LogicalSectored, Some(16384));
        assert!(
            agt >= ls - 0.05,
            "AGT coverage at 16k ({agt:.2}) should not trail LS ({ls:.2}) appreciably"
        );
        assert!(table(&result).to_string().contains("LS"));
    }
}
