//! Figure 8: comparison of training structures (decoupled sectored, logical
//! sectored, AGT) with an unbounded PHT.

use crate::common::{class_sweep_jobs, class_sweep_points, ExperimentConfig};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob, TrainingSpec};
use serde::{Deserialize, Serialize};
use sms::{IndexScheme, PhtCapacity, RegionConfig, TrainerKind};
use stats::mean;
use trace::ApplicationClass;

/// Result for one (class, trainer) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingPoint {
    /// Workload class.
    pub class: ApplicationClass,
    /// Training structure evaluated.
    pub trainer: TrainerKind,
    /// Class-average L1 coverage.
    pub coverage: f64,
    /// Class-average uncovered fraction (for the decoupled sectored cache
    /// this includes the extra misses its constrained contents cause).
    pub uncovered: f64,
    /// Class-average overprediction fraction.
    pub overpredictions: f64,
    /// Class-average PHT entries created (pattern fragmentation indicator).
    pub pht_entries: f64,
}

/// Complete result of the Figure 8 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// One point per (class, trainer).
    pub points: Vec<TrainingPoint>,
}

/// The engine jobs this figure declares: a class sweep of the training
/// prefetcher over the training structures, each with an unbounded PHT.
pub fn jobs(config: &ExperimentConfig, representative_only: bool) -> Vec<SimJob> {
    class_sweep_jobs(config, representative_only, &TrainerKind::ALL, |trainer| {
        PrefetcherSpec::training(&TrainingSpec {
            trainer,
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            pht: PhtCapacity::Unbounded,
            l1_capacity_bytes: config.hierarchy.l1.capacity_bytes,
        })
    })
}

/// Runs the Figure 8 experiment (Figure 9 sweeps the PHT bound).
pub fn run(config: &ExperimentConfig, representative_only: bool) -> Fig8Result {
    let results = config.run_jobs(&jobs(config, representative_only));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig8Result {
    let points = class_sweep_points(
        representative_only,
        &TrainerKind::ALL,
        results,
        |class, trainer, runs| {
            let mut coverages = Vec::new();
            let mut uncovered = Vec::new();
            let mut overpredictions = Vec::new();
            let mut pht_entries = Vec::new();
            for (run, cov) in runs.iter().zip(config.l1_coverage(runs)) {
                let report = run.with.probe.training().expect("training job");
                let extra = report.extra_misses as f64 / cov.baseline_misses.max(1) as f64;
                coverages.push((cov.coverage() - extra).max(-1.0));
                uncovered.push(cov.uncovered() + extra);
                overpredictions.push(cov.overprediction_fraction());
                pht_entries.push(report.pht_len as f64);
            }
            TrainingPoint {
                class,
                trainer,
                coverage: mean(&coverages),
                uncovered: mean(&uncovered),
                overpredictions: mean(&overpredictions),
                pht_entries: mean(&pht_entries),
            }
        },
    );
    Fig8Result { points }
}

/// Renders the figure as a text table.
pub fn table(result: &Fig8Result) -> Table {
    let mut t = Table::new(
        "Figure 8: training structures (unbounded PHT), L1 read misses",
        &[
            "Class",
            "Trainer",
            "Coverage",
            "Uncovered",
            "Overpredictions",
            "PHT entries",
        ],
    );
    for p in &result.points {
        t.push_row(vec![
            p.class.to_string(),
            p.trainer.label().to_string(),
            Table::pct(p.coverage),
            Table::pct(p.uncovered),
            Table::pct(p.overpredictions),
            format!("{:.0}", p.pht_entries),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agt_is_at_least_as_good_as_sectored_trainers_on_oltp() {
        let result = run(&ExperimentConfig::tiny(), true);
        assert_eq!(result.points.len(), 12);
        let oltp = |trainer| {
            result
                .points
                .iter()
                .find(|p| p.class == ApplicationClass::Oltp && p.trainer == trainer)
                .unwrap()
        };
        let agt = oltp(TrainerKind::Agt);
        let ls = oltp(TrainerKind::LogicalSectored);
        let ds = oltp(TrainerKind::DecoupledSectored);
        assert!(
            agt.coverage >= ls.coverage - 0.03,
            "AGT ({:.2}) should match or beat LS ({:.2}) on OLTP",
            agt.coverage,
            ls.coverage
        );
        assert!(
            agt.coverage >= ds.coverage - 0.03,
            "AGT ({:.2}) should match or beat DS ({:.2}) on OLTP",
            agt.coverage,
            ds.coverage
        );
        assert!(table(&result).to_string().contains("AGT"));
    }
}
