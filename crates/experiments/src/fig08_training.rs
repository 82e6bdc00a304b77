//! Figure 8: comparison of training structures (decoupled sectored, logical
//! sectored, AGT) with an unbounded PHT.

use crate::common::{classes_with_applications, ExperimentConfig};
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob, TrainingSpec};
use serde::{Deserialize, Serialize};
use sms::{CoverageLevel, IndexScheme, PhtCapacity, RegionConfig, TrainerKind};
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

/// The training-prefetcher spec this figure evaluates.
fn training_spec(
    config: &ExperimentConfig,
    trainer: TrainerKind,
    pht: PhtCapacity,
) -> TrainingSpec {
    TrainingSpec {
        trainer,
        region: RegionConfig::paper_default(),
        index_scheme: IndexScheme::PcOffset,
        pht,
        l1_capacity_bytes: config.hierarchy.l1.capacity_bytes,
    }
}

/// The engine jobs this figure declares: per class, one baseline per
/// application followed by one training run per (trainer, application).
pub fn jobs(config: &ExperimentConfig, representative_only: bool, pht: PhtCapacity) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for (_, apps) in classes_with_applications(representative_only) {
        for &app in &apps {
            jobs.push(config.baseline_job(app));
        }
        for trainer in TrainerKind::ALL {
            for &app in &apps {
                jobs.push(config.job(
                    app,
                    PrefetcherSpec::training(&training_spec(config, trainer, pht)),
                ));
            }
        }
    }
    jobs
}

/// Runs the Figure 8 experiment with the given PHT bound (the paper uses an
/// unbounded PHT for this figure; Figure 9 sweeps the bound).
pub fn run(config: &ExperimentConfig, representative_only: bool, pht: PhtCapacity) -> Fig8Result {
    let results = config.run_jobs(&jobs(config, representative_only, pht));
    from_results(config, representative_only, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    representative_only: bool,
    results: &[JobResult],
) -> Fig8Result {
    let classes = classes_with_applications(representative_only);
    let mut cursor = results.iter();

    let mut result = Fig8Result::default();
    for (class, apps) in &classes {
        let baselines: Vec<_> = apps
            .iter()
            .map(|_| cursor.next().expect("baseline"))
            .collect();
        for trainer in TrainerKind::ALL {
            let mut coverages = Vec::new();
            let mut uncovered = Vec::new();
            let mut overpredictions = Vec::new();
            let mut pht_entries = Vec::new();
            for baseline in &baselines {
                let with = cursor.next().expect("training run");
                let report = with.probe.training().expect("training job");
                let (extra_misses, pht_len) = (report.extra_misses, report.pht_len);
                let cov = config.coverage(&baseline.summary, &with.summary, CoverageLevel::L1);
                let extra = extra_misses as f64 / cov.baseline_misses.max(1) as f64;
                coverages.push((cov.coverage() - extra).max(-1.0));
                uncovered.push(cov.uncovered() + extra);
                overpredictions.push(cov.overprediction_fraction());
                pht_entries.push(pht_len as f64);
            }
            result.points.push(TrainingPoint {
                class: *class,
                trainer,
                coverage: mean(&coverages),
                uncovered: mean(&uncovered),
                overpredictions: mean(&overpredictions),
                pht_entries: mean(&pht_entries),
            });
        }
    }
    assert!(
        cursor.next().is_none(),
        "job declaration and result post-processing fell out of sync"
    );
    result
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
        let result = run(&ExperimentConfig::tiny(), true, PhtCapacity::Unbounded);
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
