//! Figure 13: normalized execution-time breakdown of the baseline and SMS
//! systems, per application.

use crate::common::ExperimentConfig;
use crate::fig12_speedup::evaluations_from_results;
use crate::report::Table;
use engine::JobResult;
use serde::{Deserialize, Serialize};
use timing::BreakdownComparison;
use trace::Application;

/// This figure evaluates exactly the (baseline, SMS) timing pairs of
/// Figure 12, so it shares that figure's job declaration.
pub use crate::fig12_speedup::jobs;

/// Breakdown comparison for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownPoint {
    /// Application evaluated.
    pub app: Application,
    /// Normalized base/SMS breakdown pair.
    pub comparison: BreakdownComparison,
}

/// Complete result of the Figure 13 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig13Result {
    /// One point per application.
    pub points: Vec<BreakdownPoint>,
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(apps: &[Application], results: &[JobResult]) -> Fig13Result {
    let evaluations = evaluations_from_results(results);
    assert_eq!(apps.len(), evaluations.len(), "one timing pair per app");
    let mut result = Fig13Result::default();
    for (app, (base_result, sms_result)) in apps.iter().zip(&evaluations) {
        result.points.push(BreakdownPoint {
            app: *app,
            comparison: BreakdownComparison::new(base_result, sms_result),
        });
    }
    result
}

/// Runs the Figure 13 experiment over `apps`.
pub fn run(config: &ExperimentConfig, apps: &[Application]) -> Fig13Result {
    from_results(apps, &config.run_jobs(&jobs(config, apps)))
}

/// Renders the figure as a text table (two rows per application).
pub fn table(result: &Fig13Result) -> Table {
    let mut t = Table::new(
        "Figure 13: normalized time breakdown (base total = 1.0)",
        &[
            "App",
            "System",
            "User busy",
            "System busy",
            "Off-chip read",
            "On-chip read",
            "Store buffer",
            "Other",
            "Total",
        ],
    );
    for p in &result.points {
        for (label, b) in [
            ("base", &p.comparison.base),
            ("SMS", &p.comparison.enhanced),
        ] {
            t.push_row(vec![
                p.app.short_name().to_string(),
                label.to_string(),
                Table::num(b.user_busy),
                Table::num(b.system_busy),
                Table::num(b.offchip_read),
                Table::num(b.onchip_read),
                Table::num(b.store_buffer),
                Table::num(b.other),
                Table::num(b.total()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sms_reduces_offchip_read_time() {
        let config = ExperimentConfig::tiny();
        let result = run(&config, &[Application::Sparse]);
        let p = &result.points[0];
        assert!((p.comparison.base.total() - 1.0).abs() < 1e-9);
        assert!(
            p.comparison.enhanced.offchip_read < p.comparison.base.offchip_read,
            "SMS must shrink off-chip read stall time"
        );
        // Busy time per unit of work is unchanged by prefetching.
        assert!(
            (p.comparison.base.user_busy - p.comparison.enhanced.user_busy).abs()
                < p.comparison.base.user_busy * 0.05
        );
        assert!(table(&result).to_string().contains("Store buffer"));
    }
}
