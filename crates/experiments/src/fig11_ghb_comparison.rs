//! Figure 11: the practical SMS configuration versus the Global History
//! Buffer (GHB PC/DC) at 256 and 16 k entries — off-chip (L2) read-miss
//! coverage per application.

use crate::common::ExperimentConfig;
use crate::report::Table;
use engine::{JobResult, PrefetcherSpec, SimJob};
use ghb::GhbConfig;
use serde::{Deserialize, Serialize};
use sms::{CoverageLevel, CoverageStats, SmsConfig};
use trace::Application;

/// The prefetchers compared in Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fig11Prefetcher {
    /// GHB PC/DC with a 256-entry history buffer.
    Ghb256,
    /// GHB PC/DC with a 16k-entry history buffer.
    Ghb16k,
    /// The practical SMS configuration (32/64 AGT, 2 kB regions, 16 k x
    /// 16-way PHT).
    Sms,
}

impl Fig11Prefetcher {
    /// All three configurations in figure order.
    pub const ALL: [Fig11Prefetcher; 3] = [
        Fig11Prefetcher::Ghb256,
        Fig11Prefetcher::Ghb16k,
        Fig11Prefetcher::Sms,
    ];

    /// Label used in the figure.
    pub fn label(self) -> &'static str {
        match self {
            Fig11Prefetcher::Ghb256 => "GHB-256",
            Fig11Prefetcher::Ghb16k => "GHB-16k",
            Fig11Prefetcher::Sms => "SMS",
        }
    }

    /// The engine spec for this configuration.
    pub fn spec(self) -> PrefetcherSpec {
        match self {
            Fig11Prefetcher::Ghb256 => PrefetcherSpec::ghb(&GhbConfig::paper_small()),
            Fig11Prefetcher::Ghb16k => PrefetcherSpec::ghb(&GhbConfig::paper_large()),
            Fig11Prefetcher::Sms => PrefetcherSpec::sms(&SmsConfig::paper_default()),
        }
    }
}

/// Result for one (application, prefetcher) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Point {
    /// Application evaluated.
    pub app: Application,
    /// Prefetcher configuration.
    pub prefetcher: Fig11Prefetcher,
    /// Off-chip read-miss coverage statistics.
    pub coverage: CoverageStats,
}

/// Complete result of the Figure 11 experiment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig11Result {
    /// One point per (application, prefetcher).
    pub points: Vec<Fig11Point>,
}

/// The engine jobs this figure declares: per application, one baseline
/// followed by the three compared prefetcher configurations.
pub fn jobs(config: &ExperimentConfig, apps: &[Application]) -> Vec<SimJob> {
    let mut jobs = Vec::new();
    for &app in apps {
        jobs.push(config.baseline_job(app));
        for prefetcher in Fig11Prefetcher::ALL {
            jobs.push(config.job(app, prefetcher.spec()));
        }
    }
    jobs
}

/// Runs the Figure 11 experiment over `apps`.
pub fn run(config: &ExperimentConfig, apps: &[Application]) -> Fig11Result {
    let results = config.run_jobs(&jobs(config, apps));
    from_results(config, apps, &results)
}

/// Post-processes the [`JobResult`]s of this figure's [`jobs`] list (in
/// submission order) into the figure.
pub fn from_results(
    config: &ExperimentConfig,
    apps: &[Application],
    results: &[JobResult],
) -> Fig11Result {
    let mut cursor = results.iter();

    let mut result = Fig11Result::default();
    for &app in apps {
        let baseline = cursor.next().expect("baseline");
        for prefetcher in Fig11Prefetcher::ALL {
            let with = cursor.next().expect("prefetcher run");
            result.points.push(Fig11Point {
                app,
                prefetcher,
                coverage: config.coverage(&baseline.summary, &with.summary, CoverageLevel::L2),
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
pub fn table(result: &Fig11Result) -> Table {
    let mut t = Table::new(
        "Figure 11: off-chip read-miss coverage, GHB vs practical SMS",
        &[
            "App",
            "Prefetcher",
            "Coverage",
            "Uncovered",
            "Overpredictions",
        ],
    );
    for p in &result.points {
        t.push_row(vec![
            p.app.short_name().to_string(),
            p.prefetcher.label().to_string(),
            Table::pct(p.coverage.coverage()),
            Table::pct(p.coverage.uncovered()),
            Table::pct(p.coverage.overprediction_fraction()),
        ]);
    }
    t
}

/// Convenience lookup of a coverage fraction.
pub fn coverage_of(result: &Fig11Result, app: Application, prefetcher: Fig11Prefetcher) -> f64 {
    result
        .points
        .iter()
        .find(|p| p.app == app && p.prefetcher == prefetcher)
        .map(|p| p.coverage.coverage())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sms_beats_ghb_on_oltp_and_matches_on_scientific() {
        let config = ExperimentConfig::tiny();
        let result = run(&config, &[Application::OltpDb2, Application::Sparse]);
        assert_eq!(result.points.len(), 6);
        // OLTP interleaves many regions: SMS should clearly beat GHB.
        let sms_oltp = coverage_of(&result, Application::OltpDb2, Fig11Prefetcher::Sms);
        let ghb_oltp = coverage_of(&result, Application::OltpDb2, Fig11Prefetcher::Ghb16k);
        assert!(
            sms_oltp > ghb_oltp,
            "SMS ({sms_oltp:.2}) should beat GHB-16k ({ghb_oltp:.2}) on OLTP"
        );
        // On the regular scientific kernel both predictors do well.
        let sms_sci = coverage_of(&result, Application::Sparse, Fig11Prefetcher::Sms);
        assert!(sms_sci > 0.3, "SMS should cover sparse ({sms_sci:.2})");
        assert!(table(&result).to_string().contains("GHB-256"));
    }
}
