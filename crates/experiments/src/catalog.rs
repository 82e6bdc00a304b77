//! The experiment catalog: every CLI-visible experiment, the engine jobs
//! each one declares, and a machine-readable listing for external tooling.
//!
//! This is the single source of job construction shared by the CLI's direct
//! run path and `--emit-spec`, so the two can never drift apart.

use crate::common::ExperimentConfig;
use crate::{
    agt_size, fig04_block_size, fig05_density, fig06_indexing, fig07_pht_size, fig08_training,
    fig09_pht_training, fig10_region_size, fig11_ghb_comparison, fig12_speedup,
};
use engine::{JobList, Registry};
use serde::{Deserialize, Serialize};
use sms::PhtCapacity;
use trace::Application;

/// Every experiment name the CLI accepts, in run order.
pub const EXPERIMENTS: [&str; 13] = [
    "all", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "agt-size", "fig11",
    "fig12", "fig13",
];

/// The engine jobs one experiment declares.  `None` for experiments with no
/// engine jobs (`table1`) and for the umbrella `all`.  Figures 12 and 13
/// share one job list and both map to it here.
pub fn figure_jobs(
    name: &str,
    config: &ExperimentConfig,
    representative_only: bool,
) -> Option<Vec<engine::SimJob>> {
    match name {
        "fig4" => Some(fig04_block_size::jobs(config, representative_only)),
        "fig5" => Some(fig05_density::jobs(
            config,
            &crate::common::apps_or_all(&[]),
        )),
        "fig6" => Some(fig06_indexing::jobs(config, representative_only)),
        "fig7" => Some(fig07_pht_size::jobs(config, representative_only, &[])),
        "fig8" => Some(fig08_training::jobs(
            config,
            representative_only,
            PhtCapacity::Unbounded,
        )),
        "fig9" => Some(fig09_pht_training::jobs(config, representative_only)),
        "fig10" => Some(fig10_region_size::jobs(config, representative_only)),
        "agt-size" => Some(agt_size::jobs(config, representative_only)),
        "fig11" => Some(fig11_ghb_comparison::jobs(
            config,
            &crate::common::apps_or_all(&[]),
        )),
        "fig12" | "fig13" => Some(fig12_speedup::jobs(config, &Application::ALL)),
        _ => None,
    }
}

/// One registered prefetcher plugin, as listed by `sms-experiments list`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PluginInfo {
    /// Stable plugin name job specs use.
    pub name: String,
    /// One-line description (may be empty).
    pub description: String,
}

/// The machine-readable catalog behind `sms-experiments list --json`:
/// everything external tooling needs to construct and run job specs without
/// parsing human-oriented output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Catalog {
    /// Job-spec format version this build reads and emits.
    pub spec_version: u32,
    /// Every experiment name the CLI accepts.
    pub experiments: Vec<String>,
    /// The built-in registry's prefetcher plugins, sorted by name.
    pub plugins: Vec<PluginInfo>,
}

/// Builds the catalog from the CLI's experiment list and the built-in
/// plugin registry.
pub fn catalog() -> Catalog {
    let registry = Registry::builtin();
    Catalog {
        spec_version: JobList::VERSION,
        experiments: EXPERIMENTS.iter().map(|s| s.to_string()).collect(),
        plugins: registry
            .names()
            .into_iter()
            .map(|name| PluginInfo {
                name: name.to_string(),
                description: registry
                    .get(name)
                    .map(|p| p.description().to_string())
                    .unwrap_or_default(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lists_experiments_and_plugins_and_round_trips() {
        let c = catalog();
        assert_eq!(c.spec_version, JobList::VERSION);
        assert_eq!(c.experiments.len(), EXPERIMENTS.len());
        assert!(c.plugins.iter().any(|p| p.name == "sms"));
        assert!(c.plugins.iter().any(|p| p.name == "null"));
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn every_job_bearing_experiment_declares_jobs() {
        let config = ExperimentConfig::tiny();
        for name in EXPERIMENTS {
            if matches!(name, "all" | "table1") {
                assert!(figure_jobs(name, &config, true).is_none(), "{name}");
                continue;
            }
            let jobs = figure_jobs(name, &config, true).expect("job-bearing experiment");
            assert!(!jobs.is_empty(), "{name} declares no jobs");
        }
    }
}
