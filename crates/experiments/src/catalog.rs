//! The experiment table: every experiment the CLI runs, the engine jobs
//! each one declares, and how its results are reported — plus a
//! machine-readable listing for external tooling.
//!
//! [`EXPERIMENTS`] is the only list of experiments.  The CLI's direct run
//! path, `--emit-spec`, `--json`, `--out`, `list` and its unknown-experiment
//! suggestion all read it, so they can never drift apart.

use crate::common::ExperimentConfig;
use crate::report::Table;
use crate::{
    agt_size as agt, fig04_block_size as fig4, fig05_density as fig5, fig06_indexing as fig6,
    fig07_pht_size as fig7, fig08_training as fig8, fig09_pht_training as fig9,
    fig10_region_size as fig10, fig11_ghb_comparison as fig11, fig12_speedup as fig12,
    fig13_breakdown as fig13, table1,
};
use engine::{JobList, JobResult, Registry, SimJob};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use timing::TimingConfig;
use trace::Application;

/// One experiment: its name, the engine jobs it declares and how it reports
/// their results.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name the CLI selects it by.
    pub name: &'static str,
    /// Its key in the `--json` document; `None` for an experiment that only
    /// prints tables.
    pub json_key: Option<&'static str>,
    /// The engine jobs it declares at `config`'s scale; the flag restricts
    /// class-level figures to representative applications (`--quick`).
    pub jobs: fn(&ExperimentConfig, bool) -> Vec<SimJob>,
    /// Its tables and `--json` value, from the results of its jobs in
    /// submission order: `(config, representative_only, results)`.
    pub report: fn(&ExperimentConfig, bool, &[JobResult]) -> Report,
}

/// What one experiment reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The tables it prints, in order.
    pub tables: Vec<Table>,
    /// Its `--json` value (`Null` for an experiment without a JSON key).
    pub json: Value,
}

/// A figure's report: its one table and its result as JSON.
fn figure<R: Serialize>(result: R, table: fn(&R) -> Table) -> Report {
    Report {
        tables: vec![table(&result)],
        json: serde_json::to_value(&result).expect("figure results serialize"),
    }
}

/// The name that selects every experiment, run in table order.
pub const ALL: &str = "all";

/// Every experiment, in run order.  Figures 12 and 13 declare the same job
/// list; a run of both executes and emits it once (see [`job_lists`]).
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "table1",
        json_key: None,
        jobs: |_, _| Vec::new(),
        report: |config, _, _| Report {
            tables: vec![
                table1::system_table(&config.hierarchy, &TimingConfig::table1(), config.cpus),
                table1::application_table(),
            ],
            json: Value::Null,
        },
    },
    Experiment {
        name: "fig4",
        json_key: Some("fig4"),
        jobs: fig4::jobs,
        report: |_, quick, r| figure(fig4::from_results(quick, r), fig4::table),
    },
    Experiment {
        name: "fig5",
        json_key: Some("fig5"),
        jobs: |c, _| fig5::jobs(c, &Application::ALL),
        report: |_, _, r| figure(fig5::from_results(&Application::ALL, r), fig5::table),
    },
    Experiment {
        name: "fig6",
        json_key: Some("fig6"),
        jobs: fig6::jobs,
        report: |c, quick, r| figure(fig6::from_results(c, quick, r), fig6::table),
    },
    Experiment {
        name: "fig7",
        json_key: Some("fig7"),
        jobs: fig7::jobs,
        report: |c, quick, r| figure(fig7::from_results(c, quick, r), fig7::table),
    },
    Experiment {
        name: "fig8",
        json_key: Some("fig8"),
        jobs: fig8::jobs,
        report: |c, quick, r| figure(fig8::from_results(c, quick, r), fig8::table),
    },
    Experiment {
        name: "fig9",
        json_key: Some("fig9"),
        jobs: fig9::jobs,
        report: |c, quick, r| figure(fig9::from_results(c, quick, r), fig9::table),
    },
    Experiment {
        name: "fig10",
        json_key: Some("fig10"),
        jobs: fig10::jobs,
        report: |c, quick, r| figure(fig10::from_results(c, quick, r), fig10::table),
    },
    Experiment {
        name: "agt-size",
        json_key: Some("agt_size"),
        jobs: agt::jobs,
        report: |c, quick, r| figure(agt::from_results(c, quick, r), agt::table),
    },
    Experiment {
        name: "fig11",
        json_key: Some("fig11"),
        jobs: |c, _| fig11::jobs(c, &Application::ALL),
        report: |c, _, r| figure(fig11::from_results(c, &Application::ALL, r), fig11::table),
    },
    Experiment {
        name: "fig12",
        json_key: Some("fig12"),
        jobs: |c, _| fig12::jobs(c, &Application::ALL),
        report: |_, _, r| figure(fig12::from_results(&Application::ALL, r), fig12::table),
    },
    Experiment {
        name: "fig13",
        json_key: Some("fig13"),
        jobs: |c, _| fig13::jobs(c, &Application::ALL),
        report: |_, _, r| figure(fig13::from_results(&Application::ALL, r), fig13::table),
    },
];

/// Every experiment name the CLI accepts: [`ALL`], then the table's.
pub fn names() -> impl Iterator<Item = &'static str> {
    std::iter::once(ALL).chain(EXPERIMENTS.iter().map(|e| e.name))
}

/// The experiments `name` selects: the whole table for [`ALL`], else the
/// experiment so named (none for an unknown name).
pub fn select(name: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .filter(|e| name == ALL || e.name == name)
        .collect()
}

/// The job list of each experiment, in order; `None` where it equals the
/// list before it, whose results that experiment then reports from.  So a
/// list two experiments share (Figures 12 and 13) is run and emitted once.
pub fn job_lists(
    experiments: &[&Experiment],
    config: &ExperimentConfig,
    representative_only: bool,
) -> Vec<Option<Vec<SimJob>>> {
    let mut previous: Option<Vec<SimJob>> = None;
    experiments
        .iter()
        .map(|experiment| {
            let jobs = (experiment.jobs)(config, representative_only);
            if previous.as_ref() == Some(&jobs) {
                return None;
            }
            previous = Some(jobs.clone());
            Some(jobs)
        })
        .collect()
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

/// Builds the catalog from the experiment table and the built-in plugin
/// registry.
pub fn catalog() -> Catalog {
    let registry = Registry::builtin();
    Catalog {
        spec_version: JobList::VERSION,
        experiments: names().map(str::to_string).collect(),
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
        assert_eq!(c.experiments.len(), EXPERIMENTS.len() + 1);
        assert_eq!(c.experiments[0], ALL);
        assert!(c.plugins.iter().any(|p| p.name == "sms"));
        assert!(c.plugins.iter().any(|p| p.name == "null"));
        let json = serde_json::to_string_pretty(&c).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn every_job_bearing_experiment_declares_jobs() {
        let config = ExperimentConfig::tiny();
        for experiment in EXPERIMENTS {
            let jobs = (experiment.jobs)(&config, true);
            // Only the table without a JSON value, Table 1, runs nothing.
            assert_eq!(
                jobs.is_empty(),
                experiment.json_key.is_none(),
                "{}",
                experiment.name
            );
        }
        assert_eq!(select(ALL).len(), EXPERIMENTS.len());
        assert_eq!(select("fig7")[0].name, "fig7");
        assert!(select("fig55").is_empty());
    }

    #[test]
    fn a_shared_job_list_is_declared_once() {
        let config = ExperimentConfig::tiny();
        let lists = job_lists(&select(ALL), &config, true);
        let shared: Vec<&str> = select(ALL)
            .iter()
            .zip(&lists)
            .filter(|(_, jobs)| jobs.is_none())
            .map(|(e, _)| e.name)
            .collect();
        assert_eq!(
            shared,
            ["fig13"],
            "only Figure 13 reuses its predecessor's list"
        );
        let alone = job_lists(&select("fig13"), &config, true);
        assert_eq!(alone[0].as_ref(), lists[EXPERIMENTS.len() - 2].as_ref());
    }
}
