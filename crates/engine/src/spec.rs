//! Serializable prefetcher specifications and the built-in plugins that
//! realize them.
//!
//! A [`PrefetcherSpec`] is plain data: the stable name of a registered
//! [`PrefetcherPlugin`] plus a plugin-specific JSON parameter tree.  Jobs
//! carry specs rather than live prefetchers so they can be shipped to any
//! worker thread (and to and from job files on disk); the engine resolves
//! the spec through a [`Registry`](crate::plugin::Registry) on the executing
//! thread and, after the run, extracts a [`ProbeReport`] from the built
//! prefetcher.
//!
//! This module also houses the six built-in plugins the registry ships
//! with — `null`, `sms`, `ghb`, `training`, `density-probe` and
//! `oracle-probe` — and typed constructors for their specs.

use crate::plugin::{
    decode_params, BuiltPrefetcher, DensityReport, OracleReport, PluginError, PrefetcherPlugin,
    Probe, ProbeReport, TrainingReport,
};
use crate::runner::in_range;
use ghb::{GhbConfig, GhbPrefetcher};
use memsim::{NullPrefetcher, PrefetchRequest, Prefetcher, SystemOutcome, MAX_TABLE_ENTRIES};
use serde::{Deserialize, Serialize};
use sms::training::SECTOR_WAYS;
use sms::{
    DensityObserver, IndexScheme, OracleObserver, PhtCapacity, RegionConfig, SmsConfig,
    SmsPrefetcher, TrainerKind, TrainingPrefetcher,
};
use std::sync::Arc;
use trace::MemAccess;

/// A serializable description of the prefetcher (or passive probe) attached
/// to a simulation job: a registered plugin name plus that plugin's
/// parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefetcherSpec {
    /// Stable name of the plugin that builds this prefetcher.
    pub plugin: String,
    /// Plugin-specific configuration.
    pub params: serde_json::Value,
}

impl PrefetcherSpec {
    /// A spec for an arbitrary (possibly custom) plugin with serialized
    /// parameters.
    pub fn custom<T: Serialize + ?Sized>(plugin: &str, params: &T) -> Self {
        Self {
            plugin: plugin.to_string(),
            params: serde_json::to_value(params).expect("value-tree serialization cannot fail"),
        }
    }

    /// No prefetching (baseline runs).
    pub fn null() -> Self {
        Self {
            plugin: "null".to_string(),
            params: serde_json::Value::Null,
        }
    }

    /// Spatial Memory Streaming with the given configuration.
    pub fn sms(config: &SmsConfig) -> Self {
        Self::custom("sms", config)
    }

    /// The practical SMS configuration evaluated in Figure 11.
    pub fn sms_paper_default() -> Self {
        Self::sms(&SmsConfig::paper_default())
    }

    /// The GHB PC/DC baseline prefetcher.
    pub fn ghb(config: &GhbConfig) -> Self {
        Self::custom("ghb", config)
    }

    /// An alternative training structure feeding the SMS PHT.
    pub fn training(spec: &TrainingSpec) -> Self {
        Self::custom("training", spec)
    }

    /// Passive access-density measurement (Figure 5).
    pub fn density_probe(region: &RegionConfig) -> Self {
        Self::custom("density-probe", region)
    }

    /// Passive oracle-opportunity measurement at several region sizes
    /// (Figure 4).
    pub fn oracle_probe(spec: &OracleProbeSpec) -> Self {
        Self::custom("oracle-probe", spec)
    }
}

/// Configuration of a [`TrainingPrefetcher`] (Figures 8 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingSpec {
    /// Training structure (AGT, logical sectored, decoupled sectored).
    pub trainer: TrainerKind,
    /// Spatial region geometry.
    pub region: RegionConfig,
    /// Prediction-index scheme.
    pub index_scheme: IndexScheme,
    /// Pattern history table bound.
    pub pht: PhtCapacity,
    /// Capacity of the L1 the sectored tag arrays shadow.
    pub l1_capacity_bytes: u64,
}

/// Configuration of a bank of [`OracleObserver`]s measured in one run
/// (Figure 4 measures every region size against a single 64 B baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleProbeSpec {
    /// One oracle per region geometry, reported in this order.
    pub regions: Vec<RegionConfig>,
    /// Track read accesses only (the paper reports read miss rates).
    pub read_only: bool,
}

/// A bank of independent [`OracleObserver`]s fed by one baseline run, so a
/// single simulation yields the opportunity curve for every region size.
#[derive(Debug)]
pub struct MultiOracle {
    /// One oracle per requested region geometry, in spec order.
    pub oracles: Vec<OracleObserver>,
}

impl Prefetcher for MultiOracle {
    fn on_access_into(
        &mut self,
        access: &MemAccess,
        outcome: &SystemOutcome,
        out: &mut Vec<PrefetchRequest>,
    ) {
        for oracle in &mut self.oracles {
            oracle.on_access_into(access, outcome, out);
        }
    }

    fn name(&self) -> &str {
        "multi-oracle"
    }
}

// ---------------------------------------------------------------------------
// Probe implementations for the built-in prefetchers
// ---------------------------------------------------------------------------

impl Probe for NullPrefetcher {}

impl Probe for GhbPrefetcher {}

impl Probe for SmsPrefetcher {
    fn into_report(self: Box<Self>) -> ProbeReport {
        ProbeReport::new("sms", &self.total_stats())
    }
}

impl Probe for TrainingPrefetcher {
    fn into_report(self: Box<Self>) -> ProbeReport {
        ProbeReport::new(
            "training",
            &TrainingReport {
                extra_misses: self.extra_misses(),
                pht_len: self.pht_len() as u64,
            },
        )
    }
}

impl Probe for DensityObserver {
    fn into_report(self: Box<Self>) -> ProbeReport {
        let (l1, l2) = (*self).finish();
        ProbeReport::new("density", &DensityReport { l1, l2 })
    }
}

impl Probe for MultiOracle {
    fn into_report(self: Box<Self>) -> ProbeReport {
        ProbeReport::new(
            "oracle",
            &OracleReport {
                l1_misses: self
                    .oracles
                    .iter()
                    .map(|o| o.l1().oracle_misses())
                    .collect(),
                l2_misses: self
                    .oracles
                    .iter()
                    .map(|o| o.l2().oracle_misses())
                    .collect(),
            },
        )
    }
}

// ---------------------------------------------------------------------------
// Built-in plugins
// ---------------------------------------------------------------------------

struct NullPlugin;

impl PrefetcherPlugin for NullPlugin {
    fn name(&self) -> &str {
        "null"
    }

    fn description(&self) -> &str {
        "no prefetching (baseline runs); parameters ignored"
    }

    fn build(
        &self,
        _params: &serde_json::Value,
        _num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        Ok(BuiltPrefetcher::new(NullPrefetcher::new()))
    }
}

struct SmsPlugin;

impl PrefetcherPlugin for SmsPlugin {
    fn name(&self) -> &str {
        "sms"
    }

    fn description(&self) -> &str {
        "Spatial Memory Streaming (params: SmsConfig)"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let config: SmsConfig = checked_params(self.name(), params)?;
        Ok(BuiltPrefetcher::new(SmsPrefetcher::new(num_cpus, &config)))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        checked_params::<SmsConfig>(self.name(), params).map(drop)
    }
}

struct GhbPlugin;

impl PrefetcherPlugin for GhbPlugin {
    fn name(&self) -> &str {
        "ghb"
    }

    fn description(&self) -> &str {
        "GHB PC/DC delta-correlation prefetcher (params: GhbConfig)"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let config: GhbConfig = checked_params(self.name(), params)?;
        Ok(BuiltPrefetcher::new(GhbPrefetcher::new(num_cpus, &config)))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        checked_params::<GhbConfig>(self.name(), params).map(drop)
    }
}

struct TrainingPlugin;

impl PrefetcherPlugin for TrainingPlugin {
    fn name(&self) -> &str {
        "training"
    }

    fn description(&self) -> &str {
        "SMS with an alternative training structure (params: TrainingSpec)"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let spec: TrainingSpec = checked_params(self.name(), params)?;
        Ok(BuiltPrefetcher::new(TrainingPrefetcher::new(
            num_cpus,
            spec.trainer,
            spec.region,
            spec.index_scheme,
            spec.pht,
            spec.l1_capacity_bytes,
        )))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        checked_params::<TrainingSpec>(self.name(), params).map(drop)
    }
}

struct DensityProbePlugin;

impl PrefetcherPlugin for DensityProbePlugin {
    fn name(&self) -> &str {
        "density-probe"
    }

    fn description(&self) -> &str {
        "passive access-density measurement (params: RegionConfig)"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let region: RegionConfig = checked_params(self.name(), params)?;
        Ok(BuiltPrefetcher::new(DensityObserver::new(num_cpus, region)))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        checked_params::<RegionConfig>(self.name(), params).map(drop)
    }
}

struct OracleProbePlugin;

impl PrefetcherPlugin for OracleProbePlugin {
    fn name(&self) -> &str {
        "oracle-probe"
    }

    fn description(&self) -> &str {
        "passive oracle-opportunity measurement (params: OracleProbeSpec)"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let spec: OracleProbeSpec = checked_params(self.name(), params)?;
        Ok(BuiltPrefetcher::new(MultiOracle {
            oracles: spec
                .regions
                .iter()
                .map(|&region| OracleObserver::new(num_cpus, region, spec.read_only))
                .collect(),
        }))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        checked_params::<OracleProbeSpec>(self.name(), params).map(drop)
    }
}

/// The parameters of a built-in plugin: what they must satisfy beyond
/// decoding.
trait BuiltinParams: Deserialize {
    /// Checks the decoded parameters; the message names the failing field.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

impl BuiltinParams for GhbConfig {
    fn validate(&self) -> Result<(), String> {
        in_range(
            "history_entries",
            self.history_entries,
            1..=MAX_TABLE_ENTRIES,
        )?;
        in_range("index_entries", self.index_entries, 1..=MAX_TABLE_ENTRIES)
    }
}

impl BuiltinParams for RegionConfig {
    fn validate(&self) -> Result<(), String> {
        field("region", RegionConfig::validate(self))
    }
}

impl BuiltinParams for SmsConfig {
    fn validate(&self) -> Result<(), String> {
        field("region", self.region.validate())?;
        field("pht", self.pht.validate())?;
        field("streamer", self.streamer.validate())
    }
}

impl BuiltinParams for TrainingSpec {
    fn validate(&self) -> Result<(), String> {
        field("region", self.region.validate())?;
        field("pht", self.pht.validate())?;
        if self.trainer == TrainerKind::Agt {
            return Ok(());
        }
        // A sectored trainer sizes its tag array by the sectors the L1
        // holds, and needs one sector per way.
        in_range(
            "l1_capacity_bytes / region_bytes",
            self.l1_capacity_bytes / self.region.region_bytes,
            SECTOR_WAYS as u64..=MAX_TABLE_ENTRIES as u64,
        )
    }
}

impl BuiltinParams for OracleProbeSpec {
    fn validate(&self) -> Result<(), String> {
        for (i, region) in self.regions.iter().enumerate() {
            field(&format!("regions[{i}]"), region.validate())?;
        }
        Ok(())
    }
}

/// Names the parameter `name` in a failed configuration check.
fn field<E: std::fmt::Display>(name: &str, result: Result<(), E>) -> Result<(), String> {
    result.map_err(|error| format!("{name}: {error}"))
}

/// Decodes and validates a built-in plugin's parameters: the one path both
/// its `build` and its `check` take, so the two cannot disagree.  A
/// geometry the SMS structures cannot hold is a
/// [`PluginError::BadParams`] naming the field, never a panic mid-run.
fn checked_params<T: BuiltinParams>(
    plugin: &str,
    params: &serde_json::Value,
) -> Result<T, PluginError> {
    let config: T = decode_params(plugin, params)?;
    config
        .validate()
        .map_err(|message| PluginError::BadParams {
            plugin: plugin.to_string(),
            message,
        })?;
    Ok(config)
}

/// The plugins every registry built with
/// [`Registry::with_builtins`](crate::plugin::Registry::with_builtins)
/// starts from.
pub(crate) fn builtin_plugins() -> Vec<Arc<dyn PrefetcherPlugin>> {
    vec![
        Arc::new(NullPlugin),
        Arc::new(SmsPlugin),
        Arc::new(GhbPlugin),
        Arc::new(TrainingPlugin),
        Arc::new(DensityProbePlugin),
        Arc::new(OracleProbePlugin),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::Registry;

    fn example_training_spec() -> TrainingSpec {
        TrainingSpec {
            trainer: TrainerKind::LogicalSectored,
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            pht: PhtCapacity::paper_default(),
            l1_capacity_bytes: 64 * 1024,
        }
    }

    /// One example spec per built-in plugin, with the prefetcher name each
    /// must build into.
    fn example_specs() -> Vec<(PrefetcherSpec, &'static str)> {
        vec![
            (PrefetcherSpec::null(), "baseline"),
            (PrefetcherSpec::sms_paper_default(), "sms"),
            (PrefetcherSpec::ghb(&GhbConfig::paper_small()), "ghb-pc/dc"),
            (PrefetcherSpec::training(&example_training_spec()), "LS"),
            (
                PrefetcherSpec::density_probe(&RegionConfig::paper_default()),
                "density-observer",
            ),
            (
                PrefetcherSpec::oracle_probe(&OracleProbeSpec {
                    regions: vec![RegionConfig::paper_default()],
                    read_only: true,
                }),
                "multi-oracle",
            ),
        ]
    }

    #[test]
    fn specs_build_their_prefetchers() {
        let registry = Registry::builtin();
        for (spec, name) in example_specs() {
            registry
                .check(&spec)
                .expect("a spec that builds passes its check");
            let built = registry.build(&spec, 2).expect("built-in spec");
            assert_eq!(built.name(), name, "{spec:?}");
        }
    }

    #[test]
    fn every_builtin_spec_round_trips_through_json_and_rebuilds() {
        // The table covers the whole registry: every registered plugin must
        // have an example spec here, and every example must survive
        // serialize → deserialize → build.
        let registry = Registry::builtin();
        let examples = example_specs();
        let covered: Vec<&str> = examples.iter().map(|(s, _)| s.plugin.as_str()).collect();
        for name in registry.names() {
            assert!(
                covered.contains(&name),
                "built-in plugin {name:?} has no round-trip example"
            );
        }
        for (spec, prefetcher_name) in examples {
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: PrefetcherSpec = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(spec, back, "spec must round-trip bit-identically");
            let built = registry.build(&back, 2).expect("rebuilt from round-trip");
            assert_eq!(built.name(), prefetcher_name);
        }
    }

    #[test]
    fn unknown_plugin_names_error_with_a_suggestion() {
        let registry = Registry::builtin();
        let spec = PrefetcherSpec {
            plugin: "smss".to_string(),
            params: serde_json::Value::Null,
        };
        let err = registry.build(&spec, 1).expect_err("unknown plugin");
        assert_eq!(registry.check(&spec), Err(err.clone()));
        match &err {
            PluginError::UnknownPlugin { name, suggestion } => {
                assert_eq!(name, "smss");
                assert_eq!(suggestion.as_deref(), Some("sms"));
            }
            other => panic!("expected UnknownPlugin, got {other:?}"),
        }
        assert!(err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn bad_params_error_names_the_plugin() {
        let registry = Registry::builtin();
        let spec = PrefetcherSpec {
            plugin: "sms".to_string(),
            params: serde_json::Value::String("not a config".to_string()),
        };
        let err = registry.build(&spec, 1).expect_err("bad params");
        assert!(matches!(&err, PluginError::BadParams { plugin, .. } if plugin == "sms"));
        assert_eq!(registry.check(&spec), Err(err));
    }

    #[test]
    fn oracle_probe_refuses_regions_wider_than_a_pattern() {
        let registry = Registry::builtin();
        let spec = |region_bytes| {
            PrefetcherSpec::oracle_probe(&OracleProbeSpec {
                regions: vec![
                    RegionConfig::paper_default(),
                    RegionConfig {
                        region_bytes,
                        block_bytes: 64,
                    },
                ],
                read_only: true,
            })
        };
        assert!(
            registry.build(&spec(8192), 2).is_ok(),
            "8 kB = 128 blocks fits"
        );
        let err = registry.build(&spec(16384), 2).expect_err("256 blocks");
        assert!(
            matches!(&err, PluginError::BadParams { plugin, .. } if plugin == "oracle-probe"),
            "{err}"
        );
    }

    /// Asserts that building `spec` fails with `BadParams` naming its plugin
    /// and a message containing `message`.
    fn assert_rejected(spec: &PrefetcherSpec, message: &str) {
        // Admission refuses exactly what the build refuses, with the same
        // error.
        let checked = Registry::builtin()
            .check(spec)
            .expect_err("check refuses it");
        match Registry::builtin().build(spec, 2) {
            Err(error) if error != checked => panic!("build: {error:?}, check: {checked:?}"),
            Err(PluginError::BadParams {
                plugin,
                message: got,
            }) => {
                assert_eq!(plugin, spec.plugin);
                assert!(got.contains(message), "{got:?} lacks {message:?}");
            }
            Err(other) => panic!("expected BadParams, got {other:?}"),
            Ok(_) => panic!("{spec:?} must be rejected"),
        }
    }

    fn sms_with_region(region_bytes: u64, block_bytes: u64) -> PrefetcherSpec {
        PrefetcherSpec::sms(&SmsConfig {
            region: RegionConfig {
                region_bytes,
                block_bytes,
            },
            ..SmsConfig::paper_default()
        })
    }

    #[test]
    fn sms_rejects_a_block_that_is_not_a_power_of_two() {
        assert_rejected(&sms_with_region(2048, 96), "region: block size");
    }

    #[test]
    fn sms_rejects_a_region_that_is_not_a_power_of_two() {
        assert_rejected(&sms_with_region(3000, 64), "region: region size");
    }

    #[test]
    fn sms_rejects_a_region_wider_than_a_pattern() {
        assert_rejected(&sms_with_region(16384, 64), "at most 128 blocks");
    }

    #[test]
    fn sms_rejects_a_zero_byte_block() {
        assert_rejected(&sms_with_region(2048, 0), "region: block size");
    }

    #[test]
    fn sms_rejects_an_empty_or_partial_pht() {
        for (entries, associativity, message) in [
            (0, 16, "capacity must be positive"),
            (16, 0, "capacity must be positive"),
            (24, 16, "multiple of associativity"),
            (48, 16, "number of sets must be a power of two"),
        ] {
            let config = SmsConfig::paper_default().with_pht(PhtCapacity::Bounded {
                entries,
                associativity,
            });
            assert_rejected(&PrefetcherSpec::sms(&config), message);
        }
    }

    #[test]
    fn sms_rejects_zero_prediction_registers() {
        let mut config = SmsConfig::paper_default();
        config.streamer.registers = 0;
        assert_rejected(&PrefetcherSpec::sms(&config), "streamer: need at least one");
    }

    #[test]
    fn training_and_density_probe_reject_bad_geometry() {
        let wide = RegionConfig {
            region_bytes: 16384,
            block_bytes: 64,
        };
        assert_rejected(&PrefetcherSpec::density_probe(&wide), "at most 128 blocks");
        let training = |region, pht| {
            PrefetcherSpec::training(&TrainingSpec {
                region,
                pht,
                ..example_training_spec()
            })
        };
        let paper_pht = PhtCapacity::paper_default();
        assert_rejected(&training(wide, paper_pht), "at most 128 blocks");
        let partial_sets = PhtCapacity::Bounded {
            entries: 24,
            associativity: 16,
        };
        let paper_region = RegionConfig::paper_default();
        assert_rejected(
            &training(paper_region, partial_sets),
            "multiple of associativity",
        );
    }

    #[test]
    fn training_prefetcher_reports_post_run_state() {
        let spec = PrefetcherSpec::training(&TrainingSpec {
            trainer: TrainerKind::Agt,
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            pht: PhtCapacity::Unbounded,
            l1_capacity_bytes: 64 * 1024,
        });
        let built = Registry::builtin().build(&spec, 1).expect("training spec");
        let report = built.into_report();
        let training = report.training().expect("training report");
        assert_eq!((training.extra_misses, training.pht_len), (0, 0));
    }

    #[test]
    fn custom_plugins_extend_the_registry() {
        /// A trivial next-line prefetcher living entirely outside the
        /// engine: the open API in one screen of code.
        #[derive(Debug)]
        struct NextLine {
            issued: u64,
        }
        impl Prefetcher for NextLine {
            fn on_access_into(
                &mut self,
                access: &MemAccess,
                outcome: &SystemOutcome,
                out: &mut Vec<PrefetchRequest>,
            ) {
                if outcome.hierarchy.l1_miss() {
                    self.issued += 1;
                    out.push(PrefetchRequest {
                        cpu: access.cpu,
                        addr: access.addr + 64,
                        level: memsim::PrefetchLevel::L1,
                    });
                }
            }
            fn name(&self) -> &str {
                "next-line"
            }
        }
        impl Probe for NextLine {
            fn into_report(self: Box<Self>) -> ProbeReport {
                ProbeReport::new("next-line", &self.issued)
            }
        }
        struct NextLinePlugin;
        impl PrefetcherPlugin for NextLinePlugin {
            fn name(&self) -> &str {
                "next-line"
            }
            fn build(
                &self,
                _params: &serde_json::Value,
                _num_cpus: usize,
            ) -> Result<BuiltPrefetcher, PluginError> {
                Ok(BuiltPrefetcher::new(NextLine { issued: 0 }))
            }
        }

        let mut registry = Registry::with_builtins();
        assert!(registry.get("next-line").is_none());
        registry.register(Arc::new(NextLinePlugin));
        let spec = PrefetcherSpec::custom("next-line", &serde_json::Value::Null);
        let built = registry.build(&spec, 1).expect("custom plugin");
        assert_eq!(built.name(), "next-line");
        assert_eq!(built.into_report().decode::<u64>("next-line"), Some(0));
    }
}
