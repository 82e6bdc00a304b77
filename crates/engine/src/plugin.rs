//! The open plugin API: prefetchers and probes as registry-backed plugins.
//!
//! PR 2 closed the evaluation space into enums — every prefetcher kind and
//! every probe report was a variant, and adding one meant editing the
//! engine.  This module opens both seams:
//!
//! * a [`PrefetcherPlugin`] is a named factory that builds a live
//!   [`Probe`] (a `memsim::Prefetcher` that also yields a serializable
//!   [`ProbeReport`]) from plugin-specific JSON parameters;
//! * a [`Registry`] maps stable plugin names to plugins.  It ships with all
//!   built-ins registered ([`Registry::with_builtins`], also available as
//!   the shared [`Registry::builtin`]), and experiments or tests can
//!   [`Registry::register`] their own plugins without touching the engine;
//! * a [`ProbeReport`] is an open `{kind, data}` pair rather than an enum,
//!   so new probes serialize their own payloads.
//!
//! Specs stay plain data (a [`PrefetcherSpec`] is a plugin name plus a
//! parameter tree), which is what makes whole job lists round-trippable
//! through JSON files.

use memsim::Prefetcher;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::spec::PrefetcherSpec;

/// A live prefetcher or passive probe attached to a simulation run.
///
/// A probe drives the run as a [`memsim::Prefetcher`] and, once the run
/// completes, is consumed for whatever post-run measurement state it
/// exposes.  Pure prefetchers with no report (the null baseline, the GHB)
/// use the default empty report.
pub trait Probe: Prefetcher + Send {
    /// Consumes the probe and extracts its post-run report.
    fn into_report(self: Box<Self>) -> ProbeReport {
        ProbeReport::none()
    }

    /// Detaches this probe's kind-consuming state so the engine can feed it
    /// the *miss-kind classifications* (`SystemOutcome::l1_miss_kind` /
    /// `l2_miss_kind`).
    ///
    /// The engine simulates with classification deferred, so the outcomes
    /// a probe's `on_access_into` sees carry `None` for both kinds.  A probe
    /// that needs them keeps that state in a [`KindSink`] and returns it
    /// here; the engine calls this once before the run and feeds the sink
    /// from its bit-identical
    /// [`MissAccounting::replay_with_kinds`](memsim::MissAccounting::replay_with_kinds)
    /// pass.  The default `None` suits every built-in prefetcher and probe:
    /// they consume hit/miss outcomes, evictions and invalidations, never the
    /// classification.
    fn take_kind_sink(&mut self) -> Option<Box<dyn KindSink>> {
        None
    }

    /// Reattaches the sink taken by [`take_kind_sink`](Self::take_kind_sink)
    /// so [`into_report`](Self::into_report) sees its accumulated state.
    /// Called exactly once, just before the report is extracted.
    fn restore_kind_sink(&mut self, _sink: Box<dyn KindSink>) {}
}

/// The detachable kind-consuming component of a probe (see
/// [`Probe::take_kind_sink`]).
///
/// The engine owns the sink for the duration of a run and feeds it one call
/// per simulated (non-skipped) access, in stream order, with the `(l1, l2)`
/// miss kinds the per-access reference loop's outcomes carry: `Some` for
/// classified read misses, `None` for hits and write misses.  The kinds are
/// recomputed from each segment's outcome tape.
pub trait KindSink: Send {
    /// Consumes one access's miss-kind classifications.
    fn on_kinds(
        &mut self,
        access: &trace::MemAccess,
        l1: Option<memsim::MissKind>,
        l2: Option<memsim::MissKind>,
    );

    /// Recovers the concrete sink so
    /// [`Probe::restore_kind_sink`] can downcast it back into the probe.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// A live prefetcher instantiated from a [`PrefetcherSpec`] by a plugin.
///
/// This is an owning wrapper around a boxed [`Probe`] so the engine can pass
/// it to the drivers as a plain [`Prefetcher`] and still extract the report
/// afterwards.
pub struct BuiltPrefetcher {
    inner: Box<dyn Probe>,
}

impl BuiltPrefetcher {
    /// Wraps a concrete probe.
    pub fn new(probe: impl Probe + 'static) -> Self {
        Self::from_box(Box::new(probe))
    }

    /// Wraps an already-boxed probe.
    pub fn from_box(inner: Box<dyn Probe>) -> Self {
        Self { inner }
    }

    /// Consumes the prefetcher and extracts its post-run report.
    pub fn into_report(self) -> ProbeReport {
        self.inner.into_report()
    }

    /// Detaches the probe's kind sink, if it has one (see
    /// [`Probe::take_kind_sink`]).
    pub fn take_kind_sink(&mut self) -> Option<Box<dyn KindSink>> {
        self.inner.take_kind_sink()
    }

    /// Reattaches a sink detached by [`take_kind_sink`](Self::take_kind_sink).
    pub fn restore_kind_sink(&mut self, sink: Box<dyn KindSink>) {
        self.inner.restore_kind_sink(sink);
    }
}

impl fmt::Debug for BuiltPrefetcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BuiltPrefetcher")
            .field("name", &self.inner.name())
            .finish()
    }
}

impl Prefetcher for BuiltPrefetcher {
    fn on_access_into(
        &mut self,
        access: &trace::MemAccess,
        outcome: &memsim::SystemOutcome,
        out: &mut Vec<memsim::PrefetchRequest>,
    ) {
        self.inner.on_access_into(access, outcome, out);
    }

    fn on_stream_eviction(&mut self, cpu: u8, block_addr: u64) {
        self.inner.on_stream_eviction(cpu, block_addr);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Post-run measurement state in open, serializable form: a stable `kind`
/// tag naming the report schema and a kind-specific JSON payload.
///
/// Built-in kinds are `"none"`, `"sms"` ([`sms::PredictorStats`]),
/// `"training"` ([`TrainingReport`]), `"density"` ([`DensityReport`]) and
/// `"oracle"` ([`OracleReport`]); custom plugins define their own.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeReport {
    /// Stable tag naming the payload schema.
    pub kind: String,
    /// Kind-specific payload.
    pub data: serde_json::Value,
}

impl ProbeReport {
    /// The empty report of probes with no post-run state.
    pub fn none() -> Self {
        Self {
            kind: "none".to_string(),
            data: serde_json::Value::Null,
        }
    }

    /// A report of the given kind carrying `payload` serialized as JSON.
    pub fn new<T: Serialize + ?Sized>(kind: &str, payload: &T) -> Self {
        Self {
            kind: kind.to_string(),
            data: serde_json::to_value(payload).expect("value-tree serialization cannot fail"),
        }
    }

    /// Decodes the payload as `T` if this report has the given kind.
    ///
    /// A kind mismatch yields `None` (the caller asked the wrong question);
    /// a matching kind whose payload does not decode is a corrupt report
    /// and panics with the underlying error rather than masquerading as a
    /// mismatch.
    ///
    /// # Panics
    ///
    /// If the kind matches but the payload fails to deserialize as `T`.
    pub fn decode<T: Deserialize>(&self, kind: &str) -> Option<T> {
        if self.kind != kind {
            return None;
        }
        match serde_json::from_value(&self.data) {
            Ok(payload) => Some(payload),
            Err(e) => panic!("ProbeReport kind {kind:?}: payload failed to decode: {e}"),
        }
    }

    /// The summed SMS predictor counters, if this report came from an SMS
    /// run.
    pub fn sms(&self) -> Option<sms::PredictorStats> {
        self.decode("sms")
    }

    /// The density histograms, if this report came from a density probe.
    pub fn density(&self) -> Option<DensityReport> {
        self.decode("density")
    }

    /// The training counters, if this report came from a training run.
    pub fn training(&self) -> Option<TrainingReport> {
        self.decode("training")
    }

    /// The per-region oracle misses, if this report came from an oracle
    /// probe.
    pub fn oracle(&self) -> Option<OracleReport> {
        self.decode("oracle")
    }
}

/// Payload of a `"density"` [`ProbeReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DensityReport {
    /// L1 read-miss density histogram.
    pub l1: sms::DensityHistogram,
    /// Off-chip read-miss density histogram.
    pub l2: sms::DensityHistogram,
}

/// Payload of a `"training"` [`ProbeReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Misses added by the decoupled sectored cache's constrained contents
    /// (zero for the other trainers).
    pub extra_misses: u64,
    /// Patterns resident in the PHT at the end of the run.
    pub pht_len: u64,
}

/// Payload of an `"oracle"` [`ProbeReport`]: one entry per requested region
/// geometry, in spec order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OracleReport {
    /// L1 oracle misses per region geometry.
    pub l1_misses: Vec<u64>,
    /// Off-chip oracle misses per region geometry.
    pub l2_misses: Vec<u64>,
}

/// An error raised while resolving or building a prefetcher plugin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PluginError {
    /// The spec named a plugin the registry does not know.
    UnknownPlugin {
        /// The unknown name.
        name: String,
        /// The closest registered name, if any is plausibly intended.
        suggestion: Option<String>,
    },
    /// The plugin rejected the spec's parameter tree.
    BadParams {
        /// The plugin that rejected its parameters.
        plugin: String,
        /// What was wrong with them.
        message: String,
    },
}

impl fmt::Display for PluginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PluginError::UnknownPlugin { name, suggestion } => {
                write!(f, "unknown prefetcher plugin {name:?}")?;
                if let Some(suggestion) = suggestion {
                    write!(f, " (did you mean {suggestion:?}?)")?;
                }
                Ok(())
            }
            PluginError::BadParams { plugin, message } => {
                write!(f, "bad parameters for plugin {plugin:?}: {message}")
            }
        }
    }
}

impl std::error::Error for PluginError {}

/// A named factory that builds live prefetchers from JSON parameters.
///
/// Implementations must be deterministic: building twice from the same
/// parameters yields prefetchers with identical behavior (this is what lets
/// the engine ship specs to worker threads and still merge bit-identical
/// results).
pub trait PrefetcherPlugin: Send + Sync {
    /// The stable name specs use to select this plugin.
    fn name(&self) -> &str;

    /// A one-line description for `sms-experiments list`.
    fn description(&self) -> &str {
        ""
    }

    /// Builds a fresh prefetcher for a `num_cpus`-processor system.
    ///
    /// # Errors
    ///
    /// [`PluginError::BadParams`] if `params` does not decode into this
    /// plugin's configuration.
    fn build(
        &self,
        params: &serde_json::Value,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError>;

    /// Checks `params` without building anything, so a spec is refused
    /// before its run starts.  A plugin that overrides it must reject
    /// exactly what [`build`](Self::build) rejects; the default accepts
    /// everything and leaves the errors to `build`.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    fn check(&self, _params: &serde_json::Value) -> Result<(), PluginError> {
        Ok(())
    }
}

/// Decodes a plugin's parameter tree into its typed configuration, mapping
/// failures to [`PluginError::BadParams`].  Exposed for custom plugins.
pub fn decode_params<T: Deserialize>(
    plugin: &str,
    params: &serde_json::Value,
) -> Result<T, PluginError> {
    serde_json::from_value(params).map_err(|e| PluginError::BadParams {
        plugin: plugin.to_string(),
        message: e.to_string(),
    })
}

/// A name→plugin map resolving [`PrefetcherSpec`]s to live prefetchers.
///
/// `BTreeMap` keeps [`Registry::names`] sorted, so listings and suggestion
/// candidates are deterministic.
#[derive(Clone, Default)]
pub struct Registry {
    plugins: BTreeMap<String, Arc<dyn PrefetcherPlugin>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("plugins", &self.names())
            .finish()
    }
}

impl Registry {
    /// An empty registry (tests of the error paths start here).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A registry with every built-in plugin registered: `null`, `sms`,
    /// `ghb`, `training`, `density-probe` and `oracle-probe`.
    pub fn with_builtins() -> Self {
        let mut registry = Self::empty();
        for plugin in crate::spec::builtin_plugins() {
            registry.register(plugin);
        }
        registry
    }

    /// The shared process-wide registry of built-ins, which
    /// [`RunOptions::new`](crate::runner::RunOptions::new) selects.  Custom
    /// plugins cannot be added here; build your own registry with
    /// [`Registry::with_builtins`] + [`Registry::register`] and pass it to
    /// [`execute`](crate::runner::execute) in
    /// [`RunOptions::registry`](crate::runner::RunOptions::registry).
    pub fn builtin() -> &'static Registry {
        static BUILTIN: OnceLock<Registry> = OnceLock::new();
        BUILTIN.get_or_init(Registry::with_builtins)
    }

    /// Registers `plugin` under its own name, returning the plugin it
    /// replaced, if any (tests use this to shadow built-ins).
    pub fn register(
        &mut self,
        plugin: Arc<dyn PrefetcherPlugin>,
    ) -> Option<Arc<dyn PrefetcherPlugin>> {
        self.plugins.insert(plugin.name().to_string(), plugin)
    }

    /// Looks up a plugin by name.
    pub fn get(&self, name: &str) -> Option<&dyn PrefetcherPlugin> {
        self.plugins.get(name).map(Arc::as_ref)
    }

    /// The registered plugin names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.plugins.keys().map(String::as_str).collect()
    }

    /// Number of registered plugins.
    pub fn len(&self) -> usize {
        self.plugins.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.plugins.is_empty()
    }

    /// Resolves `spec` and builds its prefetcher for a `num_cpus`-processor
    /// system.
    ///
    /// # Errors
    ///
    /// [`PluginError::UnknownPlugin`] (with a "did you mean" suggestion
    /// when one is close) if the spec names an unregistered plugin, or
    /// whatever the plugin itself raises for bad parameters.
    pub fn build(
        &self,
        spec: &PrefetcherSpec,
        num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        self.resolve(spec)?.build(&spec.params, num_cpus)
    }

    /// Resolves `spec` and checks its parameters
    /// ([`PrefetcherPlugin::check`]) without building a prefetcher.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build).
    pub fn check(&self, spec: &PrefetcherSpec) -> Result<(), PluginError> {
        self.resolve(spec)?.check(&spec.params)
    }

    fn resolve(&self, spec: &PrefetcherSpec) -> Result<&dyn PrefetcherPlugin, PluginError> {
        self.get(&spec.plugin)
            .ok_or_else(|| PluginError::UnknownPlugin {
                name: spec.plugin.clone(),
                suggestion: closest_match(&spec.plugin, self.names().into_iter()),
            })
    }
}

/// The candidate most plausibly intended by a mistyped `name`, if any is
/// close enough (edit distance at most 2, or one is a prefix of the other).
///
/// Shared by the registry's unknown-plugin errors and the experiment CLI's
/// unknown-experiment errors.
pub fn closest_match<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<String> {
    let name_lower = name.to_ascii_lowercase();
    let mut best: Option<(usize, &str)> = None;
    for candidate in candidates {
        let candidate_lower = candidate.to_ascii_lowercase();
        if candidate_lower.starts_with(&name_lower) || name_lower.starts_with(&candidate_lower) {
            return Some(candidate.to_string());
        }
        let distance = edit_distance(&name_lower, &candidate_lower);
        if best.is_none_or(|(d, _)| distance < d) {
            best = Some((distance, candidate));
        }
    }
    match best {
        Some((distance, candidate)) if distance <= 2 => Some(candidate.to_string()),
        _ => None,
    }
}

/// Levenshtein distance between two short strings (single-row DP).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = prev_diag + usize::from(ca != cb);
            prev_diag = row[j + 1];
            row[j + 1] = substitution.min(row[j] + 1).min(prev_diag + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("sms", "sms"), 0);
        assert_eq!(edit_distance("sms", "smss"), 1);
        assert_eq!(edit_distance("ghb", "gbh"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn closest_match_suggests_and_gives_up() {
        let names = ["null", "sms", "ghb", "density-probe"];
        assert_eq!(
            closest_match("smss", names.iter().copied()),
            Some("sms".to_string())
        );
        assert_eq!(
            closest_match("density", names.iter().copied()),
            Some("density-probe".to_string()),
            "prefixes are always suggested"
        );
        assert_eq!(
            closest_match("GHB", names.iter().copied()),
            Some("ghb".to_string()),
            "matching is case-insensitive"
        );
        assert_eq!(closest_match("zzzzzzzz", names.iter().copied()), None);
    }

    #[test]
    fn probe_report_round_trips_payloads() {
        let report = ProbeReport::new(
            "training",
            &TrainingReport {
                extra_misses: 7,
                pht_len: 42,
            },
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: ProbeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let payload = back.training().expect("training payload");
        assert_eq!(payload.extra_misses, 7);
        assert_eq!(payload.pht_len, 42);
        assert!(back.density().is_none(), "kind mismatch must yield None");
        assert_eq!(ProbeReport::none().kind, "none");
    }
}
