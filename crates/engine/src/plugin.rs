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
//! Specs stay plain data ([`PrefetcherSpec`](crate::spec::PrefetcherSpec) is
//! a plugin name plus a parameter tree), which is what makes whole job lists
//! round-trippable through JSON files.

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

    /// Whether this probe consumes the *miss-kind classifications*
    /// (`SystemOutcome::l1_miss_kind` / `l2_miss_kind`).
    ///
    /// Segment-parallel execution defers miss classification off the
    /// simulation thread, so those two fields arrive as `None` there.  A
    /// probe that needs the kinds must therefore keep all kind-consuming
    /// state in a detachable [`KindSink`], return `true` here, and hand the
    /// sink over via [`take_kind_sink`](Self::take_kind_sink).  The engine
    /// feeds the sink itself: inline with each outcome on serial runs,
    /// or from the accounting stage's bit-identical
    /// [`MissAccounting::replay_with_kinds`](memsim::MissAccounting::replay_with_kinds)
    /// pass on segmented runs.  The probe's own `on_access`
    /// must **not** read the two kind fields — they are `None` whenever
    /// classification is deferred.
    ///
    /// The default is `false`, which is accurate for every built-in
    /// prefetcher and probe (they consume hit/miss outcomes, evictions and
    /// invalidations, never the classification).
    fn wants_miss_kinds(&self) -> bool {
        false
    }

    /// Detaches this probe's kind-consuming state so the engine can feed it
    /// (see [`wants_miss_kinds`](Self::wants_miss_kinds)).  Called once at
    /// construction; a probe returning `true` from `wants_miss_kinds` **must**
    /// return `Some` here or the engine panics — the contract has no silent
    /// fallback.
    fn take_kind_sink(&mut self) -> Option<Box<dyn KindSink>> {
        None
    }

    /// Reattaches the sink taken by [`take_kind_sink`](Self::take_kind_sink)
    /// so [`into_report`](Self::into_report) sees its accumulated state.
    /// Called exactly once, just before the report is extracted.
    fn restore_kind_sink(&mut self, _sink: Box<dyn KindSink>) {}
}

/// The detachable kind-consuming component of a probe that declares
/// [`Probe::wants_miss_kinds`].
///
/// The engine owns the sink for the duration of a run and feeds it one call
/// per simulated (non-skipped) access, in stream order, with exactly the
/// `(l1, l2)` miss kinds the serial inline path reports: `Some` for
/// classified read misses, `None` for hits and write misses.  On serial runs
/// the feed happens inline; on segmented runs it happens on the accounting
/// stage, where the kinds are recomputed bit-identically from
/// the outcome tape.
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
/// afterwards.  For probes that declare [`Probe::wants_miss_kinds`], the
/// wrapper also holds the detached [`KindSink`]: while attached, the sink is
/// fed inline from each access's outcome; the segment pipeline
/// [`take_kind_sink`](Self::take_kind_sink)s it and feeds it from the
/// accounting stage instead.
pub struct BuiltPrefetcher {
    inner: Box<dyn Probe>,
    sink: Option<Box<dyn KindSink>>,
}

impl BuiltPrefetcher {
    /// Wraps a concrete probe.
    ///
    /// # Panics
    ///
    /// If the probe declares [`Probe::wants_miss_kinds`] but provides no
    /// [`KindSink`] — the contract has no fallback path.
    pub fn new(probe: impl Probe + 'static) -> Self {
        Self::from_box(Box::new(probe))
    }

    /// Wraps an already-boxed probe.
    ///
    /// # Panics
    ///
    /// If the probe declares [`Probe::wants_miss_kinds`] but provides no
    /// [`KindSink`].
    pub fn from_box(mut inner: Box<dyn Probe>) -> Self {
        let sink = if inner.wants_miss_kinds() {
            let sink = inner.take_kind_sink();
            assert!(
                sink.is_some(),
                "probe {:?} declares wants_miss_kinds but take_kind_sink returned None; \
                 kind-consuming probes must hand their sink to the engine so segmented \
                 execution can feed it from the accounting stage",
                inner.name()
            );
            sink
        } else {
            None
        };
        Self { inner, sink }
    }

    /// Consumes the prefetcher and extracts its post-run report, first
    /// reattaching the kind sink (if any) so the report sees the kind-derived
    /// state.
    pub fn into_report(mut self) -> ProbeReport {
        if let Some(sink) = self.sink.take() {
            self.inner.restore_kind_sink(sink);
        }
        self.inner.into_report()
    }

    /// Whether the wrapped probe consumes miss-kind classifications (see
    /// [`Probe::wants_miss_kinds`]); the segment pipeline detaches such
    /// probes' sinks and feeds them from the accounting stage.
    pub fn wants_miss_kinds(&self) -> bool {
        self.inner.wants_miss_kinds()
    }

    /// Detaches the kind sink for deferred feeding (the segment pipeline's
    /// accounting stage).  While detached, [`Prefetcher::on_access_into`] no
    /// longer feeds kinds inline — exactly right, because deferred outcomes
    /// carry `None` kinds.  Returns `None` for probes without a sink.
    pub fn take_kind_sink(&mut self) -> Option<Box<dyn KindSink>> {
        self.sink.take()
    }

    /// Reattaches a sink detached by [`take_kind_sink`](Self::take_kind_sink).
    pub fn restore_kind_sink(&mut self, sink: Box<dyn KindSink>) {
        debug_assert!(self.sink.is_none(), "restoring over an attached sink");
        self.sink = Some(sink);
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
    fn on_access(
        &mut self,
        access: &trace::MemAccess,
        outcome: &memsim::SystemOutcome,
    ) -> Vec<memsim::PrefetchRequest> {
        if let Some(sink) = &mut self.sink {
            sink.on_kinds(access, outcome.l1_miss_kind, outcome.l2_miss_kind);
        }
        self.inner.on_access(access, outcome)
    }

    fn on_access_into(
        &mut self,
        access: &trace::MemAccess,
        outcome: &memsim::SystemOutcome,
        out: &mut Vec<memsim::PrefetchRequest>,
    ) {
        // An attached sink means classification is inline and the outcome
        // carries real kinds; the pipeline detaches the sink before running
        // deferred, where both kind fields are `None`.
        if let Some(sink) = &mut self.sink {
            sink.on_kinds(access, outcome.l1_miss_kind, outcome.l2_miss_kind);
        }
        // Forward explicitly so the inner probe's batched override is used
        // (the trait default would route through the allocating `on_access`).
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

    /// The shared process-wide registry of built-ins, used by the engine's
    /// convenience entry points ([`run_jobs`](crate::runner::run_jobs),
    /// [`run_jobs_with`](crate::runner::run_jobs_with)).  Custom plugins
    /// cannot be added here; build your own registry with
    /// [`Registry::with_builtins`] + [`Registry::register`] and pass it to
    /// [`run_jobs_in`](crate::runner::run_jobs_in).
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
        let plugin = self
            .get(&spec.plugin)
            .ok_or_else(|| PluginError::UnknownPlugin {
                name: spec.plugin.clone(),
                suggestion: closest_match(&spec.plugin, self.names().into_iter()),
            })?;
        plugin.build(&spec.params, num_cpus)
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
