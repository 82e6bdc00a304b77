//! The serializable report envelope of the job server's counters.

use serde::{Deserialize, Serialize};

/// A self-describing telemetry report: a schema version for the envelope, a
/// stable `kind` tag naming the payload schema, and the kind-specific
/// payload.
///
/// This mirrors the engine's open `ProbeReport {kind, data}` design so
/// external tooling reads one shape everywhere: the job server's counters
/// (`kind: "server"`) and any report a future producer defines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Version of this envelope (`kind` + `data`) format itself.
    pub schema_version: u32,
    /// Stable tag naming the payload schema.
    pub kind: String,
    /// Kind-specific payload.
    pub data: serde_json::Value,
}

impl MetricsReport {
    /// Current envelope schema version.
    ///
    /// History: **1** — PR 4 (first envelopes: `engine-run`, `bench`);
    /// **2** — PR 5 (bench payloads gained required segment-parallel and
    /// warm-up fields, and the `bench-diff` kind was added);
    /// **3** — PR 6 (bench payloads gained required run-ahead fields and
    /// the recorded run-ahead depth);
    /// **4** — PR 7 (bench payloads gained the required per-figure
    /// `parallel_spread` sample-spread field and the recorded `repeats`
    /// count from `bench --repeat`);
    /// **5** — PR 8 (bench payloads gained required served-through-a-local-
    /// server columns — cold round trip and cache-hit replay — and the
    /// `server` kind was added for the job server's counters);
    /// **6** — PR 9 (log2-bucketed [`crate::Histogram`]s joined the
    /// payloads: `engine-run` job entries gained per-stage segment-latency
    /// histograms, the `server` kind gained cache-eviction/byte counters, a
    /// running-jobs gauge, per-client quota usage and a queue-wait
    /// histogram, and bench figures gained per-configuration warm-up
    /// wall-clock fields);
    /// **7** — `engine-run` job entries lost their three `spec_*` run-ahead
    /// counters with the run-ahead execution mode, and the `bench` /
    /// `bench-diff` kinds were retired with the `sms-experiments bench`
    /// harness.  The `engine-run` kind went later with the engine's
    /// whole-run metrics, which only tests ever reported; no envelope
    /// changed, so the version did not;
    /// **8** — the `server` payload lost six fields with the server's
    /// multi-tenant policies: `quota_rejections` and `clients` (client
    /// quotas), `overload_rejections` (load shedding), and `cache_bytes`,
    /// `cache_evictions` and `cache_evicted_bytes` (result-cache budgets).
    pub const SCHEMA_VERSION: u32 = 8;

    /// A report of the given kind carrying `payload` serialized as JSON.
    pub fn new<T: Serialize + ?Sized>(kind: &str, payload: &T) -> Self {
        Self {
            schema_version: Self::SCHEMA_VERSION,
            kind: kind.to_string(),
            data: serde_json::to_value(payload).expect("value-tree serialization cannot fail"),
        }
    }

    /// Decodes the payload as `T` if this report has the given kind.
    ///
    /// A kind mismatch yields `None`; a matching kind whose payload fails to
    /// decode is reported as an error (the report is corrupt, not merely of
    /// another kind).
    ///
    /// # Errors
    ///
    /// The deserialization failure message when the kind matches but the
    /// payload does not decode as `T`.
    pub fn decode<T: Deserialize>(&self, kind: &str) -> Result<Option<T>, String> {
        if self.kind != kind {
            return Ok(None);
        }
        serde_json::from_value(&self.data)
            .map(Some)
            .map_err(|e| format!("report kind {kind:?}: payload failed to decode: {e}"))
    }

    /// Validates the envelope itself: a supported schema version, a
    /// non-empty kind, and a non-null payload.
    ///
    /// Payload schemas are checked by their producers; this only guards the
    /// envelope contract that external tooling relies on.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != Self::SCHEMA_VERSION {
            return Err(format!(
                "unsupported metrics schema version {} (this build reads version {})",
                self.schema_version,
                Self::SCHEMA_VERSION
            ));
        }
        if self.kind.is_empty() {
            return Err("metrics report kind must not be empty".to_string());
        }
        if self.data == serde_json::Value::Null {
            return Err(format!("metrics report {:?} has no payload", self.kind));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Payload {
        events: u64,
        rate: f64,
    }

    fn sample() -> MetricsReport {
        MetricsReport::new(
            "test",
            &Payload {
                events: 7,
                rate: 3.5,
            },
        )
    }

    #[test]
    fn round_trips_and_validates() {
        let report = sample();
        assert!(report.validate().is_ok());
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let payload: Payload = back.decode("test").unwrap().expect("matching kind");
        assert_eq!(payload.events, 7);
    }

    #[test]
    fn kind_mismatch_is_none_not_error() {
        let report = sample();
        let other: Option<Payload> = report.decode("other").unwrap();
        assert!(other.is_none());
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let mut report = sample();
        report.data = serde_json::Value::String("not an object".to_string());
        let err = report.decode::<Payload>("test").unwrap_err();
        assert!(err.contains("failed to decode"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_envelopes() {
        let mut report = sample();
        report.schema_version = 99;
        assert!(report
            .validate()
            .unwrap_err()
            .contains("unsupported metrics schema version 99"));

        let mut report = sample();
        report.kind.clear();
        assert!(report.validate().unwrap_err().contains("kind"));

        let mut report = sample();
        report.data = serde_json::Value::Null;
        assert!(report.validate().unwrap_err().contains("no payload"));
    }
}
