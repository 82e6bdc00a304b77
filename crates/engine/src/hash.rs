//! Canonical hashing of job specs: the content-addressed result-cache key.
//!
//! Engine jobs are deterministic — the jobs of a [`JobList`] fully
//! determine every byte of the results — so a canonical hash of the jobs
//! *is* the identity of the result set.  The job server (`crates/server`)
//! uses [`spec_fingerprint`] as its cache key; anything that cannot change
//! the results is deliberately excluded:
//!
//! * every engine setting — the worker count is a scheduling choice, and
//!   results are bit-identical across worker counts by construction;
//! * the spec's `version` and `name` fields — the version is normalized on
//!   load and the name is a client-facing label;
//! * JSON presentation — object key order and whitespace are erased by
//!   [`canonical_json`], so a reordered or reformatted spec file hashes
//!   identically.
//!
//! Two submissions share a cache line exactly when their jobs are equal.

use crate::runner::{JobList, SimJob};
use serde::Serialize;
use serde_json::Value;

/// Renders a JSON value canonically: object keys sorted (recursively),
/// compact separators, no insignificant whitespace.
///
/// Two values that differ only in object key order or formatting render to
/// the same string.  Array order is semantic and preserved.
pub fn canonical_json(value: &Value) -> String {
    serde_json::to_string(&sort_keys(value)).expect("compact JSON rendering is infallible")
}

/// Recursively sorts every object's entries by key; arrays keep their order.
fn sort_keys(value: &Value) -> Value {
    match value {
        Value::Object(entries) => {
            let mut sorted: Vec<(String, Value)> = entries
                .iter()
                .map(|(key, v)| (key.clone(), sort_keys(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        Value::Array(items) => Value::Array(items.iter().map(sort_keys).collect()),
        other => other.clone(),
    }
}

/// 64-bit FNV-1a over a byte string: small, dependency-free, and stable
/// across platforms and releases (the constants are fixed by the algorithm,
/// not by this build).  Public because it doubles as the workspace's
/// content checksum (the server's persistent cache files carry it).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The content-addressed identity of a job submission: a 16-hex-digit
/// fingerprint of the canonical JSON of the jobs (no engine setting enters
/// it, see the module docs for the rationale).
///
/// Equal fingerprints ⇒ byte-identical results, because jobs are
/// deterministic and the canonicalization erases only non-semantic JSON
/// presentation.
pub fn spec_fingerprint(jobs: &[SimJob]) -> String {
    let canonical = canonical_json(&jobs.to_value());
    format!("{:016x}", fnv1a_64(canonical.as_bytes()))
}

/// [`spec_fingerprint`] for a whole spec file: hashes the list's jobs,
/// ignoring its `version` and `name` fields (both presentation, neither
/// affects execution).
pub fn list_fingerprint(list: &JobList) -> String {
    spec_fingerprint(&list.jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrefetcherSpec;
    use memsim::HierarchyConfig;
    use trace::{Application, GeneratorConfig};

    fn jobs() -> Vec<SimJob> {
        vec![SimJob::new(memsim::SimJob::synthetic(
            Application::OltpDb2,
            GeneratorConfig::default().with_cpus(2),
            2006,
            2,
            HierarchyConfig::scaled(),
            PrefetcherSpec::sms_paper_default(),
            8_000,
        ))]
    }

    #[test]
    fn canonical_json_sorts_keys_recursively_and_drops_whitespace() {
        let a: Value = serde_json::from_str(r#"{"b": {"y": 2, "x": [1, 2]}, "a": 1}"#).unwrap();
        let b: Value = serde_json::from_str("{\"a\":1,\n  \"b\":{\"x\":[1,2],\"y\":2}}").unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"a":1,"b":{"x":[1,2],"y":2}}"#);
        // Array order is semantic, not presentation.
        let c: Value = serde_json::from_str(r#"{"a":1,"b":{"x":[2,1],"y":2}}"#).unwrap();
        assert_ne!(canonical_json(&a), canonical_json(&c));
    }

    #[test]
    fn fingerprint_is_stable_under_spec_reordering_and_reformatting() {
        let baseline = spec_fingerprint(&jobs());

        // Round-trip the jobs through differently-presented JSON: pretty
        // whitespace and reversed object key order must not change the key.
        let value = jobs().to_value();
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        let reordered = reverse_keys(&serde_json::from_str::<Value>(&pretty).unwrap());
        let reloaded: Vec<SimJob> = serde::Deserialize::from_value(&reordered).unwrap();
        assert_eq!(spec_fingerprint(&reloaded), baseline);

        // The list wrapper's version/name labels are not identity either.
        let named = JobList {
            name: Some("fig05 rerun".to_string()),
            ..JobList::new(jobs())
        };
        assert_eq!(list_fingerprint(&named), baseline);
    }

    #[test]
    fn fingerprint_changes_with_every_engine_relevant_field() {
        let baseline = spec_fingerprint(&jobs());

        // A prefetcher parameter change.
        let mut tweaked = jobs();
        tweaked[0].sim.prefetcher = PrefetcherSpec::null();
        assert_ne!(spec_fingerprint(&tweaked), baseline);

        // An access-budget change.
        let mut tweaked = jobs();
        tweaked[0].sim.accesses += 1;
        assert_ne!(spec_fingerprint(&tweaked), baseline);
    }

    /// Recursively reverses every object's key order (keeping arrays).
    fn reverse_keys(value: &Value) -> Value {
        match value {
            Value::Object(entries) => Value::Object(
                entries
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), reverse_keys(v)))
                    .collect(),
            ),
            Value::Array(items) => Value::Array(items.iter().map(reverse_keys).collect()),
            other => other.clone(),
        }
    }
}
