//! Golden digests: `engine::fnv1a_64` of every operation's output bytes at
//! [`GOLDEN_SEED`](crate::workloads::GOLDEN_SEED) and full scale, committed
//! in `benchmark/golden.json`.
//!
//! A change that alters simulated results on purpose regenerates the file
//! with `cargo run --release --manifest-path benchmark/Cargo.toml -- golden`.

use serde_json::Value;

const GOLDEN: &str = include_str!("../golden.json");

/// The digest of an output, as the golden file stores it.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", engine::fnv1a_64(bytes))
}

/// The committed digest of operation `op` of `workload`.
fn expected(workload: &str, op: &str) -> Option<String> {
    let golden: Value = serde_json::from_str(GOLDEN).expect("the committed golden file parses");
    golden.get(workload)?.get(op)?.as_str().map(str::to_string)
}

/// Checks an output against its committed digest.
///
/// # Errors
///
/// A message naming the operation when the digest is missing or differs.
pub fn check(workload: &str, op: &str, bytes: &[u8]) -> Result<(), String> {
    let actual = digest(bytes);
    match expected(workload, op) {
        Some(expected) if expected == actual => Ok(()),
        Some(expected) => Err(format!(
            "{workload}/{op}: output digest {actual} differs from golden {expected}"
        )),
        None => Err(format!(
            "{workload}/{op}: no golden digest recorded (actual {actual})"
        )),
    }
}

/// Renders a golden file from `(workload, [(op, digest)])` entries.
pub fn render(seed: u64, entries: &[(&str, Vec<(String, String)>)]) -> String {
    let mut object = vec![("seed".to_string(), Value::UInt(seed))];
    for (workload, ops) in entries {
        object.push((
            workload.to_string(),
            Value::Object(
                ops.iter()
                    .map(|(op, digest)| (op.clone(), Value::String(digest.clone())))
                    .collect(),
            ),
        ));
    }
    serde_json::to_string_pretty(&Value::Object(object)).expect("a value tree always renders")
        + "\n"
}
