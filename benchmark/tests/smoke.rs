//! The benchmark's own contract: its metric and workload names match
//! `BENCHMARK.json`, and every workload runs clean at a tiny scale, end to
//! end and per layer.

use benchmark::report::END_TO_END;
use benchmark::traced::PER_LAYER;
use benchmark::workloads::{Scale, Workload};
use benchmark::{program, Context};
use serde_json::Value;
use std::path::PathBuf;

fn is_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn listed(manifest: &Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
    manifest
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|entry| {
            fields
                .iter()
                .map(|field| {
                    entry
                        .get(field)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("{key} entries carry {field}"))
                        .to_string()
                })
                .collect()
        })
        .collect()
}

#[test]
fn names_match_benchmark_json() {
    let text = std::fs::read_to_string(program::checkout_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the checkout root");
    let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let pairs = |metrics: &[(&str, &str)]| -> Vec<Vec<String>> {
        metrics
            .iter()
            .map(|(name, unit)| vec![name.to_string(), unit.to_string()])
            .collect()
    };
    assert_eq!(
        listed(&manifest, "end_to_end", &["name", "unit"]),
        pairs(&END_TO_END)
    );
    assert_eq!(
        listed(&manifest, "per_layer", &["name", "unit"]),
        pairs(&PER_LAYER)
    );
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(
        listed(&manifest, "workloads", &["name"]).concat(),
        workloads
    );
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(name, _)| *name)
        .chain(Workload::ALL.iter().map(|w| w.name()));
    for name in names {
        assert!(is_name(name), "{name:?} is not a valid name");
    }
}

#[test]
fn every_workload_runs_clean_at_a_tiny_scale() {
    let program = program::build(&program::checkout_root()).expect("the program builds");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let ctx = Context {
                program: program.clone(),
                workload,
                seed: 11,
                scale: Scale::tiny(),
                seconds: 0.1,
                work: PathBuf::from(format!("work/smoke-{}", workload.name())),
                out: PathBuf::from(format!("work/smoke-{}-out", workload.name())),
            };
            let (metrics, tally) = benchmark::run(&ctx, trace)
                .unwrap_or_else(|e| panic!("{} (trace {trace}): {e}", workload.name()));
            assert_eq!(tally.failed, 0, "{} (trace {trace})", workload.name());
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expected);
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                // Every end-to-end metric is a positive measurement.
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "{}: {metrics:?}",
                    workload.name()
                );
            }
            let _ = std::fs::remove_dir_all(&ctx.out);
        }
    }
}
