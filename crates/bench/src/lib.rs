//! Benchmark harness crate.
//!
//! The Criterion benchmarks live in `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure, each running a
//!   scaled-down version of the corresponding experiment from the
//!   `experiments` crate (the full-size runs are produced by the
//!   `sms-experiments` binary);
//! * `predictor_micro` — micro-benchmarks of the individual hardware
//!   structures (AGT, PHT, prediction registers, GHB, cache).
//!
//! This library only exposes the shared benchmark-scale configuration.

#![warn(missing_docs)]

use experiments::common::ExperimentConfig;
use memsim::HierarchyConfig;

/// The experiment scale used inside Criterion benchmark iterations: small
/// enough that a single iteration completes in tens of milliseconds, while
/// still exercising every code path of the full experiments.
///
/// Benchmarks pin the engine to one worker (`workers: 1`) so iteration
/// timings measure the simulation itself, not thread scheduling; the
/// `engine` benchmark group measures the parallel path explicitly.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        cpus: 1,
        accesses: 8_000,
        seed: 2006,
        hierarchy: HierarchyConfig::scaled(),
        workers: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_small() {
        let c = bench_config();
        assert!(c.accesses <= 10_000);
        assert_eq!(c.cpus, 1);
    }
}
