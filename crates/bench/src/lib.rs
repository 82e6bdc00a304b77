//! Benchmark harness crate.
//!
//! The Criterion benchmarks live in `benches/`: `predictor_micro` holds the
//! micro-benchmarks of the individual hardware structures (AGT, PHT,
//! prediction registers, GHB, cache, coherence) and the SMS layer replaying
//! a recorded run's prefetcher calls.  End-to-end speed — figure sweeps,
//! the paper's 16-CPU system, trace replay and serving — is measured by the
//! standalone `benchmark/` package instead.
