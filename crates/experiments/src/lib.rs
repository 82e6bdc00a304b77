//! Experiment runners that regenerate every table and figure of
//! *Spatial Memory Streaming* (ISCA 2006).
//!
//! Each `figNN` module reproduces one figure of the paper's evaluation
//! section on the synthetic workload suite, printing the same rows/series the
//! paper reports (coverage, uncovered and overprediction fractions, miss-rate
//! curves, speedups with confidence intervals, execution-time breakdowns).
//! Every module *declares* its simulations as an [`engine::SimJob`] list
//! (its `jobs` function — plain serializable data, registry-resolved
//! prefetcher specs included) and post-processes the
//! [`engine::JobResult`]s (its `from_results` function); the engine
//! executes the list across worker threads with results bit-identical to a
//! serial run.  Because declaration and post-processing are split, the
//! `sms-experiments` binary can also write any figure's job list to a JSON
//! spec file and execute arbitrary spec files.
//!
//! Two shared pieces carry the modules.  [`catalog::EXPERIMENTS`] is the one
//! experiment table: each entry names an experiment, declares its jobs and
//! reports their results as printed tables and a `--json` value, and the
//! CLI reads nothing else to run, emit, dump or list experiments.  The class
//! sweep in [`common`] ([`common::class_sweep_jobs`],
//! [`common::class_sweep_points`], [`common::coverage_grid`]) is the
//! experiment Figures 6–10 and [`agt_size`] repeat: per workload class, L1
//! read-miss coverage against a no-prefetch baseline while one design
//! parameter varies; those modules declare only their variants and their
//! per-point arithmetic.
//!
//! ```text
//! sms-experiments all                  # regenerate everything (slow)
//! sms-experiments fig6 --quick         # one figure, reduced trace length
//! sms-experiments --figure fig05 --jobs 2 --json out.json --out raw.json
//! sms-experiments fig5 --emit-spec jobs.json   # declare, don't run
//! sms-experiments run --spec jobs.json --out raw.json
//! sms-experiments list                 # experiments + prefetcher plugins
//! sms-experiments list --json          # machine-readable catalog
//! ```
//!
//! Absolute numbers differ from the paper — the substrate is a trace-driven
//! simulator fed by synthetic workloads rather than FLEXUS running the
//! commercial stacks — but the qualitative shape of every result (who wins,
//! by roughly what factor, where the crossovers are) is meant to hold; each
//! module's docs name the paper result it reproduces.
//!
//! The repository's performance benchmark is not here: it lives in
//! `benchmark/` and drives the `sms-experiments` binary from outside.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agt_size;
pub mod catalog;
pub mod common;
pub mod fig04_block_size;
pub mod fig05_density;
pub mod fig06_indexing;
pub mod fig07_pht_size;
pub mod fig08_training;
pub mod fig09_pht_training;
pub mod fig10_region_size;
pub mod fig11_ghb_comparison;
pub mod fig12_speedup;
pub mod fig13_breakdown;
pub mod report;
pub mod table1;

pub use common::ExperimentConfig;
pub use report::Table;
