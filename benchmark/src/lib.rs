//! Outside-in benchmark of the SMS reproduction.
//!
//! The benchmark builds the release `sms-experiments` binary from the
//! checkout, feeds it only inputs generated from `--seed` (spec files,
//! trace files and socket submissions), checks its outputs, and reports
//! end-to-end metrics (`--trace 0`) or per-layer metrics from a traced
//! re-run of the same jobs (`--trace 1`).  See `benchmark/README.md`.

pub mod batch;
pub mod golden;
pub mod layers;
pub mod probe;
pub mod proc;
pub mod program;
pub mod report;
pub mod served;
pub mod traced;
pub mod workloads;

use std::path::PathBuf;
use workloads::{Scale, Workload, GOLDEN_SEED};

/// Everything one benchmark run is parameterized by.
#[derive(Debug, Clone)]
pub struct Context {
    /// The `sms-experiments` binary under test.
    pub program: PathBuf,
    /// The workload.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// How long the measured passes run.
    pub seconds: f64,
    /// Scratch directory for inputs, outputs, sockets and caches (relative
    /// to the checkout root, which is the working directory).  Emptied
    /// before and removed after the run.
    pub work: PathBuf,
    /// Where `--trace 1` writes `layers.json` and `trace.json`.
    pub out: PathBuf,
}

impl Context {
    /// Whether the committed golden digests apply to this run's outputs.
    pub fn golden_applies(&self) -> bool {
        self.seed == GOLDEN_SEED && self.scale == Scale::full()
    }
}

/// Runs the workload: end to end, or per layer with `trace`.  Returns the
/// metrics and the operations tally; a failed check is a failed operation,
/// not an error.
///
/// # Errors
///
/// When the run could not measure anything (inputs not writable, no pass
/// completed).
pub fn run(ctx: &Context, trace: bool) -> Result<(Vec<report::Metric>, report::Tally), String> {
    let reset = |dir: &std::path::Path| {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)
    };
    reset(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let mut tally = report::Tally::default();
    let metrics = if trace {
        reset(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
        traced::run(ctx, &mut tally)
    } else {
        let measured = match ctx.workload {
            Workload::Served => Ok(served::measure(ctx, &mut tally)),
            _ => batch::prepare(ctx)
                .map_err(|e| format!("cannot write the inputs: {e}"))
                .map(|ops| batch::measure(ctx, &ops, &mut tally)),
        };
        measured.and_then(|m| {
            if !m.complete() {
                return Err("no measured pass completed".to_string());
            }
            println!(
                "{} measured passes, {} set-ups; throughput as measured {:.4} Macc/s; \
                 each operation's wall-clock / probe per pass:",
                m.passes,
                m.setups.len(),
                m.throughput_macc_s(|t| t.seconds)
            );
            for samples in &m.wall {
                let ms: Vec<String> = samples
                    .seconds
                    .iter()
                    .map(|t| format!("{:.0}/{:.1}", t.seconds * 1e3, t.probe_s * 1e3))
                    .collect();
                println!("  {:>9} accesses: {} ms", samples.accesses, ms.join(" "));
            }
            Ok(m.metrics())
        })
    };
    // Trace files and caches are large; nothing in the work directory
    // outlives the run.
    let _ = std::fs::remove_dir_all(&ctx.work);
    metrics.map(|metrics| (metrics, tally))
}
