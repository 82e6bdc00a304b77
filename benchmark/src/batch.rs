//! The batch workloads — `sweep`, `paper16`, `replay` — whose operations
//! are `sms-experiments run --spec` invocations, run one after another.

use crate::golden;
use crate::probe::{self, Probe, Timed};
use crate::proc::Exit;
use crate::program;
use crate::report::{Measured, Samples, Tally};
use crate::workloads::{self, BatchOp, Scale, Workload};
use crate::Context;
use engine::{JobList, JobResult};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A batch operation with its spec files written.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable name (golden digests are keyed by it).
    pub name: String,
    /// The jobs.
    pub list: JobList,
    /// The spec file.
    pub spec: PathBuf,
    /// The same jobs with zero accesses (the set-up measurement).
    pub zero_spec: PathBuf,
    /// Where `--out` writes the results.
    pub out: PathBuf,
    /// The program's stderr.
    pub log: PathBuf,
}

/// Generates the workload's inputs in the work directory — spec files, and
/// for `replay` the trace files — and returns its operations.
///
/// # Errors
///
/// Any I/O error writing the inputs.
pub fn prepare(ctx: &Context) -> io::Result<Vec<Op>> {
    let ops: Vec<BatchOp> = match ctx.workload {
        Workload::Sweep => workloads::sweep_ops(ctx.seed, &ctx.scale),
        Workload::Paper16 => workloads::paper16_ops(ctx.seed, &ctx.scale),
        Workload::Replay => {
            let traces = workloads::replay_traces(ctx.seed, &ctx.work);
            workloads::write_traces(&traces, ctx.scale.replay_accesses)?;
            workloads::replay_ops(&traces, &ctx.scale)
        }
        Workload::Served => unreachable!("served is not a batch workload"),
    };
    ops.into_iter()
        .map(|BatchOp { name, list }| {
            let file = |suffix: &str| ctx.work.join(format!("{name}.{suffix}"));
            let op = Op {
                spec: file("spec.json"),
                zero_spec: file("zero.json"),
                out: file("out.json"),
                log: file("log"),
                name,
                list,
            };
            workloads::write_spec(&op.spec, &op.list)?;
            workloads::write_spec(&op.zero_spec, &workloads::zero_accesses(&op.list))?;
            Ok(op)
        })
        .collect()
}

/// Runs one spec and returns what the kernel reported plus the `--out`
/// bytes.
fn run(ctx: &Context, op: &Op, zero: bool) -> Result<(Exit, Vec<u8>), String> {
    let spec = if zero { &op.zero_spec } else { &op.spec };
    let exit = program::run(&ctx.program, spec, &op.out, &op.log)
        .map_err(|e| format!("{}: cannot run the program: {e}", op.name))?;
    if !exit.success {
        return Err(format!(
            "{}: the program failed (see {})",
            op.name,
            op.log.display()
        ));
    }
    let bytes =
        std::fs::read(&op.out).map_err(|e| format!("{}: cannot read --out: {e}", op.name))?;
    Ok((exit, bytes))
}

/// Checks the shape of an operation's results: one per job, in order, each
/// having simulated its whole budget without warnings.
///
/// # Errors
///
/// A message naming the first discrepancy.
pub fn check_results(name: &str, list: &JobList, results: &[JobResult]) -> Result<(), String> {
    if results.len() != list.jobs.len() {
        return Err(format!(
            "{name}: {} results for {} jobs",
            results.len(),
            list.jobs.len()
        ));
    }
    for (index, (job, result)) in list.jobs.iter().zip(results).enumerate() {
        if result.job_index != index
            || result.summary.accesses != job.sim.accesses as u64
            || !result.warnings.is_empty()
        {
            return Err(format!(
                "{name}: job {index} reports index {}, {} of {} accesses, {} warnings",
                result.job_index,
                result.summary.accesses,
                job.sim.accesses,
                result.warnings.len()
            ));
        }
    }
    Ok(())
}

fn parse_results(name: &str, bytes: &[u8]) -> Result<Vec<JobResult>, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("{name}: --out: {e}"))?;
    serde_json::from_str(text).map_err(|e| format!("{name}: --out: {e}"))
}

/// Runs every operation once and checks its results, returning each
/// operation's output bytes (empty for a failed operation).
pub fn first_pass(ctx: &Context, ops: &[Op], tally: &mut Tally) -> Vec<Vec<u8>> {
    ops.iter()
        .map(|op| {
            let outcome = run(ctx, op, false).and_then(|(_, bytes)| {
                check_results(&op.name, &op.list, &parse_results(&op.name, &bytes)?)?;
                Ok(bytes)
            });
            let bytes = outcome.clone().unwrap_or_default();
            tally.check(outcome.map(|_| ()));
            bytes
        })
        .collect()
}

/// Passes every run measures, however long they take: each operation's
/// median needs more than one sample.  A `sweep` pass takes 8–13 s, so a
/// third would add about 40% to every `sweep` run.
pub const MIN_PASSES: usize = 2;

/// Whether another measured pass is due: at least [`MIN_PASSES`] run, and
/// passes continue while the next would end no later than half a pass past
/// `seconds`, so a run measures as close to `seconds` as whole passes allow.
pub fn another_pass(start: Instant, passes: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    passes < MIN_PASSES || elapsed + 0.5 * elapsed / passes as f64 <= seconds
}

/// Whether another zero-access set-up is due (see [`Scale::setup_repeats`]).
pub fn another_setup(start: Instant, setups: usize, scale: &Scale) -> bool {
    setups < scale.setup_repeats || start.elapsed() < Duration::from_millis(scale.setup_millis)
}

/// Checks operation `name`'s output in a measured pass.  The first output is
/// checked for shape and, at the golden seed, against the digest recorded
/// under `golden_section`; it becomes the reference every later pass must
/// reproduce byte for byte.
///
/// # Errors
///
/// A message naming the operation and the check it failed.
pub fn check_output(
    ctx: &Context,
    golden_section: &str,
    name: &str,
    list: &JobList,
    reference: &mut Option<Vec<u8>>,
    bytes: Vec<u8>,
) -> Result<(), String> {
    match reference {
        Some(expected) if *expected == bytes => Ok(()),
        Some(_) => Err(format!("{name}: output differs from the first pass")),
        None => {
            check_results(name, list, &parse_results(name, &bytes)?)?;
            if ctx.golden_applies() {
                golden::check(golden_section, name, &bytes)?;
            }
            *reference = Some(bytes);
            Ok(())
        }
    }
}

/// The end-to-end measurement: the zero-access set-ups (which also bring
/// the binary and the inputs into the page cache), then measured passes
/// over every operation for `ctx.seconds`, each operation's wall-clock,
/// CPU time and peak memory taken from `wait4`, and the host probed between
/// every two set-ups and every two operations.
pub fn measure(ctx: &Context, ops: &[Op], tally: &mut Tally) -> Measured {
    let mut measured = Measured::default();
    let mut probe = Probe::new();
    let mut before = probe.sample();
    let start = Instant::now();
    while another_setup(start, measured.setups.len(), &ctx.scale) {
        let mut wall = 0.0;
        for op in ops {
            let outcome = run(ctx, op, true).map(|(exit, _)| wall += exit.wall_s);
            tally.check(outcome);
        }
        let after = probe.sample();
        measured.setups.push(Timed {
            seconds: wall,
            probe_s: probe::around(&before, &after),
        });
        before = after;
    }

    measured.wall = ops
        .iter()
        .map(|op| Samples::new(workloads::total_accesses(&op.list)))
        .collect();
    measured.cpu = measured.wall.clone();
    let mut references = vec![None; ops.len()];
    let start = Instant::now();
    while another_pass(start, measured.passes, ctx.seconds) {
        for (index, op) in ops.iter().enumerate() {
            let ran = run(ctx, op, false);
            let after = probe.sample();
            let probe_s = probe::around(&before, &after);
            before = after;
            let outcome = ran.and_then(|(exit, bytes)| {
                let timed = |seconds| Timed { seconds, probe_s };
                measured.wall[index].seconds.push(timed(exit.wall_s));
                measured.cpu[index].seconds.push(timed(exit.cpu_s));
                measured.max_rss_kb.push(exit.max_rss_kb);
                check_output(
                    ctx,
                    ctx.workload.name(),
                    &op.name,
                    &op.list,
                    &mut references[index],
                    bytes,
                )
            });
            tally.check(outcome);
        }
        measured.passes += 1;
    }
    measured
}
