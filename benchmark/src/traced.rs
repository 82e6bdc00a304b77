//! `--trace 1`: the per-layer run.
//!
//! The workload's jobs first run through the program as users run them (the
//! CLI for the batch workloads, the server for `served`): those results are
//! the reference.  Then every job runs once untraced and once traced
//! through [`crate::layers`], alternating which goes first; both must
//! reproduce the reference byte for byte.  The traced run's spans are
//! written as a Chrome trace next to `layers.json` and validated.

use crate::batch;
use crate::layers::{self, Clock, JobCost, Mode, PluginLayer};
use crate::report::{self, median, Metric, Tally};
use crate::served::{results_json, Server, Site};
use crate::workloads::{self, Workload};
use crate::Context;
use engine::{JobList, JobResult, Registry};
use serde_json::Value;
use server::{Frame, Request, SubmitRequest};
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Instant;

/// The per-layer metrics every workload reports, with their units, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("trace.pull_ns_per_acc", "ns"),
    ("trace.pull_frac", "fraction"),
    ("trace.open_us_per_job", "us"),
    ("trace.open_frac", "fraction"),
    ("memsim.build_us_per_job", "us"),
    ("memsim.build_frac", "fraction"),
    ("memsim.hierarchy_ns_per_acc", "ns"),
    ("memsim.hierarchy_frac", "fraction"),
    ("memsim.fill_ns_per_fill", "ns"),
    ("memsim.fill_frac", "fraction"),
    ("memsim.fills_per_kacc", "count"),
    ("memsim.classify_ns_per_acc", "ns"),
    ("memsim.classify_frac", "fraction"),
    ("memsim.invalidations_per_kacc", "count"),
    ("sms.ns_per_acc", "ns"),
    ("sms.frac", "fraction"),
    ("sms.useful_prefetch_ratio", "ratio"),
    ("sms.pht_hit_ratio", "ratio"),
    ("ghb.frac", "fraction"),
    ("probe.frac", "fraction"),
    ("timing.frac", "fraction"),
    ("engine.prepare_us_per_job", "us"),
    ("engine.prepare_frac", "fraction"),
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.unattributed_frac", "fraction"),
];

/// Largest share of traced time the layers may leave unexplained.
pub const MAX_UNATTRIBUTED: f64 = 0.10;

/// The jobs as users ran them: each operation's list and output bytes.
struct Reference {
    ops: Vec<(String, JobList, String)>,
    /// Server-layer metrics (`served` only).
    server: Vec<Metric>,
}

fn batch_reference(ctx: &Context, tally: &mut Tally) -> Result<Reference, String> {
    let ops = batch::prepare(ctx).map_err(|e| format!("cannot write the inputs: {e}"))?;
    let outputs = batch::first_pass(ctx, &ops, tally);
    Ok(Reference {
        ops: ops
            .into_iter()
            .zip(outputs)
            .map(|(op, bytes)| {
                (
                    op.name,
                    op.list,
                    String::from_utf8_lossy(&bytes).into_owned(),
                )
            })
            .collect(),
        server: Vec::new(),
    })
}

/// One submission over the raw protocol, timing its frames: milliseconds
/// to the `Accepted` frame, to the first result frame and to `Done`, plus
/// the results and whether the cache answered.
fn probe_submit(
    socket: &Path,
    list: &JobList,
) -> Result<(f64, f64, f64, Vec<JobResult>, bool), String> {
    let request = Request::Submit(SubmitRequest {
        client: "probe".to_string(),
        priority: 0,
        workers: 0,
        segment_size: 0,
        speculate: 0,
        timeout_ms: None,
        spec: serde_json::to_value(list).map_err(|e| e.to_string())?,
    });
    let start = Instant::now();
    let ms = || start.elapsed().as_secs_f64() * 1e3;
    let mut stream = UnixStream::connect(socket).map_err(|e| e.to_string())?;
    server::protocol::write_line(&mut stream, &request).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let (mut accepted, mut first, mut hit, mut results) = (None, None, false, Vec::new());
    loop {
        match server::protocol::read_line(&mut reader).map_err(|e| e.to_string())? {
            Some(Frame::Accepted(a)) => {
                accepted = Some(ms());
                hit = a.cache_hit;
            }
            Some(Frame::Result(frame)) => {
                first.get_or_insert_with(ms);
                results.push(frame.result);
            }
            Some(Frame::Done(_)) => break,
            Some(Frame::Error(e)) => {
                return Err(format!("server error [{}]: {}", e.code, e.message))
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    let total = ms();
    let accepted = accepted.ok_or("no Accepted frame")?;
    Ok((accepted, first.unwrap_or(total), total, results, hit))
}

/// The `served` reference: every figure list, one at a time, on a fresh
/// server; then each once more (cache hits); then a restart on the
/// populated cache directory.
fn served_reference(ctx: &Context, tally: &mut Tally) -> Result<Reference, String> {
    let site = Site::fresh(&ctx.work, "probe").map_err(|e| e.to_string())?;
    let server = Server::start(&ctx.program, &site)?;
    let start_s = server.ready_s;
    let (mut ops, mut accept_ms, mut first_ms, mut hit_ms, mut hits) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0);
    for op in workloads::sweep_ops(ctx.seed, &ctx.scale) {
        let outcome = probe_submit(&site.socket, &op.list).and_then(|(a, f, _, results, _)| {
            batch::check_results(&op.name, &op.list, &results)?;
            accept_ms.push(a);
            first_ms.push(f);
            ops.push((op.name, op.list, results_json(&results)));
            Ok(())
        });
        tally.check(outcome);
    }
    for (name, list, expected) in &ops {
        let outcome = probe_submit(&site.socket, list).and_then(|(_, _, total, results, hit)| {
            hits += u64::from(hit);
            hit_ms.push(total);
            if results_json(&results) == *expected {
                Ok(())
            } else {
                Err(format!(
                    "{name}: the cached reply differs from the original"
                ))
            }
        });
        tally.check(outcome);
    }
    server.stop()?;
    let cache_bytes: u64 = std::fs::read_dir(&site.cache_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|entry| entry.ok()?.metadata().ok())
        .map(|meta| meta.len())
        .sum();
    let reloaded = Server::start(&ctx.program, &site)?;
    let reload_s = reloaded.ready_s;
    reloaded.stop()?;
    let repeats = ops.len().max(1) as f64;
    let p50 = |samples: &[f64]| {
        if samples.is_empty() {
            0.0
        } else {
            median(samples)
        }
    };
    Ok(Reference {
        server: vec![
            Metric::new("server.start_s", "s", start_s),
            Metric::new("server.reload_s", "s", reload_s),
            Metric::new("server.accept_ms_p50", "ms", p50(&accept_ms)),
            Metric::new("server.first_frame_ms_p50", "ms", p50(&first_ms)),
            Metric::new("server.hit_ms_p50", "ms", p50(&hit_ms)),
            Metric::new("server.cache_hit_ratio", "ratio", hits as f64 / repeats),
            Metric::new("server.cache_bytes", "bytes", cache_bytes as f64),
        ],
        ops,
    })
}

/// Sums over a set of jobs.
#[derive(Debug, Default)]
struct Totals {
    jobs: u64,
    wall: f64,
    attributed: f64,
    accesses: u64,
    fills: u64,
    open: f64,
    build: f64,
    prepare: f64,
    pull: f64,
    classify: f64,
    timing: f64,
    hierarchy: f64,
    fill: f64,
    plugin: f64,
    sampled: f64,
    simulate: f64,
    tracing: f64,
}

impl Totals {
    fn add(&mut self, cost: &JobCost) {
        self.jobs += 1;
        self.wall += cost.wall_ns;
        self.attributed += cost.attributed_ns();
        self.accesses += cost.accesses;
        self.fills += cost.fills;
        self.open += cost.open_ns;
        self.build += cost.build_ns;
        self.prepare += cost.prepare_ns;
        self.pull += cost.pull_ns;
        self.classify += cost.classify_ns;
        self.timing += cost.timing_ns;
        self.hierarchy += cost.hierarchy_ns();
        self.fill += cost.fill_ns();
        self.plugin += cost.plugin_ns();
        self.sampled += cost.sampled_ns();
        self.simulate += cost.simulate_estimate_ns();
        self.tracing += cost.tracing_ns();
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs the per-layer measurement, writes `layers.json` (every metric,
/// including those only some workloads exercise, and the run's details)
/// and `trace.json` into `ctx.out`, and returns the `PER_LAYER` metrics.
///
/// # Errors
///
/// When the reference run cannot be made at all.
pub fn run(ctx: &Context, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let reference = match ctx.workload {
        Workload::Served => served_reference(ctx, tally)?,
        _ => batch_reference(ctx, tally)?,
    };
    let clock = Clock::calibrate();
    let trace = tracelog::Trace::enabled_with_capacity(1 << 21);
    let recorder = trace.recorder("traced loop");
    let registry = Registry::builtin();
    let mut traced: Vec<(JobCost, JobResult)> = Vec::new();
    let mut untraced_wall = 0.0;
    let mut job_counter = 0u64;
    for (name, list, expected) in &reference.ops {
        let mut results = (Vec::new(), Vec::new());
        for (index, job) in list.jobs.iter().enumerate() {
            let traced_mode = Mode::Traced {
                clock: &clock,
                sample_seed: ctx.seed,
                recorder: &recorder,
            };
            let untraced_first = job_counter.is_multiple_of(2);
            job_counter += 1;
            let run_one = |mode: &Mode<'_>| layers::run_job(index, job, registry, mode);
            let outcome = if untraced_first {
                run_one(&Mode::Untraced).and_then(|u| Ok((u, run_one(&traced_mode)?)))
            } else {
                run_one(&traced_mode).and_then(|t| Ok((run_one(&Mode::Untraced)?, t)))
            };
            match outcome {
                Ok(((u_result, u_cost), (t_result, t_cost))) => {
                    untraced_wall += u_cost.wall_ns;
                    results.0.push(u_result);
                    results.1.push(t_result.clone());
                    traced.push((t_cost, t_result));
                }
                Err(e) => tally.check(Err(e)),
            }
        }
        for (label, results) in [("untraced", &results.0), ("traced", &results.1)] {
            tally.check(if results_json(results) == *expected {
                Ok(())
            } else {
                Err(format!(
                    "{name}: the {label} loop's results differ from the program's"
                ))
            });
        }
    }
    drop(recorder);
    if traced.is_empty() {
        return Err("no job ran through the traced loop".to_string());
    }

    let mut all = Totals::default();
    let mut by_layer: Vec<(PluginLayer, Totals)> = PluginLayer::ALL
        .iter()
        .map(|&l| (l, Totals::default()))
        .collect();
    let mut timed = Totals::default();
    let (mut invalidations, mut sms_hits, mut sms_fills, mut pht_hits, mut triggers) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut ghb_hits, mut ghb_fills) = (0u64, 0u64);
    let mut job_unattributed = Vec::new();
    for (cost, result) in &traced {
        all.add(cost);
        let layer = cost.layer.expect("traced jobs know their layer");
        by_layer
            .iter_mut()
            .find(|(l, _)| *l == layer)
            .expect("every layer has totals")
            .1
            .add(cost);
        if cost.timed {
            timed.add(cost);
        }
        let summary = &result.summary;
        invalidations += summary.l1.invalidations + summary.l2.invalidations;
        match layer {
            PluginLayer::Sms => {
                sms_hits += summary.l1.prefetch_hits;
                sms_fills += summary.l1.prefetch_fills;
                if let Some(stats) = result.probe.sms() {
                    pht_hits += stats.pht_hits;
                    triggers += stats.triggers;
                }
            }
            PluginLayer::Ghb => {
                ghb_hits += summary.l1.prefetch_hits + summary.l2.prefetch_hits;
                ghb_fills += summary.l1.prefetch_fills + summary.l2.prefetch_fills;
            }
            _ => {}
        }
        job_unattributed.push(ratio(cost.unattributed_ns(), cost.wall_ns));
    }
    let layer = |l: PluginLayer| &by_layer.iter().find(|(x, _)| *x == l).expect("layer").1;
    let acc = all.accesses as f64;
    let jobs = all.jobs as f64;
    // Shares are of the jobs' time without the tracing's own cost, so the
    // layers' shares and the unattributed share sum to one.
    let w = all.wall - all.tracing;
    let unattributed = ratio(w - all.attributed, w);
    let values = [
        ratio(all.pull, acc),
        ratio(all.pull, w),
        all.open / jobs / 1e3,
        ratio(all.open, w),
        all.build / jobs / 1e3,
        ratio(all.build, w),
        ratio(all.hierarchy, acc),
        ratio(all.hierarchy, w),
        ratio(all.fill, all.fills as f64),
        ratio(all.fill, w),
        ratio(all.fills as f64 * 1e3, acc),
        ratio(all.classify, acc),
        ratio(all.classify, w),
        ratio(invalidations as f64 * 1e3, acc),
        ratio(
            layer(PluginLayer::Sms).plugin,
            layer(PluginLayer::Sms).accesses as f64,
        ),
        ratio(layer(PluginLayer::Sms).plugin, w),
        ratio(sms_hits as f64, sms_fills as f64),
        ratio(pht_hits as f64, triggers as f64),
        ratio(layer(PluginLayer::Ghb).plugin, w),
        ratio(layer(PluginLayer::Probe).plugin, w),
        ratio(all.timing, w),
        all.prepare / jobs / 1e3,
        ratio(all.prepare, w),
        ratio(all.wall - untraced_wall, untraced_wall),
        unattributed,
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect();

    // Layers only some workloads exercise, and the run's own details.
    let mut extra = vec![
        Metric::new(
            "ghb.ns_per_acc",
            "ns",
            ratio(
                layer(PluginLayer::Ghb).plugin,
                layer(PluginLayer::Ghb).accesses as f64,
            ),
        ),
        Metric::new(
            "ghb.useful_prefetch_ratio",
            "ratio",
            ratio(ghb_hits as f64, ghb_fills as f64),
        ),
        Metric::new(
            "probe.ns_per_acc",
            "ns",
            ratio(
                layer(PluginLayer::Probe).plugin,
                layer(PluginLayer::Probe).accesses as f64,
            ),
        ),
        Metric::new(
            "null.ns_per_acc",
            "ns",
            ratio(
                layer(PluginLayer::Null).plugin,
                layer(PluginLayer::Null).accesses as f64,
            ),
        ),
        Metric::new(
            "null.frac",
            "fraction",
            ratio(layer(PluginLayer::Null).plugin, w),
        ),
        Metric::new(
            "timing.account_ns_per_acc",
            "ns",
            ratio(timed.timing, timed.accesses as f64),
        ),
        Metric::new("bench.clock_pair_ns", "ns", clock.empty_pair_ns),
        Metric::new(
            "bench.tracing_frac",
            "fraction",
            ratio(all.tracing, all.wall),
        ),
        Metric::new(
            "bench.sample_inflation",
            "ratio",
            ratio(all.sampled, all.simulate),
        ),
        Metric::new("bench.jobs", "count", jobs),
        Metric::new("bench.accesses", "count", acc),
        Metric::new("bench.traced_s", "s", all.wall / 1e9),
        Metric::new("bench.untraced_s", "s", untraced_wall / 1e9),
        Metric::new(
            "bench.jobs_within_unattributed_bound",
            "count",
            job_unattributed
                .iter()
                .filter(|f| f.abs() <= MAX_UNATTRIBUTED)
                .count() as f64,
        ),
        Metric::new(
            "bench.worst_job_unattributed_frac",
            "fraction",
            job_unattributed
                .iter()
                .copied()
                .max_by(|a, b| a.abs().total_cmp(&b.abs()))
                .unwrap_or(0.0),
        ),
    ];
    extra.extend(reference.server);
    tally.check(if (0.0..=MAX_UNATTRIBUTED).contains(&unattributed) {
        Ok(())
    } else {
        Err(format!(
            "bench.unattributed_frac {unattributed:.4} is outside [0, {MAX_UNATTRIBUTED}]"
        ))
    });

    // The Chrome trace must validate and name every layer that ran.
    let mut required = vec![
        "job",
        "engine.prepare",
        "trace.open",
        "memsim.build",
        "trace.pull",
        "sim.segment",
        "memsim.hierarchy",
        "memsim.fill",
        "memsim.classify",
        "engine.finalize",
    ];
    for (l, totals) in &by_layer {
        if totals.jobs > 0 {
            required.push(l.name());
        }
    }
    if timed.jobs > 0 {
        required.push("timing.account");
    }
    let chrome = trace.to_chrome_json().expect("the trace is enabled");
    tally.check(
        tracelog::check_chrome_trace(&chrome, &required)
            .map(|_| ())
            .map_err(|e| format!("chrome trace: {e}")),
    );
    let write = |file: &str, text: &str| {
        std::fs::write(ctx.out.join(file), text).map_err(|e| format!("writing {file}: {e}"))
    };
    tally.check(write("trace.json", &chrome));
    tally.check(write("layers.json", &render_layers(ctx, &metrics, &extra)));
    Ok(metrics)
}

fn render_layers(ctx: &Context, metrics: &[Metric], extra: &[Metric]) -> String {
    let all: Vec<Metric> = metrics.iter().chain(extra).cloned().collect();
    let document = Value::Object(vec![
        (
            "workload".to_string(),
            Value::String(ctx.workload.name().to_string()),
        ),
        ("seed".to_string(), Value::UInt(ctx.seed)),
        (
            "sample_every".to_string(),
            Value::UInt(layers::SAMPLE_EVERY),
        ),
        ("segment".to_string(), Value::UInt(layers::SEGMENT as u64)),
        ("metrics".to_string(), report::metrics_value(&all)),
    ]);
    serde_json::to_string_pretty(&document).expect("a value tree always renders") + "\n"
}
