//! The traced loop behind `--trace 1`: every job runs once, on one
//! thread, through the benchmark's own pull → simulate → account loop built
//! only from the crates' public items, with each layer's public calls timed
//! from outside.
//!
//! Pull, account and the per-job calls are timed once per 4096-access
//! segment or job.  Calls interleaved per access (the hierarchy, the
//! prefetcher, the fills) are timed on a seeded 1-in-16 sample of accesses:
//! each sampled interval has the calibrated cost of an empty `Instant` pair
//! subtracted, and the sampled total is scaled up by the population it was
//! drawn from.  Timing every call would add several clock reads of ~30 ns
//! to accesses that cost ~100 ns.
//!
//! A timed call runs slower than an untimed one — the clock reads order the
//! pipeline, so it no longer overlaps its neighbours — and the scaled-up
//! samples over-count by that much.  The per-access layers are therefore
//! split, in the sampled proportions, from the measured time of the
//! accesses the tracing did not touch, scaled to all accesses.  What the
//! touched accesses cost beyond that is the tracing's own overhead.
//!
//! The loop performs exactly the calls, in exactly the order, of the
//! engine's inline segment pipeline, so its results must equal the CLI's
//! byte for byte; the caller checks that before it believes any number.

use crate::workloads::SplitMix64;
use engine::{BuiltPrefetcher, JobResult, JobWarning, Registry, SimJob};
use memsim::{
    MissAccounting, MultiCpuSystem, OutcomeTape, PrefetchLevel, PrefetchRequest, Prefetcher,
    SegmentCounts,
};
use std::time::Instant;
use timing::TimingAccounting;
use trace::MemAccess;
use tracelog::Recorder;

/// Accesses per pulled segment (the unit pull and account are timed in).
pub const SEGMENT: usize = 4096;
/// One access in this many is timed call by call.
pub const SAMPLE_EVERY: u64 = 16;

/// The prefetcher layer a job's plugin belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PluginLayer {
    /// `null`: no prefetching.
    Null,
    /// `sms`: Spatial Memory Streaming.
    Sms,
    /// `ghb`: the GHB PC/DC baseline.
    Ghb,
    /// The passive probes: `training`, `density-probe`, `oracle-probe`.
    Probe,
}

impl PluginLayer {
    /// Every plugin layer.
    pub const ALL: [PluginLayer; 4] = [
        PluginLayer::Null,
        PluginLayer::Sms,
        PluginLayer::Ghb,
        PluginLayer::Probe,
    ];

    /// The layer of a registered plugin name.
    pub fn of(plugin: &str) -> Option<PluginLayer> {
        match plugin {
            "null" => Some(PluginLayer::Null),
            "sms" => Some(PluginLayer::Sms),
            "ghb" => Some(PluginLayer::Ghb),
            "training" | "density-probe" | "oracle-probe" => Some(PluginLayer::Probe),
            _ => None,
        }
    }

    /// The layer's metric prefix and span name.
    pub fn name(self) -> &'static str {
        match self {
            PluginLayer::Null => "null",
            PluginLayer::Sms => "sms",
            PluginLayer::Ghb => "ghb",
            PluginLayer::Probe => "probe",
        }
    }
}

/// Sampled interval totals of one per-access call site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sampled {
    /// Summed sampled nanoseconds, empty-pair cost already subtracted.
    pub ns: f64,
    /// Calls timed.
    pub samples: u64,
}

impl Sampled {
    /// The estimated total over `population` calls.
    pub fn estimate(&self, population: u64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.ns / self.samples as f64 * population as f64
        }
    }

    fn add(&mut self, ns: f64) {
        self.ns += ns;
        self.samples += 1;
    }
}

/// Host time one job spent in each layer, in nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobCost {
    /// The job's plugin layer.
    pub layer: Option<PluginLayer>,
    /// Whether the job ran the timing model.
    pub timed: bool,
    /// The whole job, prefetcher build to result.
    pub wall_ns: f64,
    /// `TraceSource::open`.
    pub open_ns: f64,
    /// `MultiCpuSystem::new` and `MissAccounting::new`.
    pub build_ns: f64,
    /// `Registry::build` plus assembling the result.
    pub prepare_ns: f64,
    /// `trace::fill_segment`.
    pub pull_ns: f64,
    /// `MissAccounting::replay` / `replay_with_kinds`.
    pub classify_ns: f64,
    /// `TimingAccounting::new` and `observe`.
    pub timing_ns: f64,
    /// Every segment's access loop, touched accesses included.
    pub simulate_ns: f64,
    /// Whole durations of the accesses the tracing touched (timed or
    /// recorded as spans).
    pub touched_ns: f64,
    /// Accesses the tracing touched.
    pub touched: u64,
    /// `MultiCpuSystem::access_deferred`, sampled.
    pub hierarchy: Sampled,
    /// `Prefetcher::on_access_into`, sampled.
    pub on_access: Sampled,
    /// `Prefetcher::on_stream_eviction`, on sampled accesses.
    pub on_eviction: Sampled,
    /// `stream_fill` and `l2_prefetch_fill`, on sampled accesses.
    pub fill: Sampled,
    /// Demand accesses simulated.
    pub accesses: u64,
    /// Prefetch fills applied.
    pub fills: u64,
    /// Stream evictions reported back to the prefetcher.
    pub evictions: u64,
}

impl JobCost {
    /// Mean time of an access the tracing did not touch.
    fn untouched_mean_ns(&self) -> Option<f64> {
        let untouched = self.accesses.checked_sub(self.touched)?;
        (untouched > 0).then(|| (self.simulate_ns - self.touched_ns) / untouched as f64)
    }

    /// The access loops as they would have run untraced.
    pub fn simulate_estimate_ns(&self) -> f64 {
        self.untouched_mean_ns()
            .map_or(self.simulate_ns, |mean| mean * self.accesses as f64)
    }

    /// The scaled-up samples of every per-access call, before they are
    /// fitted to [`simulate_estimate_ns`](Self::simulate_estimate_ns).
    pub fn sampled_ns(&self) -> f64 {
        self.hierarchy.estimate(self.accesses)
            + self.on_access.estimate(self.accesses)
            + self.on_eviction.estimate(self.evictions)
            + self.fill.estimate(self.fills)
    }

    /// A sampled total's share of the untraced access loops.
    fn share(&self, sampled: f64) -> f64 {
        let total = self.sampled_ns();
        if total > 0.0 {
            sampled / total * self.simulate_estimate_ns()
        } else {
            0.0
        }
    }

    /// Time in the hierarchy.
    pub fn hierarchy_ns(&self) -> f64 {
        self.share(self.hierarchy.estimate(self.accesses))
    }

    /// Time in the prefetcher plugin.
    pub fn plugin_ns(&self) -> f64 {
        self.share(
            self.on_access.estimate(self.accesses) + self.on_eviction.estimate(self.evictions),
        )
    }

    /// Time applying prefetch fills.
    pub fn fill_ns(&self) -> f64 {
        self.share(self.fill.estimate(self.fills))
    }

    /// Every attributed layer's time.
    pub fn attributed_ns(&self) -> f64 {
        self.open_ns
            + self.build_ns
            + self.prepare_ns
            + self.pull_ns
            + self.classify_ns
            + self.timing_ns
            + self.simulate_estimate_ns()
    }

    /// The tracing's cost inside the access loops: what the touched
    /// accesses took beyond untouched ones.
    pub fn tracing_ns(&self) -> f64 {
        self.untouched_mean_ns()
            .map_or(0.0, |mean| self.touched_ns - mean * self.touched as f64)
    }

    /// The job's time outside every measured interval: the loop's glue
    /// between calls and the clock reads themselves.  Never negative, since
    /// the intervals are disjoint and each lost its empty-pair cost.
    pub fn unattributed_ns(&self) -> f64 {
        self.wall_ns - self.attributed_ns() - self.tracing_ns()
    }
}

/// Chooses the timed accesses: seeded gaps uniform in `1..2 * SAMPLE_EVERY`,
/// so one access in `SAMPLE_EVERY` on average, for one decrement per access.
struct Sampler {
    rng: SplitMix64,
    countdown: u64,
}

impl Sampler {
    fn new(seed: u64, job: usize) -> Sampler {
        let mut sampler = Sampler {
            rng: SplitMix64::new(&[seed, job as u64]),
            countdown: 0,
        };
        sampler.countdown = sampler.gap();
        sampler
    }

    fn gap(&mut self) -> u64 {
        1 + self.rng.below(2 * SAMPLE_EVERY as usize - 1) as u64
    }

    #[inline(always)]
    fn tick(&mut self) -> bool {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.gap();
            true
        } else {
            false
        }
    }
}

/// The clock the traced loop reads, with its calibrated cost.
#[derive(Debug, Clone)]
pub struct Clock {
    /// Median nanoseconds between two back-to-back `Instant::now` calls.
    pub empty_pair_ns: f64,
}

impl Clock {
    /// Measures the empty-pair cost on this host.
    pub fn calibrate() -> Clock {
        let mut pairs: Vec<f64> = (0..20_001)
            .map(|_| {
                let a = Instant::now();
                let b = Instant::now();
                b.duration_since(a).as_nanos() as f64
            })
            .collect();
        pairs.sort_by(f64::total_cmp);
        Clock {
            empty_pair_ns: pairs[pairs.len() / 2],
        }
    }
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// How a job is driven: untraced (job wall-clock only, the baseline the
/// tracing overhead is measured against) or traced.
pub enum Mode<'a> {
    /// Only the job's wall-clock is read.
    Untraced,
    /// Layers are timed and spans recorded.
    Traced {
        /// The calibrated clock.
        clock: &'a Clock,
        /// Seed of the access sample.
        sample_seed: u64,
        /// Where spans go.
        recorder: &'a Recorder,
    },
}

/// The per-access state one segment loop works on.
struct Sim<'a> {
    system: &'a mut MultiCpuSystem,
    prefetcher: &'a mut BuiltPrefetcher,
    batch: &'a mut Vec<PrefetchRequest>,
    tape: &'a mut OutcomeTape,
    counts: &'a mut SegmentCounts,
    fills: u64,
    evictions: u64,
}

impl Sim<'_> {
    /// `memsim::run_segment_deferred`'s body for one access, untimed.
    #[inline(always)]
    fn access(&mut self, access: &MemAccess) {
        let outcome = self.system.access_deferred(access, self.tape);
        self.counts.accesses += 1;
        self.prefetcher.on_access_into(access, &outcome, self.batch);
        self.counts.prefetch_requests += self.batch.len() as u64;
        self.apply_requests();
    }

    /// Applies the prefetcher's requests, reporting stream evictions back.
    #[inline(always)]
    fn apply_requests(&mut self) {
        for req in self.batch.drain(..) {
            if (req.cpu as usize) >= self.system.num_cpus() {
                continue;
            }
            self.fills += 1;
            match req.level {
                PrefetchLevel::L1 => {
                    if let Some(victim) = self.system.cpu_mut(req.cpu).stream_fill(req.addr) {
                        self.evictions += 1;
                        self.prefetcher
                            .on_stream_eviction(req.cpu, victim.block_addr);
                    }
                }
                PrefetchLevel::L2 => {
                    self.system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                }
            }
        }
    }

    /// The same access with every call timed into `cost`.
    fn access_timed(&mut self, access: &MemAccess, cost: &mut JobCost, empty: f64) {
        let t0 = Instant::now();
        let outcome = self.system.access_deferred(access, self.tape);
        let t1 = Instant::now();
        self.prefetcher.on_access_into(access, &outcome, self.batch);
        let t2 = Instant::now();
        cost.hierarchy
            .add(t1.duration_since(t0).as_nanos() as f64 - empty);
        cost.on_access
            .add(t2.duration_since(t1).as_nanos() as f64 - empty);
        self.counts.accesses += 1;
        self.counts.prefetch_requests += self.batch.len() as u64;
        for req in self.batch.drain(..) {
            if (req.cpu as usize) >= self.system.num_cpus() {
                continue;
            }
            self.fills += 1;
            let t3 = Instant::now();
            match req.level {
                PrefetchLevel::L1 => {
                    let victim = self.system.cpu_mut(req.cpu).stream_fill(req.addr);
                    let t4 = Instant::now();
                    cost.fill
                        .add(t4.duration_since(t3).as_nanos() as f64 - empty);
                    if let Some(victim) = victim {
                        self.evictions += 1;
                        self.prefetcher
                            .on_stream_eviction(req.cpu, victim.block_addr);
                        cost.on_eviction.add(ns_since(t4) - empty);
                    }
                }
                PrefetchLevel::L2 => {
                    self.system.cpu_mut(req.cpu).l2_prefetch_fill(req.addr);
                    cost.fill.add(ns_since(t3) - empty);
                }
            }
        }
    }

    /// The same access with each call recorded as a span.
    fn access_spanned(&mut self, access: &MemAccess, layer: &'static str, rec: &Recorder) {
        let outcome = {
            let _span = rec.span("memsim.hierarchy");
            self.system.access_deferred(access, self.tape)
        };
        {
            let _span = rec.span(layer);
            self.prefetcher.on_access_into(access, &outcome, self.batch);
        }
        self.counts.accesses += 1;
        self.counts.prefetch_requests += self.batch.len() as u64;
        let _span = rec.span("memsim.fill");
        self.apply_requests();
    }
}

/// Runs one job and returns its result — which must equal the CLI's — and
/// the host time it spent in each layer.
///
/// # Errors
///
/// A message when the plugin does not build, the trace does not open or
/// turns out corrupt, or the plugin is not one the benchmark attributes.
pub fn run_job(
    index: usize,
    job: &SimJob,
    registry: &Registry,
    mode: &Mode<'_>,
) -> Result<(JobResult, JobCost), String> {
    let sim = &job.sim;
    let layer = PluginLayer::of(&sim.prefetcher.plugin)
        .ok_or_else(|| format!("job {index}: unknown plugin {:?}", sim.prefetcher.plugin))?;
    let (clock, mut sampler, rec) = match mode {
        Mode::Untraced => (None, None, None),
        Mode::Traced {
            clock,
            sample_seed,
            recorder,
        } => (
            Some(*clock),
            Some(Sampler::new(*sample_seed, index)),
            Some(*recorder),
        ),
    };
    let traced = clock.is_some();
    let empty = clock.map_or(0.0, |c| c.empty_pair_ns);
    let span = |name: &'static str| rec.map(|r| r.span(name));
    let mut cost = JobCost {
        layer: Some(layer),
        timed: job.timing.is_some(),
        ..JobCost::default()
    };
    // Times one call when traced; a plain call otherwise.
    macro_rules! timed {
        ($field:ident, $name:literal, $call:expr) => {{
            if traced {
                let _span = span($name);
                let start = Instant::now();
                let value = $call;
                cost.$field += ns_since(start) - empty;
                value
            } else {
                $call
            }
        }};
    }

    let job_start = Instant::now();
    let mut job_span = span("job");
    if let Some(s) = job_span.as_mut() {
        s.arg_u64("job", index as u64);
        s.arg_text("plugin", &sim.prefetcher.plugin);
    }
    let mut prefetcher = timed!(
        prepare_ns,
        "engine.prepare",
        registry.build(&sim.prefetcher, sim.cpus)
    )
    .map_err(|e| format!("job {index}: {e}"))?;
    let mut sink = prefetcher.take_kind_sink();
    let mut stream = timed!(open_ns, "trace.open", sim.source.open())
        .map_err(|e| format!("job {index}: trace source {}: {e}", sim.source.describe()))?;
    let (mut system, mut accounting) = timed!(
        build_ns,
        "memsim.build",
        (
            MultiCpuSystem::new(sim.cpus, &sim.hierarchy),
            MissAccounting::new(sim.cpus, &sim.hierarchy),
        )
    );
    let mut timing_model = job.timing.as_ref().map(|spec| {
        timed!(
            timing_ns,
            "timing.account",
            TimingAccounting::new(sim.cpus, spec.config, sim.accesses, spec.segments)
        )
    });

    let mut counts = SegmentCounts::default();
    let mut batch = Vec::new();
    let mut tape = OutcomeTape::new();
    let mut buffer = Vec::with_capacity(SEGMENT.min(sim.accesses.max(1)));
    let mut remaining = sim.accesses;
    let (mut fills, mut evictions) = (0, 0);
    while remaining > 0 {
        let want = SEGMENT.min(remaining);
        let got = timed!(
            pull_ns,
            "trace.pull",
            trace::fill_segment(&mut *stream, &mut buffer, want)
        );
        if got == 0 {
            break;
        }
        remaining -= got;
        tape.clear();
        {
            let _segment = span("sim.segment");
            let loop_start = traced.then(Instant::now);
            let mut state = Sim {
                system: &mut system,
                prefetcher: &mut prefetcher,
                batch: &mut batch,
                tape: &mut tape,
                counts: &mut counts,
                fills: 0,
                evictions: 0,
            };
            for (position, access) in buffer.iter().enumerate() {
                if (access.cpu as usize) >= state.system.num_cpus() {
                    state.counts.skipped_accesses += 1;
                    state.tape.push_skipped();
                    continue;
                }
                // The first access of each traced segment leaves spans in the
                // Chrome trace; it is not one of the timed samples.
                let spanned = rec.filter(|_| position == 0);
                let sampled = sampler.as_mut().is_some_and(Sampler::tick);
                if spanned.is_none() && !sampled {
                    state.access(access);
                    continue;
                }
                let start = Instant::now();
                match spanned {
                    Some(rec) => state.access_spanned(access, layer.name(), rec),
                    None => state.access_timed(access, &mut cost, empty),
                }
                cost.touched_ns += ns_since(start);
                cost.touched += 1;
            }
            fills += state.fills;
            evictions += state.evictions;
            if let Some(start) = loop_start {
                cost.simulate_ns += ns_since(start);
            }
        }
        timed!(classify_ns, "memsim.classify", {
            match sink.as_mut() {
                Some(sink) => accounting
                    .replay_with_kinds(&buffer, &tape, |a, l1, l2| sink.on_kinds(a, l1, l2)),
                None => accounting.replay(&buffer, &tape),
            }
        });
        if let Some(model) = timing_model.as_mut() {
            timed!(timing_ns, "timing.account", {
                for (position, access) in buffer.iter().enumerate() {
                    let flags = tape.flags_at(position);
                    if !flags.skipped {
                        model.observe(access, flags.l1_miss, flags.offchip);
                    }
                }
            });
        }
    }
    if let Some(e) = stream.take_error() {
        return Err(format!(
            "job {index}: trace source {}: corrupt mid-stream: {e}",
            sim.source.describe()
        ));
    }

    let result = timed!(prepare_ns, "engine.finalize", {
        let summary = memsim::summarize_segmented(&system, &accounting, &counts);
        if let Some(sink) = sink.take() {
            prefetcher.restore_kind_sink(sink);
        }
        let mut result = JobResult {
            job_index: index,
            summary,
            probe: prefetcher.into_report(),
            timing: timing_model.map(TimingAccounting::finish),
            warnings: Vec::new(),
        };
        let delivered = result.summary.accesses + result.summary.skipped_accesses;
        if delivered < sim.accesses as u64 {
            result.warnings.push(JobWarning::short_trace(
                &sim.source.describe(),
                delivered,
                sim.accesses,
            ));
        }
        result
    });
    drop(job_span);
    cost.wall_ns = ns_since(job_start);
    cost.accesses = counts.accesses;
    cost.fills = fills;
    cost.evictions = evictions;
    Ok((result, cost))
}
