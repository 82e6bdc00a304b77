//! The four workloads and the inputs the benchmark generates for them.
//!
//! Every input is made from the `--seed`: the same seed gives byte-identical
//! spec files, trace files and submissions.  The program only ever sees
//! these generated inputs.

use engine::{JobList, PrefetcherSpec, SimJob};
use memsim::HierarchyConfig;
use serde::Deserialize;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use trace::{Application, ApplicationClass, GeneratorConfig, TraceSource};

/// The seed the committed golden digests were recorded at.
pub const GOLDEN_SEED: u64 = 2006;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The ten job-bearing figure sweeps at `--quick` scale, one `run`
    /// invocation per figure.
    Sweep,
    /// The paper's 16-CPU Table-1 system, one invocation per application.
    Paper16,
    /// Sixteen binary trace files, each replayed by exactly one job.
    Replay,
    /// `sweep`'s figure lists submitted to a resident server by two
    /// clients, one computing each list and one fetching it again.
    Served,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::Paper16,
        Workload::Replay,
        Workload::Served,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Paper16 => "paper16",
            Workload::Replay => "replay",
            Workload::Served => "served",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes (`served` runs `sweep`'s lists).  [`Scale::full`] is what
/// the benchmark measures;
/// [`Scale::tiny`] keeps the smoke tests to seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Accesses per `sweep` job; `None` keeps the template's `--quick` size.
    pub sweep_accesses: Option<usize>,
    /// Accesses per `paper16` job.
    pub paper16_accesses: usize,
    /// Accesses per `replay` trace file.
    pub replay_accesses: usize,
    /// Zero-access set-ups whose median is `setup_s`: at least this many…
    pub setup_repeats: usize,
    /// …and more until they have taken this long, so that set-ups of a few
    /// milliseconds are not all judged by one slow stretch of the host.
    pub setup_millis: u64,
}

impl Scale {
    /// The measured scale.
    pub fn full() -> Scale {
        Scale {
            sweep_accesses: None,
            paper16_accesses: 500_000,
            replay_accesses: 1_000_000,
            setup_repeats: 3,
            setup_millis: 1_000,
        }
    }

    /// A smoke-test scale.
    pub fn tiny() -> Scale {
        Scale {
            sweep_accesses: Some(500),
            paper16_accesses: 4_000,
            replay_accesses: 4_000,
            setup_repeats: 1,
            setup_millis: 0,
        }
    }
}

/// One operation of a batch workload: a job list run by one
/// `sms-experiments run --spec` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOp {
    /// Stable name (the figure, the application, the trace file).
    pub name: String,
    /// The jobs.
    pub list: JobList,
}

/// Demand accesses a job list asks for.
pub fn total_accesses(list: &JobList) -> u64 {
    list.jobs.iter().map(|job| job.sim.accesses as u64).sum()
}

/// The same list with every job's access budget set to zero: running it
/// costs exactly the per-run fixed work (process start, spec decode,
/// building each job's system and prefetcher, opening its trace, writing
/// the results).
pub fn zero_accesses(list: &JobList) -> JobList {
    let mut list = list.clone();
    for job in &mut list.jobs {
        job.sim.accesses = 0;
    }
    list
}

/// Overwrites the seed of every synthetic trace source in `list`.
pub fn set_seed(list: &mut JobList, seed: u64) {
    for job in &mut list.jobs {
        if let TraceSource::Synthetic { seed: s, .. } = &mut job.sim.source {
            *s = seed;
        }
    }
}

/// One figure of the committed sweep template.
#[derive(Debug, Deserialize)]
struct FigureSpec {
    figure: String,
    spec: JobList,
}

/// The ten job-bearing figures' `--quick --emit-spec` output, concatenated.
const SWEEP_TEMPLATE: &str = include_str!("../workloads/sweep.json");

/// `sweep`: one operation per figure, every synthetic seed set to `seed`.
pub fn sweep_ops(seed: u64, scale: &Scale) -> Vec<BatchOp> {
    let figures: Vec<FigureSpec> =
        serde_json::from_str(SWEEP_TEMPLATE).expect("the committed sweep template parses");
    figures
        .into_iter()
        .map(|FigureSpec { figure, mut spec }| {
            set_seed(&mut spec, seed);
            if let Some(accesses) = scale.sweep_accesses {
                for job in &mut spec.jobs {
                    job.sim.accesses = accesses;
                }
            }
            BatchOp {
                name: figure,
                list: spec,
            }
        })
        .collect()
}

/// The applications `paper16` evaluates: one per class.
const PAPER16_APPS: [Application; 4] = [
    Application::OltpDb2,
    Application::DssQry1,
    Application::WebApache,
    Application::Ocean,
];

/// `paper16`: per application, the baseline and SMS at the paper's
/// default configuration on 16 CPUs with the Table-1 hierarchy.
pub fn paper16_ops(seed: u64, scale: &Scale) -> Vec<BatchOp> {
    const CPUS: usize = 16;
    PAPER16_APPS
        .into_iter()
        .map(|app| BatchOp {
            name: app.short_name().to_string(),
            list: JobList::new(
                [PrefetcherSpec::null(), PrefetcherSpec::sms_paper_default()]
                    .into_iter()
                    .map(|prefetcher| {
                        SimJob::new(memsim::SimJob::synthetic(
                            app,
                            GeneratorConfig::default().with_cpus(CPUS),
                            seed,
                            CPUS,
                            HierarchyConfig::table1(),
                            prefetcher,
                            scale.paper16_accesses,
                        ))
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// One generated trace file of `replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// Application whose generator produced the trace.
    pub app: Application,
    /// Generator seed.
    pub seed: u64,
    /// Where the file lives (relative to the checkout root).
    pub path: PathBuf,
}

/// Trace files in `replay`.
const REPLAY_TRACES: usize = 16;
/// CPUs of every `replay` trace and system.
const REPLAY_CPUS: usize = 2;

/// The sixteen `(application, seed)` pairs of `replay`: classes
/// round-robin, applications round-robin within each class, seeds
/// `seed..seed + 16`, so no two files hold the same trace.
pub fn replay_traces(seed: u64, dir: &Path) -> Vec<TraceFile> {
    (0..REPLAY_TRACES)
        .map(|i| {
            let apps = ApplicationClass::ALL[i % ApplicationClass::ALL.len()].applications();
            TraceFile {
                app: apps[(i / ApplicationClass::ALL.len()) % apps.len()],
                seed: seed.wrapping_add(i as u64),
                path: dir.join(format!("trace{i:02}.bin")),
            }
        })
        .collect()
}

/// Writes each trace file with `trace::io::write_binary`.
///
/// # Errors
///
/// Any I/O error creating or writing a file.
pub fn write_traces(traces: &[TraceFile], accesses: usize) -> io::Result<()> {
    let generator = GeneratorConfig::default().with_cpus(REPLAY_CPUS);
    for file in traces {
        let recorded: Vec<trace::MemAccess> = file
            .app
            .stream(file.seed, &generator)
            .take(accesses)
            .collect();
        let mut writer = BufWriter::new(File::create(&file.path)?);
        trace::io::write_binary(&mut writer, &recorded)?;
        writer.flush()?;
    }
    Ok(())
}

/// `replay`: one operation per file, so each file is replayed by exactly
/// one job in a process of its own, and every class is replayed twice with
/// SMS and twice without.
///
/// One file per process keeps the peak resident set a property of the
/// largest single job: a process replaying several files one after another
/// keeps its allocator's high-water mark from the earlier ones, and its peak
/// moved by up to 20% from seed to seed.
pub fn replay_ops(traces: &[TraceFile], scale: &Scale) -> Vec<BatchOp> {
    let classes = ApplicationClass::ALL.len();
    traces
        .iter()
        .enumerate()
        .map(|(index, file)| {
            let prefetcher = if (index + index / classes).is_multiple_of(2) {
                PrefetcherSpec::sms_paper_default()
            } else {
                PrefetcherSpec::null()
            };
            BatchOp {
                name: format!("trace{index:02}"),
                list: JobList::new(vec![SimJob::new(memsim::SimJob {
                    source: TraceSource::binary_file(file.path.to_string_lossy()),
                    cpus: REPLAY_CPUS,
                    hierarchy: HierarchyConfig::scaled(),
                    prefetcher,
                    accesses: scale.replay_accesses,
                })]),
            }
        })
        .collect()
}

/// SplitMix64: a small seeded generator for the benchmark's own choices
/// (the figure checked against a direct run, the traced loop's access
/// sample), independent of the program's generators.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded from a list of words.
    pub fn new(words: &[u64]) -> SplitMix64 {
        let mut rng = SplitMix64(0x6A09_E667_F3BC_C908);
        // Each word passes through the output mix, so word lists that
        // differ anywhere start from unrelated states.
        for &word in words {
            rng.0 ^= word;
            rng.0 = rng.next_u64();
        }
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Writes a job list as a spec file (the format `--emit-spec` writes).
///
/// # Errors
///
/// Any I/O error writing the file.
pub fn write_spec(path: &Path, list: &JobList) -> io::Result<()> {
    std::fs::write(path, spec_json(list))
}

/// A job list rendered as spec-file JSON.
pub fn spec_json(list: &JobList) -> String {
    serde_json::to_string_pretty(list).expect("job lists serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_json(seed: u64) -> Vec<String> {
        sweep_ops(seed, &Scale::full())
            .iter()
            .map(|op| spec_json(&op.list))
            .collect()
    }

    #[test]
    fn sweep_template_is_the_ten_figures() {
        let ops = sweep_ops(GOLDEN_SEED, &Scale::full());
        let names: Vec<&str> = ops.iter().map(|op| op.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "agt-size", "fig11",
                "fig12"
            ]
        );
        let jobs: usize = ops.iter().map(|op| op.list.jobs.len()).sum();
        assert_eq!(jobs, 377);
        let accesses: u64 = ops.iter().map(|op| total_accesses(&op.list)).sum();
        assert_eq!(accesses, 22_620_000);
    }

    #[test]
    fn the_golden_seed_reproduces_the_template_bytes() {
        // The template was emitted at seed 2006, so substituting 2006 is
        // the identity and the same seed always gives the same bytes.
        let figures: Vec<FigureSpec> = serde_json::from_str(SWEEP_TEMPLATE).unwrap();
        let template: Vec<String> = figures.iter().map(|f| spec_json(&f.spec)).collect();
        assert_eq!(sweep_json(GOLDEN_SEED), template);
        assert_eq!(sweep_json(99), sweep_json(99));
    }

    #[test]
    fn another_seed_changes_only_the_seed_fields() {
        let (a, b) = (sweep_json(GOLDEN_SEED), sweep_json(77));
        let mut changed = 0;
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.lines().count(), b.lines().count());
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    assert_eq!(la.trim(), "\"seed\": 2006");
                    assert_eq!(lb.trim(), "\"seed\": 77");
                    changed += 1;
                }
            }
        }
        assert_eq!(changed, 377, "one seed per job");
    }

    #[test]
    fn generated_inputs_depend_only_on_the_seed() {
        let scale = Scale::full();
        assert_eq!(paper16_ops(5, &scale), paper16_ops(5, &scale));
        assert_ne!(paper16_ops(5, &scale), paper16_ops(6, &scale));
        let traces = replay_traces(5, Path::new("t"));
        let pairs: std::collections::BTreeSet<(String, u64)> = traces
            .iter()
            .map(|t| (t.app.short_name().to_string(), t.seed))
            .collect();
        assert_eq!(pairs.len(), REPLAY_TRACES, "distinct (app, seed) pairs");
    }

    #[test]
    fn replay_replays_each_file_once_half_with_sms() {
        let traces = replay_traces(1, Path::new("t"));
        let ops = replay_ops(&traces, &Scale::full());
        let jobs: Vec<&SimJob> = ops.iter().flat_map(|op| &op.list.jobs).collect();
        assert_eq!(jobs.len(), REPLAY_TRACES);
        let sources: std::collections::BTreeSet<String> =
            jobs.iter().map(|j| j.sim.source.describe()).collect();
        assert_eq!(sources.len(), REPLAY_TRACES);
        let sms = jobs
            .iter()
            .filter(|j| j.sim.prefetcher.plugin == "sms")
            .count();
        assert_eq!(sms, REPLAY_TRACES / 2);
        // Every class is replayed twice with SMS and twice without.
        for class in ApplicationClass::ALL {
            let plugins: Vec<&str> = traces
                .iter()
                .zip(&ops)
                .filter(|(t, _)| t.app.class() == class)
                .map(|(_, op)| op.list.jobs[0].sim.prefetcher.plugin.as_str())
                .collect();
            assert_eq!(plugins.len(), 4, "{class:?}");
            assert_eq!(plugins.iter().filter(|p| **p == "sms").count(), 2);
        }
    }

    #[test]
    fn zero_access_lists_keep_everything_but_the_budget() {
        let op = &paper16_ops(3, &Scale::full())[0];
        let zero = zero_accesses(&op.list);
        assert_eq!(total_accesses(&zero), 0);
        assert_eq!(zero.jobs.len(), op.list.jobs.len());
        assert_eq!(zero.jobs[1].sim.prefetcher, op.list.jobs[1].sim.prefetcher);
    }
}
