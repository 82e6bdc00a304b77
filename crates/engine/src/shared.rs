//! The per-run shared-trace table: a synthetic trace that several jobs of one
//! list read is generated once and replayed by each of them.
//!
//! The figures sweep one predictor parameter at a time over the same
//! per-application traces, so most jobs of a list read a source some other
//! job of the list reads too.  For every synthetic [`TraceSource`] that two
//! or more jobs name, the first job of the group that needs it records the
//! trace — at the group's largest access budget, inside its own job span —
//! into a columnar [`Recording`], and every job of the group, that one
//! included, replays its own prefix of it.  The recording is dropped when the
//! group's last job finishes, or with the table at the end of the run.
//!
//! Every job still sees exactly the accesses, in exactly the order, its own
//! generator would have produced, so results stay bit-identical.  Sources
//! read by one job only, file sources (the reader is already cheap, and a
//! file can be far larger than memory) and groups whose recording would push
//! the run's live recordings past [`LIVE_CAP_BYTES`] open and stream exactly
//! as a lone job would.  A group with a zero budget still opens its source
//! once, so a zero-access run keeps measuring a real run's fixed cost.

use crate::runner::SimJob;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use trace::{BoxedStream, Recording, TraceSource};

/// Cap on the bytes of one run's live recordings.  A figure's recordings
/// take a few MiB (60 k accesses per job at 17 B each is 1 MiB per source);
/// the cap only bounds lists of long jobs, whose generators then run per job
/// as before instead of growing the process without limit.
pub(crate) const LIVE_CAP_BYTES: usize = 64 << 20;

/// The sharing state of one run's job list.
#[derive(Debug)]
pub(crate) struct SharedTraces {
    /// The group each job belongs to; `None` for jobs that open their own
    /// source.
    group_of: Vec<Option<usize>>,
    groups: Vec<Mutex<Group>>,
    cap: usize,
    live_bytes: Arc<AtomicUsize>,
}

/// Jobs of one list that read the same synthetic source.
#[derive(Debug)]
struct Group {
    /// The largest access budget among the group's jobs.
    budget: usize,
    /// Jobs of the group that have not finished.
    jobs_left: usize,
    slot: Slot,
}

#[derive(Debug)]
enum Slot {
    /// No job of the group has started.
    Pending,
    /// The recording every job of the group replays, and its bytes under
    /// the cap.
    Ready {
        recording: Arc<Recording>,
        _reservation: Reservation,
    },
    /// Jobs open the source themselves: the recording did not fit under the
    /// cap, or the group's last job has finished.
    Open,
}

/// Bytes of a live recording, counted against the cap until dropped.
#[derive(Debug)]
struct Reservation {
    live_bytes: Arc<AtomicUsize>,
    bytes: usize,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.live_bytes.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl SharedTraces {
    /// Groups the synthetic sources of `jobs` that two or more jobs read.
    pub(crate) fn plan(jobs: &[SimJob], cap: usize) -> Self {
        let mut first_reader: HashMap<String, usize> = HashMap::new();
        let mut group_of = vec![None; jobs.len()];
        let mut groups: Vec<Group> = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            let source = &job.sim.source;
            if !recordable(source) {
                continue;
            }
            let first = *first_reader.entry(format!("{source:?}")).or_insert(index);
            // The key is a rendering of the source; equality decides.
            if first == index || jobs[first].sim.source != *source {
                continue;
            }
            let group = *group_of[first].get_or_insert_with(|| {
                groups.push(Group {
                    budget: jobs[first].sim.accesses,
                    jobs_left: 1,
                    slot: Slot::Pending,
                });
                groups.len() - 1
            });
            group_of[index] = Some(group);
            let group = &mut groups[group];
            group.budget = group.budget.max(job.sim.accesses);
            group.jobs_left += 1;
        }
        Self {
            group_of,
            groups: groups.into_iter().map(Mutex::new).collect(),
            cap,
            live_bytes: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Opens job `index`'s access stream: a replay of its group's recording
    /// (recorded now if this is the group's first job), or the source
    /// itself.
    ///
    /// # Errors
    ///
    /// As [`TraceSource::open`].
    pub(crate) fn open(&self, index: usize, job: &SimJob) -> io::Result<BoxedStream> {
        let source = &job.sim.source;
        let Some(group) = self.group_of[index] else {
            return source.open();
        };
        let mut group = self.lock(group);
        if let Slot::Pending = group.slot {
            group.slot = self.record(source, group.budget)?;
        }
        match &group.slot {
            Slot::Ready { recording, .. } => Ok(Box::new(recording.replay(job.sim.accesses))),
            _ => {
                drop(group);
                source.open()
            }
        }
    }

    /// Marks job `index` finished, however it ended; the group's last job
    /// drops the recording.
    pub(crate) fn finish(&self, index: usize) {
        if let Some(group) = self.group_of[index] {
            let mut group = self.lock(group);
            group.jobs_left -= 1;
            if group.jobs_left == 0 {
                group.slot = Slot::Open;
            }
        }
    }

    /// Records `budget` accesses of `source` if they fit under the cap.
    fn record(&self, source: &TraceSource, budget: usize) -> io::Result<Slot> {
        let Some(reservation) = budget
            .checked_mul(Recording::BYTES_PER_ACCESS)
            .and_then(|bytes| self.reserve(bytes))
        else {
            return Ok(Slot::Open);
        };
        let recording = Recording::record(&mut *source.open()?, budget)?;
        Ok(Slot::Ready {
            recording: Arc::new(recording),
            _reservation: reservation,
        })
    }

    /// Counts `bytes` against the cap, unless they would exceed it.
    fn reserve(&self, bytes: usize) -> Option<Reservation> {
        self.live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                live.checked_add(bytes).filter(|&total| total <= self.cap)
            })
            .ok()?;
        Some(Reservation {
            live_bytes: Arc::clone(&self.live_bytes),
            bytes,
        })
    }

    /// A group's state.  A job that panicked while recording poisons the
    /// lock but leaves the slot `Pending`, so the next job records afresh.
    fn lock(&self, group: usize) -> MutexGuard<'_, Group> {
        self.groups[group]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Whether a source can be shared: a synthetic generator whose CPU indices
/// fit a recording.
fn recordable(source: &TraceSource) -> bool {
    match source {
        TraceSource::Synthetic { generator, .. } => {
            generator.cpus <= usize::from(Recording::MAX_CPU) + 1
        }
        TraceSource::BinaryFile { .. } | TraceSource::TextFile { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::Registry;
    use crate::runner::tests::{chaos_registry, run};
    use crate::runner::{exec_job_isolated, JobResult};
    use crate::segment::tests::reference;
    use crate::spec::PrefetcherSpec;
    use crate::EngineError;
    use memsim::HierarchyConfig;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Weak;
    use timing::TimingConfig;
    use trace::{Application, GeneratorConfig};
    use tracelog::Trace;

    fn synthetic(app: Application, seed: u64, prefetcher: PrefetcherSpec, budget: usize) -> SimJob {
        SimJob::new(memsim::SimJob::synthetic(
            app,
            GeneratorConfig::default().with_cpus(2),
            seed,
            2,
            HierarchyConfig::scaled(),
            prefetcher,
            budget,
        ))
    }

    fn file_job(path: &std::path::Path, prefetcher: PrefetcherSpec) -> SimJob {
        SimJob::new(memsim::SimJob {
            source: TraceSource::binary_file(path.to_string_lossy()),
            cpus: 2,
            hierarchy: HierarchyConfig::scaled(),
            prefetcher,
            accesses: 800,
        })
    }

    /// Three synthetic sources read by several jobs each with unequal
    /// budgets — each group's first reader needs less than a later one, and
    /// every job of the Dss source has a zero budget — plus a binary file
    /// read twice, with plain and timing jobs interleaved.
    fn mixed_list(path: &std::path::Path) -> Vec<SimJob> {
        let oltp = |prefetcher, budget| synthetic(Application::OltpDb2, 11, prefetcher, budget);
        let dss = |prefetcher| synthetic(Application::DssQry1, 12, prefetcher, 0);
        let web = |prefetcher, budget| synthetic(Application::WebApache, 13, prefetcher, budget);
        vec![
            oltp(PrefetcherSpec::null(), 1_200),
            dss(PrefetcherSpec::null()),
            web(PrefetcherSpec::null(), 500),
            file_job(path, PrefetcherSpec::null()),
            oltp(PrefetcherSpec::sms_paper_default(), 3_000),
            web(PrefetcherSpec::sms_paper_default(), 2_000).with_timing(TimingConfig::table1(), 4),
            dss(PrefetcherSpec::sms_paper_default()),
            oltp(PrefetcherSpec::null(), 2_500).with_timing(TimingConfig::table1(), 2),
            file_job(path, PrefetcherSpec::sms_paper_default()),
        ]
    }

    fn with_trace_file<T>(tag: &str, body: impl FnOnce(&std::path::Path) -> T) -> T {
        let path = std::env::temp_dir().join(format!(
            "sms-engine-shared-{tag}-{}.bin",
            std::process::id()
        ));
        let recorded: Vec<trace::MemAccess> = Application::Sparse
            .stream(14, &GeneratorConfig::default().with_cpus(2))
            .take(800)
            .collect();
        trace::io::write_binary(std::fs::File::create(&path).unwrap(), &recorded).unwrap();
        let out = body(&path);
        std::fs::remove_file(&path).ok();
        out
    }

    /// Every job's result from the per-access reference, which opens the
    /// job's own source.
    fn alone(jobs: &[SimJob], registry: &Registry) -> Vec<Result<JobResult, EngineError>> {
        jobs.iter()
            .enumerate()
            .map(|(index, job)| Ok(reference(index, job, registry)))
            .collect()
    }

    /// Runs every job through the engine's per-job executor against
    /// `shared`, on `threads` threads claiming jobs in index order.
    fn exec_all(
        shared: &SharedTraces,
        jobs: &[SimJob],
        registry: &Registry,
        threads: usize,
    ) -> Vec<Result<JobResult, EngineError>> {
        let next = AtomicUsize::new(0);
        let mut outcomes: Vec<(usize, Result<JobResult, EngineError>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let trace = Trace::disabled();
                        let rec = trace.recorder("test");
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs.get(index) else { break };
                            let outcome =
                                exec_job_isolated(index, job, registry, &trace, shared, &rec);
                            done.push((index, outcome));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        outcomes.sort_by_key(|(index, _)| *index);
        outcomes.into_iter().map(|(_, outcome)| outcome).collect()
    }

    impl SharedTraces {
        /// The recordings the table holds now, by group.
        fn held(&self) -> Vec<(usize, Weak<Recording>)> {
            (0..self.groups.len())
                .filter_map(|group| match &self.lock(group).slot {
                    Slot::Ready { recording, .. } => Some((group, Arc::downgrade(recording))),
                    _ => None,
                })
                .collect()
        }
    }

    #[test]
    fn plan_groups_only_synthetic_sources_read_twice() {
        with_trace_file("plan", |path| {
            let mut jobs = mixed_list(path);
            jobs.push(synthetic(
                Application::Ocean,
                15,
                PrefetcherSpec::null(),
                100,
            ));
            let shared = SharedTraces::plan(&jobs, LIVE_CAP_BYTES);
            let groups: Vec<Option<usize>> = shared.group_of.clone();
            assert_eq!(
                groups,
                vec![
                    Some(0),
                    Some(2),
                    Some(1),
                    None,
                    Some(0),
                    Some(1),
                    Some(2),
                    Some(0),
                    None,
                    None
                ]
            );
            let budgets: Vec<(usize, usize)> = (0..3)
                .map(|g| {
                    let group = shared.lock(g);
                    (group.budget, group.jobs_left)
                })
                .collect();
            assert_eq!(budgets, vec![(3_000, 3), (2_000, 2), (0, 2)]);
        });
    }

    #[test]
    fn shared_runs_match_each_job_run_alone() {
        with_trace_file("match", |path| {
            let jobs = mixed_list(path);
            let expected: Vec<JobResult> = alone(&jobs, Registry::builtin())
                .into_iter()
                .map(|r| r.expect("every job runs"))
                .collect();
            for workers in [1, 2] {
                assert_eq!(run(&jobs, workers), expected, "{workers} workers");
            }
        });
    }

    #[test]
    fn recordings_over_the_cap_fall_back_to_opening_the_source() {
        with_trace_file("cap", |path| {
            let jobs = mixed_list(path);
            let expected = alone(&jobs, Registry::builtin());
            let oltp_bytes = 3_000 * Recording::BYTES_PER_ACCESS;
            // Under a zero cap only the empty Dss recording fits; under the
            // second only Oltp's does too, so the Web group (live beside it)
            // opens its source per job.
            for cap in [0, oltp_bytes] {
                for threads in [1, 2] {
                    let shared = SharedTraces::plan(&jobs, cap);
                    let results = exec_all(&shared, &jobs, Registry::builtin(), threads);
                    assert_eq!(results, expected, "cap {cap}, {threads} threads");
                    assert_eq!(shared.live_bytes.load(Ordering::Relaxed), 0);
                }
            }
            // Mid-run, after the first reader of each group has started.
            let shared = SharedTraces::plan(&jobs, oltp_bytes);
            let started = exec_all(&shared, &jobs[..3], Registry::builtin(), 1);
            assert!(started.iter().all(Result::is_ok));
            let held: Vec<usize> = shared.held().into_iter().map(|(g, _)| g).collect();
            assert_eq!(
                held,
                vec![0, 2],
                "Oltp and the empty Dss recording fit; Web does not"
            );
            assert_eq!(shared.live_bytes.load(Ordering::Relaxed), oltp_bytes);
        });
    }

    #[test]
    fn no_recording_outlives_its_group_or_the_run() {
        with_trace_file("lifetime", |path| {
            let jobs = mixed_list(path);
            let shared = SharedTraces::plan(&jobs, LIVE_CAP_BYTES);
            let last_job: Vec<usize> = (0..3)
                .map(|g| shared.group_of.iter().rposition(|&x| x == Some(g)).unwrap())
                .collect();
            let trace = Trace::disabled();
            let rec = trace.recorder("test");
            let mut seen: Vec<(usize, Weak<Recording>)> = Vec::new();
            for (index, job) in jobs.iter().enumerate() {
                exec_job_isolated(index, job, Registry::builtin(), &trace, &shared, &rec)
                    .expect("job runs");
                seen.extend(shared.held());
                for (group, recording) in &seen {
                    let started = shared.group_of[..=index].contains(&Some(*group));
                    let open = started && index < last_job[*group];
                    assert_eq!(
                        recording.strong_count() > 0,
                        open,
                        "group {group} after job {index}"
                    );
                }
            }
            assert_eq!(shared.live_bytes.load(Ordering::Relaxed), 0);

            // A run that stops mid-group (a failure or a cancellation) drops
            // what it still holds with the table.
            let shared = SharedTraces::plan(&jobs, LIVE_CAP_BYTES);
            let done = exec_all(&shared, &jobs[..1], Registry::builtin(), 1);
            assert!(done[0].is_ok());
            let held = shared.held();
            assert_eq!(held.len(), 1);
            drop(shared);
            assert!(held.iter().all(|(_, r)| r.strong_count() == 0));
        });
    }

    #[test]
    fn a_panicking_job_fails_alone_and_its_group_still_matches() {
        let registry = chaos_registry();
        let panicking = PrefetcherSpec {
            plugin: "panic-at".to_string(),
            params: serde_json::Value::Null,
        };
        let oltp = |prefetcher, budget| synthetic(Application::OltpDb2, 21, prefetcher, budget);
        // The panicking job records the group's trace, then panics mid-run.
        let jobs = vec![
            oltp(panicking.clone(), 2_000),
            oltp(PrefetcherSpec::null(), 1_500),
            oltp(panicking, 1_000),
            oltp(PrefetcherSpec::sms_paper_default(), 2_000),
        ];
        let healthy = [1, 3];
        for threads in [1, 2] {
            let shared = SharedTraces::plan(&jobs, LIVE_CAP_BYTES);
            let results = exec_all(&shared, &jobs, &registry, threads);
            for (index, result) in results.iter().enumerate() {
                if healthy.contains(&index) {
                    let want = reference(index, &jobs[index], &registry);
                    assert_eq!(result.as_ref().unwrap(), &want, "job {index}");
                } else {
                    assert!(
                        matches!(result, Err(EngineError::Panicked { job_index, .. }) if *job_index == index),
                        "job {index}: {result:?}"
                    );
                }
            }
            assert!(shared.held().is_empty());
        }
    }
}
