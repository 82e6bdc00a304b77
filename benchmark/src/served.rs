//! The `served` workload: `sweep`'s figure lists, submitted to a resident
//! `sms-experiments serve --cache-dir` process by two client threads.  One
//! submits each figure's list in turn, the next after the previous reply (a
//! closed loop); the other resubmits each list as soon as its first reply is
//! in, and the server must answer that repeat from its cache with the same
//! bytes.  Every pass has a server of its own on an empty cache directory,
//! so every pass computes the same lists.
//!
//! The lists are what users run to redo the paper.  That every list is
//! fetched once more (half of all submissions are repeats), right after its
//! first reply, is an assumption: nothing records how the server is used.

use crate::batch::{another_pass, another_setup, check_output, check_results};
use crate::probe::{self, Probe, Sample, Timed};
use crate::proc::{Exit, Running};
use crate::program;
use crate::report::{median, Measured, Samples, Tally};
use crate::workloads::{self, BatchOp, SplitMix64, Workload};
use crate::Context;
use engine::{JobList, JobResult};
use server::{Endpoint, SubmitOptions};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Where a server lives and logs.
#[derive(Debug, Clone)]
pub struct Site {
    /// The socket (relative to the checkout root, so it stays short).
    pub socket: PathBuf,
    /// The persistent result cache.
    pub cache_dir: PathBuf,
    /// The server's output.
    pub log: PathBuf,
}

impl Site {
    /// A site in `dir`, with a fresh empty cache directory.
    ///
    /// # Errors
    ///
    /// Any I/O error resetting the cache directory.
    pub fn fresh(dir: &Path, name: &str) -> std::io::Result<Site> {
        let site = Site {
            socket: dir.join(format!("{name}.sock")),
            cache_dir: dir.join(format!("{name}.cache")),
            log: dir.join(format!("{name}.log")),
        };
        if site.cache_dir.exists() {
            std::fs::remove_dir_all(&site.cache_dir)?;
        }
        std::fs::create_dir_all(&site.cache_dir)?;
        Ok(site)
    }

    /// The endpoint clients connect to.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }
}

/// A running server.
#[derive(Debug)]
pub struct Server {
    process: Running,
    endpoint: Endpoint,
    /// Seconds from spawn until the server answered a status request.
    pub ready_s: f64,
}

impl Server {
    /// Spawns a server at `site` and waits until it answers.
    ///
    /// # Errors
    ///
    /// When it cannot be spawned or does not answer within 60 s (it is then
    /// killed).
    pub fn start(program: &Path, site: &Site) -> Result<Server, String> {
        let process = program::spawn_server(program, &site.socket, &site.cache_dir, &site.log)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let endpoint = site.endpoint();
        let deadline = process.started() + Duration::from_secs(60);
        while server::client::status(&endpoint).is_err() {
            if Instant::now() > deadline {
                return Err(format!(
                    "the server did not answer within 60 s (see {})",
                    site.log.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Server {
            ready_s: process.started().elapsed().as_secs_f64(),
            process,
            endpoint,
        })
    }

    /// When the server was spawned.
    pub fn started(&self) -> Instant {
        self.process.started()
    }

    /// Asks the server to shut down and reaps it.
    ///
    /// # Errors
    ///
    /// When it refuses or exits with a failure.
    pub fn stop(self) -> Result<Exit, String> {
        server::client::shutdown(&self.endpoint).map_err(|e| format!("shutdown: {e}"))?;
        let exit = self
            .process
            .wait()
            .map_err(|e| format!("reaping the server: {e}"))?;
        if exit.success {
            Ok(exit)
        } else {
            Err("the server exited with a failure".to_string())
        }
    }
}

/// A submission's results as `run --spec --out` would write them.
pub fn results_json(results: &[JobResult]) -> String {
    serde_json::to_string_pretty(results).expect("results serialize")
}

/// Submits `list` and returns the reply's results, whether the cache
/// answered, and the round trip in seconds.
///
/// # Errors
///
/// The client error, rendered.
pub fn submit(
    endpoint: &Endpoint,
    client: usize,
    list: &JobList,
) -> Result<(Vec<JobResult>, bool, f64), String> {
    let options = SubmitOptions {
        client: format!("bench{client}"),
        ..SubmitOptions::default()
    };
    let start = Instant::now();
    let outcome =
        server::client::submit(endpoint, list, &options, &mut |_| {}).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let results = outcome.frames.into_iter().map(|f| f.result).collect();
    Ok((results, outcome.done.cache_hit, seconds))
}

/// One zero-access set-up: a server spawned on an empty cache directory,
/// then every list with its access budgets set to 0.  Returns the seconds
/// from spawn to the last reply.
fn setup(ctx: &Context, ops: &[BatchOp]) -> Result<f64, String> {
    let site = Site::fresh(&ctx.work, "setup").map_err(|e| e.to_string())?;
    let server = Server::start(&ctx.program, &site)?;
    for op in ops {
        let list = workloads::zero_accesses(&op.list);
        let (results, _, _) = submit(&site.endpoint(), 0, &list)?;
        check_results(&op.name, &list, &results)?;
    }
    let seconds = server.started().elapsed().as_secs_f64();
    server.stop()?;
    Ok(seconds)
}

/// One measured pass on a fresh server.  The new submissions' round trips
/// go to `measured.wall`, the server's CPU time and peak memory to
/// `measured.cpu` and `measured.max_rss_kb`.  The host is probed after
/// every new submission, before the repeating client is told to fetch it
/// again; the server's CPU time is scaled by the pass's median probe.
/// `before` is the latest probe, and is the latest again on return.
fn run_pass(
    ctx: &Context,
    ops: &[BatchOp],
    references: &mut [Option<Vec<u8>>],
    probe: &mut Probe,
    before: &mut Sample,
    measured: &mut Measured,
    tally: &mut Tally,
) -> Result<(), String> {
    let site = Site::fresh(&ctx.work, "serve").map_err(|e| e.to_string())?;
    let server = Server::start(&ctx.program, &site)?;
    let endpoint = &site.endpoint();
    let (done, completed) = mpsc::channel::<(usize, Vec<u8>)>();
    let mut probes = Vec::new();
    let repeats = std::thread::scope(|scope| {
        let repeater = scope.spawn(move || {
            let mut tally = Tally::default();
            for (index, expected) in completed {
                let op = &ops[index];
                tally.check(submit(endpoint, 1, &op.list).and_then(|(results, hit, _)| {
                    if hit && results_json(&results).as_bytes() == expected.as_slice() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: the repeat was not a byte-identical cache hit",
                            op.name
                        ))
                    }
                }));
            }
            tally
        });
        for (index, op) in ops.iter().enumerate() {
            let submitted = submit(endpoint, 0, &op.list);
            let after = probe.sample();
            let probe_s = probe::around(before, &after);
            *before = after;
            probes.push(probe_s);
            let outcome = submitted.and_then(|(results, hit, seconds)| {
                if hit {
                    return Err(format!("{}: a new submission hit the cache", op.name));
                }
                measured.wall[index]
                    .seconds
                    .push(Timed { seconds, probe_s });
                let bytes = results_json(&results).into_bytes();
                // The lists are sweep's, so at the golden seed the replies
                // must match the digests of sweep's direct runs.
                check_output(
                    ctx,
                    Workload::Sweep.name(),
                    &op.name,
                    &op.list,
                    &mut references[index],
                    bytes.clone(),
                )?;
                Ok(bytes)
            });
            tally.check(outcome.map(|bytes| {
                done.send((index, bytes))
                    .expect("the repeating client runs until the channel closes");
            }));
        }
        drop(done);
        repeater
            .join()
            .expect("the repeating client does not panic")
    });
    tally.merge(repeats);
    let exit = server.stop()?;
    measured.cpu[0].seconds.push(Timed {
        seconds: exit.cpu_s,
        probe_s: median(&probes),
    });
    measured.max_rss_kb.push(exit.max_rss_kb);
    Ok(())
}

/// A seeded choice of figure, run directly with `run --spec`, must write
/// the bytes the server sent for it.
fn check_direct(
    ctx: &Context,
    ops: &[BatchOp],
    references: &[Option<Vec<u8>>],
) -> Result<(), String> {
    let index = SplitMix64::new(&[ctx.seed, 0x5EED]).below(ops.len());
    let op = &ops[index];
    let served = references[index]
        .as_ref()
        .ok_or_else(|| format!("{}: no served reply to compare", op.name))?;
    let file = |suffix: &str| ctx.work.join(format!("direct.{suffix}"));
    workloads::write_spec(&file("spec.json"), &op.list).map_err(|e| e.to_string())?;
    let exit = program::run(
        &ctx.program,
        &file("spec.json"),
        &file("out.json"),
        &file("log"),
    )
    .map_err(|e| e.to_string())?;
    let direct = std::fs::read(file("out.json")).map_err(|e| e.to_string())?;
    if exit.success && direct == *served {
        Ok(())
    } else {
        Err(format!(
            "{}: the served reply differs from a direct run",
            op.name
        ))
    }
}

/// The end-to-end measurement of `served`: zero-access set-ups, which also
/// warm the binary, then measured passes for `ctx.seconds`, then one
/// figure run directly to compare with what the server sent.
pub fn measure(ctx: &Context, tally: &mut Tally) -> Measured {
    let ops = workloads::sweep_ops(ctx.seed, &ctx.scale);
    let mut measured = Measured::default();
    let mut probe = Probe::new();
    let mut before = probe.sample();
    let start = Instant::now();
    while another_setup(start, measured.setups.len(), &ctx.scale) {
        let outcome = setup(ctx, &ops);
        let after = probe.sample();
        let probe_s = probe::around(&before, &after);
        before = after;
        let failed = outcome.is_err();
        tally.check(outcome.map(|seconds| measured.setups.push(Timed { seconds, probe_s })));
        if failed {
            break;
        }
    }
    measured.wall = ops
        .iter()
        .map(|op| Samples::new(workloads::total_accesses(&op.list)))
        .collect();
    // The server's CPU time covers the whole pass; repeats add no accesses.
    measured.cpu = vec![Samples::new(measured.wall.iter().map(|s| s.accesses).sum())];
    let mut references = vec![None; ops.len()];
    let start = Instant::now();
    while another_pass(start, measured.passes, ctx.seconds) {
        let pass = run_pass(
            ctx,
            &ops,
            &mut references,
            &mut probe,
            &mut before,
            &mut measured,
            tally,
        );
        if let Err(e) = pass {
            tally.check(Err(e));
            break;
        }
        measured.passes += 1;
    }
    tally.check(check_direct(ctx, &ops, &references));
    measured
}
