//! Deterministic fault injection for the serving stack.
//!
//! Fault tolerance is only trustworthy if it is *tested*, and fault tests
//! are only trustworthy if they are **deterministic** — a chaos suite that
//! rolls fresh dice every run cannot be bisected.  This crate provides the
//! two pieces the workspace's chaos harness (`tests/chaos.rs`) is built
//! from:
//!
//! * the **chaos plugin** ([`ChaosPlugin`], plugin name `"chaos"`): a
//!   registry plugin whose prefetcher never issues a prefetch — so a
//!   non-faulting chaos job is byte-identical to a `null`-prefetcher job —
//!   but misbehaves on a precise schedule given by its parameters: panic at
//!   the N-th observed access, sleep a fixed number of microseconds every
//!   N-th access, or hold its first access until a test opens a gate file
//!   ([`open_gate`]).  Threaded through the engine's ordinary plugin
//!   seam, it exercises panic isolation and deadline cancellation exactly
//!   where a buggy third-party plugin would;
//! * the **fault plan** ([`FaultPlan`]): a seeded, reproducible assignment
//!   of faults to the jobs of a submission, drawn from the vendored
//!   ChaCha8 generator.  The same seed always yields the same plan, so a
//!   failing chaos case is a constant, not a flake.
//!
//! Faults the plugin cannot express from inside a job — corrupt trace
//! files, dropped connections — get helpers here too
//! ([`write_corrupt_trace`]) or are driven directly by the harness.
//!
//! Everything is plain data and standard seams: when no fault is
//! configured, nothing in this crate runs — the production binaries do not
//! link it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use engine::{
    decode_params, BuiltPrefetcher, PluginError, PrefetcherPlugin, PrefetcherSpec, Probe, Registry,
};
use memsim::{PrefetchRequest, Prefetcher, SystemOutcome};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::Arc;
use trace::MemAccess;

/// Plugin name of the chaos prefetcher.
pub const PLUGIN_NAME: &str = "chaos";

/// One fault a job can carry, as stored in a [`FaultPlan`] and encoded in
/// the chaos plugin's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// No misbehavior: the job must stay byte-identical to a `null`
    /// prefetcher run.
    None,
    /// Panic when the prefetcher observes its `after`-th access (1-based).
    Panic {
        /// Access count at which the panic fires.
        after: u64,
    },
    /// Sleep `micros` microseconds at every `every`-th observed access —
    /// slow, never wrong; what a deadline cuts short.
    Delay {
        /// Period, in observed accesses.
        every: u64,
        /// Sleep length per firing, microseconds.
        micros: u64,
    },
    /// Hold the job's first observed access until the gate file for
    /// `token` exists (see [`open_gate`]), then run normally.  Lets a test
    /// keep a job occupying the scheduler for exactly as long as it needs —
    /// a provable condition instead of a timing bet.
    Gate {
        /// Gate identity; resolved to a path by [`gate_path`].
        token: u64,
    },
}

/// Wire form of the chaos plugin's parameter tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosParams {
    /// Fault kind: `"none"`, `"panic"`, `"delay"` or `"gate"`.
    pub fault: String,
    /// For `"panic"`: the 1-based access count at which the panic fires
    /// (absent = the first access).
    pub after: Option<u64>,
    /// For `"delay"`: period in observed accesses (absent = every access).
    pub every: Option<u64>,
    /// For `"delay"`: sleep length per firing in microseconds (absent =
    /// 100).
    pub micros: Option<u64>,
    /// For `"gate"`: the gate identity (absent = 0).
    pub token: Option<u64>,
}

impl Fault {
    /// The chaos-plugin spec that injects this fault.
    pub fn spec(&self) -> PrefetcherSpec {
        let params = match *self {
            Fault::None => ChaosParams {
                fault: "none".to_string(),
                after: None,
                every: None,
                micros: None,
                token: None,
            },
            Fault::Panic { after } => ChaosParams {
                fault: "panic".to_string(),
                after: Some(after),
                every: None,
                micros: None,
                token: None,
            },
            Fault::Delay { every, micros } => ChaosParams {
                fault: "delay".to_string(),
                after: None,
                every: Some(every),
                micros: Some(micros),
                token: None,
            },
            Fault::Gate { token } => ChaosParams {
                fault: "gate".to_string(),
                after: None,
                every: None,
                micros: None,
                token: Some(token),
            },
        };
        PrefetcherSpec::custom(PLUGIN_NAME, &params)
    }

    /// Whether this fault panics the job.
    pub fn panics(&self) -> bool {
        matches!(self, Fault::Panic { .. })
    }
}

/// The chaos prefetcher: counts observed accesses and misbehaves on its
/// configured schedule; never issues a prefetch.
#[derive(Debug, Clone)]
struct ChaosPrefetcher {
    fault: Fault,
    seen: u64,
}

impl ChaosPrefetcher {
    fn observe(&mut self) {
        self.seen += 1;
        match self.fault {
            Fault::None => {}
            Fault::Panic { after } => {
                if self.seen >= after.max(1) {
                    panic!("injected chaos panic at access {}", self.seen);
                }
            }
            Fault::Delay { every, micros } => {
                if self.seen.is_multiple_of(every.max(1)) {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
            }
            Fault::Gate { token } => {
                if self.seen == 1 {
                    while !gate_path(token).exists() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
            }
        }
    }
}

impl Prefetcher for ChaosPrefetcher {
    fn on_access_into(
        &mut self,
        _access: &MemAccess,
        _outcome: &SystemOutcome,
        _out: &mut Vec<PrefetchRequest>,
    ) {
        self.observe();
    }

    fn name(&self) -> &str {
        PLUGIN_NAME
    }
}

impl Probe for ChaosPrefetcher {}

/// The registry plugin wrapping the chaos prefetcher; see the crate docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosPlugin;

impl PrefetcherPlugin for ChaosPlugin {
    fn name(&self) -> &str {
        PLUGIN_NAME
    }

    fn description(&self) -> &str {
        "fault-injection prefetcher: panics or stalls on a deterministic schedule, never prefetches"
    }

    fn build(
        &self,
        params: &serde_json::Value,
        _num_cpus: usize,
    ) -> Result<BuiltPrefetcher, PluginError> {
        let fault = decode_fault(params)?;
        Ok(BuiltPrefetcher::new(ChaosPrefetcher { fault, seen: 0 }))
    }

    fn check(&self, params: &serde_json::Value) -> Result<(), PluginError> {
        decode_fault(params).map(|_| ())
    }
}

/// Decodes the chaos plugin's parameters into the fault they inject; the
/// one decoder behind both [`ChaosPlugin::build`] and its admission check.
fn decode_fault(params: &serde_json::Value) -> Result<Fault, PluginError> {
    let params: ChaosParams = decode_params(PLUGIN_NAME, params)?;
    Ok(match params.fault.as_str() {
        "none" => Fault::None,
        "panic" => Fault::Panic {
            after: params.after.unwrap_or(1),
        },
        "delay" => Fault::Delay {
            every: params.every.unwrap_or(1),
            micros: params.micros.unwrap_or(100),
        },
        "gate" => Fault::Gate {
            token: params.token.unwrap_or(0),
        },
        other => {
            return Err(PluginError::BadParams {
                plugin: PLUGIN_NAME.to_string(),
                message: format!(
                    "unknown fault kind {other:?} (expected \"none\", \"panic\", \"delay\" \
                     or \"gate\")"
                ),
            })
        }
    })
}

/// The built-in registry plus the chaos plugin — what a chaos-enabled
/// server or test passes to the engine.
pub fn registry() -> Registry {
    let mut registry = Registry::with_builtins();
    registry.register(Arc::new(ChaosPlugin));
    registry
}

/// A seeded, reproducible assignment of faults to the jobs of one
/// submission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// One fault per job, in submission order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Draws a plan for `jobs` jobs from `seed`: each job independently
    /// panics with probability `panic_p`, delays with probability
    /// `delay_p`, and otherwise runs clean.  The same arguments always
    /// yield the same plan.
    pub fn generate(seed: u64, jobs: usize, panic_p: f64, delay_p: f64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let faults = (0..jobs)
            .map(|_| {
                let roll: f64 = rng.gen();
                // Draw the fault parameters unconditionally so a job's
                // parameters do not depend on earlier jobs' outcomes.
                let after = rng.gen_range(1..200u64);
                let every = rng.gen_range(1..50u64);
                let micros = rng.gen_range(50..500u64);
                if roll < panic_p {
                    Fault::Panic { after }
                } else if roll < panic_p + delay_p {
                    Fault::Delay { every, micros }
                } else {
                    Fault::None
                }
            })
            .collect();
        Self { seed, faults }
    }

    /// Indices of the jobs this plan panics, ascending.
    pub fn panicking_jobs(&self) -> Vec<usize> {
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, fault)| fault.panics())
            .map(|(index, _)| index)
            .collect()
    }

    /// The first panicking job, if any — the index the engine's
    /// lowest-index-error semantics will report.
    pub fn first_panicking_job(&self) -> Option<usize> {
        self.panicking_jobs().first().copied()
    }
}

/// The file whose existence opens gate `token`; see [`Fault::Gate`].
pub fn gate_path(token: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sms-chaos-gate-{token}"))
}

/// Opens gate `token`: every job blocked on [`Fault::Gate`] with this
/// token proceeds.
///
/// # Errors
///
/// Any I/O error creating the gate file.
pub fn open_gate(token: u64) -> std::io::Result<()> {
    std::fs::File::create(gate_path(token)).map(|_| ())
}

/// Removes gate `token`'s file, so the token starts closed if reused.
///
/// # Errors
///
/// Any I/O error removing the gate file (including it not existing).
pub fn close_gate(token: u64) -> std::io::Result<()> {
    std::fs::remove_file(gate_path(token))
}

/// Writes a file that fails the binary trace reader's header validation,
/// for trace-read fault cases.  The bytes are constant, so the resulting
/// error is too.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_corrupt_trace(path: &std::path::Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(b"NOTATRACE\x00\x01corrupted header")?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = FaultPlan::generate(7, 12, 0.3, 0.3);
        let b = FaultPlan::generate(7, 12, 0.3, 0.3);
        assert_eq!(a, b);
        let c = FaultPlan::generate(8, 12, 0.3, 0.3);
        assert_ne!(a, c, "different seeds draw different plans");
    }

    #[test]
    fn probabilities_partition_the_fault_kinds() {
        let all_panic = FaultPlan::generate(1, 20, 1.0, 0.0);
        assert_eq!(all_panic.panicking_jobs().len(), 20);
        let all_delay = FaultPlan::generate(1, 20, 0.0, 1.0);
        assert!(all_delay
            .faults
            .iter()
            .all(|f| matches!(f, Fault::Delay { .. })));
        let all_clean = FaultPlan::generate(1, 20, 0.0, 0.0);
        assert!(all_clean.faults.iter().all(|f| *f == Fault::None));
        assert_eq!(all_clean.first_panicking_job(), None);
    }

    #[test]
    fn chaos_specs_build_through_the_registry() {
        let registry = registry();
        for fault in [
            Fault::None,
            Fault::Panic { after: 5 },
            Fault::Delay {
                every: 3,
                micros: 10,
            },
            Fault::Gate { token: 9 },
        ] {
            registry
                .build(&fault.spec(), 2)
                .expect("chaos spec must build");
        }
    }

    #[test]
    fn unknown_fault_kind_is_a_bad_params_error() {
        let registry = registry();
        let spec = PrefetcherSpec::custom(
            PLUGIN_NAME,
            &ChaosParams {
                fault: "explode".to_string(),
                after: None,
                every: None,
                micros: None,
                token: None,
            },
        );
        match registry.build(&spec, 2) {
            Err(PluginError::BadParams { plugin, .. }) => assert_eq!(plugin, PLUGIN_NAME),
            other => panic!("expected BadParams, got {other:?}"),
        }
    }

    #[test]
    fn an_unknown_fault_kind_is_refused_at_admission() {
        let explode = PrefetcherSpec::custom(
            PLUGIN_NAME,
            &ChaosParams {
                fault: "explode".to_string(),
                after: None,
                every: None,
                micros: None,
                token: None,
            },
        );
        let job = |prefetcher: PrefetcherSpec| {
            engine::SimJob::new(memsim::SimJob::synthetic(
                trace::Application::Ocean,
                trace::GeneratorConfig::default().with_cpus(1),
                1,
                1,
                memsim::HierarchyConfig::scaled(),
                prefetcher,
                100,
            ))
        };
        let list = engine::JobList::new(vec![
            job(Fault::None.spec()),
            job(Fault::Panic { after: 5 }.spec()),
            job(explode),
        ]);
        match list.check(&registry()) {
            Err(engine::SpecError::Plugin { job, error }) => {
                assert_eq!(job, 2, "the refusal names the job with the bad fault");
                assert!(
                    matches!(&error, PluginError::BadParams { plugin, message }
                        if plugin == PLUGIN_NAME && message.contains("\"explode\"")),
                    "{error}"
                );
            }
            other => panic!("expected a Plugin refusal, got {other:?}"),
        }
    }

    #[test]
    fn faults_round_trip_through_specs() {
        let fault = Fault::Delay {
            every: 7,
            micros: 123,
        };
        let spec = fault.spec();
        assert_eq!(spec.plugin, PLUGIN_NAME);
        let params: ChaosParams = serde::Deserialize::from_value(&spec.params).unwrap();
        assert_eq!(params.fault, "delay");
        assert_eq!(params.every, Some(7));
        assert_eq!(params.micros, Some(123));

        let spec = Fault::Gate { token: 42 }.spec();
        let params: ChaosParams = serde::Deserialize::from_value(&spec.params).unwrap();
        assert_eq!(params.fault, "gate");
        assert_eq!(params.token, Some(42));
    }
}
