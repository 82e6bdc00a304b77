//! The CLI rejects any `--flag` its subcommand does not take, and any
//! argument that is neither the command nor an operand it takes, before
//! doing any work: a mistyped flag gets a "did you mean" suggestion, and a
//! retired one fails instead of being silently ignored.  A stdout closed by
//! its reader ends a command quietly, and a spec nested too deeply to parse
//! or sized past what the simulator can allocate is an error, not a crash.

use engine::{JobList, PrefetcherSpec, SimJob, TrainingSpec};
use ghb::GhbConfig;
use memsim::{CacheConfig, HierarchyConfig};
use sms::{IndexScheme, PhtCapacity, RegionConfig, SmsConfig, StreamerConfig, TrainerKind};
use std::io::Read;
use std::process::{Command, Output, Stdio};
use timing::TimingConfig;
use trace::{Application, GeneratorConfig};

fn sms_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sms-experiments"))
        .args(args)
        .output()
        .expect("the CLI runs")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn a_mistyped_flag_exits_2_with_a_suggestion_and_writes_nothing() {
    let out = std::env::temp_dir().join(format!("sms-cli-typo-{}.json", std::process::id()));
    let output = sms_experiments(&["fig05", "--quick", "--ouput", &out.to_string_lossy()]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains(r#"unknown flag "--ouput" (did you mean "--out"?)"#),
        "{}",
        stderr(&output)
    );
    assert!(!out.exists(), "a rejected run writes nothing");
    assert!(output.stdout.is_empty(), "a rejected run prints no figure");
}

#[test]
fn flags_a_subcommand_does_not_take_are_rejected() {
    let serve = ["serve", "--socket", "/nonexistent/dir/sms.sock"];
    let submit = [
        "submit",
        "--socket",
        "/nonexistent.sock",
        "--spec",
        "jobs.json",
    ];
    for (args, flag) in [
        // The removed segment size, on every subcommand that once took it.
        (
            &["fig12", "--quick", "--segment-size", "10000"][..],
            "--segment-size",
        ),
        (
            &["--figure", "fig05", "--segment-size", "10000"],
            "--segment-size",
        ),
        (
            &["run", "--spec", "jobs.json", "--segment-size", "10000"],
            "--segment-size",
        ),
        (
            &[&submit[..], &["--segment-size", "10000"]].concat(),
            "--segment-size",
        ),
        // One subcommand's flags are not another's.
        (&["run", "--spec", "jobs.json", "--quick"], "--quick"),
        (&["fig05", "--status"], "--status"),
        // The removed server policies: quotas, load shedding, cache
        // budgets, priorities and client retries.
        (&[&serve[..], &["--quota", "8"]].concat(), "--quota"),
        (&[&serve[..], &["--queue-max", "8"]].concat(), "--queue-max"),
        (
            &[&serve[..], &["--cache-max-entries", "8"]].concat(),
            "--cache-max-entries",
        ),
        (
            &[&serve[..], &["--cache-max-bytes", "8"]].concat(),
            "--cache-max-bytes",
        ),
        (&[&submit[..], &["--priority", "8"]].concat(), "--priority"),
        (&[&submit[..], &["--retries", "8"]].concat(), "--retries"),
    ] {
        let output = sms_experiments(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(&format!("unknown flag {flag:?}")),
            "{args:?}: {}",
            stderr(&output)
        );
    }
    // A flag's value may look like a flag without being one: this fails
    // reading the file, not parsing the flags.
    let output = sms_experiments(&["trace-check", "/nonexistent.json", "--require", "--x"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
}

#[test]
fn every_numeric_flag_rejects_a_value_that_is_not_a_number() {
    for (command, flag, message) in [
        (
            &["fig05", "--quick"][..],
            "--jobs",
            "--jobs expects a number",
        ),
        (
            &["run", "--spec", "jobs.json"],
            "--timeout",
            "--timeout expects a deadline in milliseconds",
        ),
    ] {
        let args = [command, &[flag, "many"]].concat();
        let output = sms_experiments(&args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(&format!(r#"{message}, got "many""#)),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(output.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn a_flag_that_takes_a_value_cannot_come_last_without_one() {
    for (args, message) in [
        (
            &["fig05", "--quick", "--trace-out"][..],
            "--trace-out expects the output path for the chrome trace",
        ),
        (&["fig05", "--quick", "--jobs"], "--jobs expects a number"),
        (
            &["fig05", "--quick", "--out"],
            "--out expects an output path",
        ),
    ] {
        let output = sms_experiments(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(message),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(output.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn an_argument_the_command_does_not_take_exits_2_and_names_it() {
    for (args, message) in [
        (
            &["fig05", "quick"][..],
            r#"fig5: unexpected argument "quick" (did you mean "--quick"?)"#,
        ),
        (
            &["table1", "quick"],
            r#"table1: unexpected argument "quick" (did you mean "--quick"?)"#,
        ),
        (&["fig05", "fig06"], r#"unexpected argument "fig06""#),
        (
            &["run", "--spec", "jobs.json", "extra"],
            r#"run: unexpected argument "extra""#,
        ),
        (&["list", "extra"], r#"list: unexpected argument "extra""#),
        (
            &["trace-check", "a.json", "b.json"],
            r#"trace-check: unexpected argument "b.json""#,
        ),
        // Two commands, however they are named.
        (
            &["fig05", "--figure", "fig06"],
            r#"not both "fig05" and "fig06""#,
        ),
        (
            &["--figure", "fig05", "--quick", "--figure", "fig06"],
            r#"not both "fig05" and "fig06""#,
        ),
    ] {
        let output = sms_experiments(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(message),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(output.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // `all` prints Table 1 at once and Figure 4 after its jobs run, so the
    // second write comes after the reader has gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_sms-experiments"))
        .args(["all", "--quick", "--jobs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the CLI runs");
    let mut head = [0; 16];
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout.read_exact(&mut head).expect("the CLI prints");
    drop(stdout);
    let output = child.wait_with_output().expect("the CLI exits");
    assert!(output.stderr.is_empty(), "{}", stderr(&output));
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn a_spec_nested_too_deeply_exits_1_with_a_parse_message() {
    // A parser that recursed once per `[` would overflow the stack and
    // abort (exit 134) instead of reporting the bad spec.
    let spec = std::env::temp_dir().join(format!("sms-cli-nested-{}.json", std::process::id()));
    std::fs::write(&spec, "[".repeat(100_000)).unwrap();
    let output = sms_experiments(&["run", "--spec", &spec.to_string_lossy()]);
    std::fs::remove_file(&spec).ok();
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("invalid job spec: nesting deeper than 128 levels"),
        "{}",
        stderr(&output)
    );
    assert!(output.stdout.is_empty());
}

/// A one-job spec on 2 CPUs whose prefetcher is `prefetcher`.
fn one_job(prefetcher: PrefetcherSpec) -> SimJob {
    SimJob::new(memsim::SimJob::synthetic(
        Application::OltpDb2,
        GeneratorConfig::default().with_cpus(2),
        2006,
        2,
        HierarchyConfig::scaled(),
        prefetcher,
        1_000,
    ))
}

#[test]
fn a_spec_sized_past_what_the_simulator_can_allocate_exits_1_naming_the_field() {
    let huge = 1usize << 40;
    let sms = |config: SmsConfig| one_job(PrefetcherSpec::sms(&config));
    let sectored = |l1_capacity_bytes| {
        one_job(PrefetcherSpec::training(&TrainingSpec {
            trainer: TrainerKind::DecoupledSectored,
            region: RegionConfig::paper_default(),
            index_scheme: IndexScheme::PcOffset,
            pht: PhtCapacity::Unbounded,
            l1_capacity_bytes,
        }))
    };
    let mut no_cpus = one_job(PrefetcherSpec::null());
    no_cpus.sim.cpus = 0;
    let mut many_cpus = one_job(PrefetcherSpec::null());
    many_cpus.sim.cpus = 257;
    let mut no_streams = one_job(PrefetcherSpec::null());
    no_streams.sim.source = trace::TraceSource::synthetic(
        Application::OltpDb2,
        GeneratorConfig {
            cpus: 0,
            ..GeneratorConfig::default()
        },
        2006,
    );
    let mut huge_l1 = one_job(PrefetcherSpec::null());
    huge_l1.sim.hierarchy.l1 = CacheConfig {
        capacity_bytes: 1 << 50,
        associativity: 8,
        block_bytes: 64,
    };
    let mut huge_l2 = one_job(PrefetcherSpec::null());
    huge_l2.sim.hierarchy.l2.capacity_bytes = 1 << 50;
    for (job, message) in [
        (no_cpus, "cpus must be in 1..=256, got 0"),
        (many_cpus, "cpus must be in 1..=256, got 257"),
        (no_streams, "generator.cpus must be in 1..=64, got 0"),
        (huge_l1, "L1 capacity must be at most 1048576 lines"),
        (huge_l2, "L2 capacity must be at most 1048576 lines"),
        (
            sms(SmsConfig {
                pht: PhtCapacity::Bounded {
                    entries: huge,
                    associativity: 16,
                },
                ..SmsConfig::paper_default()
            }),
            r#"bad parameters for plugin "sms": pht: entries must be at most 1048576"#,
        ),
        (
            sms(SmsConfig {
                streamer: StreamerConfig {
                    registers: huge,
                    ..StreamerConfig::paper_default()
                },
                ..SmsConfig::paper_default()
            }),
            r#"bad parameters for plugin "sms": streamer: at most 1048576 prediction registers"#,
        ),
        (
            one_job(PrefetcherSpec::ghb(&GhbConfig {
                history_entries: huge,
                ..GhbConfig::paper_small()
            })),
            r#"bad parameters for plugin "ghb": history_entries must be in 1..=1048576, got 1099511627776"#,
        ),
        (
            one_job(PrefetcherSpec::ghb(&GhbConfig {
                index_entries: huge,
                ..GhbConfig::paper_small()
            })),
            r#"bad parameters for plugin "ghb": index_entries must be in 1..=1048576, got 1099511627776"#,
        ),
        (
            sectored(1 << 50),
            r#"bad parameters for plugin "training": l1_capacity_bytes / region_bytes must be in 2..=1048576, got 549755813888"#,
        ),
        (
            sectored(2048),
            r#"bad parameters for plugin "training": l1_capacity_bytes / region_bytes must be in 2..=1048576, got 1"#,
        ),
        (
            one_job(PrefetcherSpec::sms_paper_default()).with_timing(TimingConfig::table1(), huge),
            "timing.segments must be in 1..=1048576, got 1099511627776",
        ),
        (
            one_job(PrefetcherSpec::sms_paper_default()).with_timing(TimingConfig::table1(), 0),
            "timing.segments must be in 1..=1048576, got 0",
        ),
    ] {
        let spec = std::env::temp_dir().join(format!("sms-cli-bounds-{}.json", std::process::id()));
        let list = JobList::new(vec![one_job(PrefetcherSpec::null()), job]);
        std::fs::write(&spec, serde_json::to_string(&list).unwrap()).unwrap();
        let output = sms_experiments(&["run", "--spec", &spec.to_string_lossy(), "--jobs", "1"]);
        std::fs::remove_file(&spec).ok();
        assert_eq!(
            output.status.code(),
            Some(1),
            "{message}: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(&format!("invalid job spec: job 1: {message}")),
            "{message}: {}",
            stderr(&output)
        );
        assert!(output.stdout.is_empty(), "{message}: a job ran");
    }
}
