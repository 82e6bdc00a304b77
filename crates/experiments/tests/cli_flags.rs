//! The CLI rejects any `--flag` its subcommand does not take, before doing
//! any work: a mistyped flag gets a "did you mean" suggestion, and a retired
//! one fails instead of being silently ignored.

use std::process::{Command, Output};

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
