//! The CLI rejects any `--flag` its subcommand does not take, and any
//! argument that is neither the command nor an operand it takes, before
//! doing any work: a mistyped flag gets a "did you mean" suggestion, and a
//! retired one fails instead of being silently ignored.  A stdout closed by
//! its reader ends a command quietly.

use std::io::Read;
use std::process::{Command, Output, Stdio};

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

#[test]
fn every_numeric_flag_rejects_a_value_that_is_not_a_number() {
    let serve = ["serve", "--socket", "/nonexistent/dir/sms.sock"];
    let submit = [
        "submit",
        "--socket",
        "/nonexistent.sock",
        "--spec",
        "jobs.json",
    ];
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
        (&serve, "--quota", "--quota expects a number of jobs"),
        (
            &serve,
            "--cache-max-entries",
            "--cache-max-entries expects a number of entries",
        ),
        (
            &serve,
            "--cache-max-bytes",
            "--cache-max-bytes expects a number of bytes",
        ),
        (
            &serve,
            "--queue-max",
            "--queue-max expects a number of submissions",
        ),
        (&submit, "--priority", "--priority expects an integer"),
        (&submit, "--retries", "--retries expects a retry count"),
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
