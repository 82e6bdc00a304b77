//! The program under test: building the release `sms-experiments` binary
//! from the checkout and invoking its `run` and `serve` commands.

use crate::proc::{Exit, Running};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Engine worker threads of every program invocation.  The host the
/// benchmark was defined on has two cores; with two workers the second
/// core's interference (the benchmark, clients, other tenants) lands on the
/// critical path, and run-to-run spreads were up to twice those with one.
pub const WORKERS: usize = 1;

/// The repository checkout the benchmark package lives in.
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// Builds `sms-experiments` from `root` with `cargo build --release` and
/// returns the binary's path.  The target directory is `$CARGO_TARGET_DIR`
/// when set (relative paths resolve against `root`), else `root/target`.
///
/// # Errors
///
/// When cargo cannot be started or the build fails.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|dir| root.join(dir))
        .unwrap_or_else(|| root.join("target"));
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "experiments",
            "--bin",
            "sms-experiments",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sms-experiments failed ({status})"));
    }
    Ok(target.join("release").join("sms-experiments"))
}

/// Runs `program run --spec SPEC --jobs 1 --out OUT` to completion, with
/// stderr going to `log` and the summary table discarded (the results are
/// in `OUT`).
///
/// # Errors
///
/// When the log cannot be created, the process cannot be spawned or it
/// cannot be reaped.
pub fn run(program: &Path, spec: &Path, out: &Path, log: &Path) -> io::Result<Exit> {
    Running::spawn(
        Command::new(program)
            .arg("run")
            .arg("--spec")
            .arg(spec)
            .arg("--jobs")
            .arg(WORKERS.to_string())
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?),
    )?
    .wait()
}

/// Starts `program serve --socket SOCKET --jobs 1 --cache-dir CACHE`, with
/// its output appended to `log`.
///
/// # Errors
///
/// When the log cannot be opened or the process cannot be spawned.
pub fn spawn_server(
    program: &Path,
    socket: &Path,
    cache_dir: &Path,
    log: &Path,
) -> io::Result<Running> {
    let log = File::options().create(true).append(true).open(log)?;
    Running::spawn(
        Command::new(program)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .arg("--jobs")
            .arg(WORKERS.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log),
    )
}
