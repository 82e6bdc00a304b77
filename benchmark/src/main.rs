//! The benchmark's command line.
//!
//! ```text
//! benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--program PATH]
//! benchmark golden [--program PATH]       rewrite benchmark/golden.json
//! ```
//!
//! Run it from the checkout root through cargo:
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --workload sweep`.
//! The last line of standard output is the result as one JSON object.

use benchmark::report::{self, Tally};
use benchmark::workloads::{Scale, Workload, GOLDEN_SEED};
use benchmark::{batch, golden, program, Context};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload sweep|paper16|replay|served \
                     [--seed S] [--seconds N] [--trace 0|1] [--program PATH]\n\
                     \x20      benchmark golden [--program PATH]";

#[derive(Debug)]
struct Args {
    golden: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    program: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        golden: false,
        workload: None,
        seed: GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
        program: None,
    };
    let mut rest = args;
    if rest.first().map(String::as_str) == Some("golden") {
        parsed.golden = true;
        rest = &rest[1..];
    }
    let mut pairs = rest.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got {value:?}"))?
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds expects a positive number, got {value:?}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                }
            }
            "--program" => parsed.program = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.golden {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn context(program: PathBuf, workload: Workload, seed: u64, seconds: f64) -> Context {
    Context {
        program,
        workload,
        seed,
        scale: Scale::full(),
        seconds,
        work: PathBuf::from("benchmark/work").join(workload.name()),
        out: PathBuf::from("benchmark/out").join(format!("{}-seed{seed}", workload.name())),
    }
}

/// Runs each batch workload's operations once at the golden seed and
/// rewrites the golden file from their output digests.  `served` submits
/// `sweep`'s lists and is checked against `sweep`'s digests.
fn write_golden(program: PathBuf) -> Result<(), String> {
    let mut entries = Vec::new();
    let mut tally = Tally::default();
    for workload in [Workload::Sweep, Workload::Paper16, Workload::Replay] {
        let ctx = context(program.clone(), workload, GOLDEN_SEED, 0.0);
        std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;
        let ops = batch::prepare(&ctx).map_err(|e| e.to_string())?;
        let outputs = batch::first_pass(&ctx, &ops, &mut tally);
        let digests = ops
            .iter()
            .zip(&outputs)
            .map(|(op, bytes)| (op.name.clone(), golden::digest(bytes)))
            .collect();
        let _ = std::fs::remove_dir_all(&ctx.work);
        entries.push((workload.name(), digests));
    }
    if tally.failed > 0 {
        return Err(format!("{} operations failed", tally.failed));
    }
    std::fs::write(
        "benchmark/golden.json",
        golden::render(GOLDEN_SEED, &entries),
    )
    .map_err(|e| format!("writing benchmark/golden.json: {e}"))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A relative --program names a path from where the benchmark started.
    let program = args
        .program
        .map(|p| std::path::absolute(p).expect("the working directory exists"));
    let root = program::checkout_root();
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("cannot enter the checkout {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let program = match program.map_or_else(|| program::build(&root), Ok) {
        Ok(program) => program,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.golden {
        return match write_golden(program) {
            Ok(()) => {
                println!("benchmark/golden.json rewritten");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("golden: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("parse requires --workload");
    let ctx = context(program, workload, args.seed, args.seconds);
    match benchmark::run(&ctx, args.trace) {
        Ok((metrics, tally)) => {
            let correct = tally.failed == 0;
            println!(
                "{} seed {}: {} operations, {} failed{}",
                workload.name(),
                args.seed,
                tally.attempted,
                tally.failed,
                if args.trace {
                    format!(" (layers in {})", ctx.out.display())
                } else {
                    String::new()
                }
            );
            print!("{}", report::table(&metrics));
            println!(
                "{}",
                report::result_line(correct, tally.attempted, tally.failed, &metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}
