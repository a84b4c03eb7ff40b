//! `nuspi-perfbench --workload NAME|all --seed N --seconds S --trace 0|1`
//!
//! Runs one workload (or each in its own child process) and prints its
//! metrics by name and unit, then one JSON result object as the last
//! line. Exits non-zero on any failed operation or guard violation.

use nuspi_perfbench::corpus::{self, Workload};
use nuspi_perfbench::report::{result_line, table};
use nuspi_perfbench::{drive, layers};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str =
    "usage: nuspi-perfbench --workload lint-cold|serve-warm|equiv-oracle|solve-large|all \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_one(w: Workload, args: &Args) -> ExitCode {
    let corpus = corpus::build(w, args.seed);
    let (attempted, failed, guards, metrics, ungated, notes) = if args.trace {
        let t = layers::traced(&corpus, args.seed, args.seconds);
        let ungated = Vec::new();
        (
            t.attempted,
            t.failed,
            t.guard_violations,
            t.metrics,
            ungated,
            t.failures,
        )
    } else {
        let run = drive::measure(&corpus, args.seconds, w.min_passes());
        let failed = run.samples.iter().filter(|s| s.failed).count() as u64;
        let metrics = drive::metrics(w, &corpus, &run);
        let ungated = drive::ungated(&run);
        (
            run.samples.len() as u64,
            failed,
            run.guard_violations,
            metrics,
            ungated,
            run.failures,
        )
    };
    for note in notes.iter().chain(&guards) {
        eprintln!("{}: {note}", w.name());
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let title = format!(
        "{} (seed {}, {} client(s), {cores} core(s), tail = p{}{})",
        w.name(),
        args.seed,
        w.clients(),
        w.tail_percentile(),
        if args.trace { ", traced" } else { "" }
    );
    print!("{}", table(&title, &metrics));
    if !ungated.is_empty() {
        print!("{}", table("not gated", &ungated));
    }
    let correct = failed == 0 && guards.is_empty() && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match Workload::from_name(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("unknown workload {}\n{USAGE}", args.workload);
            ExitCode::from(2)
        }
    }
}
