//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the run's spans are written to
//! `perfbench-spans/<workload>-seed<n>.csv`. A failed correctness check
//! prints no metric values and exits with code 1; bad arguments exit
//! with code 2.

use std::path::PathBuf;
use std::process::ExitCode;

use rupam_perfbench::report::{json_line, END_TO_END, PER_LAYER};
use rupam_perfbench::spans::SpanLog;
use rupam_perfbench::{run, run_traced, rupam_default, shape, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(shape) = shape(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };

    let mut log = SpanLog::new();
    let result = if args.trace {
        run_traced(&shape, args.seed, rupam_default, &mut log)
    } else {
        run(&shape, args.seed, args.seconds, rupam_default)
    };
    match result {
        Ok(outcome) => {
            let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
            let metrics = outcome.values.select(catalogue);
            println!("workload {} seed {}", args.workload, args.seed);
            for note in &outcome.notes {
                println!("  {note}");
            }
            for (name, value, unit) in &metrics {
                println!("  {name:<34} {value:>16.6} {unit}");
            }
            if args.trace {
                let path = PathBuf::from("perfbench-spans")
                    .join(format!("{}-seed{}.csv", args.workload, args.seed));
                match log.write_csv(&path) {
                    Ok(()) => println!("  {} spans written to {}", log.spans.len(), path.display()),
                    Err(e) => eprintln!(
                        "perfbench: could not write spans to {}: {e}",
                        path.display()
                    ),
                }
            }
            println!(
                "{}",
                json_line(true, outcome.attempted, outcome.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!(
                "perfbench: {} failed its check (failed_frac {:.4}): {}",
                args.workload,
                failure.failed_frac(),
                failure.reason
            );
            println!(
                "{}",
                json_line(false, failure.attempted, failure.failed, &[])
            );
            ExitCode::FAILURE
        }
    }
}
