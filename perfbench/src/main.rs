//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report (lines starting with `#`) and, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Exits 1 when any output differs from its reference or a run
//! cannot be measured, and 2 on bad arguments.

use perfbench::e2e::{self, RunConfig};
use perfbench::layers;
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::workload::{Scale, Workload, WORKLOADS};
use std::process::ExitCode;

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {WORKLOADS:?}")
                })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = report::nproc();
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
        nproc,
        setups: SETUPS,
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} engine_workers={nproc} client_threads={} segment_size={} setups={SETUPS}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.workload == Workload::ServeMix { nproc } else { 0 },
        perfbench::workload::SEGMENT_SIZE,
    );
    let mut notes = Vec::new();
    let (outcome, table) = if args.trace {
        (layers::run(args.workload, &cfg, &mut notes), &PER_LAYER[..])
    } else {
        (e2e::run(args.workload, &cfg, &mut notes), &END_TO_END[..])
    };
    for note in &notes {
        println!("# {note}");
    }
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for error in &outcome.method_errors {
        println!("# METHOD ERROR: {error}");
    }
    for (name, unit) in table {
        if let Some(value) = outcome.metrics.get(name) {
            println!("# {name} = {value} {unit}");
        }
    }
    match outcome.result_line(table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed or returned wrong results",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
