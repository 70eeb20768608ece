//! `perfbench` — the end-to-end benchmark of the GLADIATOR reproduction.
//!
//! ```text
//! perfbench --workload <adaptive-sweep|policy-replay|routed-serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`) it sets the workload up three times (reporting the
//! median set-up time), then runs whole jobs of the workload for `--seconds`,
//! checks every output against an independent computation or a property the
//! method must have, and prints the end-to-end metrics. Traced (`--trace 1`)
//! it runs every workload once with spans around each layer call and prints
//! the per-layer metrics. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it holds
//! the run's exact counters. Any failed check exits 1.

mod adaptive;
mod common;
mod pipeline;
mod replay;
mod serve;
mod spans;

use std::process::ExitCode;

use common::{Outcome, Workdir};

const USAGE: &str = "usage: perfbench --workload <adaptive-sweep|policy-replay|routed-serve> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The workloads, in the order `--trace 1` runs them.
pub const WORKLOADS: [&str; 3] = ["adaptive-sweep", "policy-replay", "routed-serve"];

struct Args {
    workload: String,
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
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (known: {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match Workdir::create(&args.workload, args.seed) {
        Ok(work) => work,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args, &work)
    } else {
        match args.workload.as_str() {
            "adaptive-sweep" => adaptive::run(args.seed, args.seconds, &work),
            "policy-replay" => replay::run(args.seed, args.seconds, &work),
            _ => serve::run(args.seed, args.seconds, &work),
        }
    };
    if !args.trace {
        let (attempted, failed) = outcome.ops();
        eprintln!(
            "perfbench: {}: {attempted} operations attempted, {failed} failed",
            args.workload
        );
    }
    drop(work);
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The traced run: every workload's traced job (spans around each layer call,
/// the shot pipeline driven by hand), plus the tracing overhead of the named
/// workload — its traced job's wall time minus its untraced job's.
fn run_traced(args: &Args, work: &Workdir) -> Outcome {
    let mut outcome = Outcome::default();
    let mut overhead = None;
    for workload in WORKLOADS {
        let traced = match workload {
            "adaptive-sweep" => adaptive::traced(args.seed, work),
            "policy-replay" => replay::traced(args.seed, work),
            _ => serve::traced(args.seed, work),
        };
        let (attempted, failed) = traced.outcome.ops();
        eprintln!("perfbench: {workload}: {attempted} operations attempted, {failed} failed");
        if workload == args.workload {
            overhead = Some(traced.traced_wall_s - traced.untraced_wall_s);
        }
        outcome.absorb(traced.outcome);
    }
    outcome.metric("tracing.overhead_s", overhead.expect("the named workload ran"), "s");
    outcome
}
