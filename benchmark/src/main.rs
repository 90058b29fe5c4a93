//! The repo benchmark. `run.sh` builds `wfserve` and this binary, then calls
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON on the last line
//! benchmark suite  [--seed <n>] [--seconds <s>]                        all five workloads, every metric
//! benchmark ladder [--seed <n>] [--seconds <s>] [--workload <name>]    the traced run, per layer
//! benchmark repeat [--sets 2] [--runs 5] [--seconds <s>]               spread of the suite against its bounds
//! ```

mod client;
mod e2e;
mod inputs;
mod json;
#[cfg(feature = "ladder")]
mod ladder;
#[cfg(feature = "ladder")]
mod layers;
mod loadgen;
mod repeat;
mod report;
mod rng;
mod server;
#[cfg(feature = "ladder")]
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use e2e::Paths;
use workloads::Workload;

/// The seed the committed numbers were taken with.
const DEFAULT_SEED: u64 = 20211;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 10;
/// The harness allows a run 180 s; give up (and reap the server) before that.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    while let Some(arg) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag} must be a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                args.seconds = number("--seconds", value("--seconds")?)?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--sets" => args.sets = number("--sets", value("--sets")?)?.max(1) as usize,
            "--runs" => args.runs = number("--runs", value("--runs")?)?.max(2) as usize,
            "suite" | "ladder" | "repeat" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(args)
}

#[cfg(feature = "ladder")]
fn traced(paths: &Paths, workload: Workload, seed: u64, seconds: u64) -> Result<bool, String> {
    ladder::run(paths, workload, seed, seconds)
}

#[cfg(not(feature = "ladder"))]
fn traced(_: &Paths, _: Workload, _: u64, _: u64) -> Result<bool, String> {
    Err(
        "this binary was built without the ladder (--no-default-features); \
         the traced run is unavailable"
            .to_owned(),
    )
}

/// Runs the chosen command; `Ok(false)` means it ran and found a problem.
fn run(args: &Args) -> Result<bool, String> {
    let paths = Paths::from_env();
    match args.command.as_deref() {
        Some("suite") => {
            let mut ok = true;
            for workload in Workload::ALL {
                let outcome = e2e::run(&paths, workload, args.seed, args.seconds)?;
                report::print_outcome(&outcome);
                ok &= outcome.correct();
            }
            Ok(ok)
        }
        Some("ladder") => {
            let chosen: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let mut ok = true;
            for workload in chosen {
                ok &= traced(&paths, workload, args.seed, args.seconds)?;
            }
            Ok(ok)
        }
        Some("repeat") => repeat::run(&paths, args.sets, args.runs, args.seconds),
        _ => {
            server::start_watchdog(RUN_LIMIT);
            let workload = args.workload.ok_or("--workload is required")?;
            if args.trace {
                return traced(&paths, workload, args.seed, args.seconds);
            }
            let outcome = e2e::run(&paths, workload, args.seed, args.seconds)?;
            report::print_outcome(&outcome);
            println!(
                "{}",
                report::result_line(
                    outcome.correct(),
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics()
                )
            );
            Ok(outcome.correct())
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(1)
        }
    }
}
