//! wanbench — the check-latency budget for wanacl.
//!
//! `wanbench run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`
//! runs one workload and prints every metric by name with its unit, then
//! one JSON object on the last line. `--trace 0` (the default) measures
//! the end-to-end metrics; `--trace 1` (or `wanbench trace ...`) is the
//! separate traced run that gives the per-layer metrics and writes
//! `benchmark/out/trace-<workload>.json`. `wanbench all` runs the four
//! workloads, `wanbench selfcheck` compares two interleaved sets of runs
//! of the same code against the committed bounds, and `wanbench fit`
//! re-measures a workload's speed sensitivity.
//!
//! See `benchmark/README.md` for the method and the reason for each
//! workload and metric.

mod bench;
mod client;
mod gen;
mod live;
mod machine;
mod micro;
mod report;
mod simwl;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: machine::CountingAlloc = machine::CountingAlloc;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

const USAGE: &str = "usage: wanbench <run|trace|all|selfcheck|fit> \
[--workload live_warm|live_cold|live_revoke|sim_campaign] [--seed N] [--seconds N] [--trace 0|1]";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wanbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = || {
        args.workload
            .as_deref()
            .ok_or(format!("--workload is required\n{USAGE}"))
    };
    let result = match args.command.as_str() {
        "run" => workload().and_then(|w| workloads::run(w, args.seed, args.seconds, args.trace)),
        "trace" => workload().and_then(|w| workloads::run(w, args.seed, args.seconds, true)),
        "fit" => workload().and_then(|w| workloads::fit(w, args.seed, args.seconds)),
        "all" => report::run_all(args.seed, args.seconds),
        "selfcheck" => report::selfcheck(args.seconds),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wanbench: {e}");
            ExitCode::FAILURE
        }
    }
}
