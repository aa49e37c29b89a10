//! `funnel-perfbench --workload <name> [--seed <n>] [--seconds <n>]
//! [--trace <0|1>] [--tiny]`
//!
//! Prints progress and any check failures to stderr and, as the last line
//! of stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Exits 0 when the run completed (its `correct` field says
//! whether the outputs checked out), 2 on bad arguments, 1 when a leg
//! could not run.

use funnel_perfbench::run::{run, Options, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: Workload::DeployAssess,
        seed: 2015,
        seconds: 32,
        trace: false,
        tiny: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            options.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => options.seed = number()?,
            "--seconds" => options.seconds = number()?,
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    options.workload = workload.ok_or("--workload is required")?;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("funnel-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("check failed: {problem}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("funnel-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
