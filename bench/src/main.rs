//! The repo benchmark (see `README.md` beside `Cargo.toml` and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! usipc-perfbench [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! ```
//!
//! With `--workload` it runs that workload and prints, as the last line of
//! standard output, the result object `BENCHMARK.json`'s contract asks for;
//! without, it runs all four and prints one such object per workload, each
//! carrying its `workload` name. Any failed check makes the exit code 1; a
//! host that cannot provide the workload's regime makes it 2.

mod layers;
mod metrics;
mod passes;
mod procfs;
mod stats;
mod world;

use std::process::ExitCode;
use world::Workload;

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: usize = 20;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: usize,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "run" => {}
            "--traced" => args.traced = true,
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn host_facts(args: &Args) -> String {
    let windows = if args.traced {
        passes::traced_windows(args.seconds)
    } else {
        args.seconds
    };
    format!(
        "{{\"host\": {{\"nproc\": {}, \"available_parallelism\": {}, \"kernel\": \"{}\", \
         \"commit\": \"{}\", \"seed\": {}, \"traced\": {}, \"window_s\": {}, \"warmup_s\": {}}}}}",
        procfs::nproc(),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        procfs::kernel_release(),
        procfs::git_commit(),
        args.seed,
        args.traced,
        windows,
        windows as f64 / 10.0,
    )
}

/// Runs one workload and prints its result line; `Ok(true)` if every
/// check passed.
fn run_one(w: Workload, args: &Args, labelled: bool) -> Result<bool, String> {
    let (outcome, table) = if args.traced {
        (
            passes::traced(w, args.seed, args.seconds)?,
            metrics::PER_LAYER,
        )
    } else {
        (
            passes::untraced(w, args.seed, args.seconds)?,
            metrics::END_TO_END,
        )
    };
    let correct = outcome.failed == 0;
    let label = if labelled {
        format!("\"workload\": \"{}\", ", w.name())
    } else {
        String::new()
    };
    println!(
        "{{{label}\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics::to_json(table, &outcome.values)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usipc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_facts(&args));
    let workloads = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for w in workloads {
        match run_one(w, &args, args.workload.is_none()) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("usipc-perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
