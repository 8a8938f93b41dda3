//! CLI driver: regenerate the paper's tables and figures.
//!
//! ```text
//! figures [list | all | <id>]... [--msgs N] [--clients N] [--mp-clients N] [--depth N]
//!         [--out DIR] [--trace DIR] [--procs] [--load-clients N]
//! figures top [--attach PATH | --fd N | --demo] [--once] [--interval-ms N] [--frames N]
//! ```

use std::str::FromStr;
use usipc_bench::top::{run_top, TopOpts, TopSource};
use usipc_bench::{all_ids, describe, run_experiment, RunOpts};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("top") {
        return top_main(&argv[1..]);
    }
    let mut ids: Vec<String> = Vec::new();
    let mut opts = RunOpts::default();
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--msgs" => opts.msgs_per_client = value(&mut args, "--msgs"),
            "--clients" => opts.max_clients = value(&mut args, "--clients"),
            "--mp-clients" => opts.mp_max_clients = value(&mut args, "--mp-clients"),
            "--depth" => opts.explore_depth = value(&mut args, "--depth"),
            "list" => {
                let w = all_ids().iter().map(|s| s.len()).max().unwrap_or(0);
                for id in all_ids() {
                    println!("{id:<w$}  {}", describe(id).unwrap_or(""));
                }
                return;
            }
            "--out" => opts.out_dir = value(&mut args, "--out"),
            "--trace" => opts.trace_dir = Some(value(&mut args, "--trace")),
            "--procs" => opts.procs = true,
            "--load-clients" => opts.load_max_clients = value(&mut args, "--load-clients"),
            "all" => ids.extend(all_ids().iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [list | all | {}]... [--msgs N] [--clients N] [--mp-clients N] [--depth N] [--out DIR] [--trace DIR] [--procs] [--load-clients N]\n       figures top [--attach PATH | --fd N | --demo] [--once] [--interval-ms N] [--frames N]",
                    all_ids().join(" | ")
                );
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}` (see `figures --help`)");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "no experiment named; try `figures all` (available: {})",
            all_ids().join(", ")
        );
        std::process::exit(2);
    }

    for id in &ids {
        let start = std::time::Instant::now();
        let Some(output) = run_experiment(id, opts.clone()) else {
            eprintln!(
                "unknown experiment `{id}` (available: {})",
                all_ids().join(", ")
            );
            std::process::exit(2);
        };
        println!("==============================================================");
        println!("experiment {id}  ({:.1}s)", start.elapsed().as_secs_f64());
        println!("==============================================================");
        for (i, t) in output.tables.iter().enumerate() {
            println!("{}", t.render());
            let stem = if output.tables.len() == 1 {
                id.clone()
            } else {
                format!("{id}_{}", (b'a' + i as u8) as char)
            };
            match t.write_csv(&opts.out_dir, &stem) {
                Ok(p) => println!("  → {}", p.display()),
                Err(e) => eprintln!("  ! csv write failed: {e}"),
            }
            println!();
        }
        for n in &output.notes {
            println!("  note: {n}");
        }
        println!();
    }
}

/// `figures top`: attach a live segment's telemetry plane and render it.
fn top_main(argv: &[String]) {
    let mut opts = TopOpts::default();
    let mut args = argv.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--attach" => opts.source = TopSource::Path(value(&mut args, "--attach")),
            "--fd" => opts.source = TopSource::Fd(value(&mut args, "--fd")),
            "--demo" => opts.source = TopSource::Demo,
            "--once" => opts.once = true,
            "--interval-ms" => {
                opts.interval = std::time::Duration::from_millis(value(&mut args, "--interval-ms"))
            }
            "--frames" => opts.frames = value(&mut args, "--frames"),
            other => {
                eprintln!("unknown `figures top` argument `{other}` (see `figures --help`)");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = run_top(&opts) {
        eprintln!("figures top: {e}");
        std::process::exit(1);
    }
}

/// The argument after `flag`, parsed; a missing or malformed one is a
/// usage error (exit 2), not a panic.
fn value<T: FromStr>(args: &mut impl Iterator<Item = impl AsRef<str>>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.as_ref().parse().ok())
        .unwrap_or_else(|| {
            eprintln!("`{flag}` needs a value (see `figures --help`)");
            std::process::exit(2);
        })
}
