//! `flight`: the fault flight recorder, end to end.
//!
//! Runs the cross-process kill drill with the flight recorder armed —
//! forked clients over a memfd segment, one SIGKILLed mid-barrage — and
//! archives the postmortem the resilient server dumped at the moment
//! its heartbeat scan detected the death: the last events of **every**
//! task, the victim's included, read back out of shared memory after
//! the process that wrote them was gone. The dump is written to
//! `FLIGHT_postmortem.json` (Chrome/Perfetto trace format — load it at
//! `ui.perfetto.dev`); CI validates and uploads it.
//!
//! Fork discipline: this experiment forks, so like `bench --procs` it
//! must run before any experiment that leaves threads behind — run it
//! alone or first (the `figures` CLI preserves argument order).

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    use std::path::PathBuf;
    use std::time::Duration;
    use usipc::WaitStrategy;
    use usipc_lab::ProcExperiment;

    let clients = 3;
    let res = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(clients)
        .messages(opts.msgs_per_client)
        .heartbeat(Duration::from_millis(5))
        .run_kill();
    let dump = res
        .flight_dump
        .expect("peer death must trigger a flight dump");
    let begins = dump.matches("\"ph\":\"B\"").count();
    let ends = dump.matches("\"ph\":\"E\"").count();
    let victim_events = dump.matches("\"tid\":1}").count() + dump.matches("\"tid\":1,").count();

    let mut table = Table::new(
        "flight recorder kill drill (BSW, 1 victim SIGKILLed mid-barrage)",
        "row",
        "mixed",
        vec![
            "victim_rt".into(),
            "reaped".into(),
            "disconnects".into(),
            "span_begins".into(),
            "span_ends".into(),
            "victim_events".into(),
        ],
    );
    table.push_row(
        0.0,
        vec![
            res.victim_progress as f64,
            res.server_run.reaped as f64,
            res.server_run.disconnects as f64,
            begins as f64,
            ends as f64,
            victim_events as f64,
        ],
    );

    let mut notes = vec![
        format!(
            "victim killed after {} round trips; server reaped {} and finished {} survivors",
            res.victim_progress, res.server_run.reaped, res.server_run.disconnects
        ),
        format!(
            "postmortem: {begins} span begins / {ends} ends (balanced: {}), \
             {victim_events} events on the victim's track",
            begins == ends
        ),
    ];

    let dir = opts.bench_dir.unwrap_or_else(|| PathBuf::from("results"));
    let path = dir.join("FLIGHT_postmortem.json");
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &dump)) {
        Ok(()) => notes.push(format!("→ {} ({} bytes)", path.display(), dump.len())),
        Err(e) => notes.push(format!("! FLIGHT_postmortem.json write failed: {e}")),
    }

    ExperimentOutput {
        id: "flight",
        tables: vec![table],
        notes,
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn run(_opts: RunOpts) -> ExperimentOutput {
    ExperimentOutput {
        id: "flight",
        tables: vec![Table::new("flight recorder kill drill", "row", "-", vec![])],
        notes: vec!["! the kill drill requires Linux on x86_64/aarch64; skipped".into()],
    }
}
