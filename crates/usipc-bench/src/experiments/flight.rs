//! `flight`: the fault flight recorder, end to end.
//!
//! Runs the cross-process kill drill with the flight recorder armed —
//! forked clients over a memfd segment, one SIGKILLed mid-barrage — and
//! archives the postmortem the resilient server dumped at the moment
//! its heartbeat scan detected the death: the last events of **every**
//! task, the victim's included, read back out of shared memory after
//! the process that wrote them was gone. The dump is written to
//! `FLIGHT_postmortem.json` (Chrome/Perfetto trace format — load it at
//! `ui.perfetto.dev`). The experiment asserts its spans balance and that
//! the victim's track holds events.
//!
//! Fork discipline: this experiment forks, so like `bench --procs` it
//! must run before any experiment that leaves threads behind — run it
//! alone or first (the `figures` CLI preserves argument order).

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;

/// Every span the dump opens it closes (`B == E`), there are spans at all,
/// and the SIGKILLed victim's last words survived.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn check_postmortem(begins: usize, ends: usize, victim_events: usize) -> Result<(), String> {
    use super::ensure;
    ensure(begins == ends && begins > 0, || {
        format!("postmortem spans: {begins} begins, {ends} ends")
    })?;
    ensure(victim_events > 0, || {
        "postmortem holds no events on the victim's track".into()
    })
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    use super::enforce;
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
    // The victim, client 0, is task 1. Spans end `"tid":1}`, instants
    // continue `"tid":1,"s"`; its name record (`"tid":1,"args"`) is
    // not an event.
    let victim_events =
        dump.matches("\"tid\":1}").count() + dump.matches("\"tid\":1,\"s\"").count();

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
            "postmortem: {begins} span begins / {ends} ends, \
             {victim_events} events on the victim's track"
        ),
    ];

    let path = opts.out_dir.join("FLIGHT_postmortem.json");
    match std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&path, &dump)) {
        Ok(()) => notes.push(format!("→ {} ({} bytes)", path.display(), dump.len())),
        Err(e) => notes.push(format!("! FLIGHT_postmortem.json write failed: {e}")),
    }

    enforce(check_postmortem(begins, ends, victim_events));

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

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::check_postmortem;

    #[test]
    fn postmortem_needs_balanced_spans_and_the_victims_events() {
        assert!(check_postmortem(673, 673, 967).is_ok());
        assert!(check_postmortem(673, 672, 967).is_err());
        assert!(check_postmortem(0, 0, 967).is_err());
        let err = check_postmortem(673, 673, 0).unwrap_err();
        assert!(err.contains("victim"), "{err}");
    }
}
