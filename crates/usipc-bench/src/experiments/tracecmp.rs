//! Unified event traces: a short barrage under each of the five
//! protocols, on both backends, exported in both formats.
//!
//! The paper argues through execution interleaving timelines (Fig. 4);
//! this experiment produces exactly those timelines from *running code* —
//! the deterministic simulator and real host threads — through the unified
//! trace layer ([`usipc::trace`]). Each protocol × backend cell writes
//!
//! * `trace_<proto>_<backend>.trace.json` — Chrome Trace Event Format,
//!   loadable in Perfetto or `chrome://tracing`, and
//! * `trace_<proto>_<backend>.txt` — the Fig. 4-style ASCII interleaving
//!   chart rendered from the *same* records,
//!
//! under `--trace DIR` (default `results/trace`). The table reports the
//! surviving record count and the ring-overflow drop count per cell, so a
//! truncated timeline is visible at a glance; an empty cell fails the
//! experiment.

use super::{enforce, ensure, ExperimentOutput, RunOpts};
use crate::table::Table;
use std::path::Path;
use usipc::trace::UnifiedTrace;
use usipc::WaitStrategy;
use usipc_lab::{Mechanism, NativeExperiment, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

/// Per-task ring capacity: generous for a short barrage, small enough that
/// a native BSS spin storm exercises drop-oldest instead of growing
/// unboundedly.
const RING_CAPACITY: usize = 16 * 1024;

/// Column width of the ASCII interleaving chart.
const ASCII_WIDTH: usize = 22;

fn protocols() -> Vec<(&'static str, WaitStrategy)> {
    vec![
        ("bss", WaitStrategy::Bss),
        ("bsw", WaitStrategy::Bsw),
        ("bswy", WaitStrategy::Bswy),
        ("bsls20", WaitStrategy::Bsls { max_spin: 20 }),
        ("handoff", WaitStrategy::HandoffBswy),
    ]
}

/// A timeline with no records is a tracing layer that stopped recording.
fn check_cell(proto: &str, backend: &str, trace: &UnifiedTrace) -> Result<(), String> {
    ensure(!trace.records.is_empty(), || {
        format!("trace {proto}/{backend}: no records")
    })
}

/// Writes both export formats for one cell and returns
/// `(records, dropped)`.
fn export(
    dir: &Path,
    proto: &str,
    backend: &str,
    trace: &UnifiedTrace,
    notes: &mut Vec<String>,
) -> (f64, f64) {
    let stem = format!("trace_{proto}_{backend}");
    match std::fs::create_dir_all(dir)
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                trace.to_chrome_json(),
            )
        })
        .and_then(|_| {
            std::fs::write(
                dir.join(format!("{stem}.txt")),
                trace.render_ascii(ASCII_WIDTH),
            )
        }) {
        Ok(()) => notes.push(format!(
            "{proto}/{backend}: {} records ({} dropped) → {}",
            trace.records.len(),
            trace.dropped,
            dir.join(format!("{stem}.trace.json")).display()
        )),
        Err(e) => notes.push(format!("{proto}/{backend}: write failed: {e}")),
    }
    (trace.records.len() as f64, trace.dropped as f64)
}

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    // A short barrage: timelines are for reading, not for load; 64 round
    // trips already show every protocol state several times over.
    let msgs = opts.msgs_per_client.min(64);
    let dir = opts
        .trace_dir
        .unwrap_or_else(|| std::path::PathBuf::from("results/trace"));
    let machine = MachineModel::sgi_indy();
    let policy = PolicyKind::degrading_default();

    let mut t = Table::new(
        "Unified trace records per protocol (1 client, short barrage)",
        "proto#",
        "records / dropped",
        vec![
            "sim records".into(),
            "sim dropped".into(),
            "native records".into(),
            "native dropped".into(),
        ],
    );
    let mut notes = Vec::new();
    for (i, (name, strategy)) in protocols().into_iter().enumerate() {
        let mech = Mechanism::UserLevel(strategy);
        let sim = SimExperiment::new(machine.clone(), policy, mech)
            .messages(msgs)
            .trace(RING_CAPACITY)
            .run();
        let sim_trace = sim.trace.expect("tracing was enabled");
        let (sr, sd) = export(&dir, name, "sim", &sim_trace, &mut notes);
        enforce(check_cell(name, "sim", &sim_trace));

        let native = NativeExperiment::new(mech)
            .clients(1)
            .messages(msgs)
            .trace(RING_CAPACITY)
            .run();
        let native_trace = native.trace.expect("tracing was enabled");
        let (nr, nd) = export(&dir, name, "native", &native_trace, &mut notes);
        enforce(check_cell(name, "native", &native_trace));

        notes.push(format!("proto#{i} = {name}"));
        t.push_row(i as f64, vec![sr, sd, nr, nd]);
    }
    notes.push(
        "load a .trace.json in https://ui.perfetto.dev (or chrome://tracing); \
         the .txt beside it is the same timeline as a Fig. 4-style chart"
            .into(),
    );

    ExperimentOutput {
        id: "trace",
        tables: vec![t],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::check_cell;
    use usipc::trace::{TracePoint, TraceRecord, UnifiedTrace};
    use usipc::ProtoEvent;

    #[test]
    fn an_empty_cell_fails() {
        let err = check_cell("bsw", "native", &UnifiedTrace::default()).unwrap_err();
        assert!(err.contains("bsw/native"), "{err}");
        let one = TraceRecord {
            ts_nanos: 0,
            task_id: 0,
            point: TracePoint::Proto(ProtoEvent::SemP),
        };
        let trace = UnifiedTrace::from_parts(vec![one], Vec::new(), 0);
        assert!(check_cell("bsw", "native", &trace).is_ok());
    }
}
