//! Extension: asynchronous batching, the §1 motivation quantified.
//!
//! "In this case a client process can enqueue multiple asynchronous
//! messages on to a shared queue without blocking waiting for a response.
//! Similarly, when the server gets the opportunity to run, it can handle
//! requests and respond without invoking kernel services until all pending
//! requests are processed." The sweep measures one client batching `k`
//! posts before collecting, on the SGI uniprocessor model: the per-message
//! sleep/wake-up cost (and the two context switches bracketing it) is
//! amortized across the batch, and the per-round-trip semaphore traffic
//! falls from 4 calls to ~4/k.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use usipc_lab::run_async_sim_experiment;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let batches: [u64; 6] = [1, 2, 4, 8, 16, 32];
    let mut t = Table::new(
        "Extension — SGI Indy: asynchronous batching (1 client, BSW discipline)",
        "batch",
        "messages/ms (and sem calls per message)",
        vec![
            "throughput".into(),
            "sem calls/msg".into(),
            "latency µs/msg".into(),
        ],
    );
    for &batch in &batches {
        let r = run_async_sim_experiment(
            &MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            batch,
            opts.msgs_per_client,
        );
        let client = r.report.task("client").unwrap();
        let server = r.report.task("server").unwrap();
        let sem_per_msg =
            (client.stats.sem_p + client.stats.sem_v + server.stats.sem_p + server.stats.sem_v)
                as f64
                / r.messages as f64;
        t.push_row(batch as f64, vec![r.throughput, sem_per_msg, r.latency_us]);
    }

    let gain = t.cell(32.0, "throughput").unwrap() / t.cell(1.0, "throughput").unwrap();
    let notes = vec![
        format!(
            "batching 32-deep is {gain:.1}× the synchronous throughput ({:.1} vs {:.1} msg/ms)",
            t.cell(32.0, "throughput").unwrap(),
            t.cell(1.0, "throughput").unwrap()
        ),
        format!(
            "semaphore calls per message fall from {:.1} (sync) to {:.2} (batch 32)",
            t.cell(1.0, "sem calls/msg").unwrap(),
            t.cell(32.0, "sem calls/msg").unwrap()
        ),
        "this is the paper's §1 asynchronous-IPC argument, quantified on the SGI model".into(),
    ];

    ExperimentOutput {
        id: "async",
        tables: vec![t],
        notes,
    }
}
