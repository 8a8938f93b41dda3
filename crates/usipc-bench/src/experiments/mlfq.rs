//! Ablation: is the simplified degrading-priority model a faithful
//! abstraction of a real multilevel feedback queue?
//!
//! Every SGI figure in this reproduction uses
//! [`DegradingPriority`](usipc_sim::sched::DegradingPriority), a one-rule
//! abstraction of IRIX's scheduler. This experiment reruns the Fig. 2a
//! sweep under the *full mechanism* —
//! [`Mlfq`](usipc_sim::sched::Mlfq): priority levels, demotion
//! allowances, starvation boost — and compares. The finding (see the
//! notes): classic MLFQ sinks every busy-waiter to the bottom level and
//! degenerates to fair rotation, reproducing the *fixed-priority* BSS
//! curve rather than IRIX's; the blocking protocols are insensitive. The
//! degrading abstraction, not textbook MLFQ, is the right model of the
//! paper's IRIX — and the experiment shows why.

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let bss = Mechanism::UserLevel(WaitStrategy::Bss);
    let bsw = Mechanism::UserLevel(WaitStrategy::Bsw);
    let t = throughput_table(
        "Ablation — SGI Indy: simplified degrading model vs full MLFQ",
        &MachineModel::sgi_indy(),
        &[
            Column::new("BSS/degrading", PolicyKind::degrading_default(), bss),
            Column::new("BSS/mlfq", PolicyKind::Mlfq, bss),
            Column::new("BSW/degrading", PolicyKind::degrading_default(), bsw),
            Column::new("BSW/mlfq", PolicyKind::Mlfq, bsw),
        ],
        &clients,
        opts.msgs_per_client,
    );

    let rel = |a: &str, b: &str, n: f64| {
        let (x, y) = (t.cell(n, a).unwrap(), t.cell(n, b).unwrap());
        (x - y).abs() / y
    };
    let notes = vec![
        format!(
            "BSS model divergence: {:.0}% at 1 client, {:.0}% at {} clients",
            rel("BSS/degrading", "BSS/mlfq", 1.0) * 100.0,
            rel("BSS/degrading", "BSS/mlfq", opts.max_clients as f64) * 100.0,
            opts.max_clients
        ),
        format!(
            "BSW model divergence: {:.0}% at 1 client, {:.0}% at {} clients",
            rel("BSW/degrading", "BSW/mlfq", 1.0) * 100.0,
            rel("BSW/degrading", "BSW/mlfq", opts.max_clients as f64) * 100.0,
            opts.max_clients
        ),
        format!(
            "MLFQ BSS tracks the *fixed-priority* curve ({:.1} vs {:.1} msg/ms at 1 client): busy-waiters all sink to the bottom level and rotate fairly",
            t.cell(1.0, "BSS/mlfq").unwrap(),
            13.3 // Fig. 3a fixed-priority reference at 1 client
        ),
        "blocking protocols are insensitive to the scheduler mechanism (they sleep instead of aging)".into(),
        "conclusion: the paper's IRIX needs SVR4-style aging (the degrading model), not textbook MLFQ".into(),
    ];

    ExperimentOutput {
        id: "mlfq",
        tables: vec![t],
        notes,
    }
}
