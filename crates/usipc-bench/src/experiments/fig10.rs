//! Figure 10: BSLS sensitivity to `MAX_SPIN` on the uniprocessor.
//!
//! Paper shape: "performance generally improves as the number of tries is
//! increased", because the probability of falling through to the blocking
//! path (and paying the semaphore + wake-up cost) drops.
//!
//! On a uniprocessor the `poll_queue` pacing step is a *yield*, so a poll
//! budget is really a budget of scheduling attempts: in the deterministic
//! simulator every wait resolves within the first few polls, and the
//! interesting MAX_SPIN range is small (the paper's real machines added OS
//! noise that stretched the range to 20). The sweep therefore covers the
//! low end densely and 20 as the paper's operating point.

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let policy = PolicyKind::degrading_default();
    let mut cols: Vec<Column> = [0u32, 1, 2, 3, 20]
        .iter()
        .map(|&s| {
            Column::new(
                &format!("BSLS({s})"),
                policy,
                Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: s }),
            )
        })
        .collect();
    cols.push(Column::new(
        "BSS",
        policy,
        Mechanism::UserLevel(WaitStrategy::Bss),
    ));
    let t = throughput_table(
        "Fig. 10 — SGI Indy: Both Sides Limited Spin, MAX_SPIN sensitivity",
        &MachineModel::sgi_indy(),
        &cols,
        &clients,
        opts.msgs_per_client,
    );

    let notes = vec![
        format!(
            "paper: throughput improves as MAX_SPIN grows; measured at {} clients: {:.2} (spin 0) -> {:.2} (spin 3) -> {:.2} (spin 20) msg/ms",
            opts.max_clients,
            t.cell(opts.max_clients as f64, "BSLS(0)").unwrap(),
            t.cell(opts.max_clients as f64, "BSLS(3)").unwrap(),
            t.cell(opts.max_clients as f64, "BSLS(20)").unwrap(),
        ),
        "paper: at high MAX_SPIN, BSLS approaches (but does not beat) the BSS upper bound".into(),
    ];

    ExperimentOutput {
        id: "fig10",
        tables: vec![t],
        notes,
    }
}
