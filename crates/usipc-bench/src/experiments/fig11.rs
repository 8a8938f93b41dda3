//! Figure 11: the 8-processor SGI Challenge.
//!
//! Paper shape: SysV performs worst and cannot scale (kernel
//! serialization); BSS is best, rising until the server saturates and then
//! staying stable; BSLS tracks BSS up to a point and then degrades rapidly
//! — the positive feedback where one over-spun client's wake-up cost loads
//! the server, pushing more clients over their spin budgets.

use super::{throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients: Vec<usize> = (1..=opts.mp_max_clients).collect();
    let policy = PolicyKind::degrading_default();
    let mut cols = vec![Column::new(
        "BSS",
        policy,
        Mechanism::UserLevel(WaitStrategy::Bss),
    )];
    for s in [5u32, 10, 20] {
        cols.push(Column::new(
            &format!("BSLS({s})"),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: s }),
        ));
    }
    cols.push(Column::new("SysV", policy, Mechanism::SysV));
    let t = throughput_table(
        "Fig. 11 — SGI Challenge (8 CPUs): multiprocessor throughput",
        &MachineModel::sgi_challenge8(),
        &cols,
        &clients,
        opts.msgs_per_client,
    );

    let peak = |col: &str| {
        t.rows
            .iter()
            .map(|(_, cells)| cells[t.columns.iter().position(|c| c == col).unwrap()])
            .fold(f64::NAN, f64::max)
    };
    let notes = vec![
        format!(
            "paper: BSS best and stable at saturation; measured peak {:.1} msg/ms",
            peak("BSS")
        ),
        format!(
            "paper: SysV worst, unable to scale; measured peak {:.1} msg/ms",
            peak("SysV")
        ),
        format!(
            "paper: BSLS tracks BSS then degrades; measured BSLS(10): {:.1} at 4 clients vs {:.1} at 12",
            t.cell(4.0, "BSLS(10)").unwrap_or(f64::NAN),
            t.cell(12.0, "BSLS(10)").unwrap_or(f64::NAN)
        ),
    ];

    ExperimentOutput {
        id: "fig11",
        tables: vec![t],
        notes,
    }
}
