//! Figure 12: Linux with the modified `sched_yield`, and the `handoff`
//! system call.
//!
//! Paper shape: with a yield that expires the caller's quantum and forces a
//! switch, BSWY — "the one *without* any client side spinning" — performs
//! as well as busy-waiting BSS, and the `handoff` implementation matches
//! BSWY ("matched the BSWY performance, but did not improve it further").
//! Under the *stock* 1.0.32 scheduler the BSS round trip was ~33 ms instead
//! of ~120 µs, which the notes verify as a latency probe.

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let policy = PolicyKind::LinuxMod;
    let t = throughput_table(
        "Fig. 12 — Linux 486 (modified sched_yield): BSS vs BSWY vs handoff",
        &MachineModel::linux_486(),
        &[
            Column::new("BSS", policy, Mechanism::UserLevel(WaitStrategy::Bss)),
            Column::new("BSWY", policy, Mechanism::UserLevel(WaitStrategy::Bswy)),
            Column::new(
                "handoff",
                policy,
                Mechanism::UserLevel(WaitStrategy::HandoffBswy),
            ),
            Column::new("BSW", policy, Mechanism::UserLevel(WaitStrategy::Bsw)),
        ],
        &clients,
        opts.msgs_per_client,
    );

    // The §6 latency probe: stock scheduler vs modified yield at 1 client.
    let latency = |policy| {
        let exp = SimExperiment::new(
            MachineModel::linux_486(),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bss),
        )
        .clients(1)
        .messages(200);
        exp.run().latency_us
    };
    let stock = latency(PolicyKind::linux_old_default());
    let modified = latency(PolicyKind::LinuxMod);

    let notes = vec![
        format!(
            "paper §6: stock Linux 1.0.32 BSS round trip ≈ 33 ms; measured {:.1} ms",
            stock / 1000.0
        ),
        format!(
            "paper §6: modified sched_yield brings it to ≈ 120 µs; measured {modified:.0} µs"
        ),
        format!(
            "paper: BSWY ≈ BSS under the modified yield; measured {:.2} vs {:.2} msg/ms at 1 client",
            t.cell(1.0, "BSWY").unwrap(),
            t.cell(1.0, "BSS").unwrap()
        ),
        format!(
            "paper: handoff ≈ BSWY; measured {:.2} vs {:.2} msg/ms at 1 client",
            t.cell(1.0, "handoff").unwrap(),
            t.cell(1.0, "BSWY").unwrap()
        ),
    ];

    ExperimentOutput {
        id: "fig12",
        tables: vec![t],
        notes,
    }
}
