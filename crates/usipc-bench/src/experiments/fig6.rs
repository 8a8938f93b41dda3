//! Figure 6: the basic blocking protocol (BSW).
//!
//! Paper shape: BSW "more or less matches the performance of kernel
//! mediated IPC" — four System V semaphore calls per round trip cost as
//! much as the four message-queue calls they replaced, so the shared-memory
//! advantage evaporates (§3.1).

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let cols = |default: PolicyKind| {
        vec![
            Column::new("BSS", default, Mechanism::UserLevel(WaitStrategy::Bss)),
            Column::new("BSW", default, Mechanism::UserLevel(WaitStrategy::Bsw)),
            Column::new("SysV", default, Mechanism::SysV),
        ]
    };
    let sgi = throughput_table(
        "Fig. 6a — SGI Indy: Both Sides Wait vs BSS and SysV",
        &MachineModel::sgi_indy(),
        &cols(PolicyKind::degrading_default()),
        &clients,
        opts.msgs_per_client,
    );
    let ibm = throughput_table(
        "Fig. 6b — IBM P4: Both Sides Wait vs BSS and SysV",
        &MachineModel::ibm_p4(),
        &cols(PolicyKind::aix_default()),
        &clients,
        opts.msgs_per_client,
    );

    let ratio =
        |t: &crate::table::Table| t.cell(1.0, "BSW").unwrap() / t.cell(1.0, "SysV").unwrap();
    let notes = vec![
        format!(
            "paper: BSW ≈ SysV (\"no advantage ... at all\"); measured BSW/SysV = {:.2} (SGI), {:.2} (IBM) at 1 client",
            ratio(&sgi),
            ratio(&ibm)
        ),
    ];

    ExperimentOutput {
        id: "fig6",
        tables: vec![sgi, ibm],
        notes,
    }
}
