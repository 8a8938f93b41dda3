//! Figure 3: the effect of non-degrading (fixed) priorities on BSS.
//!
//! Paper shape: fixing the priorities "increased throughput by 50% on the
//! SGIs, and 30% on the IBMs" relative to the default schedulers.

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let bss = Mechanism::UserLevel(WaitStrategy::Bss);
    let sgi = throughput_table(
        "Fig. 3a — SGI Indy: BSS under fixed vs degrading priorities",
        &MachineModel::sgi_indy(),
        &[
            Column::new("BSS-fixed", PolicyKind::Fixed, bss),
            Column::new("BSS", PolicyKind::degrading_default(), bss),
            Column::new("SysV", PolicyKind::degrading_default(), Mechanism::SysV),
        ],
        &clients,
        opts.msgs_per_client,
    );
    let ibm = throughput_table(
        "Fig. 3b — IBM P4: BSS under fixed vs fair-rotation priorities",
        &MachineModel::ibm_p4(),
        &[
            Column::new("BSS-fixed", PolicyKind::Fixed, bss),
            Column::new("BSS", PolicyKind::aix_default(), bss),
            Column::new("SysV", PolicyKind::aix_default(), Mechanism::SysV),
        ],
        &clients,
        opts.msgs_per_client,
    );

    let gain =
        |t: &crate::table::Table| t.cell(1.0, "BSS-fixed").unwrap() / t.cell(1.0, "BSS").unwrap();
    let notes = vec![
        format!(
            "paper: fixed priorities buy ≈ +50% on the SGI; measured +{:.0}% at 1 client",
            (gain(&sgi) - 1.0) * 100.0
        ),
        format!(
            "paper: fixed priorities buy ≈ +30% on the IBM; measured +{:.0}% at 1 client",
            (gain(&ibm) - 1.0) * 100.0
        ),
    ];

    ExperimentOutput {
        id: "fig3",
        tables: vec![sgi, ibm],
        notes,
    }
}
