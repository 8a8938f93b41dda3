//! Figure 2: BSS vs System V message queues on the two uniprocessors.
//!
//! Paper shape: on the SGI (IRIX, degrading priorities) BSS throughput
//! *rises* with client count (from ≈8.4 msg/ms at one client) because the
//! server batches requests across fewer context switches; on the IBM (AIX,
//! fair rotation) it *falls* (≈32 → ≈19 msg/ms over 1 → 6 clients). SysV is
//! below BSS on both (≥1.5× on the SGI, ≥1.8× on the IBM at one client).

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let sgi = throughput_table(
        "Fig. 2a — SGI Indy (IRIX degrading priorities): BSS vs SysV",
        &MachineModel::sgi_indy(),
        &[
            Column::new(
                "BSS",
                PolicyKind::degrading_default(),
                Mechanism::UserLevel(WaitStrategy::Bss),
            ),
            Column::new("SysV", PolicyKind::degrading_default(), Mechanism::SysV),
        ],
        &clients,
        opts.msgs_per_client,
    );
    let ibm = throughput_table(
        "Fig. 2b — IBM P4 (AIX fair round-robin): BSS vs SysV",
        &MachineModel::ibm_p4(),
        &[
            Column::new(
                "BSS",
                PolicyKind::aix_default(),
                Mechanism::UserLevel(WaitStrategy::Bss),
            ),
            Column::new("SysV", PolicyKind::aix_default(), Mechanism::SysV),
        ],
        &clients,
        opts.msgs_per_client,
    );

    let mut notes = Vec::new();
    let (s1, s6) = (sgi.cell(1.0, "BSS").unwrap(), sgi.cell(6.0, "BSS"));
    notes.push(format!(
        "paper fig2a: SGI BSS ≈8.4 msg/ms at 1 client, rising with clients; measured {:.2}{}",
        s1,
        s6.map(|v| format!(" → {v:.2} at 6")).unwrap_or_default()
    ));
    notes.push(format!(
        "paper fig2a: SGI BSS/SysV ratio > 1.5; measured {:.2}",
        s1 / sgi.cell(1.0, "SysV").unwrap()
    ));
    let (i1, i6) = (ibm.cell(1.0, "BSS").unwrap(), ibm.cell(6.0, "BSS"));
    notes.push(format!(
        "paper fig2b: IBM BSS ≈32 msg/ms at 1 client rolling off to ≈19 at 6; measured {:.2}{}",
        i1,
        i6.map(|v| format!(" → {v:.2}")).unwrap_or_default()
    ));
    notes.push(format!(
        "paper fig2b: IBM BSS/SysV ratio ≈ 1.8 at 1 client; measured {:.2}",
        i1 / ibm.cell(1.0, "SysV").unwrap()
    ));

    ExperimentOutput {
        id: "fig2",
        tables: vec![sgi, ibm],
        notes,
    }
}
