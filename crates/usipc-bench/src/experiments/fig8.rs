//! Figure 8: Both Sides Wait and Yield, under default and fixed-priority
//! scheduling.
//!
//! Paper shape: under the default schedulers the `busy_wait` hints help for
//! one or two clients and then degrade (the yield has no hint about *who*
//! should run); under fixed priorities BSWY "basically matches the
//! performance of the busy-waiting BSS algorithm".

use super::{client_range, throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = client_range(opts.max_clients);
    let bswy = Mechanism::UserLevel(WaitStrategy::Bswy);
    let cols = |default: PolicyKind| {
        vec![
            Column::new("BSWY-fixed", PolicyKind::Fixed, bswy),
            Column::new("BSWY", default, bswy),
            Column::new("BSW", default, Mechanism::UserLevel(WaitStrategy::Bsw)),
            Column::new(
                "BSS-fixed",
                PolicyKind::Fixed,
                Mechanism::UserLevel(WaitStrategy::Bss),
            ),
            Column::new("SysV", default, Mechanism::SysV),
        ]
    };
    let sgi = throughput_table(
        "Fig. 8a — SGI Indy: BSWY under default and fixed priorities",
        &MachineModel::sgi_indy(),
        &cols(PolicyKind::degrading_default()),
        &clients,
        opts.msgs_per_client,
    );
    let ibm = throughput_table(
        "Fig. 8b — IBM P4: BSWY under default and fixed priorities",
        &MachineModel::ibm_p4(),
        &cols(PolicyKind::aix_default()),
        &clients,
        opts.msgs_per_client,
    );

    let mut notes = Vec::new();
    for (t, name) in [(&sgi, "SGI"), (&ibm, "IBM")] {
        notes.push(format!(
            "paper: BSWY-fixed ≈ BSS-fixed; measured {name}: {:.2} vs {:.2} msg/ms at 1 client",
            t.cell(1.0, "BSWY-fixed").unwrap(),
            t.cell(1.0, "BSS-fixed").unwrap(),
        ));
        notes.push(format!(
            "paper: BSWY under default scheduling helps at 1-2 clients, degrades later; measured {name}: BSWY/BSW = {:.2} at 1 client, {:.2} at {} clients",
            t.cell(1.0, "BSWY").unwrap() / t.cell(1.0, "BSW").unwrap(),
            t.cell(opts.max_clients as f64, "BSWY").unwrap()
                / t.cell(opts.max_clients as f64, "BSW").unwrap(),
            opts.max_clients
        ));
    }

    ExperimentOutput {
        id: "fig8",
        tables: vec![sgi, ibm],
        notes,
    }
}
