//! Ablation: the §2.1 alternative server architecture — a server thread
//! per client, each over its own one-client channel — on the 8-way machine.
//!
//! The paper keeps a single-threaded server, noting the alternative "would
//! require two queues per client". The trade quantified here: per-client
//! threads remove the single-server saturation ceiling of Fig. 11 (each
//! connection gets its own consumer), at the price of 2× queues, 2×
//! semaphores, and — once connections outnumber CPUs — scheduler pressure
//! from all the extra server threads. `duplex(10)` and `single BSLS(10)`
//! run the same protocol; only the architecture differs.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use usipc::WaitStrategy;
use usipc_lab::{run_duplex_sim_experiment, Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let machine = MachineModel::sgi_challenge8();
    let policy = PolicyKind::degrading_default();
    let clients: Vec<usize> = (1..=opts.mp_max_clients).collect();
    let mut t = Table::new(
        "Ablation — SGI Challenge (8 CPUs): single server vs thread-per-client",
        "clients",
        "messages/ms",
        vec![
            "single BSLS(10)".into(),
            "duplex(10)".into(),
            "single BSS".into(),
        ],
    );
    for &n in &clients {
        let single = SimExperiment::new(
            machine.clone(),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 10 }),
        )
        .clients(n)
        .messages(opts.msgs_per_client)
        .run();
        let duplex = run_duplex_sim_experiment(&machine, policy, n, opts.msgs_per_client, 10);
        let bss = SimExperiment::new(
            machine.clone(),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bss),
        )
        .clients(n)
        .messages(opts.msgs_per_client)
        .run();
        t.push_row(
            n as f64,
            vec![single.throughput, duplex.throughput, bss.throughput],
        );
    }

    let notes = vec![
        format!(
            "single-server ceiling at 4 clients: {:.1} msg/ms; duplex at 4: {:.1}",
            t.cell(4.0, "single BSLS(10)").unwrap_or(f64::NAN),
            t.cell(4.0, "duplex(10)").unwrap_or(f64::NAN)
        ),
        format!(
            "at 12 clients (past the CPU count): single {:.1}, duplex {:.1} msg/ms",
            t.cell(12.0, "single BSLS(10)").unwrap_or(f64::NAN),
            t.cell(12.0, "duplex(10)").unwrap_or(f64::NAN)
        ),
        "cost of the architecture: two queues and two semaphores per client (§2.1)".into(),
    ];

    ExperimentOutput {
        id: "threaded",
        tables: vec![t],
        notes,
    }
}
