//! Ablation: the paper's §5 future work, implemented.
//!
//! "We could break the positive feedback in the BSLS algorithm by having
//! the server recognize the fact that it is overloaded, and limit the
//! number of clients it wakes up at any given time." This experiment
//! replays Fig. 11's multiprocessor sweep with the overload-aware server
//! ([`run_throttled_server`](usipc::run_throttled_server)) next to plain
//! BSLS, to see whether deferred, batched wake-ups soften the cliff.

use super::{throughput_table, Column, ExperimentOutput, RunOpts};
use usipc::WaitStrategy;
use usipc_lab::Mechanism;
use usipc_sim::{MachineModel, PolicyKind};

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients: Vec<usize> = (1..=opts.mp_max_clients).collect();
    let policy = PolicyKind::degrading_default();
    let cols = vec![
        Column::new(
            "BSLS(5)",
            policy,
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 5 }),
        ),
        Column::new(
            "THR(5,b1)",
            policy,
            Mechanism::Throttled {
                max_spin: 5,
                wake_batch: 1,
            },
        ),
        Column::new(
            "THR(5,b2)",
            policy,
            Mechanism::Throttled {
                max_spin: 5,
                wake_batch: 2,
            },
        ),
        Column::new("BSS", policy, Mechanism::UserLevel(WaitStrategy::Bss)),
    ];
    let t = throughput_table(
        "Ablation — SGI Challenge (8 CPUs): wake-up throttling vs plain BSLS",
        &MachineModel::sgi_challenge8(),
        &cols,
        &clients,
        opts.msgs_per_client,
    );

    let notes = vec![
        format!(
            "plain BSLS(5) past its cliff (8 clients): {:.1} msg/ms; throttled: {:.1} (batch 1), {:.1} (batch 2)",
            t.cell(8.0, "BSLS(5)").unwrap_or(f64::NAN),
            t.cell(8.0, "THR(5,b1)").unwrap_or(f64::NAN),
            t.cell(8.0, "THR(5,b2)").unwrap_or(f64::NAN),
        ),
        "liveness: FIFO deferred-wake list drained whenever the backlog clears — no starvation (see run_throttled_server docs)"
            .into(),
    ];

    ExperimentOutput {
        id: "throttle",
        tables: vec![t],
        notes,
    }
}
