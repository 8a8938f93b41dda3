//! Live system-call accounting: the paper's §3/§4 cost analysis measured
//! from the metrics layer instead of derived by hand.
//!
//! §3.1 argues BSW gains nothing over SysV because each round trip costs
//! "four system calls" (two `P`/`V` pairs, one per direction); §4.2
//! explains BSLS's win by the client blocking "only about 3 % of the time"
//! at the knee of Fig. 10. Both claims are counters, not throughput, so
//! this experiment reports them directly from the instrumented protocols:
//! semaphore ops per round trip, total kernel crossings per round trip
//! (adding yields / hand-offs / queue-full sleeps), the client block rate,
//! and the stray wake-ups absorbed by the `tas`-guarded `P`.

use super::{client_range, Column, ExperimentOutput, RunOpts};
use crate::table::Table;
use usipc::metrics::MetricsSnapshot;
use usipc::WaitStrategy;
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind, VDur};

fn columns() -> Vec<Column> {
    let p = PolicyKind::degrading_default();
    vec![
        Column::new("BSS", p, Mechanism::UserLevel(WaitStrategy::Bss)),
        Column::new("BSW", p, Mechanism::UserLevel(WaitStrategy::Bsw)),
        Column::new("BSWY", p, Mechanism::UserLevel(WaitStrategy::Bswy)),
        Column::new(
            "BSLS(50)",
            p,
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 50 }),
        ),
        Column::new(
            "HANDOFF",
            p,
            Mechanism::UserLevel(WaitStrategy::HandoffBswy),
        ),
    ]
}

/// One measured cell: combined client+server snapshot plus the message
/// count and the client-side block rate.
struct Cell {
    total: MetricsSnapshot,
    client: MetricsSnapshot,
    messages: u64,
}

fn measure(machine: &MachineModel, col: &Column, n: usize, msgs: u64) -> Cell {
    let exp = SimExperiment::new(machine.clone(), col.policy, col.mechanism)
        .clients(n)
        .messages(msgs)
        // Nonzero service jitter so BSLS sees realistic fall-through rates
        // (a zero-variance echo is exactly the regime §4.2 warns about).
        .jitter(VDur::micros(20));
    let r = exp.run();
    Cell {
        total: r.server_metrics.add(&r.client_metrics),
        client: r.client_metrics,
        messages: r.messages,
    }
}

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let machine = MachineModel::sgi_indy();
    let cols = columns();
    let clients = client_range(opts.max_clients);
    let names: Vec<String> = cols.iter().map(|c| c.name.clone()).collect();

    let mut sem_ops = Table::new(
        "Semaphore system calls per round trip (client + server)",
        "clients",
        "P+V per message",
        names.clone(),
    );
    let mut crossings = Table::new(
        "Kernel crossings per round trip (sems + yields + handoffs + sleeps)",
        "clients",
        "calls per message",
        names.clone(),
    );
    let mut block_rate = Table::new(
        "Client block rate (blocking dequeues / dequeues)",
        "clients",
        "fraction",
        names.clone(),
    );
    let mut strays = Table::new(
        "Stray wake-ups absorbed by the tas-guarded P",
        "clients",
        "per 1000 messages",
        names.clone(),
    );

    for &n in &clients {
        let cells: Vec<Cell> = cols
            .iter()
            .map(|c| measure(&machine, c, n, opts.msgs_per_client))
            .collect();
        let per_msg = |f: &dyn Fn(&Cell) -> u64| -> Vec<f64> {
            cells
                .iter()
                .map(|c| f(c) as f64 / c.messages as f64)
                .collect()
        };
        sem_ops.push_row(n as f64, per_msg(&|c| c.total.sem_ops()));
        crossings.push_row(n as f64, per_msg(&|c| c.total.kernel_crossings()));
        block_rate.push_row(
            n as f64,
            cells.iter().map(|c| c.client.block_rate()).collect(),
        );
        strays.push_row(
            n as f64,
            cells
                .iter()
                .map(|c| c.total.stray_wakeups_absorbed as f64 * 1e3 / c.messages as f64)
                .collect(),
        );
    }

    let bsw_1 = sem_ops.cell(1.0, "BSW").unwrap();
    let bss_1 = sem_ops.cell(1.0, "BSS").unwrap();
    let bsls_block = block_rate.cell(1.0, "BSLS(50)").unwrap();
    let notes = vec![
        format!(
            "paper §3.1: BSW costs four semaphore calls per round trip; measured {bsw_1:.2} at 1 client (disconnect handshake amortized over the barrage)"
        ),
        format!("BSS never enters the kernel: measured {bss_1:.2} semaphore calls per round trip"),
        format!(
            "paper §4.2 / Fig. 10: a good MAX_SPIN leaves the client blocking rarely; measured BSLS(50) client block rate {:.1}% at 1 client",
            bsls_block * 100.0
        ),
        "stray wake-ups are the Fig. 4 interleaving-3 credits; nonzero counts show the tas-guarded P is actually exercised".into(),
    ];

    ExperimentOutput {
        id: "syscalls",
        tables: vec![sem_ops, crossings, block_rate, strays],
        notes,
    }
}
