//! Table 1: measured times for primitive operations.
//!
//! Paper values (SGI column): enqueue/dequeue pair 3 µs; msgsnd/msgrcv pair
//! 37 µs; concurrent-yield loop trip 16 µs (1 process), 18 µs (2), 45 µs
//! (4). The IBM column is truncated in our copy (see DESIGN.md); the
//! measured IBM values document the model we chose.
//!
//! These are *measurements through the simulator* (marks around tight
//! loops), not reads of the cost tables — they validate that the engine
//! charges what the machine model promises, including the scheduling
//! overheads that make concurrent yields superlinear.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use std::sync::Arc;
use usipc_shm::ShmArena;
use usipc_sim::{MachineModel, PolicyKind, SimBuilder, VDur};

const ITERS: u64 = 2_000;

/// Mean µs per iteration of a single-task enqueue/dequeue-pair loop.
fn queue_pair_us(machine: &MachineModel) -> f64 {
    let m = machine.clone();
    let mut b = SimBuilder::new(m.clone(), PolicyKind::degrading_default().build());
    b.spawn("bench", move |sys| {
        let arena = Arc::new(ShmArena::new(1 << 16).unwrap());
        let q = usipc_queue::ShmQueue::create(&arena, 8).unwrap();
        sys.mark(1);
        for i in 0..ITERS {
            sys.work(m.queue_op);
            assert!(q.enqueue(&arena, [i, 0, 0]));
            sys.work(m.queue_op);
            assert_eq!(q.dequeue(&arena), Some([i, 0, 0]));
        }
        sys.mark(2);
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    let span = r.first_mark(2).unwrap().since(r.first_mark(1).unwrap());
    span.as_micros_f64() / ITERS as f64
}

/// Mean µs per iteration of a single-task msgsnd/msgrcv-pair loop.
fn msg_pair_us(machine: &MachineModel) -> f64 {
    let mut b = SimBuilder::new(machine.clone(), PolicyKind::degrading_default().build());
    let q = b.add_msgq(8);
    b.spawn("bench", move |sys| {
        sys.mark(1);
        for i in 0..ITERS {
            sys.msgsnd(q, [i, 0, 0, 0]);
            let got = sys.msgrcv(q);
            assert_eq!(got[0], i);
        }
        sys.mark(2);
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    let span = r.first_mark(2).unwrap().since(r.first_mark(1).unwrap());
    span.as_micros_f64() / ITERS as f64
}

/// The concurrent-yield microbenchmark: `n` processes barrier, then enter a
/// tight yield loop; reported as CPU-time-per-yield across all processes
/// (elapsed × CPUs / total yields), which is the only reading consistent
/// with the paper's 16/18/45 µs for 1/2/4 processes on one CPU.
fn concurrent_yield_us(machine: &MachineModel, n: usize) -> f64 {
    let mut b = SimBuilder::new(machine.clone(), PolicyKind::degrading_default().build());
    b.time_limit(VDur::seconds(3600));
    let bar = b.add_barrier(n as u32);
    for i in 0..n {
        b.spawn(format!("yielder{i}"), move |sys| {
            sys.barrier(bar);
            sys.mark(1);
            for _ in 0..ITERS {
                sys.yield_now();
            }
            sys.mark(2);
        });
    }
    let r = b.run();
    assert!(r.outcome.is_completed());
    let span = r.last_mark(2).unwrap().since(r.first_mark(1).unwrap());
    span.as_micros_f64() * machine.cpus as f64 / (n as u64 * ITERS) as f64
}

pub(super) fn run(_opts: RunOpts) -> ExperimentOutput {
    let machines = [MachineModel::sgi_indy(), MachineModel::ibm_p4()];
    let mut t = Table::new(
        "Table 1 — primitive operation times",
        "row",
        "µs per operation (pairs per pair)",
        machines.iter().map(|m| m.name.to_string()).collect(),
    );
    fn yield1(m: &MachineModel) -> f64 {
        concurrent_yield_us(m, 1)
    }
    fn yield2(m: &MachineModel) -> f64 {
        concurrent_yield_us(m, 2)
    }
    fn yield4(m: &MachineModel) -> f64 {
        concurrent_yield_us(m, 4)
    }
    type RowFn = fn(&MachineModel) -> f64;
    let rows: [(&str, RowFn); 5] = [
        ("enqueue/dequeue pair", queue_pair_us),
        ("msgsnd/msgrcv pair", msg_pair_us),
        ("yield loop, 1 process", yield1),
        ("yield loop, 2 processes", yield2),
        ("yield loop, 4 processes", yield4),
    ];
    let mut notes = vec![
        "row 1: enqueue/dequeue pair (paper SGI: 3 µs)".into(),
        "row 2: msgsnd/msgrcv pair (paper SGI: 37 µs)".into(),
        "row 3: concurrent yields, 1 process (paper SGI: 16 µs)".into(),
        "row 4: concurrent yields, 2 processes (paper SGI: 18 µs)".into(),
        "row 5: concurrent yields, 4 processes (paper SGI: 45 µs)".into(),
        "IBM column of Table 1 is truncated in our copy; values shown are the chosen model".into(),
    ];
    for (i, (name, f)) in rows.iter().enumerate() {
        let cells: Vec<f64> = machines.iter().map(f).collect();
        t.push_row((i + 1) as f64, cells);
        notes.push(format!("row {}: {}", i + 1, name));
    }

    ExperimentOutput {
        id: "table1",
        tables: vec![t],
        notes,
    }
}
