//! Scheduler lab: one workload, five operating-system schedulers.
//!
//! ```text
//! cargo run --release --example scheduler_lab
//! ```
//!
//! The paper's headline observation is that user-level IPC performance is a
//! function of the *host scheduler*, not just the protocol. This example
//! runs the identical BSS and BSWY workloads (2 clients, echo barrage) on
//! the simulator under every scheduler model and prints throughput and the
//! scheduling statistics that explain it.

use usipc::WaitStrategy;
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

fn main() {
    let policies: [(&str, PolicyKind); 5] = [
        ("degrading (IRIX-like)", PolicyKind::degrading_default()),
        ("fair-rr (AIX-like)", PolicyKind::aix_default()),
        ("fixed priority", PolicyKind::Fixed),
        ("linux-1.0 stock", PolicyKind::linux_old_default()),
        ("linux modified yield", PolicyKind::LinuxMod),
    ];

    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12}",
        "policy", "BSS msg/ms", "BSWY msg/ms", "yields/rt", "noswitch%"
    );
    for (name, policy) in policies {
        let msgs = if matches!(policy, PolicyKind::LinuxOld { .. }) {
            40 // 33 ms per round trip under the stock scheduler: keep it short
        } else {
            1_000
        };
        let bss = SimExperiment::new(
            MachineModel::sgi_indy(),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bss),
        )
        .clients(2)
        .messages(msgs)
        .run();
        let bswy = SimExperiment::new(
            MachineModel::sgi_indy(),
            policy,
            Mechanism::UserLevel(WaitStrategy::Bswy),
        )
        .clients(2)
        .messages(msgs)
        .run();
        let c0 = &bss.report.task("client0").unwrap().stats;
        let yields_rt = c0.yields as f64 / msgs as f64;
        let noswitch = if c0.yields > 0 {
            100.0 * c0.yield_noswitch as f64 / c0.yields as f64
        } else {
            0.0
        };
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>12.2} {:>11.0}%",
            name, bss.throughput, bswy.throughput, yields_rt, noswitch
        );
    }
    println!();
    println!("Things to notice (cf. the paper):");
    println!(" * degrading priorities: yields often return to the caller (~50% no-switch)");
    println!(
        " * linux-1.0 stock: throughput collapses — yield is a no-op until the quantum drains"
    );
    println!(" * modified yield / fixed: BSWY (blocking!) approaches busy-waiting BSS");
}
