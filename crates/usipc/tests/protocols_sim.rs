//! End-to-end protocol tests on the scheduler simulator: every wait
//! strategy completes the echo workload under every policy, with the
//! qualitative properties the paper reports.

use usipc::WaitStrategy;
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

fn strategies() -> Vec<WaitStrategy> {
    vec![
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 5 },
        WaitStrategy::Bsls { max_spin: 20 },
        WaitStrategy::HandoffBswy,
    ]
}

fn policies() -> Vec<PolicyKind> {
    vec![
        PolicyKind::degrading_default(),
        PolicyKind::FairRr,
        PolicyKind::Fixed,
        PolicyKind::LinuxMod,
    ]
}

#[test]
fn every_strategy_completes_under_every_policy_one_client() {
    for policy in policies() {
        for s in strategies() {
            let exp = SimExperiment::new(MachineModel::sgi_indy(), policy, Mechanism::UserLevel(s))
                .clients(1)
                .messages(120);
            let r = exp.run();
            assert_eq!(r.messages, 120, "{policy} {}", s.name());
            assert!(r.throughput > 0.0);
        }
    }
}

#[test]
fn every_strategy_completes_with_four_clients() {
    for s in strategies() {
        let exp = SimExperiment::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(s),
        )
        .clients(4)
        .messages(60);
        let r = exp.run();
        assert_eq!(r.messages, 240, "{}", s.name());
    }
}

#[test]
fn sysv_baseline_completes() {
    for clients in [1, 3] {
        let exp = SimExperiment::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            Mechanism::SysV,
        )
        .clients(clients)
        .messages(100);
        let r = exp.run();
        assert_eq!(r.messages, 100 * clients as u64);
    }
}

#[test]
fn multiprocessor_strategies_complete() {
    for s in [WaitStrategy::Bss, WaitStrategy::Bsls { max_spin: 10 }] {
        let exp = SimExperiment::new(
            MachineModel::sgi_challenge8(),
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(s),
        )
        .clients(6)
        .messages(60);
        let r = exp.run();
        assert_eq!(r.messages, 360, "{}", s.name());
    }
}

#[test]
fn bss_beats_sysv_on_the_sgi_model() {
    // The headline claim: user-level IPC outperforms kernel-mediated IPC by
    // >1.5× on the SGI (§2.2/Fig. 2a).
    let bss = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bss),
    )
    .clients(1)
    .messages(400)
    .run();
    let sysv = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::SysV,
    )
    .clients(1)
    .messages(400)
    .run();
    assert!(
        bss.throughput > 1.3 * sysv.throughput,
        "BSS {:.2} msg/ms should clearly beat SysV {:.2} msg/ms",
        bss.throughput,
        sysv.throughput
    );
}

#[test]
fn degrading_policy_shows_multiple_yields_per_roundtrip() {
    // §2.2: "each process on the SGI was performing approximately 2.5
    // yields per round-trip message exchange".
    let r = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bss),
    )
    .clients(1)
    .messages(400)
    .run();
    let client = r.report.task("client0").unwrap();
    let yields_per_rt = client.stats.yields as f64 / 400.0;
    assert!(
        (1.5..4.5).contains(&yields_per_rt),
        "expected ≈2.5 yields per round trip, got {yields_per_rt:.2}"
    );
    assert!(
        client.stats.yield_noswitch > 0,
        "some yields must return to the caller under degrading priorities"
    );
}

#[test]
fn bsw_blocks_instead_of_spinning() {
    let r = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bsw),
    )
    .clients(1)
    .messages(300)
    .run();
    let client = r.report.task("client0").unwrap();
    let server = r.report.task("server").unwrap();
    // Nearly every round trip blocks on the semaphore on both sides.
    assert!(
        client.stats.blocks as f64 > 0.8 * 300.0,
        "client blocked only {} times in 300 round trips",
        client.stats.blocks
    );
    assert!(server.stats.blocks as f64 > 0.8 * 300.0);
    assert_eq!(client.stats.yields, 0, "BSW never yields");
}

#[test]
fn bsls_single_client_rarely_blocks() {
    // §4.2: "At a MAX_SPIN value of 20, a single client only blocks 3% of
    // the time". In the deterministic simulator the hand-off succeeds even
    // more reliably than on real IRIX.
    let r = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 20 }),
    )
    .clients(1)
    .messages(300)
    .run();
    let client = r.report.task("client0").unwrap();
    let rate = client.stats.blocks as f64 / 300.0;
    assert!(rate < 0.10, "block rate at MAX_SPIN=20 is {rate:.2}");
}

#[test]
fn bsls_more_spinning_blocks_less_with_contention() {
    // Fig. 10's driver: with several clients the yields inside the spin
    // loop rotate among clients, so the spin budget matters.
    let blocking_rate = |max_spin: u32| {
        let r = SimExperiment::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin }),
        )
        .clients(4)
        .messages(150)
        .run();
        let blocks: u64 = (0..4)
            .map(|c| r.report.task(&format!("client{c}")).unwrap().stats.blocks)
            .sum();
        blocks as f64 / (4.0 * 150.0)
    };
    let low = blocking_rate(1);
    let high = blocking_rate(20);
    assert!(
        high <= low,
        "more spinning must not produce more blocks: MAX_SPIN=1 → {low:.3}, 20 → {high:.3}"
    );
}

#[test]
fn handoff_reduces_blocking_versus_bsw_under_linux_mod() {
    // Fig. 12's story: with a yield that actually transfers control, the
    // client often finds its reply without sleeping.
    let run = |s: WaitStrategy| {
        let r = SimExperiment::new(
            MachineModel::linux_486(),
            PolicyKind::LinuxMod,
            Mechanism::UserLevel(s),
        )
        .clients(1)
        .messages(300)
        .run();
        let c = r.report.task("client0").unwrap().stats.clone();
        (r.throughput, c.blocks)
    };
    let (bsw_tp, bsw_blocks) = run(WaitStrategy::Bsw);
    let (ho_tp, ho_blocks) = run(WaitStrategy::HandoffBswy);
    assert!(
        ho_blocks < bsw_blocks / 2,
        "handoff should mostly avoid sleeping: {ho_blocks} vs {bsw_blocks}"
    );
    assert!(
        ho_tp > bsw_tp,
        "handoff {ho_tp:.2} msg/ms should beat BSW {bsw_tp:.2} msg/ms"
    );
}

#[test]
fn per_client_replies_are_isolated() {
    // Multi-client correctness: each client gets exactly its own replies
    // (checked inside the harness via the echoed values).
    let exp = SimExperiment::new(
        MachineModel::ibm_p4(),
        PolicyKind::FairRr,
        Mechanism::UserLevel(WaitStrategy::Bswy),
    )
    .clients(6)
    .messages(80);
    let r = exp.run();
    assert_eq!(r.messages, 480);
    // Every client must have issued its barrage.
    for c in 0..6 {
        let t = r.report.task(&format!("client{c}")).unwrap();
        assert!(t.stats.exited_at.as_nanos() > 0);
    }
}

#[test]
fn experiments_are_deterministic() {
    let exp = || {
        SimExperiment::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 10 }),
        )
        .clients(3)
        .messages(100)
        .run()
    };
    let a = exp();
    let b = exp();
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(
        a.report.total_switches, b.report.total_switches,
        "simulation must be deterministic"
    );
}

#[test]
fn no_client_is_starved_on_the_multiprocessor() {
    // Per-client equity under BSLS on the 8-way machine: every client
    // completes, and completion times are within a reasonable spread (the
    // starvation concern §5 raises about constraining concurrency).
    let exp = SimExperiment::new(
        MachineModel::sgi_challenge8(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 5 }),
    )
    .clients(10)
    .messages(100);
    let r = exp.run();
    let exits: Vec<f64> = (0..10)
        .map(|c| {
            r.report
                .task(&format!("client{c}"))
                .unwrap()
                .stats
                .exited_at
                .as_micros_f64()
        })
        .collect();
    let (min, max) = exits
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    assert!(
        max / min < 1.5,
        "client completion spread too wide: {min:.0}..{max:.0} µs"
    );
}

#[test]
fn throttled_server_starves_nobody_either() {
    let exp = SimExperiment::new(
        MachineModel::sgi_challenge8(),
        PolicyKind::degrading_default(),
        Mechanism::Throttled {
            max_spin: 5,
            wake_batch: 1,
        },
    )
    .clients(10)
    .messages(100);
    let r = exp.run();
    assert_eq!(r.messages, 1000);
    for c in 0..10 {
        let t = r.report.task(&format!("client{c}")).unwrap();
        assert!(t.stats.exited_at.as_nanos() > 0, "client{c} never finished");
    }
}
