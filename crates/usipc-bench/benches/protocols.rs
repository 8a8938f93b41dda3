//! Native-backend protocol benchmarks: real threads, real parking.
//!
//! On the uniprocessor CI box this measures exactly the paper's hardest
//! case — synchronous IPC on one CPU — where `busy_wait` degenerates to
//! `sched_yield` and the blocking protocols lean on futex-backed
//! semaphores. Absolute numbers are host-specific; the interesting output
//! is the *ordering* of the strategies and the SysV-style baseline.

use usipc::WaitStrategy;
use usipc_bench::minibench::Minibench;
use usipc_lab::{Mechanism, NativeExperiment};

const MSGS: u64 = 2_000;

fn roundtrips(mb: &mut Minibench) {
    let mut g = mb.group("native_echo_1client");
    g.throughput_elements(MSGS);
    g.sample_size(10);
    let cases: Vec<(&str, Mechanism)> = vec![
        ("BSS", Mechanism::UserLevel(WaitStrategy::Bss)),
        ("BSW", Mechanism::UserLevel(WaitStrategy::Bsw)),
        ("BSWY", Mechanism::UserLevel(WaitStrategy::Bswy)),
        (
            "BSLS-10",
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 10 }),
        ),
        ("HANDOFF", Mechanism::UserLevel(WaitStrategy::HandoffBswy)),
        ("SysV", Mechanism::SysV),
    ];
    for (name, mech) in cases {
        g.bench_function(name, || {
            NativeExperiment::new(mech).clients(1).messages(MSGS).run();
        });
    }
}

fn multi_client(mb: &mut Minibench) {
    let mut g = mb.group("native_echo_4clients");
    g.throughput_elements(MSGS);
    g.sample_size(10);
    for (name, mech) in [
        ("BSW", Mechanism::UserLevel(WaitStrategy::Bsw)),
        (
            "BSLS-10",
            Mechanism::UserLevel(WaitStrategy::Bsls { max_spin: 10 }),
        ),
        ("SysV", Mechanism::SysV),
    ] {
        g.bench_function(name, || {
            NativeExperiment::new(mech)
                .clients(4)
                .messages(MSGS / 4)
                .run();
        });
    }
}

fn main() {
    let mut mb = Minibench::new();
    roundtrips(&mut mb);
    multi_client(&mut mb);
}
