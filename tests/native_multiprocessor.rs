//! The native backend's multiprocessor regime: paced polling across two
//! CPUs. Everything lives in ONE `#[test]` so nothing else in this binary
//! competes for the two CPUs — the last check is a real-time property (a
//! reply 200 µs away must arrive inside the spin budget), and a server
//! thread descheduled behind a dozen sibling tests breaks it for reasons
//! that have nothing to do with the pacing.

use usipc::{Channel, ChannelConfig, MetricsSnapshot, NativeConfig, NativeOs, WaitStrategy};

/// One client, one server, `msgs` echoes through a handler that computes
/// for `handler_nanos`, on a backend built with the caller's CPUs visible;
/// every reply is checked for value and order. `None` when that backend is
/// not a multiprocessor one (the paced poll would be a yield).
fn round_trips(strategy: WaitStrategy, msgs: u64, handler_nanos: u64) -> Option<MetricsSnapshot> {
    use usipc::OsServices;
    let os = NativeOs::new(NativeConfig::for_clients(1));
    if !os.effective_multiprocessor() {
        return None;
    }
    let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
    let server = {
        let (ch, os) = (ch.clone(), os.task(0));
        std::thread::spawn(move || {
            usipc::run_server(&ch, &os, strategy, |m| {
                os.compute(handler_nanos);
                m
            })
        })
    };
    let client_os = os.task(1);
    let ep = ch.client(&client_os, 0, strategy);
    for i in 0..msgs {
        assert_eq!(ep.echo(i as f64), i as f64, "reply {i} out of order");
    }
    ep.disconnect();
    assert_eq!(server.join().unwrap().processed, msgs + 1);
    for (i, f) in os.sem_finals().iter().enumerate() {
        assert_eq!((f.count, f.waiting), (0, 0), "sem {i} not clean");
    }
    Some(os.metrics().unwrap().task_snapshot(1))
}

#[test]
fn paced_polling_on_two_cpus() {
    for strategy in [WaitStrategy::Bss, WaitStrategy::Bsls { max_spin: 50 }] {
        let Some(client) = round_trips(strategy, 100_000, 0) else {
            eprintln!("skipped: needs two CPUs in the affinity mask");
            return;
        };
        assert_eq!(client.dequeues, 100_001, "{}", strategy.name());
        if strategy == WaitStrategy::Bss {
            assert_eq!(client.sem_ops(), 0, "BSS never touches a semaphore");
        }
    }

    // The ramp shortens the first polls, not the budget: a reply that takes
    // 200 µs is still inside `MAX_SPIN` = 50 (≈ 0.73 ms at the nominal
    // 10 ns a hint: 81.9 µs of ramp steps and 26 capped 25 µs pauses), so
    // the client never reaches the blocking path. The host can still deschedule the server
    // past the budget, so the clean run must show up within 3.
    let mut blocks = Vec::new();
    for _ in 0..3 {
        let client = round_trips(WaitStrategy::Bsls { max_spin: 50 }, 200, 200_000).unwrap();
        if client.blocks_entered == 0 {
            assert!(client.spin_iterations >= 200 * 18, "polled past the ramp");
            return;
        }
        blocks.push(client.blocks_entered);
    }
    panic!("BSLS(50) client blocked in every run: {blocks:?} blocks per 201 round trips");
}
