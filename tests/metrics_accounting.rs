//! The paper's cost claims, asserted as exact counter arithmetic on the
//! deterministic simulator (and sanity-checked on real threads).
//!
//! §3.1: BSW costs "four system calls" per round trip — the client pays a
//! `V` (wake the server) and a `P` (sleep for the reply), the server pays
//! the mirror `P` and `V`. §2.1: BSS never enters the kernel at all. With
//! the metrics layer those are no longer derivations; they are counters
//! this test reads back.

use usipc::{NativeConfig, NativeOs, OsServices, WaitStrategy};
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

const MSGS: u64 = 500;

fn sim_run(strategy: WaitStrategy) -> usipc_lab::SimExperimentResult {
    let exp = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(strategy),
    )
    .clients(1)
    .messages(MSGS);
    exp.run()
}

#[test]
fn bsw_uncontended_round_trip_is_exactly_four_semaphore_calls() {
    let r = sim_run(WaitStrategy::Bsw);
    // MSGS echoes plus the disconnect handshake, each a full round trip.
    let round_trips = MSGS + 1;
    let c = r.client_metrics;
    let s = r.server_metrics;
    // Client: one V to wake the server, one P to sleep for the reply.
    assert_eq!(c.sem_v, round_trips, "client V per round trip");
    assert_eq!(c.sem_p, round_trips, "client P per round trip");
    // Server: the mirror image.
    assert_eq!(s.sem_p, round_trips, "server P per round trip");
    assert_eq!(s.sem_v, round_trips, "server V per round trip");
    // The headline number: four semaphore system calls per round trip.
    assert_eq!(c.sem_ops() + s.sem_ops(), 4 * round_trips);
    // Fully blocking: the client slept for every reply, and with a single
    // client no producer ever raced the consumer into the stray-V path.
    assert_eq!(c.blocks_entered, round_trips);
    assert_eq!(c.stray_wakeups_absorbed + s.stray_wakeups_absorbed, 0);
}

#[test]
fn bss_never_enters_the_kernel() {
    let r = sim_run(WaitStrategy::Bss);
    let total = r.client_metrics.add(&r.server_metrics);
    assert_eq!(total.sem_ops(), 0, "BSS uses no semaphores");
    assert_eq!(total.blocks_entered, 0, "BSS never commits to sleep");
    // Spinning happened instead (uniprocessor busy_wait = yield syscalls,
    // counted as spin iterations).
    assert!(total.spin_iterations > 0, "BSS spins on empty queues");
}

#[test]
fn message_flow_counters_are_conserved() {
    let r = sim_run(WaitStrategy::Bsw);
    let round_trips = MSGS + 1;
    // Every request the client enqueued was dequeued by the server and
    // vice versa: 2 enqueues and 2 dequeues per round trip, split evenly.
    assert_eq!(r.client_metrics.enqueues, round_trips);
    assert_eq!(r.client_metrics.dequeues, round_trips);
    assert_eq!(r.server_metrics.enqueues, round_trips);
    assert_eq!(r.server_metrics.dequeues, round_trips);
    assert_eq!(r.server_metrics.requests_served, round_trips);
    // The latency sketch saw every client round trip, in virtual time.
    assert_eq!(r.client_latency.count, round_trips);
    assert!(r.client_latency.mean_us() > 0.0);
}

#[test]
fn bsls_blocks_rarely_in_its_operating_region() {
    let r = sim_run(WaitStrategy::Bsls { max_spin: 200 });
    let rate = r.client_metrics.block_rate();
    // Fig. 10's argument: with a sufficient spin budget the client almost
    // always falls through. The uncontended echo is the best case.
    assert!(
        rate < 0.5,
        "BSLS(200) client blocked {:.0}% of dequeues",
        rate * 100.0
    );
    // And strictly fewer semaphore calls than BSW's 4 per round trip.
    let per_rt =
        (r.client_metrics.sem_ops() + r.server_metrics.sem_ops()) as f64 / (MSGS + 1) as f64;
    assert!(
        per_rt < 4.0,
        "BSLS paid {per_rt:.2} sem calls per round trip"
    );
}

#[test]
fn native_server_run_reports_its_counters() {
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));

    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
    });

    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
    for i in 0..50 {
        assert_eq!(client.echo(i as f64), i as f64);
    }
    client.disconnect();
    let run = server.join().unwrap();

    assert_eq!(run.processed, 51);
    // The embedded snapshot is the server's own window: one request charge
    // and one dequeue per message, and (timing-dependent) some sem traffic.
    assert_eq!(run.metrics.requests_served, 51);
    assert_eq!(run.metrics.dequeues, 51);
    assert_eq!(run.metrics.enqueues, 51);
    assert!(
        run.metrics.sem_ops() <= 4 * 51,
        "bounded by the BSW worst case"
    );

    // The registry view agrees with the embedded snapshot.
    let reg = os.metrics().expect("for_clients enables collection");
    assert_eq!(reg.task_snapshot(0).requests_served, 51);
    // The client made 51 round trips (it times only a sample of them).
    assert_eq!(reg.task_snapshot(1).enqueues, 51);
    assert!(client_os.metrics().is_some());
}

/// The native round-trip clock is sampled: a sink's first call is timed,
/// then every `latency_sample_period`-th, so *n* calls leave ⌈n / N⌉
/// samples — and the counters still count every call.
#[test]
fn native_latency_histogram_holds_one_sample_per_period() {
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
    });

    let client_os = os.task(1);
    let period = u64::from(client_os.latency_sample_period());
    assert!(period > 1, "the native backend samples");
    let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
    let latency = || os.metrics().unwrap().task_latency(1);

    assert_eq!(client.echo(0.0), 0.0);
    assert_eq!(latency().count, 1, "a sink's first call is timed");
    assert!(latency().mean_us() > 0.0);
    for n in 2..=3 * period + 2 {
        assert_eq!(client.echo(n as f64), n as f64);
        assert_eq!(latency().count, n.div_ceil(period), "after {n} calls");
    }
    client.disconnect();
    server.join().unwrap();
    let calls = 3 * period + 3;
    assert_eq!(os.metrics().unwrap().task_snapshot(1).enqueues, calls);
    assert_eq!(latency().count, calls.div_ceil(period));
}

#[test]
fn disabling_metrics_yields_empty_snapshots() {
    let ch = usipc::Channel::create(&usipc::ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1).without_metrics());

    let server_ch = ch.clone();
    let server_os = os.task(0);
    let server = std::thread::spawn(move || {
        usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
    });

    let client_os = os.task(1);
    let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
    assert_eq!(client.echo(7.0), 7.0);
    client.disconnect();
    let run = server.join().unwrap();

    assert_eq!(run.processed, 2);
    assert_eq!(run.metrics, Default::default(), "no counters collected");
    assert!(os.metrics().is_none());
    assert!(client_os.metrics().is_none());
}

/// The single-writer sink under a live writer: exact totals at the end
/// (unlocked load + store loses nothing with one writer), and a reader on
/// another thread never sees a counter or a latency bucket go backwards.
#[test]
fn single_writer_counts_are_exact_and_monotone_for_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use usipc::{EndpointMetrics, ProtoEvent};

    const ROUNDS: u64 = 200_000;
    let sink = EndpointMetrics::new();
    let done = AtomicBool::new(false);
    let snapshots = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..ROUNDS {
                sink.record(ProtoEvent::QueueOp);
                sink.record(ProtoEvent::QueueOp);
                sink.record(ProtoEvent::SemV);
                sink.record_latency_nanos(1_000 + i % 7);
            }
            done.store(true, Ordering::Release);
        });
        let mut seen = 0u64;
        let (mut last, mut last_lat) = (sink.snapshot(), sink.latency_snapshot());
        while !done.load(Ordering::Acquire) {
            let (now, lat) = (sink.snapshot(), sink.latency_snapshot());
            let went_back = now
                .to_array()
                .iter()
                .zip(last.to_array())
                .any(|(n, l)| *n < l);
            assert!(!went_back, "{last:?} then {now:?}");
            assert!(lat.count >= last_lat.count && lat.sum_nanos >= last_lat.sum_nanos);
            assert!(lat.cells.iter().zip(&last_lat.cells).all(|(n, l)| n >= l));
            (last, last_lat) = (now, lat);
            seen += 1;
        }
        seen
    });
    assert!(snapshots > 0, "the reader never overlapped the writer");

    let total = sink.snapshot();
    assert_eq!(total.queue_ops, 2 * ROUNDS);
    assert_eq!(total.sem_v, ROUNDS);
    assert_eq!(
        total.sem_ops() + total.queue_ops,
        3 * ROUNDS,
        "nothing else"
    );
    let lat = sink.latency_snapshot();
    assert_eq!(lat.count, ROUNDS);
    let sum: u64 = (0..ROUNDS).map(|i| 1_000 + i % 7).sum();
    assert_eq!(lat.sum_nanos, sum);
}

/// Two threads recording into one sink would silently lose counts; debug
/// builds (which is what tier-1 runs) turn that into a panic.
#[cfg(debug_assertions)]
#[test]
fn debug_builds_catch_a_second_writer_thread() {
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let mine = os.task(1);
    mine.yield_now(); // this thread is now task 1's writer
    let shared_id = std::thread::spawn({
        let os = std::sync::Arc::clone(&os);
        move || os.task(1).yield_now()
    });
    assert!(
        shared_id.join().is_err(),
        "a second thread recorded under task 1"
    );
    let own_id = std::thread::spawn(move || os.task(2).yield_now());
    assert!(own_id.join().is_ok(), "a task id of its own is fine");
}
