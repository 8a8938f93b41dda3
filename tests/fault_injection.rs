//! Fault injection against the real protocols, both backends.
//!
//! The native tests kill actual threads mid-protocol (a panic unwinding
//! through a [`DeathWatch`]/[`ServerDeathWatch`] guard) and assert the
//! survivors' view: `PeerDead` for a client whose server died between
//! dequeue and reply, a server that outlives a dead client and poisons
//! *only* that client's reply queue, and a poisoned channel rejecting the
//! next call without entering the kernel (pinned by the metrics layer).
//!
//! The simulated tests hand the same fault points to the schedule-space
//! explorer: every kill site of every protocol, over every schedule at
//! the bounded depth, must end in an error verdict — never a deadlock —
//! and the poison-never-set mutant must yield a replayable deadlock
//! counterexample, proving the explorer can actually see the failure the
//! poisoning protocol exists to prevent.

use std::sync::Arc;
use std::time::Duration;
use usipc::scenarios::{FaultScenario, PeerDeathScenario, NO_VICTIM};
use usipc::{
    run_echo_server, run_resilient_server, AsyncClient, Channel, ChannelConfig, FaultPlan,
    IpcError, Message, NativeConfig, NativeOs, ServerRun, ShardedConfig, ShardedServer,
    WaitStrategy,
};
use usipc_lab::{ClientFaultOutcome, Mechanism, NativeExperiment, Watchdog};
use usipc_sim::{Explorer, Outcome};

const HEARTBEAT: Duration = Duration::from_millis(30);
const DEADLINE: Duration = Duration::from_millis(500);

/// The Fig. 5 nightmare: the server dequeues a request and dies before
/// replying. The message is gone — no retry can recover it — so the
/// client must get `PeerDead`, not hang and not `Timeout`-forever.
#[test]
fn client_sees_peer_dead_when_server_dies_between_dequeue_and_reply() {
    // Server fault points: (before receive, after dequeue) per message.
    // at_op = 1 is the first "between dequeue and reply" window.
    let plan = Arc::new(FaultPlan::kill(0, 1));
    let r = NativeExperiment::new(Mechanism::UserLevel(WaitStrategy::Bsw))
        .clients(1)
        .messages(4)
        .deadline(HEARTBEAT, DEADLINE)
        .run_with_fault(plan);

    assert!(r.server.is_err(), "server was killed: {:?}", r.server);
    assert!(
        r.receive_poisoned,
        "tombstone must poison the receive queue"
    );
    assert!(r.reply_poisoned[0], "tombstone must poison the reply queue");
    match &r.clients[0] {
        ClientFaultOutcome::Failed { error, .. } => {
            assert_eq!(*error, IpcError::PeerDead, "client must learn of the death");
        }
        other => panic!("client should have failed with PeerDead, got {other:?}"),
    }
}

/// One of eight clients dies mid-run. The server must keep serving the
/// other seven to completion, reap exactly the dead one, and poison only
/// its reply queue.
#[test]
fn server_survives_dead_client_and_poisons_only_its_queue() {
    let victim_client = 3u32; // task number 1 + 3
    let plan = Arc::new(FaultPlan::kill(1 + victim_client, 2));
    let r = NativeExperiment::new(Mechanism::UserLevel(WaitStrategy::Bsw))
        .clients(8)
        .messages(6)
        .deadline(HEARTBEAT, DEADLINE)
        .run_with_fault(plan);

    let run = r.server.expect("server must survive a client death");
    assert!(run.reaped >= 1, "the dead client must be reaped");
    assert!(!r.receive_poisoned, "shared receive queue must stay usable");
    for c in 0..8u32 {
        if c == victim_client {
            assert!(
                matches!(r.clients[c as usize], ClientFaultOutcome::Killed),
                "victim should have died: {:?}",
                r.clients[c as usize]
            );
            assert!(
                r.reply_poisoned[c as usize],
                "victim's queue must be poisoned"
            );
        } else {
            assert!(
                matches!(r.clients[c as usize], ClientFaultOutcome::Completed),
                "survivor {c} must complete: {:?}",
                r.clients[c as usize]
            );
            assert!(
                !r.reply_poisoned[c as usize],
                "survivor {c}'s queue must not be poisoned"
            );
        }
    }
}

/// Poisoning fails *fast*: a call on a poisoned channel is rejected at
/// the entry check, before any semaphore operation or enqueue. The
/// metrics layer pins "no kernel entry" exactly.
#[test]
fn poisoned_channel_rejects_calls_without_entering_the_kernel() {
    use usipc::{Channel, ChannelConfig, Message, NativeConfig, NativeOs};

    let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let client_os = os.task(1);
    let ep = ch.client(&client_os, 0, WaitStrategy::Bsw);

    ch.reply_queue(0).poison(&client_os);

    let reg = os.metrics().expect("native harness os carries metrics");
    let before = reg.task_snapshot(1);
    let got = ep.call_deadline(Message::echo(0, 1.0), Duration::from_secs(5));
    let after = reg.task_snapshot(1);

    assert_eq!(got, Err(IpcError::Poisoned));
    assert_eq!(after.sem_p, before.sem_p, "no P on a poisoned call");
    assert_eq!(after.sem_v, before.sem_v, "no V on a poisoned call");
    assert_eq!(
        after.enqueues, before.enqueues,
        "no enqueue on a poisoned call"
    );
    assert_eq!(
        after.dequeues, before.dequeues,
        "no dequeue on a poisoned call"
    );
}

/// Every protocol, a sweep of kill sites, every schedule at the bounded
/// depth: no kill may deadlock the survivors. The explorer's invariant
/// layer flags Deadlock / TimeLimit / TaskPanicked automatically, so a
/// clean report *is* the no-deadlock proof over this space.
#[test]
fn explorer_no_kill_site_deadlocks_any_protocol() {
    let strategies = [
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 2 },
        WaitStrategy::HandoffBswy,
    ];
    for strategy in strategies {
        // Server kill sites 0..4 and client kill sites 0..2 cover the
        // receive window, the dequeue->reply window and the call entry.
        for (victim, at_op) in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)] {
            let sc = FaultScenario {
                strategy,
                n_clients: 1,
                msgs: 2,
                victim,
                at_op,
            };
            let r = Explorer::dfs(5)
                .machine(sc.machine())
                .max_schedules(40_000)
                .run(sc.builder());
            assert!(
                r.ok(),
                "{strategy:?} kill(victim={victim}, at_op={at_op}) violated: {}",
                r.summary()
            );
        }
    }
}

/// The fault-free baseline of the sweep: with no kill the same scenario
/// must answer every request under every schedule.
#[test]
fn explorer_fault_free_baseline_answers_everything() {
    let sc = FaultScenario {
        strategy: WaitStrategy::Bsw,
        n_clients: 1,
        msgs: 2,
        victim: NO_VICTIM,
        at_op: 0,
    };
    let r = Explorer::dfs(5).max_schedules(40_000).run(sc.builder());
    assert!(r.ok(), "{}", r.summary());
}

/// Death rites on: every schedule detects the death. Death rites off (the
/// poison-never-set mutant): the explorer must produce a deadlock
/// counterexample — the client parked forever on its reply semaphore —
/// and the counterexample must replay deterministically.
#[test]
fn poison_never_set_mutant_deadlocks_with_replayable_counterexample() {
    let good = Explorer::dfs(6).run(PeerDeathScenario { poisoning: true }.builder());
    assert!(
        good.ok(),
        "death rites must rescue the client: {}",
        good.summary()
    );

    let mutant = PeerDeathScenario { poisoning: false };
    let ex = Explorer::dfs(6);
    let r = ex.run(mutant.builder());
    assert!(
        r.violations > 0,
        "explorer failed to find the orphaned-client deadlock: {}",
        r.summary()
    );
    let c = &r.counterexamples[0];
    let decisions = usipc_sim::parse_decisions(&c.decision_string()).expect("printable");
    let (sim, verdict) = ex.replay(&decisions, mutant.builder());
    assert!(
        matches!(sim.outcome, Outcome::Deadlock(_)),
        "replay must reproduce the deadlock, got {:?}",
        sim.outcome
    );
    assert!(verdict.is_err());
}

/// How long a thread that must end may take before the watchdog calls it
/// wedged.
const MUST_END: Duration = Duration::from_secs(10);

/// Spins until `os`'s semaphore `sem` has a sleeper registered.
fn until_parked(os: &NativeOs, sem: u32) {
    while os.sem(sem).waiting() == 0 {
        std::thread::yield_now();
    }
}

/// An unbounded wait still sees the one error it can meet. A `run_server`
/// parked in `Receive` returns when the receive queue is poisoned under
/// it, and a `call` parked on its reply panics naming the error when the
/// server is declared dead — both slept forever before the infallible
/// calls became the bounded ones under `Deadline::never`.
#[test]
fn unbounded_server_and_call_end_when_the_channel_is_poisoned_under_them() {
    // The server: no client ever calls; poison is its only way out.
    let ch = Channel::create(&ChannelConfig::new(1)).expect("channel");
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let (tx, rx) = std::sync::mpsc::channel::<ServerRun>();
    let server = {
        let (ch, t) = (ch.clone(), os.task(0));
        std::thread::spawn(move || {
            tx.send(run_echo_server(&ch, &t, WaitStrategy::Bsw))
                .unwrap()
        })
    };
    until_parked(&os, 0);
    ch.receive_queue().poison(&os.task(2));
    Watchdog::new(MUST_END).join(vec![("server".into(), 0, server)]);
    let run = rx.recv().unwrap();
    assert_eq!((run.processed, run.disconnects), (0, 0));

    // The client: its request is queued, no server will ever answer it.
    let ch = Channel::create(&ChannelConfig::new(1)).expect("channel");
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let client = {
        let (ch, t) = (ch.clone(), os.task(1));
        std::thread::spawn(move || {
            let ep = ch.client(&t, 0, WaitStrategy::Bsw);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ep.echo(1.0)))
                .expect_err("a call on a dead channel must not return a reply");
            tx.send(died.downcast_ref::<String>().cloned().unwrap_or_default())
                .unwrap()
        })
    };
    until_parked(&os, 1);
    ch.tombstone_server(&os.task(2));
    Watchdog::new(MUST_END).join(vec![("client".into(), 1, client)]);
    let message = rx.recv().unwrap();
    assert!(
        message.contains("dead channel") && message.contains(&IpcError::PeerDead.to_string()),
        "the panic must name the error, got {message:?}"
    );
    // The broadcast V that woke the client is the credit its P consumed.
    let f = &os.sem_finals()[1];
    assert_eq!(
        (f.count, f.waiting),
        (0, 0),
        "the exit must conserve credits"
    );
}

/// No silent reply loss. The client posts four requests and never drains
/// its two-deep reply queue: the server delivers two replies, holds each
/// of the other two for one heartbeat, then drops it — and says so, in
/// `ServerRun::replies_dropped` and in the `ReplyDropped` event counter.
/// Every processed request ends in exactly one of a reply enqueue or a
/// counted drop.
#[test]
fn a_reply_the_client_never_drains_is_dropped_and_counted() {
    let cfg = ChannelConfig {
        queue_capacity: 2,
        ..ChannelConfig::new(1)
    };
    let ch = Channel::create(&cfg).expect("channel");
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let (tx, rx) = std::sync::mpsc::channel::<ServerRun>();
    let server = {
        let (ch, t) = (ch.clone(), os.task(0));
        std::thread::spawn(move || {
            let beat = Duration::from_millis(1);
            tx.send(run_resilient_server(
                &ch,
                &t,
                WaitStrategy::Bsw,
                beat,
                |m| m,
            ))
            .unwrap()
        })
    };
    let t = os.task(1);
    let mut client = AsyncClient::new(&ch, &t, 0);
    assert!(client.post(Message::echo(0, 1.0)) && client.post(Message::echo(0, 2.0)));
    // Both answered: the reply queue is full, and stays full.
    while ch.reply_queue(0).queued_len() < 2 {
        std::thread::yield_now();
    }
    assert!(client.post(Message::echo(0, 3.0)) && client.post(Message::disconnect(0)));
    Watchdog::new(MUST_END).join(vec![("server".into(), 0, server)]);

    let run = rx.recv().unwrap();
    assert_eq!((run.processed, run.disconnects), (4, 1));
    assert_eq!(run.replies_dropped, 2, "the third echo and the farewell");
    assert_eq!(run.metrics.replies_dropped, 2);
    assert_eq!(
        run.metrics.enqueues + run.metrics.replies_dropped,
        run.processed,
        "every processed request: one reply enqueued or one counted drop"
    );
    assert_eq!(ch.reply_queue(0).queued_len(), 2, "the delivered replies");
}

/// One Receive/Reply loop, two sources. The same session — four echo
/// clients; one slips in a request whose `channel` names no reply queue,
/// one dies mid-session without a farewell, one says DISCONNECT twice —
/// runs against a channel server and against a mux worker, and both
/// account it alike: a client counts as disconnected once however often it
/// says so, `disconnects + reaped` is the clients gone at exit, the
/// malformed request is dropped and counted, and no reply is lost.
#[test]
fn channel_server_and_mux_worker_account_the_same_session_alike() {
    const N: u32 = 4;
    const BEAT: Duration = Duration::from_millis(2);
    fn session(
        echo: impl Fn(u32, f64) -> f64,
        disconnect: impl Fn(u32),
        post_malformed: impl Fn(u32),
        die: impl Fn(u32),
    ) {
        for c in 0..N {
            for i in 0..3 {
                assert_eq!(echo(c, f64::from(i)), f64::from(i));
            }
        }
        post_malformed(0);
        disconnect(2);
        disconnect(2);
        die(1);
        disconnect(0);
        disconnect(3);
    }
    fn ledger(run: &ServerRun) -> [u64; 7] {
        [
            run.processed,
            u64::from(run.disconnects),
            run.malformed,
            u64::from(run.reaped),
            run.replies_dropped,
            run.metrics.malformed_requests,
            run.metrics.peer_deaths_detected,
        ]
    }
    let (tx, rx) = std::sync::mpsc::channel::<ServerRun>();

    let ch = Channel::create(&ChannelConfig::new(N as usize)).expect("channel");
    let os = NativeOs::new(NativeConfig::for_clients(N as usize));
    let server = {
        let (ch, t, tx) = (ch.clone(), os.task(0), tx.clone());
        std::thread::spawn(move || {
            tx.send(run_resilient_server(
                &ch,
                &t,
                WaitStrategy::Bsw,
                BEAT,
                |m| m,
            ))
            .unwrap()
        })
    };
    let t = os.task(1);
    session(
        |c, v| ch.client(&t, c, WaitStrategy::Bsw).echo(v),
        |c| ch.client(&t, c, WaitStrategy::Bsw).disconnect(),
        |_| {
            let srv = ch.receive_queue();
            assert!(srv.try_enqueue(&t, Message::echo(N + 7, 0.0)));
            srv.wake_consumer(&t);
        },
        |c| ch.reply_queue(c).mark_consumer_dead(&t),
    );
    Watchdog::new(MUST_END).join(vec![("server".into(), 0, server)]);
    let by_channel = rx.recv().unwrap();

    let cfg = ShardedConfig {
        heartbeat: BEAT,
        ..ShardedConfig::new(N as usize, 1)
    };
    let srv = Arc::new(ShardedServer::create(cfg).expect("topology"));
    let mut native = NativeConfig::for_clients(0);
    native.n_sems = srv.config().n_sems();
    let os = NativeOs::new(native);
    let worker = {
        let (srv, t) = (Arc::clone(&srv), os.task(0));
        std::thread::spawn(move || tx.send(srv.run_worker(&t, 0, |m| m)).unwrap())
    };
    let t = os.task(1);
    session(
        |c, v| srv.client(&t, c).echo(v),
        |c| srv.client(&t, c).disconnect(),
        |c| {
            // Within a private single-client channel only `channel` 0 is real.
            assert!(srv
                .channel(c)
                .receive_queue()
                .try_enqueue(&t, Message::echo(7, 0.0)));
            let slot = srv.shard_members(0).iter().position(|&m| m == c).unwrap();
            srv.waitset(0).notify(&t, slot);
        },
        |c| srv.channel(c).reply_queue(0).mark_consumer_dead(&t),
    );
    Watchdog::new(MUST_END).join(vec![("worker".into(), 0, worker)]);
    let by_shard = rx.recv().unwrap();

    assert_eq!(
        ledger(&by_channel),
        [12 + 4, 3, 1, 1, 0, 1, 1],
        "{by_channel:?}"
    );
    assert_eq!(ledger(&by_shard), ledger(&by_channel), "{by_shard:?}");
}
