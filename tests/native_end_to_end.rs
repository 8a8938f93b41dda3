//! Cross-crate integration tests on the native backend: full client/server
//! traffic over every protocol on real threads.

use std::sync::Arc;
use usipc::{
    opcode, AsyncClient, BarrierRef, Channel, ChannelConfig, Message, NativeConfig, NativeOs,
    OsServices, QueueKind, WaitStrategy,
};
use usipc_lab::{Mechanism, NativeExperiment};
use usipc_queue::{EnqueueFlow, LOCK_BUDGET};

fn strategies() -> Vec<WaitStrategy> {
    vec![
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 4 },
        WaitStrategy::HandoffBswy,
    ]
}

#[test]
fn every_strategy_echoes_correctly_native() {
    for s in strategies() {
        let r = NativeExperiment::new(Mechanism::UserLevel(s))
            .clients(1)
            .messages(300)
            .run();
        assert_eq!(r.messages, 300, "{}", s.name());
        assert!(r.throughput > 0.0);
    }
}

#[test]
fn multi_client_native() {
    for s in [WaitStrategy::Bsw, WaitStrategy::Bsls { max_spin: 4 }] {
        let r = NativeExperiment::new(Mechanism::UserLevel(s))
            .clients(4)
            .messages(100)
            .run();
        assert_eq!(r.messages, 400, "{}", s.name());
    }
}

#[test]
fn sysv_baseline_native() {
    let r = NativeExperiment::new(Mechanism::SysV)
        .clients(2)
        .messages(150)
        .run();
    assert_eq!(r.messages, 300);
}

#[test]
fn calculator_server_per_client_state() {
    const CLIENTS: usize = 3;
    let channel = Channel::create(&ChannelConfig::new(CLIENTS)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(CLIENTS));
    let strategy = WaitStrategy::Bsw;

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || usipc::run_calculator_server(&ch, &os, strategy))
    };
    let clients: Vec<_> = (0..CLIENTS as u32)
        .map(|c| {
            let ch = channel.clone();
            let os = os.task(1 + c);
            std::thread::spawn(move || {
                let ep = ch.client(&os, c, strategy);
                let unit = f64::from(c + 1);
                for _ in 0..10 {
                    ep.rpc(opcode::ADD, unit);
                }
                let got = ep.rpc(opcode::READ, 0.0).value;
                ep.disconnect();
                assert_eq!(got, unit * 10.0, "client {c} accumulator isolated");
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let run = server.join().unwrap();
    assert_eq!(run.disconnects, CLIENTS as u32);
    assert_eq!(run.processed, (CLIENTS * 12) as u64);
}

#[test]
fn async_batching_preserves_order_and_values() {
    let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || usipc::run_echo_server(&ch, &os, WaitStrategy::Bsw))
    };
    let client_os = os.task(1);
    let mut ac = AsyncClient::new(&channel, &client_os, 0);
    let mut issued = 0u64;
    for round in 0..20u64 {
        let burst = 1 + (round % 7);
        for i in 0..burst {
            assert!(ac.post(Message::echo(0, (issued + i) as f64)));
        }
        assert_eq!(ac.outstanding(), burst);
        let replies = ac.collect_all();
        assert_eq!(replies.len() as u64, burst);
        for (i, m) in replies.iter().enumerate() {
            assert_eq!(m.value, (issued + i as u64) as f64, "reply order/value");
        }
        issued += burst;
    }
    // Clean shutdown through the synchronous path.
    channel
        .client(&client_os, 0, WaitStrategy::Bsw)
        .disconnect();
    server.join().unwrap();
}

#[test]
fn async_flow_control_reports_full() {
    let channel = Channel::create(&ChannelConfig {
        queue_capacity: 4,
        ..ChannelConfig::new(1)
    })
    .unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let client_os = os.task(1);
    let mut ac = AsyncClient::new(&channel, &client_os, 0);
    // No server running: the queue must fill and post must refuse.
    let mut accepted = 0;
    for i in 0..20 {
        if ac.post(Message::echo(0, i as f64)) {
            accepted += 1;
        } else {
            break;
        }
    }
    assert!(
        (4..=5).contains(&accepted),
        "queue of capacity 4 accepted {accepted} posts"
    );
}

#[test]
fn shm_barrier_synchronizes_threads() {
    let arena = Arc::new(usipc_shm::ShmArena::new(1 << 16).unwrap());
    let bar = BarrierRef::create(&arena, 4).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(0));
    let flag = Arc::new(std::sync::atomic::AtomicU32::new(0));
    let handles: Vec<_> = (0..4u32)
        .map(|i| {
            let arena = Arc::clone(&arena);
            let os = Arc::clone(&os);
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || {
                let t = os.task(i);
                flag.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                bar.wait(&arena, &t);
                // After the barrier, every arrival must be visible.
                assert_eq!(flag.load(std::sync::atomic::Ordering::SeqCst), 4);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn raw_queue_interface_supports_custom_protocols() {
    // A tiny custom protocol built on the public raw layer: polling
    // producer/consumer without any blocking at all.
    let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let t = os.task(0);
    let srv = channel.receive_queue();
    assert!(srv.is_empty(&t));
    assert!(srv.try_enqueue(&t, Message::echo(0, 7.0)));
    assert!(!srv.is_empty(&t));
    let got = srv.try_dequeue(&t).unwrap();
    assert_eq!(got.value, 7.0);
    assert!(srv.try_dequeue(&t).is_none());
    // awake-flag protocol primitives
    srv.clear_awake(&t);
    assert!(!srv.tas_awake(&t), "flag was cleared");
    assert!(srv.tas_awake(&t), "flag now set");
}

#[test]
fn handoff_hint_degrades_gracefully_on_native() {
    // The native backend has no handoff syscall; HandoffBswy must still be
    // correct (it degrades to yields).
    let r = NativeExperiment::new(Mechanism::UserLevel(WaitStrategy::HandoffBswy))
        .clients(2)
        .messages(150)
        .run();
    assert_eq!(r.messages, 300);
}

#[test]
fn compute_spins_for_roughly_the_requested_time() {
    let os = NativeOs::new(NativeConfig::for_clients(0));
    let t = os.task(0);
    let start = std::time::Instant::now();
    t.compute(3_000_000); // 3 ms
    let took = start.elapsed();
    assert!(took >= std::time::Duration::from_millis(3));
}

#[test]
fn throttled_server_serves_everyone_native() {
    // The §5 future-work server: correctness under real threads — every
    // message echoed, every client disconnected, nobody starved.
    let r = NativeExperiment::new(Mechanism::Throttled {
        max_spin: 4,
        wake_batch: 1,
    })
    .clients(3)
    .messages(100)
    .run();
    assert_eq!(r.messages, 300);
}

#[test]
fn two_hundred_thousand_blocking_round_trips_never_hang() {
    // Both blocking protocols decide "empty" from the two-lock queue's
    // `count` word in the Fig. 5 clear-`awake`-then-re-check step. A
    // re-check that could miss a committed message would put one side to
    // sleep with nobody left to wake it; the harness watchdog turns that
    // into a failure. BSLS with a short spin takes both the spin path and
    // the sleep path.
    for strategy in [WaitStrategy::Bsw, WaitStrategy::Bsls { max_spin: 4 }] {
        let r = NativeExperiment::new(Mechanism::UserLevel(strategy))
            .clients(1)
            .messages(100_000)
            .run();
        assert_eq!(r.messages, 100_000, "{}", strategy.name());
    }
}

#[test]
fn throttled_server_flushes_stale_deferrals_before_it_blocks() {
    // Regression for the tier-1 wedge: with `wake_batch = 1` the server
    // used to pop one deferred wake-up per cycle even when the popped
    // client needed none, then block in `receive` with a real sleeper
    // still on the list. Built deterministically: this thread plays both
    // clients through the raw queue layer, and everything is queued
    // before the server starts.
    //
    //   receive queue: [a (client 0), b (client 0), m (client 1)]
    //   client 0 never sleeps (its `awake` stays 1: its entries are stale)
    //   client 1 has committed to sleep (`awake` = 0, no credit banked)
    //
    // Cycles 1–2 see a backlog and defer [0, 0]; cycle 3 (one request
    // left) spends its batch on a stale 0 and defers client 1 → [0, 1];
    // cycle 4 finds the queue empty. The old server popped the stale 0
    // and slept forever; the fixed one flushes the list first.
    let channel = Channel::create(&ChannelConfig::new(2)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(2));
    let me = os.task(1);
    let (srv_q, sleeper_q) = (channel.receive_queue(), channel.reply_queue(1));
    for m in [
        Message::echo(0, 1.0),
        Message::echo(0, 2.0),
        Message::echo(1, 3.0),
    ] {
        assert!(srv_q.try_enqueue(&me, m));
    }
    sleeper_q.clear_awake(&me);

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || usipc::run_throttled_server(&ch, &os, 4, 1))
    };

    assert!(
        me.sem_p_deadline(sleeper_q.sem(), std::time::Duration::from_secs(10)),
        "the sleeping client behind a stale deferral was never woken"
    );
    assert_eq!(sleeper_q.try_dequeue(&me).map(|m| m.value), Some(3.0));
    sleeper_q.set_awake(&me);

    // Both clients say goodbye; the server is asleep on an empty queue.
    for c in 0..2 {
        assert!(srv_q.try_enqueue(&me, Message::disconnect(c)));
        srv_q.wake_consumer(&me);
    }
    let run = server.join().unwrap();
    assert_eq!((run.processed, run.disconnects), (5, 2));
}

#[test]
fn attach_finds_the_channel_through_the_published_root() {
    // The cross-process bootstrap path: a peer holding only the arena
    // rediscovers the channel via the published root offset.
    let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
    let arena = Arc::clone(channel.arena());
    let attached = Channel::attach(arena).expect("root was published");
    assert_eq!(attached.n_clients(), 1);

    // Traffic flows between the two handles (same underlying structures).
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let t = os.task(0);
    assert!(channel
        .receive_queue()
        .try_enqueue(&t, Message::echo(0, 3.5)));
    let got = attached.receive_queue().try_dequeue(&t).unwrap();
    assert_eq!(got.value, 3.5);

    // An arena without a published root is refused.
    let empty = Arc::new(usipc_shm::ShmArena::new(4096).unwrap());
    assert_eq!(
        Channel::attach(empty).err(),
        Some(usipc_shm::ShmError::BadSegment)
    );
}

#[test]
fn malformed_channel_index_is_dropped_not_a_panic() {
    // The request queue lives in shared memory, so `msg.channel` is
    // client-controlled data: a hostile or corrupted peer can name a reply
    // queue that does not exist. The server must drop and count such
    // requests — never index out of bounds — and keep serving honest
    // clients afterwards.
    let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
    let os = NativeOs::new(NativeConfig::for_clients(1));

    // Plant the malformed request before the server starts so its first
    // receive finds the queue non-empty (no wake-up protocol needed for a
    // raw enqueue). Task 2 is this thread's own: 0 and 1 belong to the
    // server and client threads below.
    {
        let t = os.task(2);
        assert!(channel
            .receive_queue()
            .try_enqueue(&t, Message::echo(99, 13.0)));
    }

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || usipc::run_echo_server(&ch, &os, WaitStrategy::Bsw))
    };
    let client = {
        let ch = channel.clone();
        let os = os.task(1);
        std::thread::spawn(move || {
            let ep = ch.client(&os, 0, WaitStrategy::Bsw);
            for i in 0..5 {
                assert_eq!(ep.echo(f64::from(i)), f64::from(i), "honest client served");
            }
            ep.disconnect();
        })
    };
    client.join().unwrap();
    let run = server.join().unwrap();

    assert_eq!(
        run.malformed, 1,
        "the bogus request was dropped and counted"
    );
    assert_eq!(
        run.metrics.malformed_requests, 1,
        "and recorded as a metric"
    );
    assert_eq!(
        run.processed, 6,
        "5 echoes + DISCONNECT, malformed excluded"
    );
    assert_eq!(run.disconnects, 1);
}

#[test]
fn garbage_words_in_the_queue_are_malformed_requests_not_ub() {
    // The queue element *is* the message: whatever three words a hostile or
    // corrupted peer stores in the receive queue are decoded, never used as
    // an offset. Out-of-range `channel`s are dropped and counted; an
    // unknown opcode on a real channel is the handler's business (the echo
    // server echoes it, bit for bit); the honest client is served
    // throughout. Client 1 is the hostile one: it only ever writes raw
    // words, and this thread reads its reply queue afterwards.
    let unknown = [(0xDEAD_BEEF_u64 << 32) | 1, f64::NAN.to_bits(), u64::MAX];
    let garbage = [
        [u64::MAX; 3],
        [(u64::from(opcode::ECHO) << 32) | 99, f64::NAN.to_bits(), 0],
        [2, 1, 0], // opcode 0, channel 2 of 2
        unknown,
        Message::disconnect(1).to_words(),
    ];
    for kind in [QueueKind::Ring, QueueKind::TwoLock] {
        let channel = Channel::create(&ChannelConfig::new(2).with_queue_kind(kind)).unwrap();
        let os = NativeOs::new(NativeConfig::for_clients(2));
        let fifo = channel.receive_queue().fifo();
        for words in garbage {
            let flow = fifo.try_enqueue_elem(channel.arena(), words, LOCK_BUDGET);
            assert_eq!(flow, EnqueueFlow::Queued, "{kind:?}");
        }
        let server = {
            let ch = channel.clone();
            let os = os.task(0);
            std::thread::spawn(move || usipc::run_echo_server(&ch, &os, WaitStrategy::Bsw))
        };
        let t = os.task(1);
        let ep = channel.client(&t, 0, WaitStrategy::Bsw);
        for i in 0..5 {
            assert_eq!(
                ep.echo(f64::from(i)),
                f64::from(i),
                "{kind:?}: honest client served"
            );
        }
        ep.disconnect();
        let run = server.join().unwrap();

        assert_eq!(run.malformed, 3, "{kind:?}: out-of-range channels dropped");
        assert_eq!(run.metrics.malformed_requests, 3, "{kind:?}");
        assert_eq!(run.processed, 2 + 6, "{kind:?}: planted + honest");
        assert_eq!(run.disconnects, 2, "{kind:?}");
        let rq = channel.reply_queue(1);
        let echoed = rq.try_dequeue(&t).expect("unknown opcode was echoed");
        assert_eq!(echoed.to_words(), unknown, "{kind:?}: bit for bit");
        assert_eq!(rq.try_dequeue(&t), Some(Message::disconnect(1)), "{kind:?}");
    }
}
