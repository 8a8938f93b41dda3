//! WaitSet multiplexing, metrics-pinned: one server task sleeping for 64
//! client channels through a single doorbell semaphore, the sharded
//! topology, and per-source failure handling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use usipc::{
    opcode, Message, NativeConfig, NativeOs, QueueKind, ServerObservability, ServerRun,
    ShardedConfig, ShardedServer, TelemetryPlane, WaitSet, WaitSetRoot,
};
use usipc_queue::{EnqueueFlow, LOCK_BUDGET};
use usipc_shm::ShmArena;

fn native_for(srv: &ShardedServer) -> Arc<NativeOs> {
    let mut cfg = NativeConfig::for_clients(0);
    cfg.n_sems = srv.config().n_sems();
    cfg.n_msgqs = 0;
    cfg.full_backoff = Duration::from_micros(100);
    NativeOs::new(cfg)
}

/// Drives `ids` through synchronous echo sessions on one thread (64 real
/// client threads would oversubscribe CI; the doorbell accounting is
/// per-*channel*, not per-thread, so folding many clients onto few
/// threads exercises exactly the same multiplexing).
fn drive_clients(srv: &ShardedServer, os: &Arc<NativeOs>, task: u32, ids: &[u32], msgs: u64) {
    let os = os.task(task);
    for round in 0..msgs {
        for &c in ids {
            let client = srv.client(&os, c);
            let v = client.echo((round * 1000 + c as u64) as f64);
            assert_eq!(v, (round * 1000 + c as u64) as f64, "echo corrupted");
        }
    }
    for &c in ids {
        srv.client(&os, c).disconnect();
    }
}

/// The acceptance pin: 64 client channels multiplexed through ONE WaitSet
/// by ONE server task, and the doorbell budget holds — at most one
/// doorbell `V` per server wake (`doorbells_rung ≤ waitset_wakes + 1`,
/// the `+1` being a final credit still banked at shutdown), no matter how
/// the 64 producers interleave.
#[test]
fn one_task_multiplexes_64_channels_within_the_doorbell_budget() {
    const CLIENTS: usize = 64;
    const MSGS: u64 = 50;
    const DRIVERS: usize = 8;

    let srv = Arc::new(ShardedServer::create(ShardedConfig::new(CLIENTS, 1)).expect("topology"));
    let os = native_for(&srv);

    let worker = {
        let srv = Arc::clone(&srv);
        let os = os.task(0);
        std::thread::spawn(move || srv.run_worker(&os, 0, |m| m))
    };

    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let srv = Arc::clone(&srv);
            let os = Arc::clone(&os);
            let ids: Vec<u32> = (0..CLIENTS as u32)
                .filter(|c| *c as usize % DRIVERS == d)
                .collect();
            std::thread::spawn(move || drive_clients(&srv, &os, 1 + d as u32, &ids, MSGS))
        })
        .collect();

    for d in drivers {
        d.join().expect("driver thread");
    }
    let run: ServerRun = worker.join().expect("worker thread");

    // Every message (plus every disconnect) was served by the one task.
    assert_eq!(run.processed, CLIENTS as u64 * (MSGS + 1));
    assert_eq!(run.disconnects, CLIENTS as u32);
    assert_eq!(run.reaped, 0);
    assert_eq!(run.malformed, 0);

    let reg = os.metrics().expect("metrics on");
    let server = reg.task_snapshot(0);
    let clients = reg.aggregate(|t| t != 0);

    // The doorbell budget: ≤ 1 doorbell V per server wake. This is the
    // load-bearing claim of the design — a per-source-V scheme would ring
    // up to once per message (3264 here).
    assert!(
        clients.doorbells_rung <= server.waitset_wakes + 1,
        "doorbell budget violated: {} rings for {} wakes",
        clients.doorbells_rung,
        server.waitset_wakes
    );
    // Every notify either rang or coalesced, one per request.
    assert_eq!(
        clients.doorbells_rung + clients.doorbells_coalesced,
        CLIENTS as u64 * (MSGS + 1),
        "each call must notify exactly once"
    );
    // The budget must actually bite: with 64 producers the edge-triggered
    // latch has to coalesce most rings (a wake serves many sources).
    assert!(
        clients.doorbells_coalesced > 0,
        "no coalescing under 64-way fan-in is implausible"
    );
}

/// The sharded topology end to end: 4 shards, hash-routed clients, every
/// message served exactly once, and the budget holding shard-wise
/// (globally: rung ≤ wakes + K, one banked credit per shard).
#[test]
fn sharded_server_serves_every_client_within_per_shard_budgets() {
    const CLIENTS: usize = 32;
    const SHARDS: usize = 4;
    const MSGS: u64 = 40;
    const DRIVERS: usize = 4;

    let srv =
        Arc::new(ShardedServer::create(ShardedConfig::new(CLIENTS, SHARDS)).expect("topology"));
    let os = native_for(&srv);

    let workers: Vec<_> = (0..SHARDS)
        .map(|s| {
            let srv = Arc::clone(&srv);
            let os = os.task(s as u32);
            std::thread::spawn(move || srv.run_worker(&os, s, |m| m))
        })
        .collect();

    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let srv = Arc::clone(&srv);
            let os = Arc::clone(&os);
            let ids: Vec<u32> = (0..CLIENTS as u32)
                .filter(|c| *c as usize % DRIVERS == d)
                .collect();
            std::thread::spawn(move || drive_clients(&srv, &os, (SHARDS + d) as u32, &ids, MSGS))
        })
        .collect();

    for d in drivers {
        d.join().expect("driver thread");
    }
    let runs: Vec<ServerRun> = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread"))
        .collect();

    let processed: u64 = runs.iter().map(|r| r.processed).sum();
    let disconnects: u32 = runs.iter().map(|r| r.disconnects).sum();
    assert_eq!(processed, CLIENTS as u64 * (MSGS + 1));
    assert_eq!(disconnects, CLIENTS as u32);

    let reg = os.metrics().expect("metrics on");
    let servers = reg.aggregate(|t| (t as usize) < SHARDS);
    let clients = reg.aggregate(|t| (t as usize) >= SHARDS);
    assert!(
        clients.doorbells_rung <= servers.waitset_wakes + SHARDS as u64,
        "per-shard doorbell budget violated: {} rings for {} wakes over {SHARDS} shards",
        clients.doorbells_rung,
        servers.waitset_wakes
    );
    assert_eq!(
        clients.doorbells_rung + clients.doorbells_coalesced,
        CLIENTS as u64 * (MSGS + 1)
    );
}

/// Garbage in a member's receive queue is decoded, never dereferenced: a
/// hostile client 1 writes raw words — all-ones, NaN bits under a `channel`
/// its private channel does not have, an unknown opcode, then a well-formed
/// DISCONNECT — rings the doorbell, and the worker counts the malformed
/// ones, echoes the unknown opcode bit for bit (the handler's business),
/// and serves honest client 0 throughout. Both queue kinds.
#[test]
fn garbage_words_from_one_member_are_counted_and_the_worker_keeps_serving() {
    // Within a private single-client channel only `channel` 0 is real.
    let unknown = [0xDEAD_BEEF_u64 << 32, f64::NAN.to_bits(), u64::MAX];
    let planted = [
        [u64::MAX; 3],
        [(u64::from(opcode::ECHO) << 32) | 7, f64::NAN.to_bits(), 0],
        unknown,
        Message::disconnect(0).to_words(),
    ];
    for kind in [QueueKind::Ring, QueueKind::TwoLock] {
        let srv = Arc::new(
            ShardedServer::create(ShardedConfig {
                queue_kind: kind,
                ..ShardedConfig::new(2, 1)
            })
            .expect("topology"),
        );
        let os = native_for(&srv);
        let hostile = os.task(2);
        let ch = srv.channel(1);
        for words in planted {
            let flow = ch
                .receive_queue()
                .fifo()
                .try_enqueue_elem(ch.arena(), words, LOCK_BUDGET);
            assert_eq!(flow, EnqueueFlow::Queued, "{kind:?}");
        }
        let slot = srv.shard_members(0).iter().position(|&c| c == 1).unwrap();
        srv.waitset(0).notify(&hostile, slot);

        let worker = {
            let srv = Arc::clone(&srv);
            let os = os.task(0);
            std::thread::spawn(move || srv.run_worker(&os, 0, |m| m))
        };
        drive_clients(&srv, &os, 1, &[0], 20);
        let run = worker.join().expect("worker thread");

        assert_eq!(run.malformed, 2, "{kind:?}");
        assert_eq!(run.metrics.malformed_requests, 2, "{kind:?}");
        assert_eq!(run.processed, 21 + 2, "{kind:?}: honest + planted");
        assert_eq!((run.disconnects, run.reaped), (2, 0), "{kind:?}");
        let rq = ch.reply_queue(0);
        let echoed = rq.try_dequeue(&hostile).expect("unknown opcode echoed");
        assert_eq!(echoed.to_words(), unknown, "{kind:?}: bit for bit");
        assert_eq!(rq.try_dequeue(&hostile), Some(Message::disconnect(0)));
    }
}

/// Per-source failure handling: a client that dies mid-session — SIGKILL
/// style: its liveness word flips, nothing unwinds, no farewell — is
/// detected by the heartbeat scan, reaped, and its reply queue poisoned,
/// while every healthy member of the same shard finishes clean. The
/// resilient-server loop over a WaitSet, post-mortem included: the worker
/// cuts the flight-recorder dump at the death, with the victim's last
/// events in it.
#[test]
fn dead_source_is_reaped_and_survivors_finish() {
    const CLIENTS: usize = 4;
    const MONITOR: u32 = 1 + CLIENTS as u32;
    let cfg = ShardedConfig {
        heartbeat: Duration::from_millis(5),
        ..ShardedConfig::new(CLIENTS, 1)
    };
    let srv = Arc::new(ShardedServer::create(cfg).expect("topology"));
    let os = native_for(&srv);
    let tasks = 2 + CLIENTS;
    let arena = Arc::new(ShmArena::new(TelemetryPlane::bytes_needed(0, tasks, 64)).expect("arena"));
    let plane = TelemetryPlane::create_in(&arena, 0, tasks, 64).expect("flight plane");
    assert!(os.arm_flight(plane.flight().expect("flight rings")));

    let worker = {
        let (srv, os) = (Arc::clone(&srv), Arc::clone(&os));
        std::thread::spawn(move || {
            let mut task_names = vec![(0, "worker".to_string())];
            task_names.extend((0..CLIENTS as u32).map(|c| (1 + c, format!("client{c}"))));
            let obs = ServerObservability {
                flight: os.flight(),
                task_names,
                ..ServerObservability::none()
            };
            srv.run_worker_observed(&os.task(0), 0, obs, |m| m)
        })
    };

    // Client 0 talks, then "dies": its thread is gone and a monitor flips
    // its liveness word, without a disconnect.
    let dead: u32 = 0;
    {
        let (srv, os) = (Arc::clone(&srv), os.task(1 + dead));
        std::thread::spawn(move || {
            let victim = srv.client(&os, dead);
            for i in 0..5u64 {
                assert_eq!(victim.echo(i as f64), i as f64);
            }
        })
        .join()
        .expect("victim thread");
    }

    // Survivors run full sessions.
    let done = Arc::new(AtomicU64::new(0));
    let survivors: Vec<_> = (1..CLIENTS as u32)
        .map(|c| {
            let srv = Arc::clone(&srv);
            let os = os.task(1 + c);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let client = srv.client(&os, c);
                for i in 0..30u64 {
                    assert_eq!(client.echo(i as f64), i as f64);
                }
                client.disconnect();
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    srv.channel(dead)
        .reply_queue(0)
        .mark_consumer_dead(&os.task(MONITOR));
    for s in survivors {
        s.join().expect("survivor thread");
    }
    let (run, postmortem) = worker.join().expect("worker thread");

    assert_eq!(done.load(Ordering::SeqCst), (CLIENTS - 1) as u64);
    assert_eq!(run.reaped, 1, "exactly the dead client is reaped");
    assert_eq!(run.disconnects, (CLIENTS - 1) as u32);
    assert_eq!(run.processed, 5 + (CLIENTS as u64 - 1) * 31);
    assert_eq!((run.replies_dropped, run.malformed), (0, 0));
    assert!(srv.channel(dead).reply_queue(0).is_poisoned());
    for c in 1..CLIENTS as u32 {
        let ch = srv.channel(c);
        assert!(!ch.reply_queue(0).is_poisoned() && !ch.receive_queue().is_poisoned());
    }
    let reg = os.metrics().expect("metrics on");
    let server = reg.task_snapshot(0);
    assert!(
        server.peer_deaths_detected >= 1,
        "the scan must observe the death"
    );
    let clients = reg.aggregate(|t| t != 0);
    assert!(
        clients.doorbells_rung <= server.waitset_wakes + 1,
        "doorbell budget violated: {} rings for {} wakes",
        clients.doorbells_rung,
        server.waitset_wakes
    );

    let dump = postmortem.expect("a member's death must cut a flight-recorder dump");
    assert!(
        dump.starts_with("{\"traceEvents\":[") && dump.trim_end().ends_with('}'),
        "dump is a Chrome/Perfetto JSON object"
    );
    assert!(dump.contains("\"client0\""), "the victim is named");
    assert!(
        dump.matches("\"cat\":\"span\",\"ph\":\"B\"").count() > 0
            && dump.contains(&format!("\"pid\":0,\"tid\":{}}}", 1 + dead)),
        "the victim's own last round trips are in the dump"
    );
}

/// Four producers hammer a three-word WaitSet while one waiter sleeps on
/// the doorbell whenever it runs dry. Each "message" is a bump of its
/// source's counter followed by a `notify`; the waiter drains a claimed
/// source by swapping the counter out. The waiter only finishes once it
/// has collected every message, so a wake-up lost to the word-edge latch
/// skip — a notifier that stayed silent when nobody else had rung — would
/// leave it asleep with work pending and trip the wait's deadline.
#[test]
fn four_producers_one_waiter_lose_no_wakeup() {
    const SOURCES: usize = 130;
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: u64 = 50_000;

    let arena = ShmArena::new(WaitSetRoot::bytes_needed(SOURCES)).expect("arena");
    let root = WaitSetRoot::create_in(&arena, SOURCES, 0).expect("waitset");
    let mut cfg = NativeConfig::for_clients(0);
    cfg.n_sems = 1;
    let os = NativeOs::new(cfg);
    let queued: Vec<AtomicU64> = (0..SOURCES).map(|_| AtomicU64::new(0)).collect();
    let start = std::sync::Barrier::new(PRODUCERS + 1);

    let collected = std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let (arena, os, queued, start) = (&arena, &os, &queued, &start);
            s.spawn(move || {
                let ws = WaitSet::attach(arena, root);
                let task = os.task(1 + p as u32);
                // Every producer walks all three words, so neighbours in a
                // word race each other for its 0→non-zero edge.
                let mut source = p;
                start.wait();
                for _ in 0..PER_PRODUCER {
                    queued[source].fetch_add(1, Ordering::SeqCst);
                    ws.notify(&task, source);
                    source = (source + 7) % SOURCES;
                }
            });
        }
        let ws = WaitSet::attach(&arena, root);
        let task = os.task(0);
        let (mut cursor, mut collected) = (0usize, 0u64);
        start.wait();
        while collected < PRODUCERS as u64 * PER_PRODUCER {
            let source = ws
                .wait_deadline(&task, &mut cursor, Duration::from_secs(20))
                .expect("waiter slept through a pending notification");
            collected += queued[source].swap(0, Ordering::SeqCst);
        }
        collected
    });

    assert_eq!(collected, PRODUCERS as u64 * PER_PRODUCER);
    let reg = os.metrics().expect("metrics on");
    let producers = reg.aggregate(|id| id != 0);
    let waiter = reg.task_snapshot(0);
    assert_eq!(
        producers.doorbells_rung + producers.doorbells_coalesced,
        collected,
        "every notify either rang or coalesced"
    );
    assert!(
        producers.doorbells_rung <= waiter.waitset_wakes + 1,
        "doorbell budget: {} rung, {} wakes",
        producers.doorbells_rung,
        waiter.waitset_wakes
    );
}
