//! Isolated timings of single layers, each measured from outside through
//! the layer's `pub` functions on a pinned thread: the median over
//! [`BATCHES`] batches of the mean time per call within a batch.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usipc::metrics::{EndpointMetrics, ProtoEvent};
use usipc::trace::{TracePoint, TraceRing};
use usipc::waitset::{WaitSet, WaitSetRoot};
use usipc::{
    pin_to_cpu, set_sched_batch, Channel, ChannelConfig, CountingSem, Message, MetricsSnapshot,
    NativeConfig, NativeOs, OsServices, QueueKind, Role, TelemetryPlane,
};
use usipc_queue::{AnyShmFifo, EnqueueFlow, RingMode, LOCK_BUDGET};
use usipc_shm::{ShmArena, SlotPool};

const BATCHES: usize = 15;
/// Calls per batch for operations that take nanoseconds.
const CALLS: usize = 100_000;
/// Calls per batch for operations that take microseconds (a kernel wake,
/// the 25 µs poll pause): 15 x 100 000 of those would outlast the run.
const SLOW_CALLS: usize = 2_000;
/// The CPU single-thread timings run on (the generators' CPU).
const CPU: usize = 1;

/// Median over batches (after one discarded warm-up batch) of ns per call.
fn ns_per_call(calls: usize, mut op: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .skip(1)
        .collect();
    median(&per_call).expect("BATCHES > 0")
}

/// Two operations that undo each other (fill / drain), timed apart: each
/// batch alternates `group` calls of `a` with `group` calls of `b`.
fn ns_per_call_pair(
    group: usize,
    mut a: impl FnMut(usize),
    mut b: impl FnMut(usize),
) -> (f64, f64) {
    let (mut per_a, mut per_b) = (Vec::new(), Vec::new());
    for _ in 0..=BATCHES {
        let (mut in_a, mut in_b) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..CALLS / group {
            let t0 = Instant::now();
            (0..group).for_each(&mut a);
            let t1 = Instant::now();
            (0..group).for_each(&mut b);
            in_a += t1 - t0;
            in_b += t1.elapsed();
        }
        let calls = (CALLS / group * group) as f64;
        per_a.push(in_a.as_nanos() as f64 / calls);
        per_b.push(in_b.as_nanos() as f64 / calls);
    }
    (
        median(&per_a[1..]).expect("BATCHES > 0"),
        median(&per_b[1..]).expect("BATCHES > 0"),
    )
}

fn pin(cpu: usize) {
    pin_to_cpu(cpu).expect("`measure` found both CPUs pinnable");
}

/// `AnyShmFifo` enqueue + dequeue on one thread, ns per pair.
fn queue_pair_ns(kind: QueueKind, mode: RingMode) -> f64 {
    let arena = ShmArena::new(1 << 16).expect("arena");
    let q = AnyShmFifo::create(&arena, 64, kind, mode).expect("queue");
    let mut i = 0u64;
    ns_per_call(CALLS, || {
        i += 1;
        black_box(q.try_enqueue(&arena, black_box(i), LOCK_BUDGET));
        black_box(q.dequeue(&arena));
    })
}

/// Producer on CPU 0 → consumer on [`CPU`], million items per second.
fn queue_xthread_mops(kind: QueueKind, mode: RingMode) -> f64 {
    let arena = ShmArena::new(1 << 16).expect("arena");
    let q = AnyShmFifo::create(&arena, 64, kind, mode).expect("queue");
    let total = ((BATCHES + 1) * CALLS) as u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            pin(0);
            for i in 0..total {
                while q.try_enqueue(&arena, i, LOCK_BUDGET) != EnqueueFlow::Queued {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expect = 0u64;
        let mops: Vec<f64> = (0..=BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..CALLS {
                    let v = loop {
                        match q.dequeue(&arena) {
                            Some(v) => break v,
                            None => std::hint::spin_loop(),
                        }
                    };
                    assert_eq!(v, expect, "queue broke FIFO order");
                    expect += 1;
                }
                CALLS as f64 / t.elapsed().as_nanos() as f64 * 1e3
            })
            .skip(1)
            .collect();
        median(&mops).expect("BATCHES > 0")
    })
}

/// `FutexSem::v` on the waker → `p` returns on a waiter blocked in the
/// kernel, µs. `same_cpu` puts both on CPU 0 under `SCHED_BATCH` (the
/// uni regime: the wake includes the waker's own trip to sleep);
/// otherwise the waiter is on CPU 1.
fn sem_wake_us(same_cpu: bool) -> f64 {
    let (ping, pong) = (CountingSem::new(0), CountingSem::new(0));
    let sent_at = AtomicU64::new(0);
    let epoch = Instant::now();
    let now = || epoch.elapsed().as_nanos() as u64;
    let rounds = (BATCHES + 1) * SLOW_CALLS;
    let enter = |cpu: usize| {
        pin(cpu);
        if same_cpu {
            set_sched_batch().expect("set_sched_batch");
        }
    };
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            enter(if same_cpu { 0 } else { 1 });
            let mut lat = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                ping.p();
                lat.push((now() - sent_at.load(Ordering::Acquire)) as f64);
                pong.v();
            }
            lat
        });
        s.spawn(|| {
            enter(0);
            for _ in 0..rounds {
                // Only a waiter already asleep in the kernel gives a wake.
                while ping.waiting() == 0 {
                    std::thread::yield_now();
                }
                if !same_cpu {
                    // Registered is a few instructions short of asleep.
                    let t = now();
                    while now() < t + 5_000 {
                        std::hint::spin_loop();
                    }
                }
                sent_at.store(now(), Ordering::Release);
                ping.v();
                pong.p();
            }
        });
        let lat = waiter.join().expect("waiter");
        let per_batch: Vec<f64> = lat[SLOW_CALLS..]
            .chunks(SLOW_CALLS)
            .map(|b| b.iter().sum::<f64>() / b.len() as f64 / 1e3)
            .collect();
        median(&per_batch).expect("BATCHES > 0")
    })
}

fn channel_timings(out: &mut BTreeMap<&'static str, f64>) {
    let os = NativeOs::new(NativeConfig::for_clients(1));
    let task = os.task(1);
    let m = Message::echo(0, 1.5);
    for (kind, loopback) in [
        (QueueKind::TwoLock, "channel.loopback_rt.two_lock_ns"),
        (QueueKind::Ring, "channel.loopback_rt.ring_ns"),
    ] {
        let ch = Channel::create(&ChannelConfig::new(1).with_queue_kind(kind)).expect("channel");
        let (req, rep) = (ch.receive_queue(), ch.reply_queue(0));
        out.insert(
            loopback,
            ns_per_call(CALLS, || {
                black_box(req.try_enqueue(&task, black_box(m)));
                let got = req.try_dequeue(&task).expect("just enqueued");
                black_box(rep.try_enqueue(&task, got));
                black_box(rep.try_dequeue(&task));
            }),
        );
    }
    let ch = Channel::create(&ChannelConfig::new(1)).expect("channel");
    let q = ch.receive_queue();
    let (enq, deq) = ns_per_call_pair(
        32,
        |_| {
            black_box(q.try_enqueue(&task, black_box(m)));
        },
        |_| {
            black_box(q.try_dequeue(&task));
        },
    );
    out.insert("channel.try_enqueue_ns", enq);
    out.insert("channel.try_dequeue_ns", deq);
    out.insert(
        "channel.tas_awake_ns",
        ns_per_call(CALLS, || {
            black_box(q.tas_awake(&task));
        }),
    );
    // `awake` is set, so the wake-up check finds nobody to wake.
    out.insert(
        "channel.wake_noop_ns",
        ns_per_call(CALLS, || q.wake_consumer(&task)),
    );
}

fn waitset_timings(out: &mut BTreeMap<&'static str, f64>) {
    const SOURCES: usize = 64;
    let arena = ShmArena::new(WaitSetRoot::bytes_needed(SOURCES) + 4096).expect("arena");
    let root = WaitSetRoot::create_in(&arena, SOURCES, 0).expect("waitset");
    let ws = WaitSet::attach(&arena, root);
    let os = NativeOs::new(NativeConfig::for_clients(0));
    let task = os.task(0);
    // The first notify rings the doorbell; nobody waits, so the pending
    // latch stays held and no later notify reaches the semaphore.
    ws.notify(&task, 3);
    out.insert(
        "waitset.notify_coalesced_ns",
        ns_per_call(CALLS, || ws.notify(&task, black_box(3))),
    );
    let mut cursor = 0;
    assert_eq!(ws.poll(&mut cursor), Some(3));
    out.insert(
        "waitset.poll_miss_ns",
        ns_per_call(CALLS, || {
            black_box(ws.poll(&mut cursor));
        }),
    );
    let (notify, poll) = ns_per_call_pair(
        SOURCES,
        |source| ws.notify(&task, source),
        |_| {
            black_box(ws.poll(&mut cursor));
        },
    );
    out.insert("waitset.notify_ready_ns", notify);
    out.insert("waitset.poll_hit_ns", poll);
}

fn observability_timings(out: &mut BTreeMap<&'static str, f64>) {
    let sink = EndpointMetrics::new();
    out.insert(
        "metrics.record_ns",
        ns_per_call(CALLS, || sink.record(black_box(ProtoEvent::QueueOp))),
    );
    out.insert(
        "metrics.record_latency_ns",
        ns_per_call(CALLS, || sink.record_latency_nanos(black_box(4_321))),
    );
    let point = TracePoint::Proto(ProtoEvent::QueueOp);
    let ring = TraceRing::new(0, 4096);
    let mut ts = 0u64;
    out.insert(
        "trace.record_ns",
        ns_per_call(CALLS, || {
            ts += 1;
            ring.record(black_box(ts), black_box(point));
        }),
    );
    let bytes = TelemetryPlane::bytes_needed(1, 1, 4096) + 4096;
    let arena = Arc::new(ShmArena::new(bytes).expect("arena"));
    let plane = TelemetryPlane::create_in(&arena, 1, 1, 4096).expect("telemetry plane");
    let writer = plane.writer(0, 0, Role::Server);
    let snap = MetricsSnapshot::default();
    out.insert(
        "telemetry.publish_ns",
        ns_per_call(CALLS, || writer.publish(black_box(&snap))),
    );
    out.insert(
        "telemetry.record_latency_ns",
        ns_per_call(CALLS, || writer.record_latency_nanos(black_box(4_321))),
    );
    let flight = plane
        .flight()
        .and_then(|f| f.ring(0))
        .expect("flight ring 0");
    out.insert(
        "telemetry.flight_record_ns",
        ns_per_call(CALLS, || {
            ts += 1;
            flight.record(black_box(ts), black_box(point));
        }),
    );
}

/// Every isolated timing, by metric name. Needs CPUs 0 and 1.
pub fn measure() -> Result<BTreeMap<&'static str, f64>, String> {
    // Its own thread, so the pinning ends with the suite.
    std::thread::scope(|s| s.spawn(measure_pinned).join().expect("layer suite"))
}

fn measure_pinned() -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    // Built before pinning: 2 semaphores on 2 CPUs keep busy_wait a spin.
    let mp_os = NativeOs::new(NativeConfig::for_clients(1));
    if !mp_os.effective_multiprocessor() {
        return Err("regime: the traced pass needs 2 CPUs".into());
    }
    for cpu in [0, CPU] {
        pin_to_cpu(cpu).map_err(|e| format!("regime: pin_to_cpu({cpu}) failed: {e}"))?;
    }

    let arena = ShmArena::new(1 << 16).expect("arena");
    let word = arena.alloc(AtomicU64::new(7)).expect("alloc");
    out.insert(
        "shm.arena.get_ns",
        ns_per_call(CALLS, || {
            black_box(arena.get(black_box(word)).load(Ordering::Relaxed));
        }),
    );
    out.insert(
        "shm.arena.now_ns",
        ns_per_call(CALLS, || {
            black_box(arena.now_nanos());
        }),
    );
    let pool = SlotPool::create(&arena, 64, |_| AtomicU64::new(0)).expect("pool");
    out.insert(
        "shm.pool.alloc_free_ns",
        ns_per_call(CALLS, || {
            let slot = pool.alloc(&arena).expect("a free slot");
            pool.free(&arena, black_box(slot));
        }),
    );

    for (kind, mode, pair, xthread) in [
        (
            QueueKind::TwoLock,
            RingMode::Mpsc,
            "queue.two_lock.enq_deq_ns",
            Some("queue.two_lock.xthread_mops"),
        ),
        (
            QueueKind::Ring,
            RingMode::Spsc,
            "queue.ring_spsc.enq_deq_ns",
            Some("queue.ring_spsc.xthread_mops"),
        ),
        (
            QueueKind::Ring,
            RingMode::Mpsc,
            "queue.ring_mpsc.enq_deq_ns",
            None,
        ),
    ] {
        out.insert(pair, queue_pair_ns(kind, mode));
        if let Some(name) = xthread {
            out.insert(name, queue_xthread_mops(kind, mode));
        }
    }

    let sem = CountingSem::new(0);
    out.insert(
        "sem.v_p_fast_ns",
        ns_per_call(CALLS, || {
            sem.v();
            sem.p();
        }),
    );
    // The same pair through the deadline path, its credit already banked.
    out.insert(
        "sem.p_timeout_fast_ns",
        ns_per_call(CALLS, || {
            sem.v();
            black_box(sem.p_timeout(Duration::from_secs(1)));
        }),
    );
    out.insert("sem.wake_uni_us", sem_wake_us(true));
    out.insert("sem.wake_mp_us", sem_wake_us(false));

    channel_timings(&mut out);
    waitset_timings(&mut out);
    observability_timings(&mut out);

    let task = mp_os.task(0);
    out.insert(
        "native.busy_wait_mp_us",
        ns_per_call(SLOW_CALLS / 4, || task.busy_wait()) / 1e3,
    );
    out.insert("native.yield_ns", ns_per_call(CALLS, || task.yield_now()));
    out.insert(
        "native.now_pair_ns",
        ns_per_call(CALLS, || {
            black_box(task.now_nanos());
            black_box(task.now_nanos());
        }),
    );
    Ok(out)
}
