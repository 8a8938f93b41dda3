//! Real cross-process IPC tests: forked children over a memfd arena.
//!
//! Everything lives in ONE `#[test]` function on purpose. `cargo test`
//! runs `#[test]`s on worker threads, and `fork()` from a multithreaded
//! process reproduces only the calling thread — another test thread
//! holding the allocator lock at fork time would deadlock the child.
//! A single test keeps the process effectively single-threaded (besides
//! short-lived server threads that are joined inside each scenario
//! before the next fork).

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use std::sync::Arc;
use std::time::{Duration, Instant};
use usipc::waitset::{WaitSet, WaitSetRoot};
use usipc::{
    ChildProc, CountingSem, ExitStatus, IpcError, NativeConfig, NativeOs, QueueKind, WaitStrategy,
};
use usipc_lab::{ProcExperiment, ProcTakeoverResult};
use usipc_queue::{RingMode, RingReclaim, ShmQueue, ShmRing};
use usipc_shm::{ShmArena, ShmPtr, ShmSlice};

const MSGS: u64 = 200;

/// Forked two-process echo for every protocol, credit conservation
/// across address spaces, the pidfd death drill, and the queue
/// kill-at-every-site sweeps — sequentially.
#[test]
fn cross_process_protocols_and_faults() {
    segment_clock_agrees_across_fork();
    two_process_echo_per_protocol();
    bsw_is_exactly_four_sem_ops_per_rt_uniprocessor();
    shared_futex_credits_conserve_across_fork();
    shared_futex_timeout_expiry_loses_no_credit_across_fork();
    shared_futex_v_racing_timeout_across_fork();
    waitset_learns_the_wake_cost_across_fork();
    ring_fifo_contract_across_fork();
    two_lock_producer_kill_sweep();
    ring_producer_kill_sweep();
    killed_child_is_detected_reaped_and_poisoned();
    takeover_drill_two_lock();
    takeover_drill_ring();
    takeover_bsw_is_exactly_four_sem_ops_pinned();
    storm_mass_client_death_is_reaped_and_poisoned();
    storm_with_server_kill_takes_over_and_reaps();
    relay_takeover_survives_a_killed_recoverer();
}

/// `ShmArena::now_nanos` is served from a per-process anchor instead of a
/// syscall per read; the axis must still be the segment's. A child stamps
/// the segment clock through its own mapping, and the stamp has to fall
/// between two parent readings that bracket the child's whole life — an
/// axis private to either process (or an anchor lost in the fork) would
/// put it outside.
fn segment_clock_agrees_across_fork() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let arena = Arc::new(ShmArena::new_memfd(4096).expect("arena"));
    let cell = arena.alloc(AtomicU64::new(0)).expect("cell fits");
    arena.publish_root(cell);
    let fd = arena.backing_fd().expect("memfd");

    let before = arena.now_nanos();
    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => a,
            Err(_) => return 2,
        };
        let cell = match arena.root::<AtomicU64>() {
            Some(p) => p,
            None => return 3,
        };
        // `max(1)`: 0 means "never stamped" to the parent.
        arena
            .get(cell)
            .store(arena.now_nanos().max(1), Ordering::Release);
        0
    })
    .expect("fork");
    assert!(child.wait().expect("reap").success());
    let after = arena.now_nanos();

    let stamped = arena.get(cell).load(Ordering::Acquire);
    assert!(
        before <= stamped && stamped <= after,
        "child stamped {stamped} outside the parent's bracket [{before}, {after}]"
    );
}

/// The paper's five wait strategies, each over a real fork: parent
/// server, forked child client, memfd segment. Every run must complete,
/// ship its samples home through the segment, and — for the blocking
/// protocols — conserve wake-up credits exactly across the address-space
/// split: every `V` one side issues is consumed by exactly one `P` on the
/// other (`server.sem_p == client.sem_v` and vice versa), and the total
/// never exceeds BSW's 4-per-round-trip ceiling.
fn two_process_echo_per_protocol() {
    let strategies = [
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 50 },
        WaitStrategy::HandoffBswy,
    ];
    for strategy in strategies {
        let run = ProcExperiment::new(strategy)
            .clients(1)
            .messages(MSGS)
            .run();
        assert_eq!(run.messages, MSGS, "{strategy:?}");
        assert!(
            run.exits.iter().all(|e| e.success()),
            "{strategy:?}: {:?}",
            run.exits
        );
        assert_eq!(run.server_run.disconnects, 1, "{strategy:?}");
        // The sketch came back through the shared segment: one sample per
        // message, a plausible round trip (nonzero) on average.
        assert_eq!(run.client_latency.count, run.messages, "{strategy:?}");
        assert!(
            run.client_latency.mean_us() > 0.0,
            "{strategy:?}: zero-length round trips recorded"
        );

        // Credit conservation across the fork: a `P` on one side pairs
        // with a `V` on the other, no credits invented or lost.
        assert_eq!(
            run.server_metrics.sem_p, run.client_metrics.sem_v,
            "{strategy:?}: server sleeps must pair with client wake-ups"
        );
        assert_eq!(
            run.server_metrics.sem_v, run.client_metrics.sem_p,
            "{strategy:?}: client sleeps must pair with server wake-ups"
        );
        let total_sem_ops = run.server_metrics.sem_ops() + run.client_metrics.sem_ops();
        let rt = run.messages + 1; // the disconnect handshake round-trips too
        assert!(
            total_sem_ops <= 4 * rt,
            "{strategy:?}: {total_sem_ops} sem ops exceeds the BSW ceiling of {}",
            4 * rt
        );
        if strategy == WaitStrategy::Bss {
            assert_eq!(total_sem_ops, 0, "BSS never touches a semaphore");
        }
    }

    // Multi-client sanity: three children share the segment and the
    // server; everyone completes and every sample comes home.
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(3)
        .messages(MSGS)
        .run();
    assert_eq!(run.messages, 3 * MSGS);
    assert_eq!(run.server_run.disconnects, 3);
    assert_eq!(run.client_latency.count, run.messages);
    assert!(run.client_latency.mean_us() > 0.0);
}

/// The Fig. 6 accounting, *metrics-pinned*: under the paper's
/// uniprocessor regime (everyone pinned to one CPU, `SCHED_BATCH` so
/// wake-ups don't preempt the waker before it sleeps), each BSW round
/// trip costs exactly 4 semaphore ops — client `V`+`P`, server `P`+`V` —
/// counted across two address spaces. A scheduler tick landing in the
/// few-instruction window between a wake-up and the waker's own sleep
/// can legitimately elide one `P`/`V` pair, so the run retries a few
/// times for the bit-exact schedule and always enforces the ceiling and
/// a near-exact floor.
fn bsw_is_exactly_four_sem_ops_per_rt_uniprocessor() {
    let mut best = 0u64;
    let rt = MSGS + 1;
    for attempt in 0..5 {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(1)
            .messages(MSGS)
            .pinned(0)
            .run();
        let total = run.server_metrics.sem_ops() + run.client_metrics.sem_ops();
        assert!(
            total <= 4 * rt,
            "attempt {attempt}: {total} sem ops exceeds 4/RT — a credit leaked"
        );
        assert!(
            total >= 4 * rt - 8,
            "attempt {attempt}: {total} sem ops is far below 4/RT — pinning broke"
        );
        best = best.max(total);
        if best == 4 * rt {
            return;
        }
    }
    assert_eq!(
        best,
        4 * rt,
        "BSW never hit exactly 4 sem ops per round trip in 5 pinned runs"
    );
}

/// A shared-futex semaphore in a memfd segment conserves credits across
/// a fork: every V the child issues is consumed by exactly one P in the
/// parent, and the final count is Vs minus Ps.
fn shared_futex_credits_conserve_across_fork() {
    const CREDITS: u64 = 10_000;
    let arena = Arc::new(ShmArena::new_memfd(4096).expect("arena"));
    let sem = arena.alloc(CountingSem::new_shared(0)).expect("sem fits");
    arena.publish_root(sem);
    let fd = arena.backing_fd().expect("memfd");

    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => a,
            Err(_) => return 2,
        };
        let sem = match arena.root::<CountingSem>() {
            Some(p) => p,
            None => return 3,
        };
        let sem = arena.get(sem);
        for _ in 0..CREDITS {
            sem.v();
        }
        0
    })
    .expect("fork");

    let sem = arena.get(arena.root::<CountingSem>().unwrap());
    // Take all but one credit; each P must pair with a child V — if the
    // futex were keyed per-process this would hang (and the watchdogless
    // p_timeout would fail the test).
    for i in 0..CREDITS - 1 {
        assert!(
            sem.p_timeout(Duration::from_secs(10)),
            "credit {i} never arrived across the fork"
        );
    }
    assert!(child.wait().expect("reap").success());
    assert_eq!(sem.count(), 1, "Vs minus Ps must remain");
    assert!(sem.max_count() as u64 <= CREDITS);
}

/// The `p_timeout` no-credit-lost contract, across a fork: a parent `P`
/// that expires *before* the child's `V` lands must return `false` and
/// consume nothing — the late credit stays banked and the very next `P`
/// takes it without sleeping. This is the deadline path the fault layer
/// runs on; the single-process half of the contract lives in the
/// `sem_contract_tests!` suite (`futex_shared` instantiation).
fn shared_futex_timeout_expiry_loses_no_credit_across_fork() {
    let arena = Arc::new(ShmArena::new_memfd(4096).expect("arena"));
    let sem = arena.alloc(CountingSem::new_shared(0)).expect("sem fits");
    arena.publish_root(sem);
    let fd = arena.backing_fd().expect("memfd");

    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => a,
            Err(_) => return 2,
        };
        let sem = match arena.root::<CountingSem>() {
            Some(p) => p,
            None => return 3,
        };
        // Land the V well after the parent's 5 ms deadline has expired.
        std::thread::sleep(Duration::from_millis(80));
        arena.get(sem).v();
        0
    })
    .expect("fork");

    let sem = arena.get(arena.root::<CountingSem>().unwrap());
    assert!(
        !sem.p_timeout(Duration::from_millis(5)),
        "no credit yet: the deadline must expire"
    );
    // The child's late V must be fully intact — the expired P took nothing.
    assert!(
        sem.p_timeout(Duration::from_secs(10)),
        "the late credit never arrived across the fork"
    );
    assert_eq!(
        sem.count(),
        0,
        "exactly one credit existed and one P took it"
    );
    assert!(child.wait().expect("reap").success());
}

/// `V` racing `p_timeout` across the address-space split: the child fires
/// credits at its own pace while the parent spins tiny deadlines at it.
/// Whatever interleaving the two schedulers produce, every credit is
/// consumed by exactly one successful `P` — expiries take nothing, and
/// after the last win one more timed `P` must come up empty.
fn shared_futex_v_racing_timeout_across_fork() {
    const CREDITS: u64 = 500;
    let arena = Arc::new(ShmArena::new_memfd(4096).expect("arena"));
    let sem = arena.alloc(CountingSem::new_shared(0)).expect("sem fits");
    arena.publish_root(sem);
    let fd = arena.backing_fd().expect("memfd");

    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => a,
            Err(_) => return 2,
        };
        let sem = match arena.root::<CountingSem>() {
            Some(p) => p,
            None => return 3,
        };
        let sem = arena.get(sem);
        for i in 0..CREDITS {
            sem.v();
            // Jitter the landing offset so expiries and wins interleave.
            for _ in 0..(i % 64) {
                core::hint::spin_loop();
            }
        }
        0
    })
    .expect("fork");

    let sem = arena.get(arena.root::<CountingSem>().unwrap());
    let (mut wins, mut expiries) = (0u64, 0u64);
    let t0 = std::time::Instant::now();
    while wins < CREDITS {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "credits stopped flowing: {wins} wins / {expiries} expiries"
        );
        if sem.p_timeout(Duration::from_micros(wins % 53)) {
            wins += 1;
        } else {
            expiries += 1;
        }
    }
    assert!(
        !sem.p_timeout(Duration::from_millis(5)),
        "a timed-out P minted a credit: more Ps succeeded than Vs issued"
    );
    assert_eq!(sem.count(), 0);
    assert!(child.wait().expect("reap").success());
}

/// What a forked notifier needs to ring the parent's WaitSet.
#[repr(C)]
struct WakeRoot {
    sems: ShmSlice<CountingSem>,
    waitset: ShmPtr<WaitSetRoot>,
    /// Waits the parent has returned from.
    served: std::sync::atomic::AtomicU32,
}

// SAFETY: two arena handles, plain words; no host pointers.
unsafe impl usipc_shm::ShmSafe for WakeRoot {}

/// One clock axis across a fork: a child pinned to CPU 1 rings a WaitSet
/// in a memfd arena, each time after its waiter — the parent, pinned to
/// CPU 0 — has gone to sleep on the process-shared doorbell; every ring is
/// stamped in the child and learned from in the parent. On the shared
/// `monotonic_nanos` axis the learned spin budget is a real cross-CPU wake
/// cost, in (0, 25 µs]; a per-process epoch would make the samples
/// garbage. (The pinned BSW floor above is the test for the other half of
/// the rule: a ring from the waiter's own CPU teaches no spin.) Skipped
/// when CPU 0 or 1 refuses the pin: floating, the two may share a CPU.
fn waitset_learns_the_wake_cost_across_fork() {
    use std::sync::atomic::Ordering;
    /// The child's exit code when CPU 1 refused it.
    const CHILD_UNPINNED: i32 = 4;
    const WAKES: u32 = 50;
    if usipc::proc::cpus_allowed().unwrap_or(1) < 2 {
        eprintln!("skipped the cross-fork wake-cost case: needs two CPUs");
        return;
    }
    let arena = Arc::new(ShmArena::new_memfd(1 << 16).expect("arena"));
    let mut cfg = NativeConfig::for_clients(0);
    (cfg.n_sems, cfg.n_msgqs) = (1, 0);
    let (os, sems) = NativeOs::new_shared(cfg.clone(), Arc::clone(&arena)).expect("sems");
    let waitset = WaitSetRoot::create_in(&arena, 1, 0).expect("waitset");
    let served = std::sync::atomic::AtomicU32::new(0);
    let root = arena
        .alloc(WakeRoot {
            sems,
            waitset,
            served,
        })
        .expect("root fits");
    arena.publish_root(root);
    let fd = arena.backing_fd().expect("memfd");

    let child = ChildProc::spawn(move || {
        let Ok(arena) = ShmArena::attach_memfd(fd) else {
            return 2;
        };
        let arena = Arc::new(arena);
        let Some(root) = arena.root::<WakeRoot>() else {
            return 3;
        };
        let root = arena.get(root);
        let os = NativeOs::attach_shared(cfg, Arc::clone(&arena), root.sems);
        let ws = WaitSet::attach(&arena, root.waitset);
        let t = os.task(1);
        // Unpinned, still ring every wake, so the parent can finish.
        let pinned = usipc::pin_to_cpu(1).is_ok();
        for i in 0..WAKES {
            // Registered after its last wait returned means past its next
            // `P`'s first attempt; 5 µs on, the parent is asleep in the
            // kernel, and this ring still comes within the 25 µs of its spin
            // in which one could have caught it.
            while root.served.load(Ordering::Acquire) != i || os.sem(0).waiting() == 0 {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_micros(5) {
                core::hint::spin_loop();
            }
            ws.notify(&t, 0);
        }
        if pinned {
            0
        } else {
            CHILD_UNPINNED
        }
    })
    .expect("fork");

    // Pin a thread, not the test's own: later cases fork from it unpinned.
    let ws = WaitSet::attach(&arena, waitset);
    let served = &arena.get(root).served;
    let (pinned, budget) = std::thread::scope(|s| {
        s.spawn(|| {
            let pinned = usipc::pin_to_cpu(0).is_ok();
            let t = os.task(0);
            for i in 0..WAKES {
                assert_eq!(
                    ws.wait_deadline(&t, &mut 0, Duration::from_secs(10)),
                    Ok(0),
                    "ring {i} never arrived across the fork"
                );
                served.fetch_add(1, Ordering::Release);
            }
            (pinned, ws.spin_budget_nanos())
        })
        .join()
        .unwrap()
    });
    let status = child.wait().expect("reap");
    if !pinned || status == ExitStatus::Exited(CHILD_UNPINNED) {
        eprintln!("skipped the cross-fork wake-cost check: CPU 0 or 1 refused the pin");
        return;
    }
    assert!(status.success(), "child: {status:?}");
    eprintln!("cross-fork wake cost learned from {WAKES} rings: {budget} ns");
    assert!(
        (1..=25_000).contains(&budget),
        "spin budget {budget} ns outside (0, 25 µs]"
    );
}

/// SIGKILL a child mid-barrage: the pidfd reports the death, the parent
/// feeds it into the failure model, the resilient server reaps the
/// victim and poisons its reply queue, and the survivors finish clean.
fn killed_child_is_detected_reaped_and_poisoned() {
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(3)
        .messages(MSGS)
        .heartbeat(Duration::from_millis(5))
        .run_kill();
    assert_eq!(run.victim_exit, ExitStatus::Signaled(9));
    assert!(
        run.victim_progress >= 50,
        "kill must land mid-conversation, got {} round trips",
        run.victim_progress
    );
    assert_eq!(run.server_run.reaped, 1, "exactly the victim is reaped");
    assert_eq!(run.server_run.disconnects, 2, "both survivors disconnect");
    assert!(
        run.server_metrics.peer_deaths_detected >= 1,
        "the heartbeat scan must observe the death"
    );
    assert!(run.victim_reply_poisoned, "victim's reply queue poisoned");
    assert!(run.survivor_exits.iter().all(|e| e.success()));

    // The flight recorder armed for the drill must have produced a
    // postmortem at the moment the death was detected: Perfetto JSON,
    // span-balanced, naming the victim, and — the point of the whole
    // exercise — carrying the victim's final events read back out of
    // the shared segment after the SIGKILL.
    let dump = run
        .flight_dump
        .as_deref()
        .expect("peer death must trigger a flight-recorder dump");
    assert!(
        dump.starts_with("{\"traceEvents\":[") && dump.trim_end().ends_with('}'),
        "dump is a Chrome/Perfetto JSON object"
    );
    assert!(
        dump.contains("\"client0\""),
        "the victim appears in the dump's thread names"
    );
    let begins = dump.matches("\"ph\":\"B\"").count();
    let ends = dump.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends, "every span Begin pairs with an End");
    assert!(begins > 0, "the dump is not empty of spans");
    assert!(
        dump.matches("\"pid\":0,\"tid\":1}").count() > 0,
        "the victim's own final spans survived the SIGKILL in shared memory"
    );

    // The telemetry plane rode the same segment: the server's slot must
    // hold a final published snapshot whose progress gauge matches the
    // requests it actually served.
    let readings = run.telemetry.expect("kill drill runs with telemetry on");
    let server_slot = readings
        .iter()
        .find(|r| r.task_id == 0)
        .expect("server telemetry slot published");
    assert_eq!(server_slot.progress, run.server_run.processed);
    assert!(server_slot.snapshot.requests_served > 0);
}

/// Queue element for `i`: three words that only belong together, so a
/// message torn or mixed up on its way through shared memory fails [`unw`].
fn w(i: u64) -> [u64; 3] {
    [i, !i, i.rotate_left(17)]
}

/// The `i` of an element, checked to be exactly `w(i)`.
fn unw(e: [u64; 3]) -> u64 {
    assert_eq!(e, w(e[0]), "torn element");
    e[0]
}

/// The FIFO contract suite on the arena rings, across a real fork:
/// order, credit (value) conservation, and observed-nonempty-is-
/// dequeueable, all over a memfd segment the child attaches blind.
/// SPSC leg first (forked producer, parent consumer, strict global
/// order), then MPSC (two forked producers, per-producer order and
/// exact conservation).
fn ring_fifo_contract_across_fork() {
    // SPSC: the child streams 0..N in order through a 128-slot ring.
    const N: u64 = 20_000;
    let arena = Arc::new(ShmArena::new_memfd(ShmRing::bytes_needed(128) + 4096).expect("arena"));
    let ring = ShmRing::create(&arena, 128, RingMode::Spsc).expect("ring fits");
    let ptr = arena.alloc(ring).expect("handle fits");
    arena.publish_root(ptr);
    let fd = arena.backing_fd().expect("memfd");
    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => a,
            Err(_) => return 2,
        };
        let ring = match arena.root::<ShmRing>() {
            Some(p) => *arena.get(p),
            None => return 3,
        };
        for i in 0..N {
            while !ring.enqueue(&arena, w(i)) {
                std::thread::yield_now(); // flow control, the sleep(1) analogue
            }
        }
        0
    })
    .expect("fork");

    let mut expect = 0u64;
    let t0 = Instant::now();
    while expect < N {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "ring stalled at element {expect}"
        );
        if ring.is_empty(&arena) {
            std::thread::yield_now();
            continue;
        }
        // Observed-nonempty-is-dequeueable: `is_empty` keys on the head
        // slot's *published* sequence, so a nonempty observation commits
        // the ring to yielding a value to this (sole) consumer.
        let v = ring
            .dequeue(&arena)
            .expect("nonempty observation must be dequeueable");
        assert_eq!(unw(v), expect, "FIFO order broken across the fork");
        expect += 1;
    }
    assert_eq!(ring.dequeue(&arena), None, "exactly N values crossed");
    assert!(child.wait().expect("reap").success());

    // MPSC: two forked producers race tagged values through a 64-slot
    // ring; the parent consumer checks conservation and per-producer
    // order (the linearizable-FIFO witness the in-process explorer pins
    // exhaustively, here under real scheduler interleavings).
    const PER: u64 = 10_000;
    let arena = Arc::new(ShmArena::new_memfd(ShmRing::bytes_needed(64) + 4096).expect("arena"));
    let ring = ShmRing::create(&arena, 64, RingMode::Mpsc).expect("ring fits");
    let ptr = arena.alloc(ring).expect("handle fits");
    arena.publish_root(ptr);
    let fd = arena.backing_fd().expect("memfd");
    let children: Vec<ChildProc> = (0..2u64)
        .map(|p| {
            ChildProc::spawn(move || {
                let arena = match ShmArena::attach_memfd(fd) {
                    Ok(a) => a,
                    Err(_) => return 2,
                };
                let ring = match arena.root::<ShmRing>() {
                    Some(ptr) => *arena.get(ptr),
                    None => return 3,
                };
                for i in 0..PER {
                    while !ring.enqueue(&arena, w((p << 32) | i)) {
                        std::thread::yield_now();
                    }
                }
                0
            })
            .expect("fork producer")
        })
        .collect();

    let mut next = [0u64; 2];
    let mut taken = 0u64;
    let t0 = Instant::now();
    while taken < 2 * PER {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "MPSC ring stalled after {taken} elements"
        );
        match ring.dequeue(&arena) {
            Some(v) => {
                let v = unw(v);
                let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                assert!(p < 2, "corrupt tag {v:#x}");
                assert_eq!(i, next[p], "producer {p}'s stream reordered");
                next[p] += 1;
                taken += 1;
            }
            None => std::thread::yield_now(),
        }
    }
    assert_eq!(
        ring.dequeue(&arena),
        None,
        "conservation: 2·PER and no more"
    );
    for c in children {
        assert!(c.wait().expect("reap").success());
    }
}

/// Builds a memfd world of one queue handle plus a ready-semaphore, runs
/// `body` in a forked child (which signals readiness and then parks),
/// SIGKILLs the child, and hands the queue back to the caller's
/// survivor-side assertions. The park guarantees the kill lands while
/// the abandoned state — not the child's exit path — owns the segment.
fn kill_mid_operation<Q: Copy + usipc_shm::ShmSafe>(
    arena: &Arc<ShmArena>,
    q: Q,
    body: impl FnOnce(Arc<ShmArena>, Q) + Send + 'static,
) {
    #[repr(C)]
    struct KillRoot<Q> {
        q: Q,
        ready: CountingSem,
    }
    // SAFETY: Q is ShmSafe by bound; CountingSem is the shared-futex
    // primitive designed for the segment. repr(C), no host pointers.
    unsafe impl<Q: Copy + usipc_shm::ShmSafe> usipc_shm::ShmSafe for KillRoot<Q> {}

    let root = arena
        .alloc(KillRoot {
            q,
            ready: CountingSem::new_shared(0),
        })
        .expect("root fits");
    arena.publish_root(root);
    let fd = arena.backing_fd().expect("memfd");
    let child = ChildProc::spawn(move || {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return 2,
        };
        let root = match arena.root::<KillRoot<Q>>() {
            Some(p) => p,
            None => return 3,
        };
        let q = arena.get(root).q;
        body(Arc::clone(&arena), q);
        arena.get(root).ready.v();
        loop {
            std::thread::sleep(Duration::from_millis(50)); // park for the SIGKILL
        }
    })
    .expect("fork victim");
    let ready = &arena.get(root).ready;
    assert!(
        ready.p_timeout(Duration::from_secs(10)),
        "victim never reached its abandonment point"
    );
    child.kill();
    assert!(
        child.dead_within(Duration::from_secs(10)),
        "SIGKILL did not land"
    );
    let _ = child.wait();
}

/// The two-lock half of the acceptance drill: SIGKILL a producer at
/// every micro-step of `ShmQueue::enqueue` (pool slot allocated; + tail
/// lock seized; + node linked; + tail advanced) and assert every
/// survivor path *degrades to flow control* — `enqueue_bounded` returns
/// `TailLockBusy` within its budget instead of spinning forever, and the
/// head side keeps working.
fn two_lock_producer_kill_sweep() {
    for steps in 1..=4u32 {
        let arena = Arc::new(ShmArena::new_memfd(ShmQueue::bytes_needed(8) + 4096).expect("arena"));
        let q = ShmQueue::create(&arena, 8).expect("queue fits");
        assert!(q.enqueue(&arena, w(100)), "pre-kill element");
        kill_mid_operation(&arena, q, move |arena, q| {
            q.enqueue_abandoned_at(&arena, w(7), steps);
        });

        // Survivor producer: bounded, never wedged. Steps ≥ 2 leave the
        // corpse's tail lock held forever, so the *only* acceptable
        // outcome is the TailLockBusy give-up; step 1 died before the
        // lock, so the enqueue must simply succeed.
        let t0 = Instant::now();
        let r = q.enqueue_bounded(&arena, w(200), 32);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "step {steps}: enqueue_bounded blew its budget"
        );
        if steps == 1 {
            assert_eq!(r, Ok(true), "step {steps}: lock was never taken");
        } else {
            assert!(r.is_err(), "step {steps}: abandoned tail lock must surface");
        }

        // Survivor consumer: the head lock was never the victim's, so
        // dequeues proceed; the pre-kill element always comes out.
        assert_eq!(
            q.dequeue_bounded(&arena, 32),
            Ok(Some(w(100))),
            "step {steps}: head side must keep draining"
        );
    }
}

/// The ring half of the acceptance drill: SIGKILL a producer after each
/// of its three micro-steps (1 = ticket claimed; 2 = + the element's words
/// stored in the slot; 3 = + published) and assert survivors make
/// progress with zero spinning — enqueues land in later slots
/// immediately, and the consumer either drains past the corpse's
/// published element or reclaims its hole via `reclaim_stuck`. Words
/// stored and never published (step 2) are as invisible as no words at
/// all. This is the structural fix: there is no lock to abandon.
fn ring_producer_kill_sweep() {
    for steps in 1..=3u32 {
        let published = steps == 3;
        let arena = Arc::new(ShmArena::new_memfd(ShmRing::bytes_needed(8) + 4096).expect("arena"));
        let ring = ShmRing::create(&arena, 8, RingMode::Mpsc).expect("ring fits");
        kill_mid_operation(&arena, ring, move |arena, ring| {
            let pos = ring
                .step_enqueue_claim(&arena)
                .expect("empty ring has room");
            if steps == 2 {
                ring.step_enqueue_store(&arena, pos, w(7));
            } else if published {
                assert!(ring.step_enqueue_publish(&arena, pos, w(7)));
            }
        });

        // Survivor producers: every try_push is one CAS attempt — success
        // or flow control, never a spin on the corpse's state.
        for v in 0..5u64 {
            assert!(
                ring.enqueue(&arena, w(10 + v)),
                "survivor enqueue {v} (step {steps})"
            );
        }

        let mut got = Vec::new();
        if published {
            // The victim completed its enqueue; its value leads the FIFO.
            while let Some(v) = ring.dequeue(&arena) {
                got.push(unw(v));
            }
            assert_eq!(got, [7, 10, 11, 12, 13, 14], "step {steps}");
        } else {
            // The victim left a hole at the head: consumers read "empty"
            // (and would sleep — no lost wakeup, no spin), the reclaimer
            // detects the dead ticket and skips it, and everything behind
            // it drains in order.
            assert_eq!(ring.dequeue(&arena), None, "hole reads as empty");
            assert!(ring.len(&arena) > 0, "but elements are queued behind it");
            assert_eq!(
                ring.reclaim_stuck(&arena),
                RingReclaim::Leaked,
                "the corpse's unpublished ticket is a leak, not a value"
            );
            while let Some(v) = ring.dequeue(&arena) {
                got.push(unw(v));
            }
            assert_eq!(got, [10, 11, 12, 13, 14], "step {steps}");
        }
        assert!(ring.is_empty(&arena), "fully drained");
    }
}

/// The shared verdict for one takeover drill run: the doomed server died
/// by its own SIGKILL mid-handler, the successor bumped the generation
/// and balanced the conservation ledger with exactly one dropped request
/// (the one the corpse had in hand), every client finished its full
/// barrage (the dropped request via a DROPPED-notice retry), a handle
/// stamped under the dead generation failed fast instead of hanging, and
/// the successor's run covered exactly the traffic the corpse didn't.
fn check_takeover(run: &ProcTakeoverResult, site: u64, n: u64, active: u64) {
    let what = format!("site {site}, {n} clients ({active} at kill time)");
    assert_eq!(
        run.server_exit,
        ExitStatus::Signaled(9),
        "{what}: doomed server must die by its own SIGKILL"
    );
    assert_eq!(run.takeover.old_generation, 1, "{what}");
    assert_eq!(run.takeover.generation, 2, "{what}");
    let ledger = &run.takeover.report.ledger;
    assert!(ledger.balanced(), "{what}: unbalanced ledger {ledger:?}");
    assert_eq!(
        ledger.drop_notices, 1,
        "{what}: a mid-handler kill drops exactly the request in hand: {ledger:?}"
    );
    assert_eq!(ledger.unresolved, 0, "{what}: {ledger:?}");
    // At quiescence every client active at kill time is parked
    // in-flight: all but one with their next request still committed in
    // the receive queue, one in the dropped window. No server death can
    // land mid-`reply`, so no client is ever resolved by a committed
    // reply here. (A late prober hasn't started and counts in neither.)
    assert_eq!(u64::from(ledger.in_flight), active, "{what}: {ledger:?}");
    assert_eq!(
        u64::from(ledger.served_by_request),
        active - 1,
        "{what}: {ledger:?}"
    );
    assert_eq!(ledger.served_by_reply, 0, "{what}: {ledger:?}");
    assert_eq!(
        run.drop_retries.iter().sum::<u64>(),
        1,
        "{what}: exactly one client re-issues after a DROPPED notice: {:?}",
        run.drop_retries
    );
    assert!(
        matches!(run.stale_probe, Err(IpcError::StaleGeneration)),
        "{what}: a dead-generation handle must fail fast, got {:?}",
        run.stale_probe
    );
    assert_eq!(run.server_run.disconnects as u64, n, "{what}");
    // The corpse served `site` echoes; the successor serves the rest of
    // the barrage (including the re-issued dropped request) plus the
    // disconnects.
    assert_eq!(
        run.server_run.processed,
        n * MSGS - site + n,
        "{what}: successor served the wrong share ({:?})",
        run.server_run
    );
    assert!(
        run.recovery < Duration::from_secs(5),
        "{what}: recovery took {:?}",
        run.recovery
    );
}

/// The takeover drill over the two-lock queue at three kill sites:
/// first request in hand (nothing yet served), mid-barrage, and deep in
/// the barrage. Three clients, so the fsck sees committed requests from
/// the survivors alongside the dropped window.
fn takeover_drill_two_lock() {
    for site in [0u64, 7, 23] {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(3)
            .messages(MSGS)
            .kill_site(site)
            .queue(QueueKind::TwoLock)
            .run_takeover();
        check_takeover(&run, site, 3, 3);
    }
}

/// The same drill over the lock-free ring — the fsck path with hole
/// retirement instead of lock breaking.
fn takeover_drill_ring() {
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(3)
        .messages(MSGS)
        .kill_site(7)
        .queue(QueueKind::Ring)
        .run_takeover();
    check_takeover(&run, 7, 3, 3);
}

/// The paper's Fig. 6 accounting must survive a takeover: after the
/// doomed server dies and the successor fscks and resumes, a *late
/// prober* client (released only once the takeover completed and the
/// other client drained) runs its whole barrage in lockstep BSW against
/// the successor — and still costs exactly 4 semaphore ops per round
/// trip, counted across both address spaces. Same retry-for-the-exact-
/// schedule discipline as the pre-takeover pin above; the ceiling allows
/// the successor's single parked-`P` boundary at window open.
fn takeover_bsw_is_exactly_four_sem_ops_pinned() {
    let rt = MSGS + 1;
    let mut seen = Vec::new();
    for _ in 0..5 {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(2)
            .messages(MSGS)
            .kill_site(3)
            .pinned(0)
            .late_prober()
            .heartbeat(Duration::from_secs(1))
            .run_takeover();
        check_takeover(&run, 3, 2, 1);
        let cl = run.prober_metrics.expect("pinned drill runs a prober");
        let sv = run
            .successor_window_sem_ops
            .expect("pinned drill opens a metrics window");
        assert!(
            cl.sem_ops() + sv <= 4 * rt + 2,
            "prober window leaked credits: client {} + server {sv} > 4*{rt}+2",
            cl.sem_ops()
        );
        if cl.sem_v == rt && cl.sem_p == rt && sv >= 2 * rt - 2 && sv <= 2 * rt + 2 {
            return;
        }
        seen.push((cl.sem_p, cl.sem_v, sv));
    }
    panic!(
        "post-takeover BSW never hit 4 sem ops/RT in 5 pinned runs \
         (client P, client V, server window): {seen:?}"
    );
}

/// The poison-cascade half of the fault storm: three of five clients
/// SIGKILLed mid-barrage against a live resilient server. Every corpse
/// is reaped and its reply queue poisoned; the survivors never notice.
fn storm_mass_client_death_is_reaped_and_poisoned() {
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(5)
        .messages(MSGS)
        .heartbeat(Duration::from_millis(5))
        .run_storm(3);
    assert!(run
        .victim_exits
        .iter()
        .all(|e| *e == ExitStatus::Signaled(9)));
    assert_eq!(run.server_run.reaped, 3, "{:?}", run.server_run);
    assert_eq!(run.server_run.disconnects, 2, "{:?}", run.server_run);
    assert!(
        run.victim_poisoned.iter().all(|&p| p),
        "every corpse's reply queue must end poisoned: {:?}",
        run.victim_poisoned
    );
    assert!(run.takeover.is_none() && run.server_exit.is_none());
}

/// The full storm: mass client death AND a server SIGKILL in one run.
/// The successor fscks a segment holding both kinds of corpse, re-marks
/// the dead clients after the fault-state reset revived their liveness
/// words, re-reaps them, and still finishes the survivors' barrages.
fn storm_with_server_kill_takes_over_and_reaps() {
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(5)
        .messages(MSGS)
        .kill_site(40)
        .heartbeat(Duration::from_millis(5))
        .run_storm(2);
    assert_eq!(run.server_exit, Some(ExitStatus::Signaled(9)));
    let tk = run
        .takeover
        .as_ref()
        .expect("server kill forces a takeover");
    assert_eq!(tk.old_generation, 1);
    assert_eq!(tk.generation, 2);
    assert!(
        tk.report.ledger.balanced(),
        "storm ledger unbalanced: {:?}",
        tk.report.ledger
    );
    assert_eq!(tk.report.ledger.unresolved, 0);
    assert_eq!(run.server_run.reaped, 2, "{:?}", run.server_run);
    assert_eq!(run.server_run.disconnects, 3, "{:?}", run.server_run);
    assert!(run.victim_poisoned.iter().all(|&p| p));
    assert!(run.recovery.expect("recovery timed") < Duration::from_secs(5));
}

/// Kill-during-recovery: the half-recoverer dies by SIGKILL mid-takeover
/// (once before its fsck ran, once after), and the third incarnation
/// recovers the half-mutated segment — generation 3, balanced ledger,
/// every client's barrage completed.
fn relay_takeover_survives_a_killed_recoverer() {
    for fsck_first in [false, true] {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(3)
            .messages(MSGS)
            .kill_site(11)
            .run_relay(fsck_first);
        let what = format!("fsck_before_death={fsck_first}");
        assert_eq!(run.server_exit, ExitStatus::Signaled(9), "{what}");
        assert_eq!(run.recoverer_exit, ExitStatus::Signaled(9), "{what}");
        assert_eq!(run.takeover.generation, 3, "{what}");
        assert_eq!(run.final_generation, 3, "{what}");
        let ledger = &run.takeover.report.ledger;
        assert!(ledger.balanced(), "{what}: {ledger:?}");
        assert_eq!(ledger.unresolved, 0, "{what}");
        if fsck_first {
            // The first fsck already dropped the in-hand request and its
            // client re-enqueued; the final fsck finds only committed
            // requests.
            assert_eq!(ledger.drop_notices, 0, "{what}: {ledger:?}");
            assert_eq!(run.drop_retries.iter().sum::<u64>(), 1, "{what}");
        } else {
            // The bump-only recoverer left the original wreckage: the
            // final fsck issues the drop.
            assert_eq!(ledger.drop_notices, 1, "{what}: {ledger:?}");
            assert_eq!(run.drop_retries.iter().sum::<u64>(), 1, "{what}");
        }
        assert_eq!(
            run.server_run.disconnects, 3,
            "{what}: {:?}",
            run.server_run
        );
        // 3 clients x MSGS echoes, minus the 11 the corpse served, plus
        // the disconnects.
        assert_eq!(
            run.server_run.processed,
            3 * MSGS - 11 + 3,
            "{what}: {:?}",
            run.server_run
        );
        assert!(run.recovery < Duration::from_secs(5), "{what}");
    }
}
