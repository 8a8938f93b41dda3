//! Behavioural tests for the simulation engine: timing, scheduling
//! semantics, kernel objects, failure modes, and determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usipc_sim::sched::{DegradingPriority, FixedPriority};
use usipc_sim::{Handoff, MachineModel, Outcome, PolicyKind, Scheduler, SimBuilder, VDur, VTime};

fn quiet_machine() -> MachineModel {
    // A machine with trivial overheads so tests can reason about exact times.
    MachineModel {
        name: "test",
        cpus: 1,
        queue_op: VDur::ZERO,
        tas_op: VDur::ZERO,
        syscall: VDur::micros(1),
        runq_scan_per_ready: VDur::ZERO,
        ctx_switch: VDur::ZERO,
        cache_reload_per_proc: VDur::ZERO,
        cache_procs_max: 0,
        block_resume_penalty: VDur::ZERO,
        msg_op: VDur::micros(2),
        sem_op: VDur::micros(2),
        poll_op: VDur::micros(1),
        request_work: VDur::ZERO,
        quantum: VDur::millis(100),
        ..MachineModel::sgi_indy()
    }
}

#[test]
fn single_task_work_advances_time_exactly() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("t", |sys| {
        sys.work(VDur::micros(100));
        assert_eq!(sys.now(), VTime::ZERO + VDur::micros(100));
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(100));
    assert_eq!(r.tasks[0].stats.cpu_time, VDur::micros(100));
}

#[test]
fn two_tasks_on_one_cpu_serialize() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    for i in 0..2 {
        b.spawn(format!("t{i}"), |sys| sys.work(VDur::micros(50)));
    }
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(100));
}

#[test]
fn two_tasks_on_two_cpus_run_in_parallel() {
    let mut m = quiet_machine();
    m.cpus = 2;
    let mut b = SimBuilder::new(m, PolicyKind::FairRr.build());
    for i in 0..2 {
        b.spawn(format!("t{i}"), |sys| sys.work(VDur::micros(50)));
    }
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(50));
}

#[test]
fn quantum_preemption_interleaves_and_counts_icsw() {
    let mut m = quiet_machine();
    m.quantum = VDur::micros(10);
    let mut b = SimBuilder::new(m, PolicyKind::FairRr.build());
    for i in 0..2 {
        b.spawn(format!("t{i}"), |sys| sys.work(VDur::micros(100)));
    }
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(200));
    // Each task is preempted repeatedly (~100/10 times, minus edges).
    assert!(
        r.tasks[0].stats.icsw >= 5,
        "expected many preemptions, got {}",
        r.tasks[0].stats.icsw
    );
    assert_eq!(r.tasks[0].stats.vcsw, 0, "no voluntary switches");
}

#[test]
fn sleep_wakes_at_the_right_time() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("sleeper", |sys| {
        sys.sleep(VDur::millis(5));
        let now = sys.now();
        assert!(now >= VTime::ZERO + VDur::millis(5));
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert!(r.end_time >= VTime::ZERO + VDur::millis(5));
}

#[test]
fn semaphore_blocks_and_wakes_in_fifo_order() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    let order = Arc::new(AtomicU64::new(0));
    for i in 0..3u64 {
        let order = Arc::clone(&order);
        b.spawn(format!("waiter{i}"), move |sys| {
            sys.sem_p(sem);
            // FIFO: waiter i is the i-th to acquire.
            let turn = order.fetch_add(1, Ordering::Relaxed);
            assert_eq!(turn, i, "semaphore wake order");
        });
    }
    b.spawn("poster", move |sys| {
        sys.work(VDur::micros(50)); // let all waiters block first
        for _ in 0..3 {
            sys.sem_v(sem);
        }
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.tasks[0].stats.blocks, 1);
}

#[test]
fn semaphore_credit_prevents_lost_wakeup() {
    // V before P: the P must not block (counting semantics, §3).
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    b.spawn("poster", move |sys| {
        sys.sem_v(sem);
    });
    b.spawn("taker", move |sys| {
        sys.work(VDur::micros(100)); // ensure the V happened long ago
        sys.sem_p(sem);
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.tasks[1].stats.blocks, 0, "P consumed the banked credit");
}

#[test]
fn semaphore_overflow_is_reported() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem_limited(0, 2);
    b.spawn("spammer", move |sys| {
        for _ in 0..5 {
            sys.sem_v(sem);
        }
    });
    let r = b.run();
    assert_eq!(
        r.outcome,
        Outcome::SemaphoreOverflow { sem: 0, limit: 2 },
        "the overflow the authors hit in their first version"
    );
}

#[test]
fn msgq_round_trip_delivers_payload() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let req = b.add_msgq(8);
    let rsp = b.add_msgq(8);
    b.spawn("client", move |sys| {
        sys.msgsnd(req, [1, 2, 3, 4]);
        let m = sys.msgrcv(rsp);
        assert_eq!(m, [4, 3, 2, 1]);
    });
    b.spawn("server", move |sys| {
        let m = sys.msgrcv(req);
        sys.msgsnd(rsp, [m[3], m[2], m[1], m[0]]);
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    // 4 message ops at 2 µs each, plus syscall-free blocking.
    assert!(r.end_time >= VTime::ZERO + VDur::micros(8));
}

#[test]
fn msgq_full_blocks_sender_until_drained() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let q = b.add_msgq(1);
    b.spawn("sender", move |sys| {
        sys.msgsnd(q, [1, 0, 0, 0]);
        sys.msgsnd(q, [2, 0, 0, 0]); // must block: capacity 1
    });
    b.spawn("receiver", move |sys| {
        sys.work(VDur::micros(100));
        assert_eq!(sys.msgrcv(q)[0], 1);
        assert_eq!(sys.msgrcv(q)[0], 2);
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.task("sender").unwrap().stats.blocks, 1);
}

#[test]
fn barrier_releases_all_parties_together() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let bar = b.add_barrier(3);
    for i in 0..3u64 {
        b.spawn(format!("p{i}"), move |sys| {
            sys.work(VDur::micros(10 * (i + 1)));
            sys.barrier(bar);
            // After the barrier everyone is past the slowest arrival.
            assert!(sys.now() >= VTime::ZERO + VDur::micros(60));
        });
    }
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
}

#[test]
fn deadlock_is_detected_and_named() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    b.spawn("stuck", move |sys| {
        sys.sem_p(sem); // nobody will ever V
    });
    let r = b.run();
    match r.outcome {
        Outcome::Deadlock(ref who) => {
            assert_eq!(who.len(), 1);
            assert!(who[0].contains("stuck"), "{who:?}");
            assert!(who[0].contains("P(sem0)"), "{who:?}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn time_limit_stops_runaway_spinners() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.time_limit(VDur::millis(1));
    b.spawn("spinner", |sys| loop {
        sys.work(VDur::micros(10));
    });
    let r = b.run();
    assert_eq!(r.outcome, Outcome::TimeLimit);
}

/// A run whose tasks have all exited is `Completed` even if a timed `P`
/// that was satisfied early left its `SemTimeout` event beyond the limit
/// (the engine used to pop that stale event, see it past the limit, and
/// report `TimeLimit` without looking at who was still alive).
#[test]
fn completed_run_with_a_stale_timeout_past_the_limit_is_completed() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    // Between the last exit (≈ 1 ms) and the stale timeout (100 ms).
    b.time_limit(VDur::millis(50));
    let sem = b.add_sem(0);
    b.spawn("waiter", move |sys| {
        assert!(
            sys.sem_p_timeout(sem, VDur::millis(100)),
            "the V came first"
        );
    });
    b.spawn("waker", move |sys| {
        sys.work(VDur::millis(1));
        sys.sem_v(sem);
    });
    let r = b.run();
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(
        r.end_time < VTime::ZERO + VDur::millis(50),
        "{:?}",
        r.end_time
    );
}

#[test]
fn task_panic_is_captured() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("bomb", |sys| {
        sys.work(VDur::micros(1));
        panic!("boom at virtual time");
    });
    let r = b.run();
    match r.outcome {
        Outcome::TaskPanicked {
            ref task,
            ref message,
        } => {
            assert_eq!(task, "bomb");
            assert!(message.contains("boom"), "{message}");
        }
        other => panic!("expected panic outcome, got {other:?}"),
    }
}

#[test]
fn marks_record_time_and_order() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("m", |sys| {
        sys.mark(1);
        sys.work(VDur::micros(30));
        sys.mark(2);
    });
    let r = b.run();
    assert_eq!(r.marks.len(), 2);
    assert_eq!(r.first_mark(1), Some(VTime::ZERO));
    assert_eq!(r.first_mark(2), Some(VTime::ZERO + VDur::micros(30)));
}

#[test]
fn degrading_policy_yield_returns_to_caller_until_aged() {
    // The IRIX effect (§2.2): with a 40 µs aging step and ~17 µs yield loop,
    // a busy-waiting process performs 2-3 yields before the switch happens.
    let mut m = quiet_machine();
    m.syscall = VDur::micros(13);
    m.runq_scan_per_ready = VDur::micros_f64(2.5);
    let mut b = SimBuilder::new(m, Box::new(DegradingPriority::new(VDur::micros(40))));
    b.spawn("yielder", |sys| {
        for _ in 0..30 {
            sys.yield_now();
        }
    });
    b.spawn("peer", |sys| {
        for _ in 0..30 {
            sys.yield_now();
        }
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    let y = &r.tasks[0].stats;
    assert_eq!(y.yields, 30);
    assert!(
        y.yield_noswitch > y.yields / 2,
        "most yields should return to the caller: {} of {} switched",
        y.yields - y.yield_noswitch,
        y.yields
    );
    // Roughly every 40/15.5 ≈ 2.6 yields actually switches.
    let switched = y.yields - y.yield_noswitch;
    assert!((8..=15).contains(&switched), "switched {switched} times");
}

#[test]
fn fair_rr_policy_every_yield_switches() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("a", |sys| {
        for _ in 0..10 {
            sys.yield_now();
        }
    });
    b.spawn("b", |sys| {
        for _ in 0..10 {
            sys.yield_now();
        }
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.tasks[0].stats.yield_noswitch, 0);
    assert_eq!(r.tasks[0].stats.vcsw, 10);
}

#[test]
fn fixed_priority_higher_runs_first() {
    let mut m = quiet_machine();
    m.cpus = 1;
    let mut fixed = FixedPriority::new();
    fixed.init(2);
    fixed.set_priority(usipc_sim::Pid(1), 10);
    let mut b = SimBuilder::new(m, Box::new(fixed));
    let order = Arc::new(AtomicU64::new(0));
    let o1 = Arc::clone(&order);
    b.spawn("low", move |sys| {
        sys.work(VDur::micros(10));
        o1.compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
            .expect("low finishes second");
    });
    let o2 = Arc::clone(&order);
    b.spawn("high", move |sys| {
        sys.work(VDur::micros(10));
        o2.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .expect("high finishes first");
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
}

#[test]
fn handoff_to_pid_switches_directly() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::linux_old_default().build());
    // Under linux-old, a plain yield would NOT switch (quantum not drained);
    // handoff(To) must switch anyway.
    let target = usipc_sim::Pid(1);
    let order = Arc::new(AtomicU64::new(0));
    let o0 = Arc::clone(&order);
    b.spawn("caller", move |sys| {
        sys.work(VDur::micros(5));
        sys.handoff(Handoff::To(target));
        // By the time we run again, the target must have progressed.
        assert_eq!(o0.load(Ordering::SeqCst), 1, "hand-off transferred control");
    });
    let o1 = Arc::clone(&order);
    b.spawn("target", move |sys| {
        sys.work(VDur::micros(5));
        o1.store(1, Ordering::SeqCst);
        sys.work(VDur::micros(5));
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.task("caller").unwrap().stats.handoffs, 1);
}

#[test]
fn handoff_any_lets_others_run() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::linux_old_default().build());
    let flag = Arc::new(AtomicU64::new(0));
    let f0 = Arc::clone(&flag);
    b.spawn("server", move |sys| {
        sys.handoff(Handoff::Any);
        assert_eq!(f0.load(Ordering::SeqCst), 1);
    });
    let f1 = Arc::clone(&flag);
    b.spawn("client", move |sys| {
        f1.store(1, Ordering::SeqCst);
        sys.work(VDur::micros(1));
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
}

#[test]
fn runs_are_deterministic() {
    fn one_run() -> (u64, u64, u64) {
        let mut b = SimBuilder::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default().build(),
        );
        let sem = b.add_sem(0);
        let q = b.add_msgq(4);
        b.spawn("a", move |sys| {
            for i in 0..50 {
                sys.msgsnd(q, [i, 0, 0, 0]);
                sys.yield_now();
            }
            sys.sem_v(sem);
        });
        b.spawn("b", move |sys| {
            for _ in 0..50 {
                let _ = sys.msgrcv(q);
                sys.work(VDur::micros(3));
            }
            sys.sem_p(sem);
        });
        let r = b.run();
        assert!(r.outcome.is_completed());
        (
            r.end_time.as_nanos(),
            r.total_switches,
            r.tasks[0].stats.yield_noswitch,
        )
    }
    let first = one_run();
    for _ in 0..3 {
        assert_eq!(one_run(), first, "identical runs must be bit-identical");
    }
}

#[test]
fn rusage_snapshot_matches_final_stats() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("t", |sys| {
        sys.yield_now();
        sys.yield_now();
        let u = sys.rusage();
        assert_eq!(u.yields, 2);
    });
    let r = b.run();
    assert_eq!(r.tasks[0].stats.yields, 2);
}

#[test]
fn kernel_ops_serialize_across_cpus() {
    // Two CPUs issuing kernel msg ops at the same instant: the big kernel
    // lock forces one to wait, so the run takes ~2 op times, not 1.
    let mut m = quiet_machine();
    m.cpus = 2;
    m.msg_op = VDur::micros(10);
    let mut b = SimBuilder::new(m, PolicyKind::FairRr.build());
    let q1 = b.add_msgq(4);
    let q2 = b.add_msgq(4);
    b.spawn("s1", move |sys| sys.msgsnd(q1, [0; 4]));
    b.spawn("s2", move |sys| sys.msgsnd(q2, [0; 4]));
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(20));
}

#[test]
fn trace_records_the_timeline_when_enabled() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.trace(true);
    let sem = b.add_sem(0);
    // The blocker is spawned first so it reaches P before the V is posted.
    b.spawn("b", move |sys| {
        sys.sem_p(sem);
    });
    b.spawn("a", move |sys| {
        sys.work(VDur::micros(5));
        sys.sem_v(sem);
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    use usipc_sim::TraceWhat;
    let has = |f: &dyn Fn(&TraceWhat) -> bool| r.trace.iter().any(|e| f(&e.what));
    assert!(has(&|w| matches!(w, TraceWhat::Dispatched { .. })));
    assert!(has(
        &|w| matches!(w, TraceWhat::OpStart { op } if op.contains("V(sem0)"))
    ));
    assert!(has(&|w| matches!(w, TraceWhat::Blocked)));
    assert!(has(&|w| matches!(w, TraceWhat::Woken)));
    assert!(has(&|w| matches!(w, TraceWhat::Exited)));
    // Timeline is time-ordered.
    for w in r.trace.windows(2) {
        assert!(w[0].at <= w[1].at, "trace out of order");
    }
}

#[test]
fn trace_is_empty_when_disabled() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    b.spawn("t", |sys| sys.work(VDur::micros(5)));
    let r = b.run();
    assert!(r.trace.is_empty(), "tracing must be opt-in");
}

#[test]
fn multiprocessor_handoff_to_running_target_degrades_to_yield() {
    // On an MP the handoff target may already be running on another CPU;
    // steal() fails and the call behaves like a yield.
    let mut m = quiet_machine();
    m.cpus = 2;
    let mut b = SimBuilder::new(m, PolicyKind::FairRr.build());
    let target = usipc_sim::Pid(1);
    b.spawn("caller", move |sys| {
        sys.work(VDur::micros(1));
        sys.handoff(Handoff::To(target)); // target is running on cpu1
        sys.work(VDur::micros(1));
    });
    b.spawn("target", |sys| {
        sys.work(VDur::micros(50));
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
}

#[test]
fn more_tasks_than_cpus_time_share() {
    let mut m = quiet_machine();
    m.cpus = 2;
    m.quantum = VDur::micros(20);
    let mut b = SimBuilder::new(m, PolicyKind::FairRr.build());
    for i in 0..4 {
        b.spawn(format!("t{i}"), |sys| sys.work(VDur::micros(100)));
    }
    let r = b.run();
    assert!(r.outcome.is_completed());
    // 400 µs of work over 2 CPUs: exactly 200 µs elapsed.
    assert_eq!(r.end_time, VTime::ZERO + VDur::micros(200));
    // Everyone was preempted at least once (time sharing, not run-to-end).
    for t in &r.tasks {
        assert!(t.stats.icsw >= 1, "{} never preempted", t.name);
    }
}

#[test]
fn sem_final_state_reported() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    b.spawn("v", move |sys| {
        for _ in 0..3 {
            sys.sem_v(sem);
        }
        sys.sem_p(sem);
    });
    let r = b.run();
    assert!(r.outcome.is_completed());
    assert_eq!(r.sems.len(), 1);
    assert_eq!(r.sems[0].count, 2, "3 V - 1 P");
    assert_eq!(r.sems[0].max_count, 3);
    assert_eq!(r.sems[0].waiting, 0);
}

#[test]
fn mlfq_wakeup_preempts_a_demoted_grinder() {
    use usipc_sim::sched::{Mlfq, MlfqConfig};
    let mut m = quiet_machine();
    m.quantum = VDur::millis(50); // quantum alone would never save us
    let mut b = SimBuilder::new(
        m,
        Box::new(Mlfq::new(MlfqConfig {
            levels: 3,
            level_allowance: VDur::micros(30),
            boost_interval: VDur::millis(100),
        })),
    );
    let sem = b.add_sem(0);
    // An interactive task: blocks, then on wake records how stale its
    // wake-up was.
    b.spawn("interactive", move |sys| {
        sys.sem_p(sem); // woken at t ≈ 100 µs by the poker
        let now = sys.now();
        // Without wake-up preemption it would wait out the grinder's whole
        // 50 ms quantum; with it, it runs within one 200 µs chunk.
        assert!(
            now < VTime::ZERO + VDur::millis(2),
            "woken task ran {now} after the wake — preemption failed"
        );
    });
    b.spawn("poker", move |sys| {
        sys.work(VDur::micros(100));
        sys.sem_v(sem);
        // Exits; the grinder then owns the CPU.
    });
    b.spawn("grinder", |sys| {
        for _ in 0..2_000 {
            sys.work(VDur::micros(200));
        }
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    let grinder = r.task("grinder").unwrap();
    assert!(
        grinder.stats.icsw >= 1,
        "the grinder must have been preempted at least once"
    );
}

#[test]
fn sem_p_timeout_expiry_consumes_nothing_and_banks_the_late_v() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    b.spawn("waiter", move |sys| {
        assert!(
            !sys.sem_p_timeout(sem, VDur::millis(5)),
            "no V in flight: the deadline must expire"
        );
    });
    b.spawn("late-v", move |sys| {
        sys.sleep(VDur::millis(20)); // well past the waiter's deadline
        sys.sem_v(sem);
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    // The expired P consumed nothing; the late V's credit stays banked.
    assert_eq!(r.sems[0].count, 1);
    assert_eq!(r.sems[0].waiting, 0, "cancelled waiter left the sem queue");
}

#[test]
fn sem_p_timeout_woken_by_v_before_expiry_takes_the_credit() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(0);
    b.spawn("waiter", move |sys| {
        assert!(
            sys.sem_p_timeout(sem, VDur::seconds(10)),
            "the V lands long before the deadline"
        );
        assert!(
            sys.now() < VTime::ZERO + VDur::seconds(1),
            "woken, not expired"
        );
    });
    b.spawn("v", move |sys| {
        sys.sleep(VDur::millis(1));
        sys.sem_v(sem);
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.sems[0].count, 0, "credit consumed by the timed P");
    let waiter = r.task("waiter").unwrap();
    assert_eq!(waiter.stats.blocks, 1, "the timed P really blocked first");
}

#[test]
fn sem_p_timeout_with_banked_credit_is_immediate() {
    let mut b = SimBuilder::new(quiet_machine(), PolicyKind::FairRr.build());
    let sem = b.add_sem(1);
    b.spawn("t", move |sys| {
        assert!(sys.sem_p_timeout(sem, VDur::ZERO), "banked credit: no wait");
    });
    let r = b.run();
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert_eq!(r.sems[0].count, 0);
    let t = r.task("t").unwrap();
    assert_eq!(t.stats.blocks, 0, "never blocked");
    assert_eq!(t.stats.sem_p, 1, "still a priced P syscall");
}
