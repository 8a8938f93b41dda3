//! The Fig. 4 races, checked over *all* schedules instead of one.
//!
//! `tests/race_regressions.rs` scripts each interleaving by hand with
//! `work()` gaps — fast smoke tests, kept as-is. Here the schedule-space
//! explorer owns every preemption decision and enumerates the bounded
//! schedule space exhaustively, so each test asserts two directions:
//!
//! * **coverage** — somewhere in the explored space the named Fig. 4
//!   interleaving actually occurs (detected from the scenario's mark
//!   history), so the scenario genuinely exercises the race, and
//! * **closure** — no explored schedule violates the invariants (no lost
//!   wake-up, reply/receive semaphores bounded at one credit, every
//!   message consumed exactly once), so the protocol genuinely closes it.
//!
//! The mutant tests run the same explorer against deliberately broken
//! variants — the consumer without the re-check (interleaving 4's bug) and
//! the producer without the `tas` guard (the §3 overflow) — and require a
//! counterexample with a replayable decision string.

use core::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use usipc::scenarios::{
    echo_scenario, mux_scenario, throttle_scenario, waitset_late_clear_scenario, ConsumerKind,
    Fig4Scenario, Interleaving, ProducerKind, ALL_INTERLEAVINGS,
};
use usipc::WaitStrategy;
use usipc_sim::{Explorer, Outcome, ScenarioCheck, SimBuilder};

/// Explores `scenario` and returns the report plus a bitmask of which
/// Fig. 4 interleavings were exhibited by at least one schedule.
fn explore_tracking(
    ex: &Explorer,
    mut scenario: impl FnMut(&mut SimBuilder) -> ScenarioCheck,
) -> (usipc_sim::ExploreReport, u32) {
    let seen = Arc::new(AtomicU32::new(0));
    let seen2 = Arc::clone(&seen);
    let report = ex.run(move |b| {
        let check = scenario(b);
        let seen = Arc::clone(&seen2);
        Box::new(move |r| {
            for (i, il) in ALL_INTERLEAVINGS.iter().enumerate() {
                if il.exhibited(r) {
                    seen.fetch_or(1 << i, Ordering::Relaxed);
                }
            }
            check(r)
        })
    });
    (report, seen.load(Ordering::Relaxed))
}

fn bit(il: Interleaving) -> u32 {
    1 << ALL_INTERLEAVINGS.iter().position(|&x| x == il).unwrap()
}

/// One producer is enough for interleavings 1, 3 and 4; the depth bound
/// covers the whole race window (every schedule beyond it defaults to
/// run-to-completion).
fn one_producer() -> Fig4Scenario {
    Fig4Scenario::stock(1, 2)
}

#[test]
fn fig4_interleaving_1_wakeup_before_sleep_closed_over_all_schedules() {
    let ex = Explorer::dfs(9).sem_bound(1);
    let (r, seen) = explore_tracking(&ex, one_producer().builder());
    assert!(
        r.ok(),
        "stock BSW must close interleaving 1: {}",
        r.summary()
    );
    assert!(
        r.exhausted,
        "bounded space fully enumerated: {}",
        r.summary()
    );
    assert!(
        seen & bit(Interleaving::WakeupBeforeSleep) != 0,
        "no explored schedule banked a credit before the sleep ({})",
        r.summary()
    );
}

#[test]
fn fig4_interleaving_2_multiple_wakeups_closed_over_all_schedules() {
    // Two producers racing for the same cleared flag.
    let ex = Explorer::dfs(10).sem_bound(1).max_schedules(120_000);
    let (r, seen) = explore_tracking(&ex, Fig4Scenario::stock(2, 1).builder());
    assert!(
        r.ok(),
        "the tas guard must keep credits ≤ 1: {}",
        r.summary()
    );
    assert!(
        seen & bit(Interleaving::MultipleWakeups) != 0,
        "no explored schedule suppressed a second producer's wake-up ({})",
        r.summary()
    );
}

#[test]
fn fig4_interleaving_3_wakeup_without_sleep_closed_over_all_schedules() {
    let ex = Explorer::dfs(9).sem_bound(1);
    let (r, seen) = explore_tracking(&ex, one_producer().builder());
    assert!(r.ok(), "stray credits must be absorbed: {}", r.summary());
    assert!(
        seen & bit(Interleaving::WakeupWithoutSleep) != 0,
        "no explored schedule absorbed a stray wake-up ({})",
        r.summary()
    );
}

#[test]
fn fig4_interleaving_4_sleep_after_check_closed_over_all_schedules() {
    let ex = Explorer::dfs(9).sem_bound(1);
    let (r, seen) = explore_tracking(&ex, one_producer().builder());
    assert!(
        r.ok(),
        "the re-check must save the consumer: {}",
        r.summary()
    );
    assert!(
        seen & bit(Interleaving::SleepAfterCheck) != 0,
        "no explored schedule hit the check-before-clear window ({})",
        r.summary()
    );
}

/// The "BSW-minus-recheck" mutant: without step C.3 the explorer must find
/// the lost wake-up of interleaving 4, and the counterexample must replay
/// deterministically from its printed decision string.
#[test]
fn norecheck_mutant_loses_a_wakeup_with_replayable_counterexample() {
    let mutant = Fig4Scenario {
        consumer: ConsumerKind::NoRecheck,
        ..Fig4Scenario::stock(1, 1)
    };
    let ex = Explorer::dfs(9);
    let r = ex.run(mutant.builder());
    assert!(
        r.violations > 0,
        "explorer failed to find the interleaving-4 deadlock: {}",
        r.summary()
    );
    let c = &r.counterexamples[0];
    assert!(c.violation.contains("lost wake-up"), "{}", c.violation);

    // Round-trip the printed decision string and replay it.
    let decisions = usipc_sim::parse_decisions(&c.decision_string()).expect("printable");
    assert_eq!(decisions, c.decisions);
    let (sim, verdict) = ex.replay(&decisions, mutant.builder());
    assert!(
        matches!(sim.outcome, Outcome::Deadlock(_)),
        "replay must reproduce the deadlock, got {:?}",
        sim.outcome
    );
    assert!(verdict.is_err());
}

/// The "BSW-minus-tas" producer mutant: unguarded `V`s accumulate credits
/// past the ≤ 1 bound (the §3 overflow in miniature), with a replayable
/// counterexample.
#[test]
fn unguarded_v_mutant_accumulates_credits_with_replayable_counterexample() {
    let mutant = Fig4Scenario {
        producer: ProducerKind::UnguardedV,
        ..Fig4Scenario::stock(1, 2)
    };
    let ex = Explorer::dfs(7).sem_bound(1);
    let r = ex.run(mutant.builder());
    assert!(
        r.violations > 0,
        "explorer failed to catch credit accumulation: {}",
        r.summary()
    );
    let c = &r.counterexamples[0];
    assert!(c.violation.contains("stray-credit"), "{}", c.violation);

    let (sim, verdict) = ex.replay(&c.decisions, mutant.builder());
    assert!(verdict.is_err(), "replay must reproduce the violation");
    assert!(
        sim.sems[0].max_count > 1,
        "replayed schedule banked {} credits",
        sim.sems[0].max_count
    );
}

/// Full-protocol BSW echo under every explored schedule: completes, every
/// request answered exactly once, and — the `blocking_dequeue` window
/// invariant — every semaphore's high-water mark stays ≤ 1 (a reply queue
/// that banks two credits means stray wake-ups are accumulating).
#[test]
fn bsw_echo_all_schedules_answer_exactly_once_with_bounded_credits() {
    let r = Explorer::dfs(7)
        .sem_bound(1)
        .run(echo_scenario(WaitStrategy::Bsw, 1, 2));
    assert!(r.ok(), "{}", r.summary());
    assert!(
        r.schedules > 100,
        "space too small to mean much: {}",
        r.summary()
    );
}

#[test]
fn bswy_echo_all_schedules_answer_exactly_once_with_bounded_credits() {
    let r = Explorer::dfs(6)
        .sem_bound(1)
        .run(echo_scenario(WaitStrategy::Bswy, 1, 2));
    assert!(r.ok(), "{}", r.summary());
}

#[test]
fn bsls_echo_all_schedules_answer_exactly_once_with_bounded_credits() {
    let r =
        Explorer::dfs(6)
            .sem_bound(1)
            .run(echo_scenario(WaitStrategy::Bsls { max_spin: 2 }, 1, 2));
    assert!(r.ok(), "{}", r.summary());
}

/// Two clients through the real server loop: the reply queues are distinct
/// semaphores and each must stay bounded independently.
#[test]
fn bsw_echo_two_clients_bounded_credits() {
    let r = Explorer::dfs(6)
        .sem_bound(1)
        .run(echo_scenario(WaitStrategy::Bsw, 2, 1));
    assert!(r.ok(), "{}", r.summary());
}

/// Seeded random walks probe far deeper schedules than the DFS horizon;
/// determinism of the whole exploration is what makes a reported
/// counterexample reproducible.
#[test]
fn random_walks_deep_schedules_stay_clean_and_deterministic() {
    let run = || {
        Explorer::random(40, 0xF164, 150)
            .sem_bound(1)
            .run(echo_scenario(WaitStrategy::Bsw, 1, 2))
    };
    let a = run();
    assert!(a.ok(), "{}", a.summary());
    let b = run();
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.distinct_states, b.distinct_states, "seed-deterministic");
}

/// The server loop over its WaitSet source: two mux clients, one worker.
/// Every schedule at the bounded depth and every deep random walk ends
/// with each request answered once, no lost doorbell (no worker wait ever
/// runs into its heartbeat), at most one credit ever banked on the
/// doorbell or a reply semaphore, and the doorbell budget held.
#[test]
fn mux_worker_two_clients_lose_no_doorbell_over_all_schedules() {
    let r = Explorer::dfs(6).sem_bound(1).run(mux_scenario(2, 1));
    assert!(r.ok(), "{}", r.summary());
    assert!(
        r.schedules > 100,
        "space too small to mean much: {}",
        r.summary()
    );
    let walks = Explorer::random(40, 0x3D0B, 150)
        .sem_bound(1)
        .run(mux_scenario(2, 2));
    assert!(walks.ok(), "{}", walks.summary());
}

/// The WaitSet mutant that clears its doorbell latch *after* the final
/// scan: a notify in between finds the latch held and rings nothing, so
/// the waiter sleeps over the ready bit until its bound. The explorer must
/// find that lost doorbell, and its decision string must replay it.
#[test]
fn late_latch_clear_mutant_loses_a_doorbell_with_replayable_counterexample() {
    let ex = Explorer::dfs(6).sem_bound(1);
    let r = ex.run(waitset_late_clear_scenario(2));
    assert!(
        r.violations > 0,
        "explorer failed to find the lost doorbell: {}",
        r.summary()
    );
    let c = &r.counterexamples[0];
    assert!(c.violation.contains("lost doorbell"), "{}", c.violation);
    let decisions = usipc_sim::parse_decisions(&c.decision_string()).expect("printable");
    assert_eq!(decisions, c.decisions);
    let (_, verdict) = ex.replay(&decisions, waitset_late_clear_scenario(2));
    assert!(
        verdict.is_err_and(|e| e.contains("lost doorbell")),
        "replay must reproduce the lost doorbell"
    );
}

/// The §5 throttled server's liveness claim: it never blocks with a
/// wake-up still deferred. Every schedule at the bounded depth, at either
/// batch size, and every deep random walk over three clients ends with
/// each request answered once and no semaphore holding two credits. A
/// server that flushed only one batch on an empty queue fails the walks
/// with a lost wake-up (EXPERIMENTS.md).
#[test]
fn throttled_server_never_sleeps_on_a_deferred_wakeup() {
    for wake_batch in [1, 2] {
        let r = Explorer::dfs(6)
            .sem_bound(1)
            .run(throttle_scenario(2, 1, 2, wake_batch));
        assert!(r.ok(), "wake_batch {wake_batch}: {}", r.summary());
        assert!(
            r.schedules > 100,
            "space too small to mean much: {}",
            r.summary()
        );
    }
    let walks = Explorer::random(300, 0x7A11, 400)
        .sem_bound(1)
        .run(throttle_scenario(3, 2, 2, 1));
    assert!(walks.ok(), "{}", walks.summary());
}
