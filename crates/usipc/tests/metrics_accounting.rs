//! Metrics accounting under the telemetry plane: the observability
//! layer must be *free* on the protocol axis the paper measures.
//!
//! The headline number of the whole reproduction is BSW's four
//! semaphore operations per round trip (Fig. 5/6). This suite re-pins
//! that number with the telemetry plane allocated in the segment and
//! every participant publishing — if telemetry cost even one extra
//! semaphore op or kernel crossing, the exact-4 pin would break — and
//! then proves the export side works end-to-end: a forked external
//! process that knows nothing but the memfd attaches mid-barrage and
//! reads a consistent, advancing snapshot.
//!
//! Everything lives in ONE `#[test]` function for the same fork
//! discipline as `cross_process.rs`: `fork()` from a multithreaded
//! test runner reproduces only the calling thread, so each scenario
//! must fork its children while this process is effectively
//! single-threaded.

#![cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]

use usipc::{ExitStatus, QueueKind, Role, WaitStrategy};
use usipc_lab::ProcExperiment;

const MSGS: u64 = 200;

#[test]
fn telemetry_is_free_and_externally_readable() {
    bsw_still_exactly_four_sem_ops_with_telemetry_on();
    bsw_still_exactly_four_sem_ops_on_the_ring_queue();
    telemetry_and_bare_runs_share_the_same_kernel_budget();
    external_observer_reads_consistent_advancing_snapshots();
}

/// The Fig. 6 pin, telemetry edition: everyone pinned to one CPU,
/// the plane allocated in the segment, the server's slot published by
/// a sampler, the clients publishing snapshots, gauges and latency
/// sketches from inside the round-trip loop — and BSW still costs
/// exactly 4 semaphore ops per round trip. Writers touch only their
/// own cache-line-padded slot with plain atomic stores, so nothing
/// here may enter the kernel.
///
/// Same retry shape as the bare pin in `cross_process.rs`: a scheduler
/// tick in the wake-to-sleep window can legitimately elide one `P`/`V`
/// pair, so retry for the bit-exact schedule while always enforcing
/// the ceiling and a near-exact floor.
fn bsw_still_exactly_four_sem_ops_with_telemetry_on() {
    let mut best = 0u64;
    let rt = MSGS + 1; // the disconnect handshake round-trips too
    for attempt in 0..5 {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(1)
            .messages(MSGS)
            .pinned(0)
            .telemetry()
            .run();
        let total = run.server_metrics.sem_ops() + run.client_metrics.sem_ops();
        assert!(
            total <= 4 * rt,
            "attempt {attempt}: {total} sem ops exceeds 4/RT — telemetry leaked a credit"
        );
        assert!(
            total >= 4 * rt - 8,
            "attempt {attempt}: {total} sem ops is far below 4/RT — pinning broke"
        );

        // The plane itself must carry the proof home: the client's slot
        // holds its final published snapshot and a latency sketch with
        // one sample per echo round trip.
        let readings = run.telemetry.as_ref().expect("plane was on");
        let client = readings
            .iter()
            .find(|r| r.task_id == 1)
            .expect("client slot published");
        assert_eq!(client.role, Role::Client);
        assert_eq!(client.progress, MSGS, "client progress gauge is exact");
        assert_eq!(
            client.latency.count, MSGS,
            "one latency sample per echo round trip"
        );
        assert!(client.latency.mean_us() > 0.0);

        best = best.max(total);
        if best == 4 * rt {
            return;
        }
    }
    assert_eq!(
        best,
        4 * rt,
        "BSW with telemetry on never hit exactly 4 sem ops per RT in 5 pinned runs"
    );
}

/// The Fig. 6 pin on the *lock-free ring* queue kind: swapping the
/// two-lock M&S queue for the arena ring must be invisible on the
/// protocol axis — same pinned uniprocessor regime, still exactly 4
/// semaphore ops per BSW round trip. The queue lives below the
/// sleep/wake-up protocol; if the swap changed the credit accounting,
/// the wake-up pairing itself would be broken.
fn bsw_still_exactly_four_sem_ops_on_the_ring_queue() {
    let mut best = 0u64;
    let rt = MSGS + 1;
    for attempt in 0..5 {
        let run = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(1)
            .messages(MSGS)
            .pinned(0)
            .queue(QueueKind::Ring)
            .run();
        let total = run.server_metrics.sem_ops() + run.client_metrics.sem_ops();
        assert!(
            total <= 4 * rt,
            "attempt {attempt}: {total} sem ops exceeds 4/RT on the ring — a credit leaked"
        );
        assert!(
            total >= 4 * rt - 8,
            "attempt {attempt}: {total} sem ops is far below 4/RT on the ring — pinning broke"
        );
        best = best.max(total);
        if best == 4 * rt {
            return;
        }
    }
    assert_eq!(
        best,
        4 * rt,
        "BSW on the ring queue never hit exactly 4 sem ops per RT in 5 pinned runs"
    );
}

/// Telemetry-on and telemetry-off runs of the identical pinned
/// workload must land in the identical kernel budget: the same
/// `[4·rt − 8, 4·rt]` semaphore band, and kernel crossings equal to
/// semaphore ops on both sides (pure BSW does not yield, hand off, or
/// back off — and the plane must not add a crossing of its own).
fn telemetry_and_bare_runs_share_the_same_kernel_budget() {
    let rt = MSGS + 1;
    let bare = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(1)
        .messages(MSGS)
        .pinned(0)
        .run();
    let observed = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(1)
        .messages(MSGS)
        .pinned(0)
        .telemetry()
        .run();
    for (label, run) in [("bare", &bare), ("telemetry", &observed)] {
        let sem = run.server_metrics.sem_ops() + run.client_metrics.sem_ops();
        let crossings =
            run.server_metrics.kernel_crossings() + run.client_metrics.kernel_crossings();
        assert!(
            (4 * rt - 8..=4 * rt).contains(&sem),
            "{label}: {sem} sem ops outside the pinned BSW band"
        );
        assert_eq!(
            crossings, sem,
            "{label}: BSW makes no kernel crossing besides its sem ops"
        );
    }
}

/// The export path, end to end: a forked observer process inherits
/// nothing but the memfd file descriptor, attaches the live segment,
/// finds the telemetry plane through the arena's aux pointer, and
/// exits 0 only after two reads of the same slot showed monotone
/// counters, advancing progress, and an advancing publish stamp —
/// i.e. a consistent snapshot of a *moving* system, taken with zero
/// coordination with the writers.
fn external_observer_reads_consistent_advancing_snapshots() {
    // A long enough barrage that the observer's attach (fork + mmap)
    // always lands while publications are still flowing.
    let run = ProcExperiment::new(WaitStrategy::Bsw)
        .clients(2)
        .messages(5_000)
        .observer()
        .run();
    assert_eq!(
        run.observer_exit,
        Some(ExitStatus::Exited(0)),
        "observer verdict (2=attach failed, 6=no plane, 7=stale, 8=torn)"
    );
    assert_eq!(run.messages, 2 * 5_000);

    let readings = run.telemetry.expect("plane was on");
    let server = readings
        .iter()
        .find(|r| r.task_id == 0)
        .expect("server slot published");
    assert_eq!(server.role, Role::Server);
    assert_eq!(
        server.snapshot.requests_served, run.server_run.processed,
        "server's final published snapshot matches its run summary"
    );
    for c in 0..2u64 {
        let client = readings
            .iter()
            .find(|r| r.task_id == 1 + c as u32)
            .expect("client slot published");
        assert_eq!(client.progress, 5_000, "client {c} finished its barrage");
        assert_eq!(client.latency.count, 5_000);
    }
}
