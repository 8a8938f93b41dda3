//! `faults`: what robustness costs when nothing goes wrong, and proof
//! that something going wrong never deadlocks.
//!
//! Two halves:
//!
//! * **Fault-free overhead** — every protocol's echo barrage twice on
//!   real threads: once through the infallible classic surface, once
//!   through `call_deadline` + the resilient heartbeat server. The runs
//!   are interleaved and each path keeps its min-of-N exact nearest-rank
//!   p50. This is information, not a gate: the yield-hinting protocols'
//!   p50 is regime-bimodal, and time is the repo benchmark's to judge.
//! * **No-deadlock proof** — the schedule-space explorer sweeps kill
//!   sites over all five protocols' *fallible* paths (every schedule at
//!   the bounded depth must end in success or a clean
//!   `PeerDead`/`Timeout`/`Poisoned`, never a deadlock), and the
//!   poison-never-set mutant must yield a replayable deadlock
//!   counterexample — evidence the explorer can actually see the failure
//!   poisoning prevents. Both are asserted.
//! * **One worked fault** — the server killed mid-reply under tracing,
//!   written to `trace_fault_peerdeath.trace.json`; its trace must hold
//!   the injected fault, the poisoning and the survivor's detection.

use super::{enforce, ensure, sample_stats, ExperimentOutput, RunOpts, PROTOCOLS};
use crate::table::Table;
use std::sync::Arc;
use std::time::Duration;
use usipc::scenarios::{FaultScenario, PeerDeathScenario};
use usipc::trace::{TracePoint, UnifiedTrace};
use usipc::{FaultPlan, ProtoEvent, WaitStrategy};
use usipc_lab::{Mechanism, NativeExperiment};
use usipc_sim::Explorer;

/// Interleaved repetitions per path; each path keeps its best p50.
const REPS: usize = 3;
/// Resilient-server heartbeat. Plenty for a fault-free run: the server
/// only ever wakes on it after the last disconnect race, if at all.
const HEARTBEAT: Duration = Duration::from_millis(25);
/// Per-call deadline. Never expires in a healthy run.
const DEADLINE: Duration = Duration::from_secs(5);
struct OverheadRow {
    name: String,
    infallible_p50_us: f64,
    deadline_p50_us: f64,
    overhead_pct: f64,
    infallible_sem_ops_per_rt: f64,
    deadline_sem_ops_per_rt: f64,
}

/// The bench's four protocols, then the handoff variant.
fn protocols() -> impl Iterator<Item = WaitStrategy> {
    PROTOCOLS.into_iter().chain([WaitStrategy::HandoffBswy])
}

/// The exact p50 of *every* echo round trip of a run, from its raw
/// samples (the backend's own histogram is log₂-bucketed and, natively,
/// times one call in `latency_sample_period`).
fn p50_us(samples: &[u64]) -> f64 {
    sample_stats(samples).map_or(f64::NAN, |s| s.p50_us)
}

fn measure_overhead(strategy: WaitStrategy, msgs: u64) -> OverheadRow {
    // Per path — infallible, then deadline — the (p50, sem ops/RT) of the
    // rep with the lowest p50.
    let mut best = [(f64::INFINITY, 0.0); 2];
    for _ in 0..REPS {
        for (deadline, best) in [false, true].into_iter().zip(&mut best) {
            let exp = NativeExperiment::new(Mechanism::UserLevel(strategy))
                .clients(1)
                .messages(msgs);
            let run = if deadline {
                exp.deadline(HEARTBEAT, DEADLINE)
            } else {
                exp
            }
            .run();
            let p50 = p50_us(&run.client_samples);
            if p50 < best.0 {
                let sem_ops = run.server_metrics.add(&run.client_metrics).sem_ops();
                *best = (p50, sem_ops as f64 / (msgs + 1) as f64); // + the disconnect
            }
        }
    }
    let [(inf_p50, inf_sem), (dl_p50, dl_sem)] = best;
    OverheadRow {
        name: strategy.name(),
        infallible_p50_us: inf_p50,
        deadline_p50_us: dl_p50,
        overhead_pct: (dl_p50 - inf_p50) / inf_p50 * 100.0,
        infallible_sem_ops_per_rt: inf_sem,
        deadline_sem_ops_per_rt: dl_sem,
    }
}

#[derive(Debug, Default)]
struct SweepResult {
    kill_sites: u64,
    schedules: u64,
    deadlocks: u64,
    mutant_counterexample: Option<String>,
    mutant_schedules: u64,
}

/// The bounded no-deadlock sweep: a representative kill at the server's
/// dequeue→reply window and at the client's call entry, for every
/// protocol, over every schedule at the DFS depth. The exhaustive
/// site-by-site sweep lives in `tests/fault_injection.rs`; this is the
/// summary the experiment asserts.
fn explorer_sweep(depth: usize) -> SweepResult {
    let mut out = SweepResult::default();
    for strategy in protocols() {
        for (victim, at_op) in [(0u32, 1u64), (1, 0)] {
            let sc = FaultScenario {
                strategy,
                n_clients: 1,
                msgs: 2,
                victim,
                at_op,
            };
            let r = Explorer::dfs(depth)
                .machine(sc.machine())
                .max_schedules(40_000)
                .run(sc.builder());
            out.kill_sites += 1;
            out.schedules += r.schedules;
            out.deadlocks += r.violations;
        }
    }
    // The mutant: death rites skipped, so the orphaned client must
    // deadlock somewhere — and the explorer must find and replay it.
    let mutant = PeerDeathScenario { poisoning: false };
    let r = Explorer::dfs(depth + 1).run(mutant.builder());
    out.mutant_schedules = r.schedules;
    out.mutant_counterexample = r.counterexamples.first().map(|c| c.decision_string());
    out
}

/// No schedule deadlocks, the sweep did not collapse below two kill sites
/// per protocol, and the mutant was caught — a silent explorer is as much
/// a failure as a deadlocking protocol.
fn check_sweep(s: &SweepResult) -> Result<(), String> {
    ensure(s.deadlocks == 0, || {
        format!(
            "kill sweep: {} deadlocks over {} kill sites",
            s.deadlocks, s.kill_sites
        )
    })?;
    ensure(s.kill_sites >= 10 && s.schedules > 0, || {
        format!(
            "kill sweep collapsed: {} kill sites, {} schedules",
            s.kill_sites, s.schedules
        )
    })?;
    ensure(s.mutant_counterexample.is_some(), || {
        format!(
            "poison-never-set mutant survived {} schedules — the proof has no teeth",
            s.mutant_schedules
        )
    })
}

/// The failure model's three steps, each as the instant the walkthrough in
/// EXPERIMENTS.md is built on.
const PEER_DEATH_STEPS: [ProtoEvent; 3] = [
    ProtoEvent::FaultInjected,
    ProtoEvent::ChannelPoisoned,
    ProtoEvent::PeerDeathDetected,
];

fn check_peer_death(trace: &UnifiedTrace) -> Result<(), String> {
    let recorded = |e| {
        trace
            .records
            .iter()
            .any(|r| r.point == TracePoint::Proto(e))
    };
    let missing = PEER_DEATH_STEPS.into_iter().find(|&e| !recorded(e));
    ensure(missing.is_none(), || {
        format!("peer-death trace lacks {missing:?}")
    })
}

pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    let msgs = opts.msgs_per_client;
    let rows: Vec<OverheadRow> = protocols().map(|s| measure_overhead(s, msgs)).collect();
    let sweep = explorer_sweep(opts.explore_depth.min(5));

    let mut table = Table::new(
        "fault-free overhead: call_deadline + resilient server vs the infallible path",
        "protocol#",
        "mixed",
        vec![
            "inf_p50_us".into(),
            "dl_p50_us".into(),
            "overhead_%".into(),
            "inf_sem/rt".into(),
            "dl_sem/rt".into(),
        ],
    );
    for (i, r) in rows.iter().enumerate() {
        table.push_row(
            i as f64,
            vec![
                r.infallible_p50_us,
                r.deadline_p50_us,
                r.overhead_pct,
                r.infallible_sem_ops_per_rt,
                r.deadline_sem_ops_per_rt,
            ],
        );
    }

    let mut notes: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{}: infallible p50 {:.2} µs, deadline p50 {:.2} µs ({:+.1}%), \
                 sem ops/RT {:.2} → {:.2}",
                r.name,
                r.infallible_p50_us,
                r.deadline_p50_us,
                r.overhead_pct,
                r.infallible_sem_ops_per_rt,
                r.deadline_sem_ops_per_rt,
            )
        })
        .collect();
    notes.push(format!(
        "explorer: {} kill sites over 5 protocols, {} schedules, {} deadlocks",
        sweep.kill_sites, sweep.schedules, sweep.deadlocks
    ));
    if let Some(d) = &sweep.mutant_counterexample {
        notes.push(format!(
            "poison-never-set mutant: deadlock counterexample found in {} schedules \
             [replay decisions={d}]",
            sweep.mutant_schedules
        ));
    }

    // One worked fault, recorded: the server killed between dequeue and
    // reply under tracing, so the kill → detection → poison → PeerDead
    // sequence is inspectable in Perfetto (EXPERIMENTS.md walks it).
    let plan = Arc::new(FaultPlan::kill(0, 1));
    let ft = NativeExperiment::new(Mechanism::UserLevel(WaitStrategy::Bsw))
        .clients(1)
        .messages(4)
        .deadline(Duration::from_millis(30), Duration::from_millis(500))
        .trace(16 * 1024)
        .run_with_fault(plan);
    let trace = ft.trace.expect("tracing was enabled");
    let path = opts.out_dir.join("trace_fault_peerdeath.trace.json");
    match std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, trace.to_chrome_json()))
    {
        Ok(()) => notes.push(format!(
            "→ {} (peer-death timeline: server killed mid-reply, poisoned={}, client saw {:?})",
            path.display(),
            ft.reply_poisoned[0],
            ft.clients[0],
        )),
        Err(e) => notes.push(format!("! peer-death trace write failed: {e}")),
    }

    enforce(check_sweep(&sweep));
    enforce(check_peer_death(&trace));

    ExperimentOutput {
        id: "faults",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usipc::trace::TraceRecord;

    fn clean_sweep() -> SweepResult {
        SweepResult {
            kill_sites: 10,
            schedules: 500,
            deadlocks: 0,
            mutant_counterexample: Some("0.1.0".into()),
            mutant_schedules: 40,
        }
    }

    #[test]
    fn sweep_fails_on_a_deadlock_a_collapsed_sweep_or_a_toothless_mutant() {
        assert!(check_sweep(&clean_sweep()).is_ok());
        let deadlocked = SweepResult {
            deadlocks: 1,
            ..clean_sweep()
        };
        assert!(check_sweep(&deadlocked)
            .unwrap_err()
            .contains("1 deadlocks"));
        let collapsed = SweepResult {
            kill_sites: 9,
            ..clean_sweep()
        };
        assert!(check_sweep(&collapsed).unwrap_err().contains("collapsed"));
        let toothless = SweepResult {
            mutant_counterexample: None,
            ..clean_sweep()
        };
        assert!(check_sweep(&toothless).unwrap_err().contains("no teeth"));
    }

    #[test]
    fn peer_death_trace_needs_all_three_steps() {
        let trace = |events: &[ProtoEvent]| {
            let records = events
                .iter()
                .enumerate()
                .map(|(i, &e)| TraceRecord {
                    ts_nanos: i as u64,
                    task_id: 0,
                    point: TracePoint::Proto(e),
                })
                .collect();
            UnifiedTrace::from_parts(records, Vec::new(), 0)
        };
        assert!(check_peer_death(&trace(&PEER_DEATH_STEPS)).is_ok());
        let err = check_peer_death(&trace(&PEER_DEATH_STEPS[..2])).unwrap_err();
        assert!(err.contains("PeerDeathDetected"), "{err}");
    }
}
