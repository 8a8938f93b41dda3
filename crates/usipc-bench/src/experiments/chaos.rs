//! `chaos`: the fault-storm harness — recovery measured, not assumed.
//!
//! Four drills over real processes and a real memfd segment, each a
//! SIGKILL pattern the robustness layer claims to survive:
//!
//! * **Takeover sweep** — the server SIGKILLs itself *mid-handler* at a
//!   swept kill site (first request in hand, mid-barrage, deep in the
//!   barrage — the three verdict classes the schedule-space explorer's
//!   kill sweeps distinguish), on both queue kinds. The successor
//!   attaches the inherited segment, fscks, bumps the generation and
//!   serves; the row records the detection→fsck recovery latency and
//!   the message-conservation ledger.
//! * **Poison cascade** — mass client SIGKILL against a live server:
//!   half the clients die mid-barrage, the heartbeat scan reaps every
//!   corpse and poisons its reply queue, the survivors never notice.
//! * **Combined storm** — mass client death *and* a server SIGKILL in
//!   one run: the successor fscks a segment holding both kinds of
//!   corpse, re-marks the dead clients (the fsck's fault-state reset
//!   revives liveness words; pidfd verdicts are re-fed), re-reaps them
//!   and finishes the survivors.
//! * **Kill during recovery** — a half-recoverer is SIGKILLed
//!   mid-takeover (once before its fsck ran, once after) and a third
//!   incarnation recovers the half-mutated segment: fsck idempotence
//!   in anger, generation 3.
//!
//! Conservation is exact, so the experiment asserts it on every recovery
//! row (ledger balanced, nothing unresolved, the right generation, a
//! measured and bounded recovery) and on the sweep's shape.
//!
//! Fork discipline: this experiment forks, so like `flight` it must run
//! before any experiment that leaves threads behind — run it alone or
//! first (the `figures` CLI preserves argument order).

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::super::{enforce, ensure};
    use super::{ExperimentOutput, RunOpts, Table};
    use std::time::Duration;
    use usipc::{QueueKind, Takeover, WaitStrategy};
    use usipc_lab::ProcExperiment;

    /// One takeover's outcome: a row of the table.
    #[derive(Debug, Default)]
    struct RecoveryRow {
        drill: &'static str,
        queue: &'static str,
        kill_site: u64,
        generation: u32,
        recovery_ms: f64,
        in_flight: u32,
        drop_notices: u32,
        unresolved: u32,
        retries: u64,
        reaped: u32,
        ledger_balanced: bool,
    }

    impl RecoveryRow {
        fn new(
            drill: &'static str,
            queue: &'static str,
            kill_site: u64,
            tk: &Takeover,
            recovery: Duration,
            retries: u64,
            reaped: u32,
        ) -> Self {
            let l = &tk.report.ledger;
            RecoveryRow {
                drill,
                queue,
                kill_site,
                generation: tk.generation,
                recovery_ms: recovery.as_secs_f64() * 1e3,
                in_flight: l.in_flight,
                drop_notices: l.drop_notices,
                unresolved: l.unresolved,
                retries,
                reaped,
                ledger_balanced: l.balanced(),
            }
        }
    }

    /// A recovery, exactly: no message lost or invented across the
    /// takeover, every in-flight client verdicted, the generation the
    /// drill implies (created at 1; a relay's half-recoverer bumps to 2
    /// before the final takeover's 3), and a recovery that was measured
    /// and finished within two seconds.
    fn check_recovery(r: &RecoveryRow) -> Result<(), String> {
        let key = format!("{}[{}@{}]", r.drill, r.queue, r.kill_site);
        let generation = if r.drill.starts_with("relay") { 3 } else { 2 };
        ensure(r.ledger_balanced, || {
            format!("{key}: conservation ledger did not balance — a message was lost or invented")
        })?;
        ensure(r.unresolved == 0, || {
            format!(
                "{key}: {} in-flight clients left without a verdict",
                r.unresolved
            )
        })?;
        ensure(r.generation == generation, || {
            format!("{key}: generation {}, want {generation}", r.generation)
        })?;
        ensure(r.recovery_ms > 0.0 && r.recovery_ms < 2000.0, || {
            format!(
                "{key}: recovery took {:.3} ms, outside (0, 2000)",
                r.recovery_ms
            )
        })
    }

    /// The sweep's shape: takeover rows on both queue kinds at ≥ 3
    /// distinct kill sites each, and a combined storm that re-reaped its
    /// (two) corpses.
    fn check_drills(rows: &[RecoveryRow]) -> Result<(), String> {
        for queue in ["two_lock", "ring"] {
            let mut sites: Vec<u64> = rows
                .iter()
                .filter(|r| r.drill == "takeover" && r.queue == queue)
                .map(|r| r.kill_site)
                .collect();
            sites.sort_unstable();
            sites.dedup();
            ensure(sites.len() >= 3, || {
                format!("takeover sweep on {queue} collapsed to kill sites {sites:?}")
            })?;
        }
        let storm = rows.iter().find(|r| r.drill == "storm");
        ensure(storm.is_some_and(|r| r.reaped >= 2), || {
            format!("combined storm re-reaped too few corpses (want ≥ 2): {storm:?}")
        })
    }

    pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
        // Chaos traffic is bounded per drill: recovery latency does not
        // get more informative with a longer barrage, and every drill
        // forks a full process world.
        let msgs = opts.msgs_per_client.clamp(50, 500);
        let strategy = WaitStrategy::Bsw;
        let mut rows: Vec<RecoveryRow> = Vec::new();
        let mut notes: Vec<String> = Vec::new();

        // Drill 1: the takeover sweep. Sites cover the explorer's three
        // verdict classes: nothing served yet (the first request is the
        // one in hand), mid-barrage, deep in the barrage.
        let sites = [0, msgs / 4, (3 * msgs) / 2];
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let queue = kind.label();
            for &site in &sites {
                let run = ProcExperiment::new(strategy)
                    .clients(3)
                    .messages(msgs)
                    .kill_site(site)
                    .queue(kind)
                    .run_takeover();
                let retries: u64 = run.drop_retries.iter().sum();
                rows.push(RecoveryRow::new(
                    "takeover",
                    queue,
                    site,
                    &run.takeover,
                    run.recovery,
                    retries,
                    run.server_run.reaped,
                ));
                notes.push(format!(
                    "takeover[{queue}] site {site}: recovered in {:.2} ms, \
                     gen {} → {}, {} in flight ({} dropped, {} retried), \
                     successor served {}",
                    run.recovery.as_secs_f64() * 1e3,
                    run.takeover.old_generation,
                    run.takeover.generation,
                    run.takeover.report.ledger.in_flight,
                    run.takeover.report.ledger.drop_notices,
                    retries,
                    run.server_run.processed,
                ));
            }
        }

        // Drill 2: the poison cascade — mass client death, live server.
        let storm = ProcExperiment::new(strategy)
            .clients(6)
            .messages(msgs)
            .heartbeat(Duration::from_millis(5))
            .run_storm(3);
        notes.push(format!(
            "storm: 3/6 clients SIGKILLed mid-barrage; server reaped {} and \
             poisoned {}/{} corpse queues, survivors finished {} echoes",
            storm.server_run.reaped,
            storm.victim_poisoned.iter().filter(|&&p| p).count(),
            storm.n_victims,
            storm.survivor_messages,
        ));

        // Drill 3: the combined storm — client corpses AND a dead server.
        let combined = ProcExperiment::new(strategy)
            .clients(6)
            .messages(msgs)
            .kill_site(msgs / 8)
            .heartbeat(Duration::from_millis(5))
            .run_storm(2);
        let tk = combined
            .takeover
            .as_ref()
            .expect("a server kill forces a takeover");
        let recovery = combined.recovery.expect("recovery timed");
        // The storm and relay drills run on the default queue kind.
        let default_queue = QueueKind::default().label();
        rows.push(RecoveryRow::new(
            "storm",
            default_queue,
            msgs / 8,
            tk,
            recovery,
            combined.drop_retries.iter().sum(),
            combined.server_run.reaped,
        ));
        notes.push(format!(
            "combined storm: 2 client corpses + server SIGKILL at site {}; \
             successor recovered in {:.2} ms, re-reaped {} corpses, ledger balanced: {}",
            msgs / 8,
            recovery.as_secs_f64() * 1e3,
            combined.server_run.reaped,
            tk.report.ledger.balanced(),
        ));

        // Drill 4: kill during recovery, both windows.
        for (fsck_first, drill) in [(false, "relay-bump"), (true, "relay-fsck")] {
            let run = ProcExperiment::new(strategy)
                .clients(3)
                .messages(msgs)
                .kill_site(msgs / 10)
                .run_relay(fsck_first);
            rows.push(RecoveryRow::new(
                drill,
                default_queue,
                msgs / 10,
                &run.takeover,
                run.recovery,
                run.drop_retries.iter().sum(),
                run.server_run.reaped,
            ));
            notes.push(format!(
                "{drill}: half-recoverer SIGKILLed {} its fsck; third incarnation \
                 reached generation {} in {:.2} ms, served {}",
                if fsck_first { "after" } else { "before" },
                run.final_generation,
                run.recovery.as_secs_f64() * 1e3,
                run.server_run.processed,
            ));
        }

        let mut table = Table::new(
            "chaos: recovery latency and conservation ledgers across the fault storms",
            "row",
            "mixed",
            vec![
                "site".into(),
                "gen".into(),
                "recovery_ms".into(),
                "in_flight".into(),
                "drops".into(),
                "retries".into(),
                "reaped".into(),
                "balanced".into(),
            ],
        );
        for (i, r) in rows.iter().enumerate() {
            table.push_row(
                i as f64,
                vec![
                    r.kill_site as f64,
                    f64::from(r.generation),
                    r.recovery_ms,
                    f64::from(r.in_flight),
                    f64::from(r.drop_notices),
                    r.retries as f64,
                    f64::from(r.reaped),
                    f64::from(u8::from(r.ledger_balanced)),
                ],
            );
        }

        rows.iter().for_each(|r| enforce(check_recovery(r)));
        enforce(check_drills(&rows));

        ExperimentOutput {
            id: "chaos",
            tables: vec![table],
            notes,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{check_drills, check_recovery, RecoveryRow};

        fn row(drill: &'static str, queue: &'static str, kill_site: u64) -> RecoveryRow {
            RecoveryRow {
                drill,
                queue,
                kill_site,
                generation: if drill.starts_with("relay") { 3 } else { 2 },
                recovery_ms: 0.2,
                in_flight: 3,
                drop_notices: 1,
                retries: 1,
                reaped: 2,
                ledger_balanced: true,
                ..RecoveryRow::default()
            }
        }

        #[test]
        fn a_recovery_row_is_gated_exactly() {
            assert!(check_recovery(&row("takeover", "ring", 7)).is_ok());
            assert!(check_recovery(&row("relay-fsck", "ring", 5)).is_ok());
            let fails = |drill, break_it: fn(&mut RecoveryRow), why: &str| {
                let mut r = row(drill, "ring", 7);
                break_it(&mut r);
                let err = check_recovery(&r).unwrap_err();
                assert!(err.contains(why), "{err}");
            };
            fails("takeover", |r| r.ledger_balanced = false, "did not balance");
            fails("takeover", |r| r.unresolved = 2, "without a verdict");
            fails("relay-bump", |r| r.generation = 2, "want 3");
            fails("storm", |r| r.recovery_ms = 0.0, "outside (0, 2000)");
            fails("storm", |r| r.recovery_ms = 2000.0, "outside (0, 2000)");
        }

        #[test]
        fn the_sweep_needs_both_kinds_three_sites_and_a_reaping_storm() {
            let sweep = |ring_sites: &[u64], storm_reaped| {
                let mut rows: Vec<RecoveryRow> = [0, 50, 300]
                    .iter()
                    .map(|&s| row("takeover", "two_lock", s))
                    .chain(ring_sites.iter().map(|&s| row("takeover", "ring", s)))
                    .collect();
                rows.push(RecoveryRow {
                    reaped: storm_reaped,
                    ..row("storm", "ring", 25)
                });
                rows
            };
            assert!(check_drills(&sweep(&[0, 50, 300], 2)).is_ok());
            let err = check_drills(&sweep(&[0, 0, 300], 2)).unwrap_err();
            assert!(err.contains("ring collapsed"), "{err}");
            let err = check_drills(&sweep(&[0, 50, 300], 1)).unwrap_err();
            assert!(err.contains("want ≥ 2"), "{err}");
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use imp::run;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn run(_opts: RunOpts) -> ExperimentOutput {
    ExperimentOutput {
        id: "chaos",
        tables: vec![Table::new("chaos fault storms", "row", "-", vec![])],
        notes: vec!["! the fault storms require Linux on x86_64/aarch64; skipped".into()],
    }
}
