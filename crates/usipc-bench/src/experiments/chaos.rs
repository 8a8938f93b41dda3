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
//! Results are spliced into `BENCH_protocols.json` as a `"chaos"`
//! section (since schema v5); `figures regress` gates every row's ledger.
//!
//! Fork discipline: this experiment forks, so like `flight` it must run
//! before any experiment that leaves threads behind — run it alone or
//! first (the `figures` CLI preserves argument order).

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;

/// One recovery row of the `"chaos"` JSON section.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
struct RecoveryRow {
    drill: &'static str,
    queue: &'static str,
    kill_site: Option<u64>,
    generation: u32,
    recovery_ms: f64,
    in_flight: u32,
    served_by_request: u32,
    served_by_reply: u32,
    drop_notices: u32,
    unresolved: u32,
    credits_absorbed: u32,
    repairs: u32,
    retries: u64,
    reaped: u32,
    ledger_balanced: bool,
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{ExperimentOutput, RecoveryRow, RunOpts, Table};
    use std::path::PathBuf;
    use std::time::Duration;
    use usipc::{QueueKind, Takeover, WaitStrategy};
    use usipc_lab::ProcExperiment;

    fn row_from_takeover(
        drill: &'static str,
        queue: &'static str,
        kill_site: Option<u64>,
        tk: &Takeover,
        recovery: Duration,
        retries: u64,
        reaped: u32,
    ) -> RecoveryRow {
        let l = &tk.report.ledger;
        RecoveryRow {
            drill,
            queue,
            kill_site,
            generation: tk.generation,
            recovery_ms: recovery.as_secs_f64() * 1e3,
            in_flight: l.in_flight,
            served_by_request: l.served_by_request,
            served_by_reply: l.served_by_reply,
            drop_notices: l.drop_notices,
            unresolved: l.unresolved,
            credits_absorbed: tk.report.credits_absorbed(),
            repairs: tk.report.repairs(),
            retries,
            reaped,
            ledger_balanced: l.balanced(),
        }
    }

    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }

    fn chaos_json(msgs: u64, rows: &[RecoveryRow]) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("    \"msgs_per_client\": {msgs},\n"));
        s.push_str("    \"recovery\": [\n");
        for (i, r) in rows.iter().enumerate() {
            s.push_str("      {\n");
            s.push_str(&format!("        \"drill\": \"{}\",\n", r.drill));
            s.push_str(&format!("        \"queue\": \"{}\",\n", r.queue));
            s.push_str(&format!(
                "        \"kill_site\": {},\n",
                match r.kill_site {
                    Some(k) => k.to_string(),
                    None => "null".to_string(),
                }
            ));
            s.push_str(&format!("        \"generation\": {},\n", r.generation));
            s.push_str(&format!(
                "        \"recovery_ms\": {},\n",
                num(r.recovery_ms)
            ));
            s.push_str(&format!("        \"in_flight\": {},\n", r.in_flight));
            s.push_str(&format!(
                "        \"served_by_request\": {},\n",
                r.served_by_request
            ));
            s.push_str(&format!(
                "        \"served_by_reply\": {},\n",
                r.served_by_reply
            ));
            s.push_str(&format!("        \"drop_notices\": {},\n", r.drop_notices));
            s.push_str(&format!("        \"unresolved\": {},\n", r.unresolved));
            s.push_str(&format!(
                "        \"credits_absorbed\": {},\n",
                r.credits_absorbed
            ));
            s.push_str(&format!("        \"repairs\": {},\n", r.repairs));
            s.push_str(&format!("        \"retries\": {},\n", r.retries));
            s.push_str(&format!("        \"reaped\": {},\n", r.reaped));
            s.push_str(&format!(
                "        \"ledger_balanced\": {}\n",
                r.ledger_balanced
            ));
            s.push_str(if i + 1 == rows.len() {
                "      }\n"
            } else {
                "      },\n"
            });
        }
        s.push_str("    ]\n");
        s.push_str("  }");
        s
    }

    /// Splices (or replaces) a `"chaos"` key into the `bench`
    /// experiment's `BENCH_protocols.json` — same string surgery as the
    /// `faults` section (the workspace is dependency-free; there is no
    /// serde to reach for).
    fn splice_chaos(orig: &str, chaos: &str) -> String {
        let base = match orig.find(",\n  \"chaos\":") {
            Some(i) => {
                // A previous chaos section: it is always the final key,
                // so everything before it is the document minus its
                // closing brace.
                orig[..i].to_string()
            }
            None => {
                let t = orig.trim_end();
                match t.strip_suffix('}') {
                    Some(body) => body.trim_end().to_string(),
                    None => t.to_string(),
                }
            }
        };
        format!("{base},\n  \"chaos\": {chaos}\n}}\n")
    }

    pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
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
        for (queue, kind) in [("two_lock", QueueKind::TwoLock), ("ring", QueueKind::Ring)] {
            for &site in &sites {
                let run = ProcExperiment::new(strategy)
                    .clients(3)
                    .messages(msgs)
                    .kill_site(site)
                    .queue(kind)
                    .run_takeover();
                let retries: u64 = run.drop_retries.iter().sum();
                rows.push(row_from_takeover(
                    "takeover",
                    queue,
                    Some(site),
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
        // The storm and relay drills run on the default queue kind.
        let default_queue = QueueKind::default().label();
        rows.push(row_from_takeover(
            "storm",
            default_queue,
            Some(msgs / 8),
            tk,
            combined.recovery.expect("recovery timed"),
            combined.drop_retries.iter().sum(),
            combined.server_run.reaped,
        ));
        notes.push(format!(
            "combined storm: 2 client corpses + server SIGKILL at site {}; \
             successor recovered in {:.2} ms, re-reaped {} corpses, ledger balanced: {}",
            msgs / 8,
            combined.recovery.expect("recovery timed").as_secs_f64() * 1e3,
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
            let retries: u64 = run.drop_retries.iter().sum();
            rows.push(row_from_takeover(
                drill,
                default_queue,
                Some(msgs / 10),
                &run.takeover,
                run.recovery,
                retries,
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
                    r.kill_site.map_or(f64::NAN, |k| k as f64),
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

        if let Some(bad) = rows.iter().find(|r| !r.ledger_balanced || r.unresolved > 0) {
            notes.push(format!(
                "! {}[{}]: ledger did not balance — message conservation is broken",
                bad.drill, bad.queue
            ));
        }

        let dir = opts.bench_dir.unwrap_or_else(|| PathBuf::from("results"));
        let path = dir.join("BENCH_protocols.json");
        let baseline = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            "{\n  \"schema\": \"usipc-bench-protocols/v6\",\n  \"backend\": \"native\"\n}\n".into()
        });
        let json = splice_chaos(&baseline, &chaos_json(msgs, &rows));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
            Ok(()) => notes.push(format!("→ {} (chaos section)", path.display())),
            Err(e) => notes.push(format!("! BENCH_protocols.json write failed: {e}")),
        }

        ExperimentOutput {
            id: "chaos",
            tables: vec![table],
            notes,
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    imp::run(opts)
}

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
