//! `figures regress`: gate a fresh `BENCH_protocols.json` against the
//! checked-in baseline.
//!
//! The bench experiment is the repo's recorded perf trajectory; this
//! module is the tripwire that keeps it honest. It compares two bench
//! files row by row and reports **regressions only** — a fresh run that
//! is *faster* than the baseline always passes (re-baseline when the
//! improvement is real; see EXPERIMENTS.md):
//!
//! * **Latency bands** — `p50_us` and `p99_us` may not exceed
//!   `baseline × tolerance`. The default tolerance is deliberately wide
//!   (CI machines are shared and noisy); the band catches order-of-kind
//!   regressions — a protocol suddenly taking a kernel crossing it
//!   didn't, a lost fast path — not single-digit-percent jitter.
//! * **Throughput floor** — `throughput_msgs_per_ms` may not fall below
//!   `baseline ÷ tolerance`.
//! * **Exact syscall budgets** — independent of the baseline file, the
//!   paper's accounting is enforced as hard ceilings: BSS performs
//!   **zero** semaphore ops per round trip, and every blocking protocol
//!   (BSW/BSWY/BSLS) stays at or under BSW's **4 per round trip**.
//!   These are exact invariants, not statistical bands — a budget
//!   violation is a protocol bug, not noise.
//! * **Doorbell budget** — each load-matrix row keeps
//!   `doorbells_rung ≤ waitset_wakes + shards` (each WaitSet wake is
//!   paid for by at most one `V`; the `+ shards` slack covers end-of-run
//!   rings that land after the worker's final wake).
//!
//! The ring-vs-two-lock comparison is not gated here: a throughput band
//! over a few hundred round trips gates on one poll tick. The repo
//! benchmark (`bench/`, `BENCHMARK.json`) carries that comparison.
//!
//! Rows are matched by (`name`, `mode`, `queue`) for protocols and by
//! `clients` for the load matrix; baseline rows missing from the fresh
//! file are regressions (coverage must not silently shrink), fresh rows
//! missing from the baseline are ignored (new coverage lands first, gets
//! baselined on the next re-baseline).

use crate::json::Json;

/// Slack factors for the statistical comparisons (the syscall budgets
/// take none).
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// `fresh ≤ baseline × latency` for p50/p99; `fresh ≥ baseline ÷
    /// latency` for throughput.
    pub latency: f64,
    /// When `false` (`--skip-missing`), baseline rows absent from the
    /// fresh file are skipped instead of failed. CI measures at smoke
    /// scale (no `--procs`, small load matrix) against the full
    /// checked-in baseline, so its fresh file legitimately covers a
    /// subset; a full local run should keep this `true`.
    pub strict_coverage: bool,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            // 4× absorbs shared-runner noise while still catching a lost
            // fast path (a futex round trip costs ~10× a fast-path RT).
            latency: 4.0,
            strict_coverage: true,
        }
    }
}

/// Everything the comparison concluded.
#[derive(Debug, Default)]
pub struct RegressReport {
    /// Human-readable regression descriptions; empty means pass.
    pub violations: Vec<String>,
    /// Row-level comparisons that ran and passed.
    pub passes: Vec<String>,
}

impl RegressReport {
    /// `true` when no comparison tripped.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exact per-round-trip semaphore budget for a protocol row, by name.
/// `None` leaves the row ungated (an unknown future protocol regresses
/// on its latency band only until a budget is assigned here).
fn sem_budget(name: &str) -> Option<f64> {
    match name {
        "BSS" => Some(0.0),
        // BSW's 4 is the paper's number; BSWY and BSLS only ever *elide*
        // sem ops relative to BSW, never add.
        "BSW" | "BSWY" | "BSLS" => Some(4.0),
        _ => None,
    }
}

fn row_key(row: &Json) -> String {
    format!(
        "{}[{}/{}]",
        row.str("name").unwrap_or("?"),
        row.str("mode").unwrap_or("?"),
        // Pre-v4 files carried no queue field; every row was two_lock.
        row.str("queue").unwrap_or("two_lock")
    )
}

/// Compares `fresh` against `baseline`. Both must be parsed
/// `BENCH_protocols.json` documents.
pub fn compare(baseline: &Json, fresh: &Json, tol: Tolerance) -> RegressReport {
    let mut rep = RegressReport::default();

    match (baseline.str("schema"), fresh.str("schema")) {
        (Some(b), Some(f)) if b == f => {}
        (b, f) => rep.violations.push(format!(
            "schema mismatch: baseline {b:?} vs fresh {f:?} — re-baseline after schema changes"
        )),
    }

    let empty = Vec::new();
    let base_rows = baseline
        .get("protocols")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let fresh_rows = fresh
        .get("protocols")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);

    for b in base_rows {
        let key = row_key(b);
        let Some(f) = fresh_rows.iter().find(|f| row_key(f) == key) else {
            if tol.strict_coverage {
                rep.violations.push(format!(
                    "{key}: present in baseline, missing from fresh run"
                ));
            } else {
                rep.passes
                    .push(format!("{key}: not measured in this run, skipped"));
            }
            continue;
        };

        for metric in ["p50_us", "p99_us"] {
            match (b.num(metric), f.num(metric)) {
                (Some(bv), Some(fv)) if fv > bv * tol.latency => rep.violations.push(format!(
                    "{key}: {metric} {fv:.3} exceeds {bv:.3} × {} = {:.3}",
                    tol.latency,
                    bv * tol.latency
                )),
                (Some(bv), Some(fv)) => rep.passes.push(format!(
                    "{key}: {metric} {fv:.3} within {bv:.3} × {}",
                    tol.latency
                )),
                (Some(_), None) => rep.violations.push(format!(
                    "{key}: {metric} measured in baseline, null in fresh"
                )),
                (None, _) => {}
            }
        }

        let tp = "throughput_msgs_per_ms";
        if let (Some(bv), Some(fv)) = (b.num(tp), f.num(tp)) {
            if fv < bv / tol.latency {
                rep.violations.push(format!(
                    "{key}: throughput {fv:.3} below {bv:.3} ÷ {} = {:.3}",
                    tol.latency,
                    bv / tol.latency
                ));
            } else {
                rep.passes.push(format!(
                    "{key}: throughput {fv:.3} within {bv:.3} ÷ {}",
                    tol.latency
                ));
            }
        }

        if let Some(budget) = f.str("name").and_then(sem_budget) {
            match f.num("sem_ops_per_rt") {
                // The writer rounds to 3 decimals; give it that much.
                Some(v) if v > budget + 0.0005 => rep.violations.push(format!(
                    "{key}: sem_ops_per_rt {v:.3} breaks the exact budget of {budget} — \
                     a credit leaked somewhere in the protocol"
                )),
                Some(v) => rep
                    .passes
                    .push(format!("{key}: sem_ops_per_rt {v:.3} ≤ budget {budget}")),
                None => rep
                    .violations
                    .push(format!("{key}: sem_ops_per_rt missing from fresh row")),
            }
        }
    }

    let base_load = baseline
        .get("load_matrix")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let fresh_load = fresh
        .get("load_matrix")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for b in base_load {
        let Some(clients) = b.num("clients") else {
            continue;
        };
        let key = format!("load[{clients} clients]");
        let Some(f) = fresh_load
            .iter()
            .find(|f| f.num("clients") == Some(clients))
        else {
            if tol.strict_coverage {
                rep.violations.push(format!(
                    "{key}: present in baseline, missing from fresh run"
                ));
            } else {
                rep.passes
                    .push(format!("{key}: not measured in this run, skipped"));
            }
            continue;
        };
        if let (Some(bv), Some(fv)) = (b.num("p99_us"), f.num("p99_us")) {
            if fv > bv * tol.latency {
                rep.violations.push(format!(
                    "{key}: p99_us {fv:.3} exceeds {bv:.3} × {}",
                    tol.latency
                ));
            } else {
                rep.passes.push(format!(
                    "{key}: p99_us {fv:.3} within {bv:.3} × {}",
                    tol.latency
                ));
            }
        }
        // The design budget is `doorbells_rung ≤ waitset_wakes + shards`
        // (end-of-run rings can land after the worker's last wake, so a
        // short smoke cell legitimately reads a hair over 1.0). Compute the
        // exact bound from the cell's own counts when present; fall back to
        // a flat 1 otherwise. +0.0005 for the writer's 3-decimal rounding.
        let db_bound = match (f.num("waitset_wakes"), f.num("shards")) {
            (Some(w), Some(s)) if w > 0.0 => (w + s) / w,
            _ => 1.0,
        };
        match f.num("doorbell_vs_per_wake") {
            Some(v) if v > db_bound + 0.0005 => rep.violations.push(format!(
                "{key}: doorbell_vs_per_wake {v:.3} breaks the ≤ 1 V-per-wake design budget (bound {db_bound:.3})"
            )),
            Some(v) => rep
                .passes
                .push(format!("{key}: doorbell_vs_per_wake {v:.3} ≤ {db_bound:.3}")),
            None => {}
        }
    }

    // The chaos gate (since schema v5): message conservation is an exact
    // invariant, not a band — every recovery row in the fresh file must
    // have a balanced ledger and nothing unresolved, regardless of what
    // the baseline says. Recovery latency is banded against a matching
    // baseline row (same drill/queue/kill_site) when one exists; chaos
    // coverage itself is not gated (the fork-based drills only run when
    // the chaos experiment is invoked).
    fn recovery_rows(doc: &Json) -> &[Json] {
        doc.get("chaos")
            .and_then(|c| c.get("recovery"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
    }
    let base_rec = recovery_rows(baseline);
    for f in recovery_rows(fresh) {
        let key = format!(
            "chaos[{}/{}@{}]",
            f.str("drill").unwrap_or("?"),
            f.str("queue").unwrap_or("?"),
            f.num("kill_site").map_or("-".into(), |k| format!("{k}"))
        );
        match f.get("ledger_balanced") {
            Some(Json::Bool(true)) => rep.passes.push(format!("{key}: ledger balanced")),
            _ => rep.violations.push(format!(
                "{key}: conservation ledger did not balance — \
                 a message was lost or invented across the takeover"
            )),
        }
        match f.num("unresolved") {
            Some(v) if v > 0.0 => rep.violations.push(format!(
                "{key}: {v} in-flight clients left without a verdict"
            )),
            Some(_) => {}
            None => rep
                .violations
                .push(format!("{key}: unresolved count missing from recovery row")),
        }
        let b = base_rec.iter().find(|b| {
            b.str("drill") == f.str("drill")
                && b.str("queue") == f.str("queue")
                && b.num("kill_site") == f.num("kill_site")
        });
        if let (Some(bv), Some(fv)) = (b.and_then(|b| b.num("recovery_ms")), f.num("recovery_ms")) {
            if fv > bv * tol.latency {
                rep.violations.push(format!(
                    "{key}: recovery_ms {fv:.3} exceeds {bv:.3} × {}",
                    tol.latency
                ));
            } else {
                rep.passes.push(format!(
                    "{key}: recovery_ms {fv:.3} within {bv:.3} × {}",
                    tol.latency
                ));
            }
        }
    }

    rep
}

#[cfg(test)]
mod tests {
    use super::{compare, Tolerance};
    use crate::json::Json;

    fn doc(p50: f64, p99: f64, tp: f64, sem: f64, dbw: f64) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema": "usipc-bench-protocols/v6",
              "protocols": [
                {{"name": "BSW", "mode": "threads", "queue": "two_lock",
                  "p50_us": {p50}, "p99_us": {p99},
                  "throughput_msgs_per_ms": {tp}, "sem_ops_per_rt": {sem}}},
                {{"name": "BSS", "mode": "threads", "queue": "two_lock",
                  "p50_us": 0.5, "p99_us": 1.0,
                  "throughput_msgs_per_ms": 2000.0, "sem_ops_per_rt": 0.0}}
              ],
              "load_matrix": [
                {{"clients": 8, "p99_us": {p99}, "doorbell_vs_per_wake": {dbw}}}
              ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_files_pass() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let rep = compare(&b, &b, Tolerance::default());
        assert!(rep.ok(), "{:?}", rep.violations);
        assert!(!rep.passes.is_empty());
    }

    #[test]
    fn faster_fresh_run_passes() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = doc(0.5, 2.0, 1600.0, 3.5, 0.2);
        assert!(compare(&b, &f, Tolerance::default()).ok());
    }

    #[test]
    fn latency_beyond_band_fails() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = doc(2.0 * 4.0 + 0.1, 10.0, 400.0, 4.0, 0.9);
        let rep = compare(&b, &f, Tolerance::default());
        assert!(!rep.ok());
        assert!(rep.violations[0].contains("p50_us"), "{:?}", rep.violations);
    }

    #[test]
    fn throughput_collapse_fails() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = doc(2.0, 10.0, 400.0 / 4.0 - 1.0, 4.0, 0.9);
        let rep = compare(&b, &f, Tolerance::default());
        assert!(rep.violations.iter().any(|v| v.contains("throughput")));
    }

    #[test]
    fn sem_budget_is_exact_regardless_of_baseline() {
        // Even a baseline that itself leaked (4.2) does not excuse the
        // fresh run: the budget is the paper's, not the file's.
        let b = doc(2.0, 10.0, 400.0, 4.2, 0.9);
        let f = doc(2.0, 10.0, 400.0, 4.01, 0.9);
        let rep = compare(&b, &f, Tolerance::default());
        assert!(rep.violations.iter().any(|v| v.contains("exact budget")));
    }

    #[test]
    fn doorbell_budget_fails_above_one() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = doc(2.0, 10.0, 400.0, 4.0, 1.4);
        let rep = compare(&b, &f, Tolerance::default());
        assert!(rep
            .violations
            .iter()
            .any(|v| v.contains("doorbell_vs_per_wake")));
    }

    #[test]
    fn missing_row_and_null_metric_fail() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = Json::parse(
            r#"{"schema": "usipc-bench-protocols/v6",
                "protocols": [{"name": "BSW", "mode": "threads",
                  "queue": "two_lock", "p50_us": null, "p99_us": 1.0,
                  "throughput_msgs_per_ms": 400.0, "sem_ops_per_rt": 4.0}],
                "load_matrix": []}"#,
        )
        .unwrap();
        let rep = compare(&b, &f, Tolerance::default());
        assert!(rep.violations.iter().any(|v| v.contains("null in fresh")));
        assert!(rep
            .violations
            .iter()
            .any(|v| v.contains("BSS[threads/two_lock]") && v.contains("missing")));
        assert!(rep
            .violations
            .iter()
            .any(|v| v.contains("load[8 clients]") && v.contains("missing")));
    }

    /// Pre-v4 rows carry no `queue` field; they key as two_lock so a
    /// re-baselined v4 file still matches them by name and mode.
    #[test]
    fn queueless_rows_key_as_two_lock() {
        let rep = compare(
            &doc(2.0, 10.0, 400.0, 4.0, 0.9),
            &doc(2.0, 10.0, 400.0, 4.0, 0.9),
            Tolerance::default(),
        );
        assert!(rep
            .passes
            .iter()
            .any(|p| p.contains("BSW[threads/two_lock]")));
    }

    #[test]
    fn skip_missing_demotes_coverage_gaps_only() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let f = Json::parse(
            r#"{"schema": "usipc-bench-protocols/v6",
                "protocols": [{"name": "BSW", "mode": "threads",
                  "queue": "two_lock", "p50_us": 2.0, "p99_us": 10.0,
                  "throughput_msgs_per_ms": 400.0, "sem_ops_per_rt": 4.3}],
                "load_matrix": []}"#,
        )
        .unwrap();
        let tol = Tolerance {
            strict_coverage: false,
            ..Tolerance::default()
        };
        let rep = compare(&b, &f, tol);
        // The BSS row and the load cell are skipped, but the measured
        // BSW row's budget violation still fails.
        assert!(!rep.violations.iter().any(|v| v.contains("missing")));
        assert!(rep.violations.iter().any(|v| v.contains("exact budget")));
        assert!(rep.passes.iter().any(|p| p.contains("skipped")));
    }

    #[test]
    fn schema_drift_fails() {
        let b = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        let mut f_src = doc(2.0, 10.0, 400.0, 4.0, 0.9);
        if let Json::Obj(members) = &mut f_src {
            members[0].1 = Json::Str("usipc-bench-protocols/v99".into());
        }
        let rep = compare(&b, &f_src, Tolerance::default());
        assert!(rep.violations.iter().any(|v| v.contains("schema")));
    }

    /// The chaos gate: a fresh recovery row with an unbalanced ledger or
    /// unresolved clients fails regardless of the baseline; a balanced
    /// row is banded on recovery latency against its baseline sibling.
    #[test]
    fn chaos_ledger_is_gated_exactly_and_latency_banded() {
        fn chaos_doc(balanced: bool, unresolved: u64, recovery_ms: f64) -> Json {
            Json::parse(&format!(
                r#"{{"schema": "usipc-bench-protocols/v6",
                    "protocols": [], "load_matrix": [],
                    "chaos": {{"msgs_per_client": 200, "recovery": [
                      {{"drill": "takeover", "queue": "two_lock", "kill_site": 7,
                        "generation": 2, "recovery_ms": {recovery_ms},
                        "in_flight": 3, "drop_notices": 1, "unresolved": {unresolved},
                        "ledger_balanced": {balanced}}}
                    ]}}}}"#
            ))
            .unwrap()
        }
        let b = chaos_doc(true, 0, 2.0);
        assert!(compare(&b, &chaos_doc(true, 0, 2.0), Tolerance::default()).ok());

        let rep = compare(&b, &chaos_doc(false, 0, 2.0), Tolerance::default());
        assert!(
            rep.violations.iter().any(|v| v.contains("did not balance")),
            "{:?}",
            rep.violations
        );
        let rep = compare(&b, &chaos_doc(true, 2, 2.0), Tolerance::default());
        assert!(
            rep.violations
                .iter()
                .any(|v| v.contains("without a verdict")),
            "{:?}",
            rep.violations
        );
        let rep = compare(
            &b,
            &chaos_doc(true, 0, 2.0 * 4.0 + 0.1),
            Tolerance::default(),
        );
        assert!(
            rep.violations.iter().any(|v| v.contains("recovery_ms")),
            "{:?}",
            rep.violations
        );
        // A brand-new drill row with no baseline sibling is not a latency
        // violation — only its ledger is gated.
        let no_chaos = Json::parse(
            r#"{"schema": "usipc-bench-protocols/v6",
                "protocols": [], "load_matrix": []}"#,
        )
        .unwrap();
        assert!(compare(&no_chaos, &chaos_doc(true, 0, 99.0), Tolerance::default()).ok());
    }
}
