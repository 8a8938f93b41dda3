//! `bench`: the native-backend protocol baseline.
//!
//! Runs BSS/BSW/BSWY/BSLS round trips on real threads and writes
//! `BENCH_protocols.json` — round-trip latency quantiles computed from the
//! *raw* per-round-trip samples (exact nearest-rank, not the log₂
//! histogram whose buckets are only within √2 of the truth) plus the
//! per-round-trip syscall accounting the paper argues in: protocol-level
//! `P`/`V` counts (`sem_ops_per_rt`, at most 4 for BSW — exactly 4 in the
//! pinned uniprocessor regime), scheduler-visible kernel crossings, and
//! the *actual* host kernel entries of the futex semaphore
//! (`sem_kernel_waits/wakes_per_rt` — zero when the fast path holds).
//!
//! With `--procs` (Linux only) every protocol is additionally measured
//! across a real `fork()`: parent server, child client, memfd segment —
//! the paper's actual cross-address-space configuration. Those rows carry
//! `"mode": "procs"` next to the `"mode": "threads"` baselines, so the
//! thread-vs-process round-trip cost is recorded side by side.
//!
//! Every thread-mode protocol is measured on **both queue kinds** — the
//! pooled two-lock M&S queue and the lock-free arena ring
//! (`"queue": "two_lock"` / `"queue": "ring"`) — so the queue-swap cost
//! sits in the recorded matrix next to the protocol cost it rides under.
//! This file is the repo's recorded perf trajectory; future PRs regress
//! against it.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use std::path::PathBuf;
use std::time::Duration;
use usipc::{QueueKind, WaitStrategy};
use usipc_lab::{run_waitset_load_experiment, Mechanism, NativeExperiment, NativeExperimentResult};

/// `MAX_SPIN` for the BSLS run (the paper's §4.2 sweet spot is workload
/// dependent; 50 polls is the repo-wide default used by Fig. 10's midpoint).
const BSLS_MAX_SPIN: u32 = 50;

/// One measured protocol, reduced to the JSON/table fields.
struct ProtocolBaseline {
    name: &'static str,
    detail: String,
    /// `"threads"` (in-process, the library default) or `"procs"`
    /// (forked child over a memfd arena).
    mode: &'static str,
    /// Channel queue representation: `"two_lock"` or `"ring"`.
    queue: &'static str,
    round_trips: u64,
    elapsed_ms: f64,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    sem_ops_per_rt: f64,
    kernel_crossings_per_rt: f64,
    sem_kernel_waits_per_rt: f64,
    sem_kernel_wakes_per_rt: f64,
    blocks_per_rt: f64,
    stray_wakeups: u64,
}

/// Exact latency stats from the raw nanosecond samples (nearest-rank
/// quantiles on the sorted set). The log₂ histogram the harness also
/// keeps quantizes each sample to a power-of-two bucket, so its readout
/// is only within √2 of the true quantile — raw samples cost 8 bytes a
/// round trip and give the true number.
struct SampleStats {
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_us: f64,
}

/// The nearest-rank quantile (`⌈q·N⌉`-th smallest, 1-indexed) of an
/// already-sorted sample set, in microseconds. This is the textbook
/// definition: p99 of N=4 is the 4th value (the max), p50 of N=100 is
/// the 50th — always an actual sample, never an interpolation. (The
/// previous `round((N-1)·q)` was neither nearest-rank nor interpolated:
/// for N=4 it put p99 at index 3 by luck but p50 at index 2 instead of
/// rank 2, a half-rank bias that over-reported small-N medians.)
fn nearest_rank_us(sorted: &[u64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// `None` when there are no samples — the caller skips the row rather
/// than emitting one full of `null`s (the old NaN sentinel path; before
/// that, an empty set underflowed the quantile index outright).
fn sample_stats(samples: &[u64]) -> Option<SampleStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(SampleStats {
        p50_us: nearest_rank_us(&sorted, 0.50),
        p99_us: nearest_rank_us(&sorted, 0.99),
        p999_us: nearest_rank_us(&sorted, 0.999),
        mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64 / 1e3,
    })
}

fn protocols() -> [(&'static str, WaitStrategy); 4] {
    [
        ("BSS", WaitStrategy::Bss),
        ("BSW", WaitStrategy::Bsw),
        ("BSWY", WaitStrategy::Bswy),
        (
            "BSLS",
            WaitStrategy::Bsls {
                max_spin: BSLS_MAX_SPIN,
            },
        ),
    ]
}

fn measure(
    name: &'static str,
    strategy: WaitStrategy,
    clients: usize,
    msgs_per_client: u64,
    queue_kind: QueueKind,
) -> Option<ProtocolBaseline> {
    let run: NativeExperimentResult = NativeExperiment::new(Mechanism::UserLevel(strategy))
        .clients(clients)
        .messages(msgs_per_client)
        .queue(queue_kind)
        .run();
    // Each client's disconnect is a full round trip too (metrics include
    // it; the raw samples cover only the echoes), so divide by both.
    let rt = run.messages + clients as u64;
    let totals = run.server_metrics.add(&run.client_metrics);
    let per_rt = |v: u64| v as f64 / rt as f64;
    let stats = sample_stats(&run.client_samples)?;
    Some(ProtocolBaseline {
        name,
        detail: strategy.name(),
        mode: "threads",
        queue: queue_kind.label(),
        round_trips: rt,
        elapsed_ms: run.elapsed.as_secs_f64() * 1e3,
        throughput: run.throughput,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        p999_us: stats.p999_us,
        mean_us: stats.mean_us,
        sem_ops_per_rt: per_rt(totals.sem_ops()),
        kernel_crossings_per_rt: per_rt(totals.kernel_crossings()),
        sem_kernel_waits_per_rt: per_rt(totals.sem_kernel_waits),
        sem_kernel_wakes_per_rt: per_rt(totals.sem_kernel_wakes),
        blocks_per_rt: per_rt(totals.blocks_entered),
        stray_wakeups: totals.stray_wakeups_absorbed,
    })
}

/// The `--procs` rows: the same protocols with the client on the far
/// side of a `fork()`, attached to the server's memfd segment by
/// inherited fd. Runs FIRST (before any thread-mode run) so the process
/// is still single-threaded at every `fork()`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn measure_procs_all(clients: usize, msgs_per_client: u64) -> Vec<ProtocolBaseline> {
    use usipc_lab::ProcExperiment;
    protocols()
        .iter()
        .filter_map(|&(name, strategy)| {
            let run = ProcExperiment::new(strategy)
                .clients(clients)
                .messages(msgs_per_client)
                .run();
            let rt = run.messages + clients as u64;
            let totals = run.server_metrics.add(&run.client_metrics);
            let per_rt = |v: u64| v as f64 / rt as f64;
            let stats = sample_stats(&run.client_samples)?;
            Some(ProtocolBaseline {
                name,
                detail: strategy.name(),
                mode: "procs",
                queue: QueueKind::default().label(),
                round_trips: rt,
                elapsed_ms: run.elapsed.as_secs_f64() * 1e3,
                throughput: run.throughput,
                p50_us: stats.p50_us,
                p99_us: stats.p99_us,
                p999_us: stats.p999_us,
                mean_us: stats.mean_us,
                sem_ops_per_rt: per_rt(totals.sem_ops()),
                kernel_crossings_per_rt: per_rt(totals.kernel_crossings()),
                sem_kernel_waits_per_rt: per_rt(totals.sem_kernel_waits),
                sem_kernel_wakes_per_rt: per_rt(totals.sem_kernel_wakes),
                blocks_per_rt: per_rt(totals.blocks_entered),
                stray_wakeups: totals.stray_wakeups_absorbed,
            })
        })
        .collect()
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn measure_procs_all(_clients: usize, _msgs_per_client: u64) -> Vec<ProtocolBaseline> {
    Vec::new()
}

/// The client counts swept by the WaitSet load matrix. Each is an order
/// of magnitude apart so the doorbell-coalescing curve is visible: at 1
/// client every notify rings; at 512 a single wake drains many sources.
const LOAD_CLIENTS: [usize; 4] = [1, 8, 64, 512];

/// One cell of the WaitSet load matrix: `clients` open-loop clients
/// multiplexed onto `shards` worker tasks, latency measured against each
/// message's *scheduled* send time (coordinated-omission corrected).
struct LoadRow {
    clients: usize,
    shards: usize,
    msgs_per_client: u64,
    interval_us: f64,
    round_trips: u64,
    elapsed_ms: f64,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    mean_us: f64,
    doorbells_rung: u64,
    doorbells_coalesced: u64,
    waitset_wakes: u64,
    /// `doorbells_rung / waitset_wakes` — the design's budget pins this
    /// at ≤ 1 (each wake is paid for by at most one `V`).
    doorbell_vs_per_wake: f64,
}

/// Runs one load-matrix cell. Offered load is scaled with the client
/// count (fixed ~10 µs of aggregate inter-arrival headroom per client)
/// so the sweep stresses *fan-in*, not raw saturation; message counts
/// shrink as clients grow to keep the cell's wall-clock bounded.
fn measure_load(clients: usize, opts_msgs: u64) -> Option<LoadRow> {
    let shards = clients.min(4);
    let interval = Duration::from_micros(10 * clients as u64);
    let msgs = opts_msgs.min((20_000 / clients as u64).max(50));
    let run = run_waitset_load_experiment(clients, msgs, shards, interval);
    let stats = sample_stats(&run.client_samples)?;
    let rt: u64 = run.server_runs.iter().map(|r| r.processed).sum();
    let sm = &run.server_metrics;
    let cm = &run.client_metrics;
    Some(LoadRow {
        clients,
        shards,
        msgs_per_client: msgs,
        interval_us: interval.as_secs_f64() * 1e6,
        round_trips: rt,
        elapsed_ms: run.elapsed.as_secs_f64() * 1e3,
        throughput: run.throughput,
        p50_us: stats.p50_us,
        p99_us: stats.p99_us,
        p999_us: stats.p999_us,
        mean_us: stats.mean_us,
        doorbells_rung: cm.doorbells_rung,
        doorbells_coalesced: cm.doorbells_coalesced,
        waitset_wakes: sm.waitset_wakes,
        doorbell_vs_per_wake: cm.doorbells_rung as f64 / sm.waitset_wakes.max(1) as f64,
    })
}

/// JSON number: finite values with fixed precision, `null` otherwise (JSON
/// has no NaN; an empty sample set must not produce an unparsable file).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn to_json(
    clients: usize,
    msgs_per_client: u64,
    rows: &[ProtocolBaseline],
    load: &[LoadRow],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"usipc-bench-protocols/v6\",\n");
    s.push_str("  \"backend\": \"native\",\n");
    s.push_str("  \"quantiles\": \"exact\",\n");
    s.push_str(&format!("  \"clients\": {clients},\n"));
    s.push_str(&format!("  \"msgs_per_client\": {msgs_per_client},\n"));
    s.push_str("  \"protocols\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        s.push_str(&format!("      \"detail\": \"{}\",\n", r.detail));
        s.push_str(&format!("      \"mode\": \"{}\",\n", r.mode));
        s.push_str(&format!("      \"queue\": \"{}\",\n", r.queue));
        s.push_str(&format!("      \"round_trips\": {},\n", r.round_trips));
        s.push_str(&format!("      \"elapsed_ms\": {},\n", num(r.elapsed_ms)));
        s.push_str(&format!(
            "      \"throughput_msgs_per_ms\": {},\n",
            num(r.throughput)
        ));
        s.push_str(&format!("      \"p50_us\": {},\n", num(r.p50_us)));
        s.push_str(&format!("      \"p99_us\": {},\n", num(r.p99_us)));
        s.push_str(&format!("      \"p999_us\": {},\n", num(r.p999_us)));
        s.push_str(&format!("      \"mean_us\": {},\n", num(r.mean_us)));
        s.push_str(&format!(
            "      \"sem_ops_per_rt\": {},\n",
            num(r.sem_ops_per_rt)
        ));
        s.push_str(&format!(
            "      \"kernel_crossings_per_rt\": {},\n",
            num(r.kernel_crossings_per_rt)
        ));
        s.push_str(&format!(
            "      \"sem_kernel_waits_per_rt\": {},\n",
            num(r.sem_kernel_waits_per_rt)
        ));
        s.push_str(&format!(
            "      \"sem_kernel_wakes_per_rt\": {},\n",
            num(r.sem_kernel_wakes_per_rt)
        ));
        s.push_str(&format!(
            "      \"blocks_per_rt\": {},\n",
            num(r.blocks_per_rt)
        ));
        s.push_str(&format!("      \"stray_wakeups\": {}\n", r.stray_wakeups));
        s.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"load_matrix\": [\n");
    for (i, r) in load.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"clients\": {},\n", r.clients));
        s.push_str(&format!("      \"shards\": {},\n", r.shards));
        s.push_str(&format!(
            "      \"msgs_per_client\": {},\n",
            r.msgs_per_client
        ));
        s.push_str(&format!("      \"interval_us\": {},\n", num(r.interval_us)));
        s.push_str(&format!("      \"round_trips\": {},\n", r.round_trips));
        s.push_str(&format!("      \"elapsed_ms\": {},\n", num(r.elapsed_ms)));
        s.push_str(&format!(
            "      \"throughput_msgs_per_ms\": {},\n",
            num(r.throughput)
        ));
        s.push_str(&format!("      \"p50_us\": {},\n", num(r.p50_us)));
        s.push_str(&format!("      \"p99_us\": {},\n", num(r.p99_us)));
        s.push_str(&format!("      \"p999_us\": {},\n", num(r.p999_us)));
        s.push_str(&format!("      \"mean_us\": {},\n", num(r.mean_us)));
        s.push_str(&format!(
            "      \"doorbells_rung\": {},\n",
            r.doorbells_rung
        ));
        s.push_str(&format!(
            "      \"doorbells_coalesced\": {},\n",
            r.doorbells_coalesced
        ));
        s.push_str(&format!("      \"waitset_wakes\": {},\n", r.waitset_wakes));
        s.push_str(&format!(
            "      \"doorbell_vs_per_wake\": {}\n",
            num(r.doorbell_vs_per_wake)
        ));
        s.push_str(if i + 1 == load.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

fn baseline_table(title: &str, rows: &[ProtocolBaseline]) -> Table {
    let mut table = Table::new(
        title,
        "protocol#",
        "mixed",
        vec![
            "p50_us".into(),
            "p99_us".into(),
            "mean_us".into(),
            "msgs/ms".into(),
            "sem_ops/rt".into(),
            "kwaits/rt".into(),
            "kwakes/rt".into(),
        ],
    );
    for (i, r) in rows.iter().enumerate() {
        table.push_row(
            i as f64,
            vec![
                r.p50_us,
                r.p99_us,
                r.mean_us,
                r.throughput,
                r.sem_ops_per_rt,
                r.sem_kernel_waits_per_rt,
                r.sem_kernel_wakes_per_rt,
            ],
        );
    }
    table
}

fn load_table(rows: &[LoadRow]) -> Table {
    let mut table = Table::new(
        "WaitSet load matrix (open-loop clients → sharded doorbell server)",
        "clients",
        "mixed",
        vec![
            "shards".into(),
            "p50_us".into(),
            "p99_us".into(),
            "p999_us".into(),
            "msgs/ms".into(),
            "V/wake".into(),
        ],
    );
    for r in rows {
        table.push_row(
            r.clients as f64,
            vec![
                r.shards as f64,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.throughput,
                r.doorbell_vs_per_wake,
            ],
        );
    }
    table
}

pub(crate) fn run(opts: RunOpts) -> ExperimentOutput {
    let clients = 1; // single ping-pong pair: the latency baseline

    // Fork-mode rows first: `fork()` from a process that has never
    // spawned a thread is unconditionally safe; the thread-mode harness
    // joins its workers but there is no reason to rely on that here.
    let proc_rows: Vec<ProtocolBaseline> = if opts.procs {
        measure_procs_all(clients, opts.msgs_per_client)
    } else {
        Vec::new()
    };

    // Both queue kinds, every protocol: the ring-vs-two-lock delta is
    // the PR-over-PR signal `figures regress` bands on.
    let mut rows: Vec<ProtocolBaseline> = [QueueKind::TwoLock, QueueKind::Ring]
        .iter()
        .flat_map(|&kind| {
            protocols().into_iter().filter_map(move |(name, strategy)| {
                measure(name, strategy, clients, opts.msgs_per_client, kind)
            })
        })
        .collect();

    // The WaitSet load matrix: fan-in scaling from 1 to `load_max_clients`
    // open-loop clients (`--load-clients 0` skips it entirely).
    let load_rows: Vec<LoadRow> = LOAD_CLIENTS
        .iter()
        .filter(|&&c| c <= opts.load_max_clients)
        .filter_map(|&c| measure_load(c, opts.msgs_per_client))
        .collect();

    let mut tables = vec![baseline_table(
        "native protocol baseline (1 client, threads, two_lock then ring rows)",
        &rows,
    )];
    if !proc_rows.is_empty() {
        tables.push(baseline_table(
            "cross-process baseline (1 forked client over a memfd segment)",
            &proc_rows,
        ));
    }
    if !load_rows.is_empty() {
        tables.push(load_table(&load_rows));
    }

    let mut notes: Vec<String> = rows
        .iter()
        .chain(proc_rows.iter())
        .enumerate()
        .map(|(i, r)| {
            format!(
                "protocol {i} = {} [{}/{}]: p50 {:.2} µs, p99 {:.2} µs, {:.2} sem ops/RT, \
                 {:.3} kernel waits/RT, {:.3} kernel wakes/RT, block rate {:.3}",
                r.detail,
                r.mode,
                r.queue,
                r.p50_us,
                r.p99_us,
                r.sem_ops_per_rt,
                r.sem_kernel_waits_per_rt,
                r.sem_kernel_wakes_per_rt,
                r.blocks_per_rt,
            )
        })
        .collect();
    if opts.procs && proc_rows.is_empty() {
        notes.push("! --procs requires linux on x86_64/aarch64; procs rows skipped".into());
    }
    for r in &load_rows {
        notes.push(format!(
            "load {} clients / {} shards: p50 {:.2} µs, p99 {:.2} µs, p999 {:.2} µs, \
             {:.2} doorbell V per wake ({} rung / {} coalesced)",
            r.clients,
            r.shards,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.doorbell_vs_per_wake,
            r.doorbells_rung,
            r.doorbells_coalesced,
        ));
    }
    if opts.load_max_clients == 0 {
        notes.push("! load matrix disabled (--load-clients 0)".into());
    }

    let dir = opts.bench_dir.unwrap_or_else(|| PathBuf::from("results"));
    rows.extend(proc_rows);
    let json = to_json(clients, opts.msgs_per_client, &rows, &load_rows);
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("BENCH_protocols.json"), &json))
    {
        Ok(()) => notes.push(format!("→ {}", dir.join("BENCH_protocols.json").display())),
        Err(e) => notes.push(format!("! BENCH_protocols.json write failed: {e}")),
    }

    ExperimentOutput {
        id: "bench",
        tables,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::{nearest_rank_us, sample_stats};

    /// Satellite of the quantile fix: empty input is `None`, never a
    /// panic or a NaN row.
    #[test]
    fn empty_samples_yield_no_stats() {
        assert!(sample_stats(&[]).is_none());
    }

    /// Nearest-rank at small N: p99 of 4 samples is the max (rank
    /// ⌈0.99·4⌉ = 4), p50 is the 2nd (rank ⌈0.5·4⌉ = 2). The old
    /// `round((N-1)·q)` formula returned the 3rd value for p50 here.
    #[test]
    fn nearest_rank_small_n_is_exact() {
        let sorted = [1_000, 2_000, 3_000, 9_000];
        assert_eq!(nearest_rank_us(&sorted, 0.99), 9.0);
        assert_eq!(nearest_rank_us(&sorted, 0.999), 9.0);
        assert_eq!(nearest_rank_us(&sorted, 0.50), 2.0);
        assert_eq!(nearest_rank_us(&sorted, 0.0), 1.0); // clamped to rank 1
        assert_eq!(nearest_rank_us(&sorted, 1.0), 9.0);
    }

    /// N=100: p50 is exactly the 50th smallest, p99 the 99th — the
    /// textbook ranks, against which the log₂-histogram readout may be
    /// off by up to √2.
    #[test]
    fn nearest_rank_n100_matches_textbook_ranks() {
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(nearest_rank_us(&sorted, 0.50), 50.0);
        assert_eq!(nearest_rank_us(&sorted, 0.99), 99.0);
        assert_eq!(nearest_rank_us(&sorted, 0.999), 100.0);
        let stats = sample_stats(&sorted).expect("non-empty");
        assert_eq!(stats.p50_us, 50.0);
        assert_eq!(stats.p99_us, 99.0);
        assert_eq!(stats.p999_us, 100.0);
    }
}
