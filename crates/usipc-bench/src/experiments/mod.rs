//! One module per paper artifact; see DESIGN.md §5 for the index.

mod asynch;
mod bench;
mod chaos;
mod explore;
mod faults;
mod fig10;
mod fig11;
mod fig12;
mod fig2;
mod fig3;
mod fig6;
mod fig8;
mod flight;
mod mixed;
mod mlfq;
mod stats;
mod syscalls;
mod table1;
mod threaded;
mod throttle;
mod tracecmp;

use crate::table::Table;
use std::path::PathBuf;
use usipc::WaitStrategy;
use usipc_lab::{Mechanism, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

/// Output of one experiment: tables plus free-form observations.
#[derive(Debug)]
pub struct ExperimentOutput {
    /// Experiment id (`fig2`, `table1`, ...).
    pub id: &'static str,
    /// Result tables (one per sub-plot).
    pub tables: Vec<Table>,
    /// Notes comparing against the paper's reported values.
    pub notes: Vec<String>,
}

/// Tuning knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Round trips per client (the paper uses "many thousands").
    pub msgs_per_client: u64,
    /// Largest uniprocessor client count (the paper sweeps 1–6).
    pub max_clients: usize,
    /// Largest multiprocessor client count (Fig. 11 and the MP ablations).
    pub mp_max_clients: usize,
    /// DFS branching-depth bound for the `explore` experiment (CI uses a
    /// small bound to stay within its time budget).
    pub explore_depth: usize,
    /// Directory event traces are written to (`--trace DIR`); `None` uses
    /// the `trace` experiment's default (`results/trace`).
    pub trace_dir: Option<PathBuf>,
    /// Directory every output file goes to (`--out DIR`, default
    /// `results`): the CSVs, `FLIGHT_postmortem.json` and
    /// `trace_fault_peerdeath.trace.json`.
    pub out_dir: PathBuf,
    /// `--procs`: the `bench` experiment additionally measures every
    /// protocol across a real `fork()` — parent server, child client,
    /// memfd segment — and records the thread-vs-process round-trip
    /// costs side by side (Linux x86_64/aarch64 only).
    pub procs: bool,
    /// Largest client count the `bench` load matrix sweeps to
    /// (`--load-clients N`; cells above `N` are skipped, `0` disables
    /// the matrix — CI caps this at 8 to bound wall-clock).
    pub load_max_clients: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            msgs_per_client: 2_000,
            max_clients: 6,
            mp_max_clients: 12,
            explore_depth: 7,
            trace_dir: None,
            out_dir: PathBuf::from("results"),
            procs: false,
            load_max_clients: 512,
        }
    }
}

/// All experiment ids, in paper order.
pub fn all_ids() -> &'static [&'static str] {
    &[
        "table1", "fig2", "fig3", "fig6", "fig8", "fig10", "fig11", "fig12", "stats", "syscalls",
        "throttle", "threaded", "mlfq", "async", "mixed", "explore", "trace", "bench", "faults",
        "flight", "chaos",
    ]
}

/// One-line description of an experiment id (shown by `figures list`).
pub fn describe(id: &str) -> Option<&'static str> {
    Some(match id {
        "table1" => "Table 1: measured times for primitive operations",
        "fig2" => "Fig. 2: BSS vs System V message queues on the two uniprocessors",
        "fig3" => "Fig. 3: the effect of fixed (non-degrading) priorities on BSS",
        "fig6" => "Fig. 6: the basic blocking protocol (BSW) vs SysV",
        "fig8" => "Fig. 8: Both Sides Wait and Yield under default and fixed priorities",
        "fig10" => "Fig. 10: BSLS sensitivity to MAX_SPIN on the uniprocessor",
        "fig11" => "Fig. 11: all protocols on the 8-processor SGI Challenge",
        "fig12" => "Fig. 12: Linux with the modified sched_yield, plus the handoff syscall",
        "stats" => "in-text instrumentation claims (blocks, yields, context switches)",
        "syscalls" => "live system-call accounting: sem ops, kernel crossings, block rates",
        "throttle" => "ablation: §5 overload-aware wake-up throttling server",
        "threaded" => "ablation: §2.1 thread-per-client duplex server on the 8-way machine",
        "mlfq" => "ablation: degrading-priority model vs a real multilevel feedback queue",
        "async" => "extension: asynchronous request batching (§1 motivation)",
        "mixed" => "the thesis: blocking IPC and batch throughput under multiprogramming",
        "explore" => "machine-checking the Fig. 4 races with the schedule-space explorer",
        "trace" => "unified event traces: five protocols on both backends, Chrome JSON + ASCII",
        "bench" => "native protocols + SysV: sketched p50/p99/p999 (within 11.8 %) and exact mean round-trip latency, syscalls/RT and the WaitSet load matrix; asserts the sem-op and doorbell budgets (--procs adds forked-client rows, --load-clients caps the matrix)",
        "faults" => "robustness: fault-free deadline-path overhead (information) + explorer no-deadlock kill sweep and peer-death trace (asserted)",
        "flight" => "fault flight recorder: cross-process kill drill → Perfetto postmortem with the SIGKILLed victim's final events (fork-based; run first or alone)",
        "chaos" => "fault storms: mass client SIGKILL, server kill at swept sites, poison cascades, kill-during-recovery → recovery latency; asserts every conservation ledger (fork-based; run first or alone)",
        _ => return None,
    })
}

/// Runs one experiment by id.
pub fn run_experiment(id: &str, opts: RunOpts) -> Option<ExperimentOutput> {
    Some(match id {
        "table1" => table1::run(opts),
        "fig2" => fig2::run(opts),
        "fig3" => fig3::run(opts),
        "fig6" => fig6::run(opts),
        "fig8" => fig8::run(opts),
        "fig10" => fig10::run(opts),
        "fig11" => fig11::run(opts),
        "fig12" => fig12::run(opts),
        "stats" => stats::run(opts),
        "syscalls" => syscalls::run(opts),
        "throttle" => throttle::run(opts),
        "threaded" => threaded::run(opts),
        "mlfq" => mlfq::run(opts),
        "async" => asynch::run(opts),
        "mixed" => mixed::run(opts),
        "explore" => explore::run(opts),
        "trace" => tracecmp::run(opts),
        "bench" => bench::run(opts),
        "faults" => faults::run(opts),
        "flight" => flight::run(opts),
        "chaos" => chaos::run(opts),
        _ => return None,
    })
}

/// One column of a throughput table: a (policy, mechanism) pair swept over
/// client counts.
pub(crate) struct Column {
    pub name: String,
    pub policy: PolicyKind,
    pub mechanism: Mechanism,
}

impl Column {
    pub(crate) fn new(name: &str, policy: PolicyKind, mechanism: Mechanism) -> Self {
        Column {
            name: name.into(),
            policy,
            mechanism,
        }
    }
}

/// Sweeps every column over `clients`, measuring server throughput in
/// messages per millisecond — the y-axis of every figure.
pub(crate) fn throughput_table(
    title: &str,
    machine: &MachineModel,
    cols: &[Column],
    clients: &[usize],
    msgs: u64,
) -> Table {
    let mut t = Table::new(
        title,
        "clients",
        "messages/ms",
        cols.iter().map(|c| c.name.clone()).collect(),
    );
    for &n in clients {
        let cells = cols
            .iter()
            .map(|c| {
                let exp = SimExperiment::new(machine.clone(), c.policy, c.mechanism)
                    .clients(n)
                    .messages(msgs);
                exp.run().throughput
            })
            .collect();
        t.push_row(n as f64, cells);
    }
    t
}

/// The paper's four user-level protocols as every native experiment runs
/// them: `MAX_SPIN` 50 for BSLS (the §4.2 sweet spot is workload
/// dependent; 50 polls is Fig. 10's midpoint).
pub(crate) const PROTOCOLS: [WaitStrategy; 4] = [
    WaitStrategy::Bss,
    WaitStrategy::Bsw,
    WaitStrategy::Bswy,
    WaitStrategy::Bsls { max_spin: 50 },
];

/// Client counts 1..=max.
pub(crate) fn client_range(max: usize) -> Vec<usize> {
    (1..=max).collect()
}

/// `Ok` when `holds`, else the violation `why` describes.
pub(crate) fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// Fails the experiment — and so its CI job — when an exact invariant
/// it measured does not hold. Counts are gated here, in the process that
/// counted them; time is gated by the repo benchmark (`bench/`) alone.
pub(crate) fn enforce<T>(check: Result<T, String>) -> T {
    check.unwrap_or_else(|violation| panic!("invariant violated: {violation}"))
}

#[cfg(test)]
mod tests {
    use super::enforce;

    #[test]
    #[should_panic(expected = "invariant violated: budget")]
    fn a_violated_invariant_fails_the_experiment() {
        enforce::<()>(Err("budget".into()));
    }
}
