//! Ready-made client/server workloads — the paper's benchmark, runnable on
//! both backends.
//!
//! §2.2 describes the workload every figure uses: *n* clients connect to a
//! single-threaded echo server, barrier, and then "barrage the server with
//! many thousands of message requests"; the throughput is messages over the
//! real elapsed time from the first request to the last disconnect. This
//! module packages that workload for the simulator
//! ([`run_sim_experiment`]) and for real threads
//! ([`run_native_experiment`]).

use crate::channel::{Channel, ChannelConfig};
use crate::metrics::{LatencySnapshot, MetricsRegistry, MetricsSnapshot};
use crate::platform::OsServices;
use crate::protocol::WaitStrategy;
use crate::simulated::{SimCosts, SimIds, SimOs};
use crate::sysv::{sysv_disconnect, sysv_echo};
use crate::trace::{TraceRegistry, UnifiedTrace};
use crate::{NativeConfig, NativeOs};
use std::sync::Arc;
use usipc_queue::QueueKind;
use usipc_sim::{MachineModel, PolicyKind, SimBuilder, SimReport, VDur};

/// Mark code: a client is about to issue its first request.
pub const MARK_FIRST_SEND: u64 = 1;
/// Mark code: the server observed the last disconnect.
pub const MARK_SERVER_DONE: u64 = 2;

/// Which IPC mechanism an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// User-level IPC under the given wait strategy.
    UserLevel(WaitStrategy),
    /// The kernel-mediated System V baseline.
    SysV,
    /// BSLS clients against the overload-aware server that throttles
    /// wake-ups (the paper's §5 future work; see
    /// [`run_throttled_server`](crate::run_throttled_server)).
    Throttled {
        /// Client and server spin budget.
        max_spin: u32,
        /// Deferred wake-ups issued per server cycle.
        wake_batch: usize,
    },
}

impl Mechanism {
    /// Short name for tables and CSV files.
    pub fn name(self) -> String {
        match self {
            Mechanism::UserLevel(s) => s.name(),
            Mechanism::SysV => "SysV".into(),
            Mechanism::Throttled { max_spin, .. } => format!("THR({max_spin})"),
        }
    }
}

/// One cell of an experiment grid: machine × policy × mechanism × clients.
#[derive(Debug, Clone)]
pub struct SimExperiment {
    /// Cost model.
    pub machine: MachineModel,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// IPC mechanism under test.
    pub mechanism: Mechanism,
    /// Number of client processes.
    pub n_clients: usize,
    /// Request/reply round trips per client (before the disconnect).
    pub msgs_per_client: u64,
    /// Depth of each shared queue.
    pub queue_capacity: usize,
    /// Maximum extra per-request service time, drawn deterministically per
    /// message (hash of client and argument). Zero for the pure echo
    /// micro-benchmark; nonzero to model real service-time variability —
    /// which is what gives BSLS its nonzero fall-through rates (§4.2).
    pub service_jitter: VDur,
    /// Per-task event-trace ring capacity; `None` disables tracing. When
    /// set, the result carries a [`UnifiedTrace`] merging protocol events
    /// with the engine's scheduling timeline. Tracing never perturbs the
    /// virtual-time schedule (timestamps are zero-cost `Now` requests).
    pub trace_capacity: Option<usize>,
}

impl SimExperiment {
    /// The paper's standard workload shape on the given machine/policy.
    pub fn new(machine: MachineModel, policy: PolicyKind, mechanism: Mechanism) -> Self {
        SimExperiment {
            machine,
            policy,
            mechanism,
            n_clients: 1,
            msgs_per_client: 2_000,
            queue_capacity: 64,
            service_jitter: VDur::ZERO,
            trace_capacity: None,
        }
    }

    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets the per-client message count.
    pub fn messages(mut self, n: u64) -> Self {
        self.msgs_per_client = n;
        self
    }

    /// Sets the maximum per-request service jitter.
    pub fn jitter(mut self, j: VDur) -> Self {
        self.service_jitter = j;
        self
    }

    /// Enables event tracing with the given per-task ring capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }
}

/// Deterministic per-message jitter in `[0, max)` from a 64-bit mix of the
/// client id and the request argument.
pub fn jitter_for(channel: u32, value: f64, max: VDur) -> VDur {
    if max.is_zero() {
        return VDur::ZERO;
    }
    let mut h = value.to_bits() ^ (channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    VDur::nanos(h % max.as_nanos().max(1))
}

/// Results of one simulated experiment cell.
#[derive(Debug, Clone)]
pub struct SimExperimentResult {
    /// Full simulator report (per-task rusage, marks, outcome).
    pub report: SimReport,
    /// First request → last disconnect, the paper's measurement window.
    pub elapsed: VDur,
    /// ECHO messages processed (disconnects excluded).
    pub messages: u64,
    /// Server throughput in messages per millisecond — the y-axis of every
    /// throughput figure.
    pub throughput: f64,
    /// Mean round-trip latency per message in microseconds.
    pub latency_us: f64,
    /// Protocol events recorded by the server task.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client task.
    pub client_metrics: MetricsSnapshot,
    /// Round-trip latency histogram merged over every client task
    /// (virtual-time samples; empty for the SysV baseline, which bypasses
    /// the channel layer).
    pub client_latency: LatencySnapshot,
    /// The unified event trace (protocol events + bridged scheduler
    /// timeline), present when the experiment enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Runs one experiment cell on the simulator.
///
/// Task 0 is the server; tasks `1..=n` are clients. Clients meet at a
/// kernel barrier before the barrage, mirroring §2.2.
///
/// # Panics
///
/// If the simulation does not complete (deadlock, overflow, task panic) —
/// in an experiment harness any such outcome is a protocol bug worth a loud
/// failure.
pub fn run_sim_experiment(exp: &SimExperiment) -> SimExperimentResult {
    let n = exp.n_clients;
    assert!(n >= 1);
    let multiprocessor = exp.machine.cpus > 1;
    let costs = SimCosts::from_machine(&exp.machine);
    let mut b = SimBuilder::new(exp.machine.clone(), exp.policy.build());
    // One virtual hour default is plenty; linux-old BSS at 33 ms per round
    // trip with thousands of messages can exceed it, so scale generously.
    b.time_limit(VDur::seconds(24 * 3600));

    let mut ids = SimIds::default();
    for _ in 0..=n {
        ids.sems.push(b.add_sem(0));
    }
    for _ in 0..=n {
        ids.msgqs.push(b.add_msgq(exp.queue_capacity));
    }
    let start_barrier = b.add_barrier(n as u32);
    let ids = Arc::new(ids);

    let channel = Channel::create(&ChannelConfig {
        queue_capacity: exp.queue_capacity,
        ..ChannelConfig::new(n)
    })
    .expect("channel creation");

    let mechanism = exp.mechanism;
    let msgs = exp.msgs_per_client;
    let jitter = exp.service_jitter;
    let metrics = Arc::new(MetricsRegistry::new());
    let traces = exp.trace_capacity.map(|cap| {
        b.trace(true); // also capture the engine's scheduling timeline
        Arc::new(TraceRegistry::new(cap))
    });

    // Server: task 0 == Pid(0).
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(0);
        let ring = traces.as_ref().map(|t| t.for_task(0));
        b.spawn("server", move |sys| {
            let mut os = SimOs::new(sys, ids, costs, multiprocessor, 0).with_metrics(sink);
            if let Some(r) = ring {
                os = os.with_trace(r);
            }
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let _ = crate::server::run_server(&ch, &os, strategy, |m| {
                        os.compute(jitter_for(m.channel, m.value, jitter).as_nanos());
                        m
                    });
                }
                Mechanism::SysV => {
                    let _ = crate::sysv::run_sysv_server(&os, n as u32, |m| {
                        os.compute(jitter_for(m.channel, m.value, jitter).as_nanos());
                        m
                    });
                }
                Mechanism::Throttled {
                    max_spin,
                    wake_batch,
                } => {
                    // NOTE: the throttled server ignores `jitter` — it is a
                    // pure-echo ablation of the wake-up path.
                    let _ = crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch);
                }
            }
            sys.mark(MARK_SERVER_DONE);
        });
    }

    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(1 + c);
        let ring = traces.as_ref().map(|t| t.for_task(1 + c));
        b.spawn(format!("client{c}"), move |sys| {
            let mut os = SimOs::new(sys, ids, costs, multiprocessor, 1 + c).with_metrics(sink);
            if let Some(r) = ring {
                os = os.with_trace(r);
            }
            sys.barrier(start_barrier);
            sys.mark(MARK_FIRST_SEND);
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let ep = ch.client(&os, c, strategy);
                    for i in 0..msgs {
                        let v = ep.echo(i as f64);
                        assert_eq!(v, i as f64, "echo corrupted");
                    }
                    ep.disconnect();
                }
                Mechanism::SysV => {
                    for i in 0..msgs {
                        let v = sysv_echo(&os, c, i as f64);
                        assert_eq!(v, i as f64, "sysv echo corrupted");
                    }
                    sysv_disconnect(&os, c);
                }
                Mechanism::Throttled { max_spin, .. } => {
                    let ep = ch.client(&os, c, WaitStrategy::Bsls { max_spin });
                    for i in 0..msgs {
                        let v = ep.echo(i as f64);
                        assert_eq!(v, i as f64, "echo corrupted");
                    }
                    ep.disconnect();
                }
            }
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "experiment did not complete: {:?} (mechanism {:?}, {} clients)",
        report.outcome,
        exp.mechanism,
        n
    );
    let start = report
        .first_mark(MARK_FIRST_SEND)
        .expect("clients marked their first send");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server marked completion");
    let elapsed = done.since(start);
    let messages = msgs * n as u64;
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let trace = traces.map(|t| {
        let mut names = vec![(0, "server".to_string())];
        for c in 0..n as u32 {
            names.push((1 + c, format!("client{c}")));
        }
        let mut u = t.collect(&names);
        u.merge_sim(&report.trace);
        u
    });
    SimExperimentResult {
        throughput: messages as f64 / ms,
        latency_us: elapsed.as_micros_f64() / messages.max(1) as f64,
        elapsed,
        messages,
        server_metrics: metrics.task_snapshot(0),
        client_metrics: metrics.aggregate(|t| t != 0),
        client_latency: metrics.aggregate_latency(|t| t != 0),
        trace,
        report,
    }
}

/// Runs the §2.1 alternative architecture — a server thread per client
/// over full-duplex queue pairs — on the simulator, with the same
/// measurement window as [`run_sim_experiment`].
///
/// Task layout: tasks `0..n` are the per-connection server threads, tasks
/// `n..2n` the clients. Semaphores follow the duplex convention
/// (`2c` server thread, `2c + 1` client).
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_duplex_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    n_clients: usize,
    msgs_per_client: u64,
    max_spin: u32,
) -> SimExperimentResult {
    use crate::duplex::DuplexChannel;
    let n = n_clients;
    assert!(n >= 1);
    let multiprocessor = machine.cpus > 1;
    let costs = SimCosts::from_machine(machine);
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 * n {
        ids.sems.push(b.add_sem(0));
    }
    let start_barrier = b.add_barrier(n as u32);
    let ids = Arc::new(ids);
    let channel = DuplexChannel::create(n, 64).expect("duplex channel");
    let metrics = Arc::new(MetricsRegistry::new());

    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(c);
        b.spawn(format!("srv{c}"), move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, c).with_metrics(sink);
            let _ = ch.serve_connection(&os, c, max_spin, |m| m);
            sys.mark(MARK_SERVER_DONE);
        });
    }
    for c in 0..n as u32 {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(n as u32 + c);
        b.spawn(format!("client{c}"), move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, n as u32 + c).with_metrics(sink);
            sys.barrier(start_barrier);
            sys.mark(MARK_FIRST_SEND);
            for i in 0..msgs_per_client {
                let v = ch.echo(&os, c, i as f64, max_spin);
                assert_eq!(v, i as f64, "duplex echo corrupted");
            }
            ch.disconnect(&os, c, max_spin);
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "duplex experiment did not complete: {:?} ({n} clients)",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let messages = msgs_per_client * n as u64;
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let servers = n as u32;
    SimExperimentResult {
        throughput: messages as f64 / ms,
        latency_us: elapsed.as_micros_f64() / messages.max(1) as f64,
        elapsed,
        messages,
        server_metrics: metrics.aggregate(|t| t < servers),
        client_metrics: metrics.aggregate(|t| t >= servers),
        client_latency: metrics.aggregate_latency(|t| t >= servers),
        trace: None,
        report,
    }
}

/// Measures the asynchronous-batching gain of §1 on the simulator: one
/// client posts `batch` requests before collecting the replies, against a
/// BSW echo server. `batch == 1` degenerates to the synchronous protocol;
/// larger batches amortize the sleep/wake-up system calls across the
/// window ("the server ... can handle requests and respond without
/// invoking kernel services until all pending requests are processed").
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_async_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    batch: u64,
    msgs: u64,
) -> SimExperimentResult {
    use crate::asynch::AsyncClient;
    assert!(batch >= 1);
    let costs = SimCosts::from_machine(machine);
    let multiprocessor = machine.cpus > 1;
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 {
        ids.sems.push(b.add_sem(0));
    }
    let ids = Arc::new(ids);
    let channel = Channel::create(&ChannelConfig {
        queue_capacity: (batch as usize + 2).max(64),
        ..ChannelConfig::new(1)
    })
    .expect("channel creation");

    let metrics = Arc::new(MetricsRegistry::new());
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(0);
        b.spawn("server", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 0).with_metrics(sink);
            let _ = crate::server::run_echo_server(&ch, &os, WaitStrategy::Bsw);
            sys.mark(MARK_SERVER_DONE);
        });
    }
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let sink = metrics.for_task(1);
        b.spawn("client", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 1).with_metrics(sink);
            sys.mark(MARK_FIRST_SEND);
            let mut ac = AsyncClient::new(&ch, &os, 0);
            let mut issued = 0u64;
            while issued < msgs {
                let burst = batch.min(msgs - issued);
                for i in 0..burst {
                    assert!(
                        ac.post(crate::Message::echo(0, (issued + i) as f64)),
                        "queue sized for the batch"
                    );
                }
                for (i, m) in ac.collect_all().into_iter().enumerate() {
                    assert_eq!(m.value, (issued + i as u64) as f64);
                }
                issued += burst;
            }
            let ep = ch.client(&os, 0, WaitStrategy::Bsw);
            ep.disconnect();
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "async experiment did not complete: {:?} (batch {batch})",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let ms = elapsed.as_nanos() as f64 / 1e6;
    SimExperimentResult {
        throughput: msgs as f64 / ms,
        latency_us: elapsed.as_micros_f64() / msgs.max(1) as f64,
        elapsed,
        messages: msgs,
        server_metrics: metrics.task_snapshot(0),
        client_metrics: metrics.task_snapshot(1),
        client_latency: metrics.task_latency(1),
        trace: None,
        report,
    }
}

/// Results of a mixed (multiprogrammed) experiment: the IPC workload plus
/// a background batch job competing for the same processor.
#[derive(Debug, Clone)]
pub struct MixedExperimentResult {
    /// IPC echo throughput in messages/ms.
    pub ipc_throughput: f64,
    /// CPU time the batch job accumulated during the IPC run, as a share
    /// of the elapsed window (1.0 = a whole processor's worth).
    pub batch_share: f64,
    /// Full simulator report.
    pub report: SimReport,
}

/// The paper's *thesis*, §1, as an experiment: "To obtain the best overall
/// system throughput, particularly in multi-programmed environments, the
/// IPC mechanism should support blocking semantics."
///
/// One client with per-request think time runs the echo workload against
/// the server under `mechanism`, while a background batch job grinds pure
/// CPU on the same machine. Busy-waiting IPC burns the processor the batch
/// job could have used; blocking IPC hands it over. The result reports
/// both the IPC throughput and the batch job's share of the window.
///
/// # Panics
///
/// If the simulation does not complete.
pub fn run_mixed_sim_experiment(
    machine: &MachineModel,
    policy: PolicyKind,
    mechanism: Mechanism,
    msgs: u64,
    think: VDur,
) -> MixedExperimentResult {
    use core::sync::atomic::{AtomicBool, Ordering};
    let costs = SimCosts::from_machine(machine);
    let multiprocessor = machine.cpus > 1;
    let mut b = SimBuilder::new(machine.clone(), policy.build());
    b.time_limit(VDur::seconds(24 * 3600));
    let mut ids = SimIds::default();
    for _ in 0..2 {
        ids.sems.push(b.add_sem(0));
    }
    for _ in 0..2 {
        ids.msgqs.push(b.add_msgq(64));
    }
    let ids = Arc::new(ids);
    let channel = Channel::create(&ChannelConfig::new(1)).expect("channel creation");
    let stop = Arc::new(AtomicBool::new(false));

    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        b.spawn("server", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 0);
            match mechanism {
                Mechanism::UserLevel(strategy) => {
                    let _ = crate::server::run_echo_server(&ch, &os, strategy);
                }
                Mechanism::SysV => {
                    let _ = crate::sysv::run_sysv_echo_server(&os, 1);
                }
                Mechanism::Throttled {
                    max_spin,
                    wake_batch,
                } => {
                    let _ = crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch);
                }
            }
            sys.mark(MARK_SERVER_DONE);
        });
    }
    {
        let ch = channel.clone();
        let ids = Arc::clone(&ids);
        let stop = Arc::clone(&stop);
        b.spawn("client", move |sys| {
            let os = SimOs::new(sys, ids, costs, multiprocessor, 1);
            sys.mark(MARK_FIRST_SEND);
            for i in 0..msgs {
                if !think.is_zero() {
                    // Think time is *idle* time (the paper's infrequent
                    // clients are waiting on users or I/O, not computing).
                    sys.sleep(think);
                }
                match mechanism {
                    Mechanism::UserLevel(strategy) => {
                        let ep = ch.client(&os, 0, strategy);
                        assert_eq!(ep.echo(i as f64), i as f64);
                    }
                    Mechanism::SysV => {
                        assert_eq!(sysv_echo(&os, 0, i as f64), i as f64);
                    }
                    Mechanism::Throttled { max_spin, .. } => {
                        let ep = ch.client(&os, 0, WaitStrategy::Bsls { max_spin });
                        assert_eq!(ep.echo(i as f64), i as f64);
                    }
                }
            }
            match mechanism {
                Mechanism::UserLevel(strategy) => ch.client(&os, 0, strategy).disconnect(),
                Mechanism::SysV => sysv_disconnect(&os, 0),
                Mechanism::Throttled { max_spin, .. } => ch
                    .client(&os, 0, WaitStrategy::Bsls { max_spin })
                    .disconnect(),
            }
            stop.store(true, Ordering::Release);
        });
    }
    {
        let stop = Arc::clone(&stop);
        b.spawn("batch", move |sys| {
            while !stop.load(core::sync::atomic::Ordering::Acquire) {
                sys.work(VDur::micros(200));
            }
        });
    }

    let report = b.run();
    assert!(
        report.outcome.is_completed(),
        "mixed experiment did not complete: {:?}",
        report.outcome
    );
    let start = report.first_mark(MARK_FIRST_SEND).expect("first send mark");
    let done = report
        .last_mark(MARK_SERVER_DONE)
        .expect("server done mark");
    let elapsed = done.since(start);
    let ms = elapsed.as_nanos() as f64 / 1e6;
    let batch_cpu = report.task("batch").unwrap().stats.cpu_time;
    MixedExperimentResult {
        ipc_throughput: msgs as f64 / ms,
        batch_share: batch_cpu.as_nanos() as f64
            / (elapsed.as_nanos() as f64 * machine.cpus as f64).max(1.0),
        report,
    }
}

/// Results of one native (real-thread) experiment.
#[derive(Debug, Clone)]
pub struct NativeExperimentResult {
    /// Wall-clock duration of the barrage.
    pub elapsed: std::time::Duration,
    /// ECHO messages processed.
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Protocol events recorded by the server thread.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Round-trip latency histogram merged over every client thread
    /// (host time, one round trip in `latency_sample_period` sampled; empty
    /// for the SysV baseline).
    pub client_latency: LatencySnapshot,
    /// Raw per-message round-trip samples in nanoseconds, merged over
    /// every client thread (unordered across clients). The histogram above
    /// quantizes into log₂ buckets — good enough for means, but a p50 read
    /// from it is only within √2× of the truth; exact quantiles need the
    /// raw samples.
    pub client_samples: Vec<u64>,
    /// The unified event trace, present when the run enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Runs the echo workload on real threads (the adoptable backend).
///
/// # Panics
///
/// On echo corruption or a poisoned thread.
pub fn run_native_experiment(
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
) -> NativeExperimentResult {
    run_native_experiment_traced(mechanism, n_clients, msgs_per_client, None)
}

/// [`run_native_experiment`] with an explicit channel queue
/// representation ([`QueueKind::Ring`] for the lock-free arena rings,
/// [`QueueKind::TwoLock`] for the pooled linked queue). The protocol
/// layer is untouched — this is how the bench matrix isolates the queue
/// swap's cost.
///
/// # Panics
///
/// On echo corruption or a poisoned thread.
pub fn run_native_experiment_with_queue(
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
    queue_kind: QueueKind,
) -> NativeExperimentResult {
    native_experiment(mechanism, n_clients, msgs_per_client, None, queue_kind)
}

/// [`run_native_experiment`] with optional event tracing: `trace_capacity`
/// records are kept per task (host-time stamps, oldest dropped on
/// overflow) and collected into the result's [`UnifiedTrace`].
///
/// # Panics
///
/// On echo corruption or a poisoned thread.
pub fn run_native_experiment_traced(
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
    trace_capacity: Option<usize>,
) -> NativeExperimentResult {
    native_experiment(
        mechanism,
        n_clients,
        msgs_per_client,
        trace_capacity,
        QueueKind::default(),
    )
}

fn native_experiment(
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
    trace_capacity: Option<usize>,
    queue_kind: QueueKind,
) -> NativeExperimentResult {
    let channel = Channel::create(&ChannelConfig::new(n_clients).with_queue_kind(queue_kind))
        .expect("channel creation");
    let mut cfg = NativeConfig::for_clients(n_clients);
    cfg.trace_capacity = trace_capacity;
    let os = NativeOs::new(cfg);
    let barrier = Arc::new(std::sync::Barrier::new(n_clients + 1));
    let samples: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(
        Vec::with_capacity(n_clients * msgs_per_client as usize),
    ));

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || match mechanism {
            Mechanism::UserLevel(strategy) => {
                let _ = crate::server::run_echo_server(&ch, &os, strategy);
            }
            Mechanism::SysV => {
                let _ = crate::sysv::run_sysv_echo_server(&os, n_clients as u32);
            }
            Mechanism::Throttled {
                max_spin,
                wake_batch,
            } => {
                let _ = crate::server::run_throttled_server(&ch, &os, max_spin, wake_batch);
            }
        })
    };

    let clients: Vec<_> = (0..n_clients as u32)
        .map(|c| {
            let ch = channel.clone();
            let os = os.task(1 + c);
            let barrier = Arc::clone(&barrier);
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let mut local = Vec::with_capacity(msgs_per_client as usize);
                barrier.wait();
                match mechanism {
                    Mechanism::UserLevel(strategy) => {
                        let ep = ch.client(&os, c, strategy);
                        for i in 0..msgs_per_client {
                            let t0 = std::time::Instant::now();
                            let v = ep.echo(i as f64);
                            local.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(v, i as f64, "echo corrupted");
                        }
                        ep.disconnect();
                    }
                    Mechanism::SysV => {
                        for i in 0..msgs_per_client {
                            let t0 = std::time::Instant::now();
                            let v = sysv_echo(&os, c, i as f64);
                            local.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(v, i as f64);
                        }
                        sysv_disconnect(&os, c);
                    }
                    Mechanism::Throttled { max_spin, .. } => {
                        let ep = ch.client(&os, c, WaitStrategy::Bsls { max_spin });
                        for i in 0..msgs_per_client {
                            let t0 = std::time::Instant::now();
                            let v = ep.echo(i as f64);
                            local.push(t0.elapsed().as_nanos() as u64);
                            assert_eq!(v, i as f64, "echo corrupted");
                        }
                        ep.disconnect();
                    }
                }
                samples.lock().unwrap().extend_from_slice(&local);
            })
        })
        .collect();

    barrier.wait();
    let start = std::time::Instant::now();
    let mut named = vec![("server".to_string(), 0u32, server)];
    for (c, h) in clients.into_iter().enumerate() {
        named.push((format!("client{c}"), 1 + c as u32, h));
    }
    watchdog_join(named, WATCHDOG_JOIN, os.traces());
    let elapsed = start.elapsed();
    let messages = msgs_per_client * n_clients as u64;
    let reg = os.metrics().expect("for_clients enables metrics");
    let trace = os.traces().map(|t| {
        let mut names = vec![(0, "server".to_string())];
        for c in 0..n_clients as u32 {
            names.push((1 + c, format!("client{c}")));
        }
        t.collect(&names)
    });
    NativeExperimentResult {
        throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
        elapsed,
        messages,
        server_metrics: reg.task_snapshot(0),
        client_metrics: reg.aggregate(|t| t != 0),
        client_latency: reg.aggregate_latency(|t| t != 0),
        client_samples: Arc::try_unwrap(samples)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default(),
        trace,
    }
}

/// How long [`watchdog_join`] waits before declaring the experiment
/// wedged. Generous — a healthy cell finishes in well under a second —
/// but bounded, so a protocol bug (or an injected fault the failure model
/// failed to contain) produces a diagnosable panic instead of a hung
/// process that CI has to `SIGKILL` reportlessly.
const WATCHDOG_JOIN: std::time::Duration = std::time::Duration::from_secs(30);

/// Joins experiment threads with a watchdog: waits up to `timeout` for
/// all of them, propagating any thread's panic verbatim. If some never
/// finish, panics with a report naming each wedged thread and — when
/// tracing is enabled — the last trace point it recorded before going
/// quiet, which is usually enough to identify the lost sleep/wake-up race
/// without re-running under a debugger.
pub fn watchdog_join(
    named: Vec<(String, u32, std::thread::JoinHandle<()>)>,
    timeout: std::time::Duration,
    traces: Option<&TraceRegistry>,
) {
    let deadline = std::time::Instant::now() + timeout;
    let mut pending = named;
    loop {
        let mut still = Vec::with_capacity(pending.len());
        for (name, id, h) in pending {
            if h.is_finished() {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            } else {
                still.push((name, id, h));
            }
        }
        pending = still;
        if pending.is_empty() {
            return;
        }
        if std::time::Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let mut report = format!(
        "watchdog: {} thread(s) still running after {timeout:?}:",
        pending.len()
    );
    let collected = traces.map(|t| {
        let names: Vec<(u32, String)> = pending.iter().map(|(n, id, _)| (*id, n.clone())).collect();
        t.collect(&names)
    });
    for (name, id, _) in &pending {
        let last = collected
            .as_ref()
            .and_then(|ut| ut.records.iter().rev().find(|r| r.task_id == *id));
        match last {
            Some(r) => {
                report += &format!(
                    "\n  {name} wedged; last trace point {:?} at {} ns",
                    r.point, r.ts_nanos
                );
            }
            None => report += &format!("\n  {name} wedged (no trace records; rerun with tracing)"),
        }
    }
    panic!("{report}");
}

/// Results of one WaitSet load-matrix cell: `n` clients multiplexed over
/// a [`ShardedServer`](crate::ShardedServer) under open-loop arrival.
#[derive(Debug, Clone)]
pub struct WaitsetLoadResult {
    /// Wall-clock duration from barrier release to last join.
    pub elapsed: std::time::Duration,
    /// ECHO messages processed (disconnects excluded).
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Shards the topology ran with.
    pub shards: usize,
    /// Per-shard worker results.
    pub server_runs: Vec<crate::ServerRun>,
    /// Protocol events aggregated over every shard worker.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events aggregated over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Raw per-message latency samples in nanoseconds, merged over every
    /// client (unordered). **Open-loop**: each sample is measured from
    /// the message's *scheduled* send time, not the actual one, so the
    /// queueing delay a late-running client inflicts on itself is charged
    /// to the system — the coordinated-omission correction load
    /// generators need for honest p99s.
    pub client_samples: Vec<u64>,
}

/// Runs the WaitSet/sharded-server echo workload under **open-loop
/// arrival**: each of `n_clients` client threads schedules message `m` at
/// `phase + m × interval` from the barrier (phases staggered across
/// clients so arrivals spread over the interval instead of bursting),
/// sleeps until the scheduled instant, then issues a synchronous call.
/// A reply arriving late does not push back the *schedule* — the next
/// message is already due, and the lateness lands in its sample.
///
/// Pass `Duration::ZERO` for a closed-loop barrage.
///
/// # Panics
///
/// On echo corruption, a poisoned thread, or the 30 s watchdog.
pub fn run_waitset_load_experiment(
    n_clients: usize,
    msgs_per_client: u64,
    n_shards: usize,
    interval: std::time::Duration,
) -> WaitsetLoadResult {
    use crate::waitset::{ShardedConfig, ShardedServer};

    let srv = Arc::new(ShardedServer::create(ShardedConfig::new(n_clients, n_shards)).expect(
        "sharded topology creation only fails on arena exhaustion, which the config sizing prevents",
    ));
    let mut cfg = NativeConfig::for_clients(0);
    cfg.n_sems = srv.config().n_sems();
    cfg.n_msgqs = 0;
    cfg.full_backoff = std::time::Duration::from_micros(200);
    let os = NativeOs::new(cfg);

    let runs: Arc<std::sync::Mutex<Vec<crate::ServerRun>>> =
        Arc::new(std::sync::Mutex::new(Vec::with_capacity(n_shards)));
    let workers: Vec<_> = (0..n_shards)
        .map(|s| {
            let srv = Arc::clone(&srv);
            let os = os.task(s as u32);
            let runs = Arc::clone(&runs);
            std::thread::spawn(move || {
                let run = srv.run_worker(&os, s, |m| m);
                runs.lock().unwrap().push(run);
            })
        })
        .collect();

    let barrier = Arc::new(std::sync::Barrier::new(n_clients + 1));
    let samples: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(
        Vec::with_capacity(n_clients * msgs_per_client as usize),
    ));
    let clients: Vec<_> = (0..n_clients as u32)
        .map(|c| {
            let srv = Arc::clone(&srv);
            let os = os.task(n_shards as u32 + c);
            let barrier = Arc::clone(&barrier);
            let samples = Arc::clone(&samples);
            // Arrival phases staggered across the client population.
            let phase = interval.mul_f64(c as f64 / n_clients.max(1) as f64);
            std::thread::Builder::new()
                .name(format!("load{c}"))
                // 512 threads at the default stack would be profligate;
                // the client loop is shallow.
                .stack_size(192 * 1024)
                .spawn(move || {
                    let mut local = Vec::with_capacity(msgs_per_client as usize);
                    let client = srv.client(&os, c);
                    barrier.wait();
                    let start = std::time::Instant::now();
                    for m in 0..msgs_per_client {
                        let due = phase + interval * m as u32;
                        loop {
                            let now = start.elapsed();
                            if now >= due {
                                break;
                            }
                            // Sleep-based pacing: on an overcommitted host
                            // (CI is often 1-2 cores) spinning here would
                            // starve the server and corrupt every sample.
                            std::thread::sleep(due - now);
                        }
                        let v = client.echo(m as f64);
                        assert_eq!(v, m as f64, "echo corrupted under load");
                        local.push((start.elapsed() - due).as_nanos().max(1) as u64);
                    }
                    client.disconnect();
                    samples.lock().unwrap().extend_from_slice(&local);
                })
                .expect("spawn load client")
        })
        .collect();

    barrier.wait();
    let start = std::time::Instant::now();
    let mut named: Vec<(String, u32, std::thread::JoinHandle<()>)> = Vec::new();
    for (s, h) in workers.into_iter().enumerate() {
        named.push((format!("shard{s}"), s as u32, h));
    }
    for (c, h) in clients.into_iter().enumerate() {
        named.push((format!("load{c}"), n_shards as u32 + c as u32, h));
    }
    watchdog_join(named, WATCHDOG_JOIN, os.traces());
    let elapsed = start.elapsed();

    let messages = msgs_per_client * n_clients as u64;
    let reg = os.metrics().expect("for_clients enables metrics");
    WaitsetLoadResult {
        throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
        elapsed,
        messages,
        shards: n_shards,
        server_runs: Arc::try_unwrap(runs)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default(),
        server_metrics: reg.aggregate(|t| (t as usize) < n_shards),
        client_metrics: reg.aggregate(|t| (t as usize) >= n_shards),
        client_samples: Arc::try_unwrap(samples)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default(),
    }
}

/// Outcome of one client thread in a fault-injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFaultOutcome {
    /// Completed every echo and disconnected cleanly.
    Completed,
    /// The failure model surfaced: the client stopped after `completed`
    /// echoes with `error` (e.g. [`IpcError::PeerDead`](crate::IpcError::PeerDead)
    /// once the killed server was detected).
    Failed {
        /// Echo round trips that succeeded before the error.
        completed: u64,
        /// The error that ended the session.
        error: crate::IpcError,
    },
    /// This client was the fault plan's victim and was killed.
    Killed,
}

/// Results of one native fault-injection experiment.
#[derive(Debug)]
pub struct NativeFaultResult {
    /// Server outcome: `Ok` when the resilient loop returned, `Err` with
    /// the panic message when the server was the victim.
    pub server: Result<crate::ServerRun, String>,
    /// Per-client outcome, indexed by client id.
    pub clients: Vec<ClientFaultOutcome>,
    /// Whether each client's reply queue ended poisoned.
    pub reply_poisoned: Vec<bool>,
    /// Whether the shared receive queue ended poisoned.
    pub receive_poisoned: bool,
    /// Server-task protocol events over the run.
    pub server_metrics: MetricsSnapshot,
    /// Per-client protocol events over the run.
    pub client_metrics: Vec<MetricsSnapshot>,
    /// The unified event trace, present when the run enabled tracing —
    /// the timeline showing the injected kill, the survivor's detection
    /// and the poison broadcast.
    pub trace: Option<UnifiedTrace>,
}

/// Runs the echo workload on real threads while a [`FaultPlan`] kills one
/// of them mid-protocol (a panic unwinds the victim, its
/// [`DeathWatch`](crate::DeathWatch) tombstones the queue it consumes),
/// and reports what the failure model did about it.
///
/// Task numbering follows the harness convention: the plan's victim `0`
/// is the server, `1 + c` client `c`. The server runs
/// [`run_resilient_server`](crate::run_resilient_server) with `heartbeat`
/// as its liveness-scan period; clients call with `call_deadline` bounded
/// by `deadline`. The join is bounded: a fault that escapes the failure
/// model and wedges a thread panics via the watchdog instead of hanging
/// the harness.
pub fn run_native_fault_experiment(
    strategy: WaitStrategy,
    n_clients: usize,
    msgs_per_client: u64,
    plan: Arc<crate::FaultPlan>,
    heartbeat: std::time::Duration,
    deadline: std::time::Duration,
) -> NativeFaultResult {
    run_native_fault_experiment_traced(
        strategy,
        n_clients,
        msgs_per_client,
        plan,
        heartbeat,
        deadline,
        None,
    )
}

/// An injected kill unwinds (the death rites are drop guards) without the
/// panic hook, whose backtrace can outlast a survivor's deadline.
fn die(who: &str, at_op: u64) -> ! {
    let last_words = format!("injected fault: {who} killed at op {at_op}");
    std::panic::resume_unwind(Box::new(last_words))
}

/// [`run_native_fault_experiment`] with optional event tracing, so the
/// kill → detection → poison sequence can be inspected in Perfetto (see
/// EXPERIMENTS.md's `figures faults` walkthrough).
pub fn run_native_fault_experiment_traced(
    strategy: WaitStrategy,
    n_clients: usize,
    msgs_per_client: u64,
    plan: Arc<crate::FaultPlan>,
    heartbeat: std::time::Duration,
    deadline: std::time::Duration,
    trace_capacity: Option<usize>,
) -> NativeFaultResult {
    use crate::fault::{DeathWatch, FaultAction};
    let channel = Channel::create(&ChannelConfig::new(n_clients)).expect("channel creation");
    let mut cfg = NativeConfig::for_clients(n_clients);
    cfg.trace_capacity = trace_capacity;
    let os = NativeOs::new(cfg);
    let barrier = Arc::new(std::sync::Barrier::new(n_clients + 1));

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        let plan = Arc::clone(&plan);
        std::thread::spawn(move || {
            // Tombstone the whole channel if this thread dies: every
            // client fails fast instead of riding out its deadline.
            let _watch = crate::fault::ServerDeathWatch::arm(&ch, &os);
            crate::server::run_resilient_server(&ch, &os, strategy, heartbeat, |m| {
                match plan.fire(0) {
                    Some(FaultAction::Kill) => {
                        os.record(crate::metrics::ProtoEvent::FaultInjected);
                        die("server", plan.at_op)
                    }
                    Some(FaultAction::DelayNanos(ns)) => {
                        os.record(crate::metrics::ProtoEvent::FaultInjected);
                        std::thread::sleep(std::time::Duration::from_nanos(ns))
                    }
                    Some(FaultAction::DropWakeup) | None => {}
                }
                m
            })
        })
    };

    let clients: Vec<_> = (0..n_clients as u32)
        .map(|c| {
            let ch = channel.clone();
            let os = os.task(1 + c);
            let plan = Arc::clone(&plan);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> ClientFaultOutcome {
                let _watch = DeathWatch::arm(ch.reply_queue(c), &os);
                let ep = ch.client(&os, c, strategy);
                barrier.wait();
                for i in 0..msgs_per_client {
                    match plan.fire(1 + c) {
                        Some(FaultAction::Kill) => {
                            os.record(crate::metrics::ProtoEvent::FaultInjected);
                            die(&format!("client {c}"), plan.at_op)
                        }
                        Some(FaultAction::DelayNanos(ns)) => {
                            os.record(crate::metrics::ProtoEvent::FaultInjected);
                            std::thread::sleep(std::time::Duration::from_nanos(ns))
                        }
                        Some(FaultAction::DropWakeup) | None => {}
                    }
                    match ep.call_deadline(crate::Message::echo(c, i as f64), deadline) {
                        Ok(reply) => assert_eq!(reply.value, i as f64, "echo corrupted"),
                        Err(error) => {
                            return ClientFaultOutcome::Failed {
                                completed: i,
                                error,
                            }
                        }
                    }
                }
                match ep.call_deadline(crate::Message::disconnect(c), deadline) {
                    Ok(_) => ClientFaultOutcome::Completed,
                    Err(error) => ClientFaultOutcome::Failed {
                        completed: msgs_per_client,
                        error,
                    },
                }
            })
        })
        .collect();

    barrier.wait();
    let deadline_join =
        std::time::Instant::now() + WATCHDOG_JOIN + deadline * (msgs_per_client as u32).max(1);
    let clients: Vec<ClientFaultOutcome> = clients
        .into_iter()
        .enumerate()
        .map(|(c, h)| {
            while !h.is_finished() && std::time::Instant::now() < deadline_join {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert!(
                h.is_finished(),
                "watchdog: client {c} wedged — fault escaped the failure model"
            );
            h.join().unwrap_or(ClientFaultOutcome::Killed)
        })
        .collect();
    while !server.is_finished() && std::time::Instant::now() < deadline_join {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(
        server.is_finished(),
        "watchdog: server wedged — fault escaped the failure model"
    );
    let server = server.join().map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "server panicked".into())
    });

    let reg = os.metrics().expect("for_clients enables metrics");
    let trace = os.traces().map(|t| {
        let mut names = vec![(0, "server".to_string())];
        for c in 0..n_clients as u32 {
            names.push((1 + c, format!("client{c}")));
        }
        t.collect(&names)
    });
    NativeFaultResult {
        server,
        trace,
        reply_poisoned: (0..n_clients as u32)
            .map(|c| channel.reply_queue(c).is_poisoned())
            .collect(),
        receive_poisoned: channel.receive_queue().is_poisoned(),
        server_metrics: reg.task_snapshot(0),
        client_metrics: (0..n_clients as u32)
            .map(|c| reg.task_snapshot(1 + c))
            .collect(),
        clients,
    }
}

/// The fault-free *fallible* twin of [`run_native_experiment`]: the same
/// echo barrage on real threads, but every client call goes through
/// [`call_deadline`](crate::ClientEndpoint::call_deadline) and the server
/// runs [`run_resilient_server`](crate::run_resilient_server) with a
/// heartbeat. Nothing faults, so any latency difference against the
/// infallible twin *is* the robustness overhead — the number the
/// `figures faults` experiment regresses on.
///
/// # Panics
///
/// On echo corruption, any client-visible [`IpcError`](crate::IpcError),
/// or a wedged thread (watchdog).
pub fn run_native_deadline_experiment(
    strategy: WaitStrategy,
    n_clients: usize,
    msgs_per_client: u64,
    heartbeat: std::time::Duration,
    deadline: std::time::Duration,
) -> NativeExperimentResult {
    let channel = Channel::create(&ChannelConfig::new(n_clients)).expect("channel creation");
    let os = NativeOs::new(NativeConfig::for_clients(n_clients));
    let barrier = Arc::new(std::sync::Barrier::new(n_clients + 1));
    let samples: Arc<std::sync::Mutex<Vec<u64>>> = Arc::new(std::sync::Mutex::new(
        Vec::with_capacity(n_clients * msgs_per_client as usize),
    ));

    let server = {
        let ch = channel.clone();
        let os = os.task(0);
        std::thread::spawn(move || {
            let _ = crate::server::run_resilient_server(&ch, &os, strategy, heartbeat, |m| m);
        })
    };

    let clients: Vec<_> = (0..n_clients as u32)
        .map(|c| {
            let ch = channel.clone();
            let os = os.task(1 + c);
            let barrier = Arc::clone(&barrier);
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                let mut local = Vec::with_capacity(msgs_per_client as usize);
                barrier.wait();
                let ep = ch.client(&os, c, strategy);
                for i in 0..msgs_per_client {
                    let t0 = std::time::Instant::now();
                    let reply = ep
                        .call_deadline(crate::Message::echo(c, i as f64), deadline)
                        .expect("fault-free deadline call failed");
                    local.push(t0.elapsed().as_nanos() as u64);
                    assert_eq!(reply.value, i as f64, "echo corrupted");
                }
                ep.call_deadline(crate::Message::disconnect(c), deadline)
                    .expect("fault-free disconnect failed");
                samples.lock().unwrap().extend_from_slice(&local);
            })
        })
        .collect();

    barrier.wait();
    let start = std::time::Instant::now();
    let mut named = vec![("server".to_string(), 0u32, server)];
    for (c, h) in clients.into_iter().enumerate() {
        named.push((format!("client{c}"), 1 + c as u32, h));
    }
    watchdog_join(named, WATCHDOG_JOIN, os.traces());
    let elapsed = start.elapsed();
    let messages = msgs_per_client * n_clients as u64;
    let reg = os.metrics().expect("for_clients enables metrics");
    NativeExperimentResult {
        throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
        elapsed,
        messages,
        server_metrics: reg.task_snapshot(0),
        client_metrics: reg.aggregate(|t| t != 0),
        client_latency: reg.aggregate_latency(|t| t != 0),
        client_samples: Arc::try_unwrap(samples)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_default(),
        trace: None,
    }
}

/// Real-process experiments: the echo workload with **forked child
/// clients** against the parent's server, over a memfd-backed
/// [`ShmArena`](usipc_shm::ShmArena) — the paper's actual deployment
/// shape ("user-level IPC" means *cross-address-space*), where the
/// thread-mode harness above is only the convenient stand-in.
///
/// Linux-only (fork, memfd, pidfd): gated exactly like [`crate::proc`].
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod proc_harness {
    use super::*;
    use crate::metrics::N_EVENTS;
    use crate::proc::{ChildProc, ExitStatus};
    use crate::telemetry::{Role, TelemetryPlane, TelemetryReading};
    use crate::{ChannelRoot, CountingSem, ServerRun};
    use core::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    use usipc_shm::{ShmArena, ShmPtr, ShmSlice};

    /// Per-child result cell, written by the child before it exits and
    /// read by the parent after reaping it. Lives in the shared arena —
    /// the only way data crosses back, since a forked child's heap is a
    /// private copy-on-write copy.
    #[repr(C)]
    struct ProcCell {
        /// The child's final [`MetricsSnapshot`] in
        /// [`to_array`](MetricsSnapshot::to_array) form.
        events: [AtomicU64; N_EVENTS],
        /// Echo round trips completed so far (live; the kill experiment
        /// watches it to time the SIGKILL mid-traffic).
        progress: AtomicU64,
        /// 0 while running, 1 once `events` is fully stored.
        state: AtomicU32,
    }

    // SAFETY: every field is an atomic (valid for all bit patterns) and
    // the struct holds no host pointers.
    unsafe impl usipc_shm::ShmSafe for ProcCell {}

    impl ProcCell {
        fn new() -> Self {
            ProcCell {
                events: std::array::from_fn(|_| AtomicU64::new(0)),
                progress: AtomicU64::new(0),
                state: AtomicU32::new(0),
            }
        }
    }

    /// The bootstrap object published as the arena root: everything a
    /// child needs to reconstruct the channel and the shared semaphore
    /// table from nothing but the inherited memfd file descriptor.
    #[repr(C)]
    struct ProcRoot {
        /// Ready barrier: each child `V`s once it is attached and has
        /// built its endpoint.
        ready: CountingSem,
        /// Go signal: the parent `V`s `n_clients` times to start the
        /// barrage (so the measurement window excludes attach cost).
        go: CountingSem,
        /// The channel's root object (allocated with
        /// [`Channel::create_in`], *not* published as the arena root —
        /// this struct is).
        channel: ShmPtr<ChannelRoot>,
        /// The shared semaphore table from [`NativeOs::new_shared`].
        sems: ShmSlice<CountingSem>,
        /// One result cell per client.
        cells: ShmSlice<ProcCell>,
        /// Raw round-trip samples: client `c` writes nanosecond sample
        /// `i` at index `c * msgs_per_client + i`. Empty when the run
        /// does not collect samples (the kill experiment).
        samples: ShmSlice<AtomicU64>,
        /// Number of clients (children validate their id against it).
        n_clients: u32,
        /// Echo round trips per client.
        msgs_per_client: u64,
        /// CPU every participant pins itself to (`-1`: run free). Pinning
        /// everyone to one CPU reproduces the paper's uniprocessor regime
        /// on a multicore host — the regime where BSW's four-syscall
        /// round trip is exact instead of a ceiling.
        pin_cpu: i32,
    }

    // SAFETY: sems in shared-futex mode, offset handles and plain
    // scalars only; no host pointers. Fields mutated after placement
    // (the sems' words, the cells) are atomics.
    unsafe impl usipc_shm::ShmSafe for ProcRoot {}

    /// Child exit codes (`0` success, `101` reserved by
    /// [`ChildProc::spawn`] for panics).
    const EXIT_ATTACH_FAILED: i32 = 2;
    const EXIT_NO_ROOT: i32 = 3;
    const EXIT_ECHO_CORRUPTED: i32 = 4;
    const EXIT_PIN_FAILED: i32 = 5;
    /// Observer child: the segment carries no telemetry plane.
    const EXIT_NO_TELEMETRY: i32 = 6;
    /// Observer child: no slot's progress advanced before the deadline.
    const EXIT_STALE: i32 = 7;
    /// Observer child: a later reading had a *smaller* cumulative counter
    /// than an earlier one — a torn or inconsistent snapshot.
    const EXIT_TORN: i32 = 8;

    /// Per-run telemetry shape for [`build_proc_world`].
    #[derive(Debug, Clone, Copy)]
    struct ProcTelemetry {
        /// Flight-recorder ring capacity in records; 0 allocates the
        /// stats plane without a flight recorder.
        flight_capacity: usize,
    }

    /// The whole life of one forked client: attach the inherited memfd
    /// (a *fresh* mapping — nothing from the parent's address space is
    /// reused), bootstrap from the arena root, barrier, barrage, report.
    fn proc_client_body(fd: i32, c: u32, strategy: WaitStrategy, endless: bool) -> i32 {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return EXIT_ATTACH_FAILED,
        };
        let root = match arena.root::<ProcRoot>() {
            Some(r) => r,
            None => return EXIT_NO_ROOT,
        };
        let pr = arena.get(root);
        if pr.pin_cpu >= 0
            && (crate::proc::pin_to_cpu(pr.pin_cpu as usize).is_err()
                || crate::proc::set_sched_batch().is_err())
        {
            return EXIT_PIN_FAILED;
        }
        let n_clients = pr.n_clients as usize;
        let os = NativeOs::attach_shared(
            NativeConfig::for_clients(n_clients),
            Arc::clone(&arena),
            pr.sems,
        );
        // Telemetry discovery is in-band: the plane (if the parent made
        // one) hangs off the arena's aux slot, so a child — or any other
        // attacher — needs nothing but the fd. Arm the flight recorder
        // *before* building the task so the handle rides the hot path as
        // a plain `Option`.
        let plane = TelemetryPlane::attach(&arena);
        if let Some(p) = &plane {
            if let Some(f) = p.flight() {
                os.arm_flight(f);
            }
        }
        let ch = Channel::from_root(Arc::clone(&arena), pr.channel).expect("parent's root");
        let task = os.task(1 + c);
        let writer = plane
            .as_ref()
            .map(|p| p.writer(1 + c as usize, 1 + c, Role::Client));
        let ep = ch.client(&task, c, strategy);
        let samples = arena.get_slice(pr.samples);
        let cell = &arena.get_slice(pr.cells)[c as usize];
        let msgs = if endless {
            u64::MAX
        } else {
            pr.msgs_per_client
        };
        let base = c as usize * pr.msgs_per_client as usize;
        let snapshot = || {
            os.metrics()
                .map(|m| m.task_snapshot(1 + c))
                .unwrap_or_default()
        };

        pr.ready.v();
        pr.go.p();
        for i in 0..msgs {
            let t0 = Instant::now();
            let v = ep.echo(i as f64);
            let rt_nanos = t0.elapsed().as_nanos() as u64;
            if let Some(slot) = samples.get(base + i as usize) {
                slot.store(rt_nanos, Ordering::Relaxed);
            }
            if v != i as f64 {
                return EXIT_ECHO_CORRUPTED;
            }
            cell.progress.fetch_add(1, Ordering::Relaxed);
            if let Some(w) = &writer {
                // Per-RT cost: four Relaxed adds into this client's own
                // cache-line-padded slot — no semaphore ops, no kernel
                // crossings (the zero-overhead contract the accounting
                // test pins).
                w.record_latency_nanos(rt_nanos);
                w.set_progress(i + 1);
                if (i + 1) % 64 == 0 {
                    w.publish(&snapshot());
                }
            }
        }
        ep.disconnect();

        let snap = snapshot();
        if let Some(w) = &writer {
            w.publish(&snap);
        }
        for (slot, v) in cell.events.iter().zip(snap.to_array()) {
            slot.store(v, Ordering::Relaxed);
        }
        cell.state.store(1, Ordering::Release);
        0
    }

    /// The whole life of a forked **observer**: attach the inherited fd,
    /// find the telemetry plane through the aux slot, and watch until
    /// some slot's progress advances between two consistent readings —
    /// the external `usipc-top` story reduced to an exit code. Counters
    /// are cumulative, so any later reading with a smaller value than an
    /// earlier one from the same slot proves a torn read.
    fn proc_observer_body(fd: i32, deadline: Duration) -> i32 {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return EXIT_ATTACH_FAILED,
        };
        let plane = match TelemetryPlane::attach(&arena) {
            Some(p) => p,
            None => return EXIT_NO_TELEMETRY,
        };
        let give_up = Instant::now() + deadline;
        let mut baseline: Vec<Option<TelemetryReading>> = vec![None; plane.n_slots()];
        while Instant::now() < give_up {
            for (i, base) in baseline.iter_mut().enumerate() {
                let Some(r) = plane.read(i) else { continue };
                match base {
                    None => *base = Some(r),
                    Some(b) => {
                        let earlier = b.snapshot.to_array();
                        let later = r.snapshot.to_array();
                        if later.iter().zip(earlier.iter()).any(|(l, e)| l < e)
                            || r.progress < b.progress
                        {
                            return EXIT_TORN;
                        }
                        if r.progress > b.progress && r.published_at > b.published_at {
                            return 0;
                        }
                    }
                }
            }
            std::thread::yield_now();
        }
        EXIT_STALE
    }

    /// Builds the whole shared world — memfd arena, in-arena channel,
    /// shared semaphore table, result cells, bootstrap root — and
    /// returns the pieces the parent keeps.
    fn build_proc_world(
        strategy_name: &str,
        n_clients: usize,
        msgs_per_client: u64,
        total_samples: usize,
        pin_cpu: i32,
        telemetry: Option<ProcTelemetry>,
        queue_kind: QueueKind,
    ) -> (
        Arc<ShmArena>,
        Arc<NativeOs>,
        Channel,
        ShmPtr<ProcRoot>,
        Option<TelemetryPlane>,
    ) {
        use core::mem::{align_of, size_of};
        assert!(n_clients >= 1);
        let ch_cfg = ChannelConfig::new(n_clients).with_queue_kind(queue_kind);
        // Telemetry slots follow the task-id convention: slot 0 the
        // server, slot 1+c client c. Flight rings additionally cover the
        // monitor task (1 + n_clients) the kill drill uses.
        let n_slots = 1 + n_clients;
        let flight_tasks = 2 + n_clients;
        let telem_bytes = telemetry.map_or(0, |t| {
            let ft = if t.flight_capacity > 0 {
                flight_tasks
            } else {
                0
            };
            TelemetryPlane::bytes_needed(n_slots, ft, t.flight_capacity)
        });
        // Exact layout plus per-allocation alignment slack plus the
        // arena header line.
        let cap = ch_cfg.bytes_needed()
            + (1 + n_clients) * size_of::<CountingSem>()
            + align_of::<CountingSem>()
            + n_clients * size_of::<ProcCell>()
            + align_of::<ProcCell>()
            + total_samples * size_of::<AtomicU64>()
            + align_of::<AtomicU64>()
            + size_of::<ProcRoot>()
            + align_of::<ProcRoot>()
            + telem_bytes
            + 256;
        let arena = Arc::new(
            ShmArena::new_memfd(cap)
                .unwrap_or_else(|e| panic!("memfd arena for {strategy_name}: {e:?}")),
        );
        let (os, sems) =
            NativeOs::new_shared(NativeConfig::for_clients(n_clients), Arc::clone(&arena))
                .expect("shared semaphore table fits the arena");
        let channel =
            Channel::create_in(Arc::clone(&arena), &ch_cfg).expect("channel fits the arena");
        let cells = arena
            .alloc_slice(n_clients, |_| ProcCell::new())
            .expect("cells fit the arena");
        let samples = arena
            .alloc_slice(total_samples, |_| AtomicU64::new(0))
            .expect("samples fit the arena");
        let plane = telemetry.map(|t| {
            let ft = if t.flight_capacity > 0 {
                flight_tasks
            } else {
                0
            };
            let p = TelemetryPlane::create_in(&arena, n_slots, ft, t.flight_capacity)
                .expect("telemetry plane fits the arena");
            if let Some(f) = p.flight() {
                os.arm_flight(f);
            }
            p
        });
        let root = arena
            .alloc(ProcRoot {
                ready: CountingSem::new_shared(0),
                go: CountingSem::new_shared(0),
                channel: channel.root_ptr(),
                sems,
                cells,
                samples,
                n_clients: n_clients as u32,
                msgs_per_client,
                pin_cpu,
            })
            .expect("root fits the arena");
        arena.publish_root(root);
        (arena, os, channel, root, plane)
    }

    /// Joins the parent's server thread under the watchdog deadline.
    fn join_server<T>(server: std::thread::JoinHandle<T>, what: &str) -> T {
        let deadline = Instant::now() + WATCHDOG_JOIN;
        while !server.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(server.is_finished(), "watchdog: {what} server wedged");
        match server.join() {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Waits, under the watchdog, until each of `clients` has finished
    /// or is parked for good against a dead server — the quiescence
    /// [`take_over`](crate::take_over) requires. Parked means `awake` down,
    /// no reply queued *and* the client registered on its semaphore:
    /// `awake` alone is also down for a client descheduled between
    /// clearing the flag and the re-check that finds a reply the server
    /// delivered before dying, and flag plus empty queue for one that has
    /// just taken that reply. Either sends its next request under the
    /// fsck's feet, collects a `DROPPED` notice for a request that is
    /// queued and fails on the duplicate reply.
    fn await_parked(
        os: &NativeOs,
        channel: &Channel,
        cells: &[ProcCell],
        clients: core::ops::Range<u32>,
        what: &str,
    ) {
        let deadline = Instant::now() + WATCHDOG_JOIN;
        for c in clients {
            let rq = channel.reply_queue(c);
            while cells[c as usize].state.load(Ordering::Acquire) == 0
                && !(rq.awake_down() && rq.queued_len() == 0 && os.sem(rq.sem()).waiting() > 0)
            {
                assert!(
                    Instant::now() < deadline,
                    "client {c} never quiesced {what}"
                );
                std::thread::yield_now();
            }
        }
    }

    /// Declares dead, to the successor, those of `clients` that
    /// finished against the dead incarnation (a kill site past one client's
    /// share of the barrage lets a fast client get there): they
    /// disconnected from a server that no longer exists and will never
    /// disconnect from this one, which would wait for them until the
    /// watchdog. Call after [`await_parked`] (the cells are then stable) and
    /// after the fsck, whose fault-state reset revives every liveness word;
    /// the successor's first heartbeat scan reaps them.
    fn mark_finished_dead(
        channel: &Channel,
        os: &crate::NativeTask,
        cells: &[ProcCell],
        clients: core::ops::Range<u32>,
    ) {
        for c in clients {
            if cells[c as usize].state.load(Ordering::Acquire) != 0 {
                channel.reply_queue(c).mark_consumer_dead(os);
            }
        }
    }

    /// Reaps one child under the watchdog (kills it first if wedged, so
    /// a protocol bug fails the harness instead of leaking a process).
    fn reap_child(child: ChildProc, who: &str) -> ExitStatus {
        if !child.dead_within(WATCHDOG_JOIN) {
            child.kill();
            let _ = child.wait();
            panic!("watchdog: {who} wedged past {WATCHDOG_JOIN:?}");
        }
        child
            .wait()
            .unwrap_or_else(|e| panic!("wait({who}): {e:?}"))
    }

    /// Results of one cross-process experiment ([`run_proc_experiment`]).
    #[derive(Debug, Clone)]
    pub struct ProcExperimentResult {
        /// Wall-clock duration of the barrage (go signal → server done).
        pub elapsed: Duration,
        /// ECHO messages processed.
        pub messages: u64,
        /// Throughput in messages per millisecond.
        pub throughput: f64,
        /// The parent server thread's run summary.
        pub server_run: ServerRun,
        /// Protocol events recorded by the parent's server task.
        pub server_metrics: MetricsSnapshot,
        /// Protocol events summed over every child process (shipped back
        /// through shared-memory cells).
        pub client_metrics: MetricsSnapshot,
        /// Raw per-message round-trip samples in nanoseconds over every
        /// child, in (client, message) order.
        pub client_samples: Vec<u64>,
        /// Each child's exit status (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
        /// Final telemetry readings (slot order: server, then clients),
        /// present when the run carried a telemetry plane.
        pub telemetry: Option<Vec<TelemetryReading>>,
        /// Exit status of the forked external observer, when one ran
        /// (`Exited(0)`: it attached by fd and watched a consistent,
        /// advancing snapshot).
        pub observer_exit: Option<ExitStatus>,
    }

    /// Runs the echo workload with **real forked processes**: the parent
    /// hosts the server thread; each client is a forked child that
    /// attaches the memfd arena by file descriptor and bootstraps from
    /// the published root. The counting semaphores live *inside* the
    /// segment in cross-process futex mode, so the wait strategies run
    /// unmodified across address spaces — the backing-store swap the
    /// paper's user-level design promises.
    ///
    /// Fork discipline: children are forked **before** the server thread
    /// starts, and the caller must be effectively single-threaded at the
    /// call (a forked child reproduces only the calling thread; another
    /// thread holding the allocator lock at fork time would deadlock the
    /// child). Run it from a `main`, or from a test binary that runs its
    /// scenarios sequentially in one test function.
    ///
    /// # Panics
    ///
    /// On any child failing (attach failure, echo corruption, panic,
    /// signal) or a wedged process (watchdog).
    pub fn run_proc_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
    ) -> ProcExperimentResult {
        run_proc_experiment_opts(
            strategy,
            n_clients,
            msgs_per_client,
            None,
            false,
            false,
            QueueKind::default(),
        )
    }

    /// [`run_proc_experiment`] with everyone — the server thread and every
    /// forked client — pinned to `cpu`, reproducing the paper's
    /// **uniprocessor** regime on a multicore host. Under that schedule
    /// each side genuinely blocks before its peer runs, so BSW's
    /// accounting is exact (4 semaphore ops per round trip) instead of an
    /// upper bound that pipelining undercuts.
    ///
    /// # Panics
    ///
    /// As [`run_proc_experiment`]; additionally if a participant cannot
    /// pin itself to `cpu`.
    pub fn run_proc_experiment_pinned(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        cpu: usize,
    ) -> ProcExperimentResult {
        run_proc_experiment_opts(
            strategy,
            n_clients,
            msgs_per_client,
            Some(cpu),
            false,
            false,
            QueueKind::default(),
        )
    }

    /// [`run_proc_experiment_pinned`] with an explicit channel queue
    /// representation — the cross-process leg of the queue-kind bench
    /// matrix and of the accounting pins (BSW must cost exactly 4
    /// semaphore ops per round trip on *both* kinds: the queue swap is
    /// below the protocol layer).
    ///
    /// # Panics
    ///
    /// As [`run_proc_experiment_pinned`].
    pub fn run_proc_experiment_pinned_queue(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        cpu: usize,
        queue_kind: QueueKind,
    ) -> ProcExperimentResult {
        run_proc_experiment_opts(
            strategy,
            n_clients,
            msgs_per_client,
            Some(cpu),
            false,
            false,
            queue_kind,
        )
    }

    /// [`run_proc_experiment_pinned`] with the telemetry plane allocated
    /// and every participant publishing — the configuration
    /// `tests/metrics_accounting.rs` pins BSW's four-syscall round trip
    /// under, proving the plane adds no semaphore ops or kernel
    /// crossings to the protocol.
    pub fn run_proc_experiment_pinned_telemetry(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        cpu: usize,
    ) -> ProcExperimentResult {
        run_proc_experiment_opts(
            strategy,
            n_clients,
            msgs_per_client,
            Some(cpu),
            true,
            false,
            QueueKind::default(),
        )
    }

    /// [`run_proc_experiment`] with the telemetry plane on and an extra
    /// forked **observer** process that attaches the segment by inherited
    /// fd — knowing nothing but that fd — and exits 0 only after reading
    /// a consistent, advancing snapshot while the barrage is live. The
    /// result's `observer_exit` carries its verdict.
    pub fn run_proc_observed_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
    ) -> ProcExperimentResult {
        run_proc_experiment_opts(
            strategy,
            n_clients,
            msgs_per_client,
            None,
            true,
            true,
            QueueKind::default(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_proc_experiment_opts(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        pin_cpu: Option<usize>,
        telemetry: bool,
        observer: bool,
        queue_kind: QueueKind,
    ) -> ProcExperimentResult {
        let total_samples = n_clients * msgs_per_client as usize;
        let pin = pin_cpu.map_or(-1, |c| c as i32);
        let (arena, os, channel, root, plane) = build_proc_world(
            &strategy.name(),
            n_clients,
            msgs_per_client,
            total_samples,
            pin,
            telemetry.then_some(ProcTelemetry { flight_capacity: 0 }),
            queue_kind,
        );
        let fd = arena.backing_fd().expect("memfd backing");

        let mut children: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| {
                ChildProc::spawn(move || proc_client_body(fd, c, strategy, false))
                    .expect("fork client")
            })
            .collect();
        let observer_child = observer.then(|| {
            ChildProc::spawn(move || proc_observer_body(fd, WATCHDOG_JOIN)).expect("fork observer")
        });

        let server = {
            let ch = channel.clone();
            let t0 = os.task(0);
            std::thread::spawn(move || {
                if let Some(cpu) = pin_cpu {
                    crate::proc::pin_to_cpu(cpu).expect("pin server thread");
                    crate::proc::set_sched_batch().expect("batch server thread");
                }
                crate::server::run_echo_server(&ch, &t0, strategy)
            })
        };
        // The parent's server slot is fed by a *sampler* thread reading
        // the server task's counter registry — the echo loop itself is
        // untouched, which is exactly the zero-overhead posture the
        // accounting test verifies. Single-writer discipline holds: only
        // the sampler writes slot 0.
        let stop_sampler = Arc::new(AtomicBool::new(false));
        let sampler = plane.clone().map(|p| {
            let os = Arc::clone(&os);
            let ch = channel.clone();
            let stop = Arc::clone(&stop_sampler);
            std::thread::spawn(move || {
                let w = p.writer(0, 0, Role::Server);
                loop {
                    let s = os.metrics().map(|m| m.task_snapshot(0)).unwrap_or_default();
                    w.set_progress(s.requests_served);
                    w.set_queue_depth(ch.receive_queue().queued_len() as u64);
                    w.set_waiters(n_clients as u64);
                    w.set_slots_leaked(s.slots_leaked);
                    w.publish(&s);
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });

        let pr = arena.get(root);
        for _ in 0..n_clients {
            assert!(
                pr.ready.p_timeout(WATCHDOG_JOIN),
                "a child never reached the ready barrier"
            );
        }
        let start = Instant::now();
        for _ in 0..n_clients {
            pr.go.v();
        }
        let server_run = join_server(server, "proc-experiment");
        let elapsed = start.elapsed();
        // The observer needs live traffic: reap it before stopping the
        // sampler only if it already finished, otherwise let the final
        // publishes flow while it waits for its advancing pair.
        let observer_exit = observer_child.map(|child| reap_child(child, "observer"));
        stop_sampler.store(true, Ordering::Release);
        if let Some(h) = sampler {
            let _ = h.join();
        }

        let exits: Vec<ExitStatus> = children
            .drain(..)
            .enumerate()
            .map(|(c, child)| reap_child(child, &format!("client {c}")))
            .collect();
        for (c, e) in exits.iter().enumerate() {
            assert!(e.success(), "client {c} failed: {e:?}");
        }
        if let Some(e) = &observer_exit {
            assert!(
                e.success(),
                "external observer failed: {e:?} (2=attach, 6=no plane, 7=stale, 8=torn)"
            );
        }

        let cells = arena.get_slice(pr.cells);
        let client_metrics = cells.iter().fold(MetricsSnapshot::default(), |acc, cell| {
            assert_eq!(cell.state.load(Ordering::Acquire), 1, "cell not finalized");
            let mut a = [0u64; N_EVENTS];
            for (dst, src) in a.iter_mut().zip(cell.events.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            acc.add(&MetricsSnapshot::from_array(&a))
        });
        let client_samples: Vec<u64> = arena
            .get_slice(pr.samples)
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect();

        let messages = msgs_per_client * n_clients as u64;
        let telemetry = plane.map(|p| p.readings());
        ProcExperimentResult {
            throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
            elapsed,
            messages,
            server_metrics: os.metrics().expect("metrics on").task_snapshot(0),
            server_run,
            client_metrics,
            client_samples,
            exits,
            telemetry,
            observer_exit,
        }
    }

    /// Results of one cross-process kill experiment
    /// ([`run_proc_kill_experiment`]).
    #[derive(Debug)]
    pub struct ProcKillResult {
        /// The resilient server's run summary (`reaped` counts the
        /// victim).
        pub server_run: ServerRun,
        /// Protocol events recorded by the parent's server task
        /// (`peer_deaths_detected` fires when the scan finds the victim).
        pub server_metrics: MetricsSnapshot,
        /// How the victim died (`Signaled(SIGKILL)`).
        pub victim_exit: ExitStatus,
        /// Whether the victim's reply queue ended poisoned.
        pub victim_reply_poisoned: bool,
        /// Echo round trips the victim completed before the kill.
        pub victim_progress: u64,
        /// Exit statuses of the surviving clients (all `Exited(0)`).
        pub survivor_exits: Vec<ExitStatus>,
        /// The flight-recorder postmortem: Perfetto/Chrome JSON of every
        /// task's final events, cut by the server the moment it detected
        /// the death — the victim's records read out of shared memory,
        /// where they survived the SIGKILL.
        pub flight_dump: Option<String>,
        /// Final telemetry readings (server slot + surviving clients).
        pub telemetry: Option<Vec<TelemetryReading>>,
    }

    /// Flight-ring capacity for the kill drill: generous enough to hold
    /// the victim's whole final conversation (~10 events per round trip).
    const KILL_FLIGHT_CAPACITY: usize = 2048;

    /// Echo round trips the victim must complete before the SIGKILL, so
    /// the kill provably lands mid-conversation, not before the first
    /// message.
    const KILL_AFTER_PROGRESS: u64 = 50;

    /// The cross-process failure drill: client `0` is forked with an
    /// endless barrage and **SIGKILLed mid-traffic** — no unwinding, no
    /// `DeathWatch`, exactly what process death looks like. The parent
    /// detects the death through the child's **pidfd**, feeds it into the
    /// PR-5 failure model via
    /// [`mark_consumer_dead`](crate::QueueRef::mark_consumer_dead), and
    /// the resilient server's next heartbeat scan reaps the victim and
    /// poisons its reply queue while the surviving clients finish their
    /// runs untouched.
    ///
    /// Same fork discipline as [`run_proc_experiment`].
    ///
    /// # Panics
    ///
    /// On a survivor failing, the victim dying any way but the SIGKILL,
    /// or a wedged process (watchdog).
    pub fn run_proc_kill_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        heartbeat: Duration,
    ) -> ProcKillResult {
        assert!(n_clients >= 1);
        let (arena, os, channel, root, plane) = build_proc_world(
            &strategy.name(),
            n_clients,
            msgs_per_client,
            0,
            -1,
            Some(ProcTelemetry {
                flight_capacity: KILL_FLIGHT_CAPACITY,
            }),
            QueueKind::default(),
        );
        let fd = arena.backing_fd().expect("memfd backing");

        let children: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| {
                let endless = c == 0;
                ChildProc::spawn(move || proc_client_body(fd, c, strategy, endless))
                    .expect("fork client")
            })
            .collect();

        let server = {
            let ch = channel.clone();
            let t0 = os.task(0);
            let plane = plane.clone();
            std::thread::spawn(move || {
                let writer = plane.as_ref().map(|p| p.writer(0, 0, Role::Server));
                let flight = plane.as_ref().and_then(|p| p.flight());
                let mut names = vec![(0, "server".to_string())];
                for c in 0..n_clients as u32 {
                    names.push((1 + c, format!("client{c}")));
                }
                names.push((1 + n_clients as u32, "monitor".to_string()));
                let obs = crate::server::ServerObservability {
                    telemetry: writer.as_ref(),
                    flight: flight.as_ref(),
                    task_names: names,
                };
                crate::server::run_resilient_server_observed(
                    &ch,
                    &t0,
                    strategy,
                    heartbeat,
                    obs,
                    |m| m,
                )
            })
        };

        let pr = arena.get(root);
        for _ in 0..n_clients {
            assert!(
                pr.ready.p_timeout(WATCHDOG_JOIN),
                "a child never reached the ready barrier"
            );
        }
        for _ in 0..n_clients {
            pr.go.v();
        }

        // Let the victim make real progress, then kill it cold.
        let cell0 = &arena.get_slice(pr.cells)[0];
        let deadline = Instant::now() + WATCHDOG_JOIN;
        while cell0.progress.load(Ordering::Relaxed) < KILL_AFTER_PROGRESS {
            assert!(Instant::now() < deadline, "victim never made progress");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut children = children.into_iter();
        let victim = children.next().expect("victim exists");
        victim.kill();
        // pidfd-based detection: the descriptor polls readable at
        // process exit — race-free, no reaping required yet.
        assert!(
            victim.dead_within(WATCHDOG_JOIN),
            "pidfd never signalled the victim's death"
        );
        let victim_progress = cell0.progress.load(Ordering::Relaxed);
        // Feed the death into the failure model: flip the victim's
        // liveness word so the server's next heartbeat scan reaps it.
        let monitor = os.task(1 + n_clients as u32);
        channel.reply_queue(0).mark_consumer_dead(&monitor);

        let (server_run, flight_dump) = join_server(server, "proc-kill");
        let victim_exit = victim.wait().expect("reap victim");
        assert_eq!(
            victim_exit,
            ExitStatus::Signaled(9),
            "victim should die by SIGKILL"
        );
        let survivor_exits: Vec<ExitStatus> = children
            .enumerate()
            .map(|(i, child)| reap_child(child, &format!("survivor {}", i + 1)))
            .collect();
        for (i, e) in survivor_exits.iter().enumerate() {
            assert!(e.success(), "survivor {} failed: {e:?}", i + 1);
        }

        ProcKillResult {
            server_metrics: os.metrics().expect("metrics on").task_snapshot(0),
            server_run,
            victim_exit,
            victim_reply_poisoned: channel.reply_queue(0).is_poisoned(),
            victim_progress,
            survivor_exits,
            flight_dump,
            telemetry: plane.map(|p| p.readings()),
        }
    }

    /// The bootstrap root for the **takeover drill**: like [`ProcRoot`],
    /// but the *server* is the forked child (doomed to SIGKILL itself at
    /// an instrumented kill site) and the parent is the successor.
    #[repr(C)]
    struct TakeoverRoot {
        /// Attach barrier: every client and the doomed server `V` once up.
        ready: CountingSem,
        /// Go signal for the client barrage.
        go: CountingSem,
        /// Gate for the late prober (the pinned accounting leg): the
        /// parent releases it only after the takeover completed and every
        /// other client finished, so the prober's conversation runs in
        /// clean lockstep against the successor. Lives outside the
        /// channel, so the fsck never touches it.
        prober_go: CountingSem,
        /// The channel's root object.
        channel: ShmPtr<ChannelRoot>,
        /// The shared semaphore table.
        sems: ShmSlice<CountingSem>,
        /// One result cell per client.
        cells: ShmSlice<ProcCell>,
        /// Per-client count of requests re-issued after a
        /// [`DROPPED`](crate::msg::opcode::DROPPED) notice.
        retries: ShmSlice<AtomicU64>,
        /// Number of clients.
        n_clients: u32,
        /// Clients `0..n_victims` are storm victims: they barrage
        /// endlessly and are SIGKILLed by the parent mid-run.
        n_victims: u32,
        /// Echo round trips per client.
        msgs_per_client: u64,
        /// Echo requests the doomed incarnation serves before SIGKILLing
        /// itself **mid-handler** — the request in hand is consumed but
        /// its reply never commits, which is the nastiest kill site the
        /// explorer sweeps surface (everything else is either still
        /// committed in the receive queue or already committed as a
        /// reply).
        kill_site: u64,
        /// CPU everyone pins to (`-1`: run free).
        pin_cpu: i32,
        /// Nonzero: client `n_clients - 1` is the late prober.
        prober: u32,
    }

    // SAFETY: sems in shared-futex mode, offset handles and plain
    // scalars; mutated fields are atomics. No host pointers.
    unsafe impl usipc_shm::ShmSafe for TakeoverRoot {}

    /// A client of the takeover drill: barrage with the *infallible*
    /// protocol (it must survive the server's death without ever seeing
    /// an error), re-issuing any request the takeover dropped.
    fn takeover_client_body(fd: i32, c: u32, strategy: WaitStrategy) -> i32 {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return EXIT_ATTACH_FAILED,
        };
        let root = match arena.root::<TakeoverRoot>() {
            Some(r) => r,
            None => return EXIT_NO_ROOT,
        };
        let pr = arena.get(root);
        if pr.pin_cpu >= 0
            && (crate::proc::pin_to_cpu(pr.pin_cpu as usize).is_err()
                || crate::proc::set_sched_batch().is_err())
        {
            return EXIT_PIN_FAILED;
        }
        let os = NativeOs::attach_shared(
            NativeConfig::for_clients(pr.n_clients as usize),
            Arc::clone(&arena),
            pr.sems,
        );
        let task = os.task(1 + c);
        let cell = &arena.get_slice(pr.cells)[c as usize];
        let retries = &arena.get_slice(pr.retries)[c as usize];
        let is_prober = pr.prober != 0 && c + 1 == pr.n_clients;

        pr.ready.v();
        pr.go.p();
        if is_prober {
            // Park outside the channel until the parent opens the
            // accounting window; the handle is built afterwards, stamped
            // under the successor's generation.
            pr.prober_go.p();
        }
        let ch = Channel::from_root(Arc::clone(&arena), pr.channel).expect("parent's root");
        let ep = ch.client(&task, c, strategy);
        // Storm victims barrage forever; the parent's SIGKILL is their
        // only exit, so the kill provably lands mid-conversation.
        let iters = if c < pr.n_victims {
            u64::MAX
        } else {
            pr.msgs_per_client
        };
        for i in 0..iters {
            loop {
                let reply = ep.call(crate::Message::echo(c, i as f64));
                if reply.opcode == crate::msg::opcode::DROPPED {
                    // At-most-once service: the takeover dropped the
                    // request the dead server had in hand. Re-issue it —
                    // the notice is the retry signal the infallible
                    // protocol otherwise lacks.
                    retries.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if reply.value != i as f64 {
                    // It will never disconnect: tell the server, which
                    // otherwise waits for it until the watchdog fires.
                    ch.reply_queue(c).mark_consumer_dead(&task);
                    return EXIT_ECHO_CORRUPTED;
                }
                break;
            }
            cell.progress.fetch_add(1, Ordering::Relaxed);
        }
        ep.disconnect();

        let snap = os
            .metrics()
            .map(|m| m.task_snapshot(1 + c))
            .unwrap_or_default();
        for (slot, v) in cell.events.iter().zip(snap.to_array()) {
            slot.store(v, Ordering::Relaxed);
        }
        cell.state.store(1, Ordering::Release);
        0
    }

    /// The doomed incarnation: a forked server child that serves exactly
    /// `kill_site` echoes, then SIGKILLs itself **inside the handler** —
    /// request dequeued, reply uncommitted, no unwind guard, no
    /// tombstone. Exactly what an external `kill -9` at that protocol
    /// point produces.
    fn takeover_server_body(fd: i32, strategy: WaitStrategy) -> i32 {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return EXIT_ATTACH_FAILED,
        };
        let root = match arena.root::<TakeoverRoot>() {
            Some(r) => r,
            None => return EXIT_NO_ROOT,
        };
        let pr = arena.get(root);
        if pr.pin_cpu >= 0
            && (crate::proc::pin_to_cpu(pr.pin_cpu as usize).is_err()
                || crate::proc::set_sched_batch().is_err())
        {
            return EXIT_PIN_FAILED;
        }
        let os = NativeOs::attach_shared(
            NativeConfig::for_clients(pr.n_clients as usize),
            Arc::clone(&arena),
            pr.sems,
        );
        let ch = Channel::from_root(Arc::clone(&arena), pr.channel).expect("parent's root");
        let task = os.task(0);
        let kill_site = pr.kill_site;
        let mut served = 0u64;
        pr.ready.v();
        let _ = crate::server::run_resilient_server(
            &ch,
            &task,
            strategy,
            Duration::from_millis(5),
            move |m| {
                if m.opcode == crate::msg::opcode::ECHO {
                    if served == kill_site {
                        crate::proc::raise_sigkill();
                    }
                    served += 1;
                }
                m
            },
        );
        // Reachable only if the kill site exceeds the traffic — the
        // harness rejects such sites up front.
        0
    }

    /// Results of one generational-takeover drill
    /// ([`run_proc_takeover_experiment`]).
    #[derive(Debug)]
    pub struct ProcTakeoverResult {
        /// The kill site the doomed incarnation died at.
        pub kill_site: u64,
        /// How the doomed server died (`Signaled(SIGKILL)`).
        pub server_exit: ExitStatus,
        /// The successor's takeover record: generations and the
        /// [`FsckReport`](crate::FsckReport) with its conservation ledger.
        pub takeover: crate::recover::Takeover,
        /// The successor's serving run (it finishes the whole barrage).
        pub server_run: ServerRun,
        /// Death detection (pidfd readable) → fsck complete, including
        /// the quiescence wait — the end-to-end recovery latency.
        pub recovery: Duration,
        /// Per-client count of requests re-issued after a DROPPED notice
        /// (the drill kills mid-handler, so the total is exactly 1).
        pub drop_retries: Vec<u64>,
        /// Verdict of a fallible call issued on a handle stamped under
        /// the dead generation, raced against the fsck on purpose: must
        /// be `Err(StaleGeneration)`, never a hang.
        pub stale_probe: Result<crate::Message, crate::IpcError>,
        /// Each client's exit status (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
        /// ECHO messages completed across the run (both incarnations).
        pub messages: u64,
        /// Protocol events summed over every client process.
        pub client_metrics: MetricsSnapshot,
        /// The late prober's own events (pinned accounting leg only):
        /// entirely post-takeover, entirely lockstep.
        pub prober_metrics: Option<MetricsSnapshot>,
        /// The successor task's semaphore ops inside the prober window
        /// (pinned accounting leg only).
        pub successor_window_sem_ops: Option<u64>,
    }

    /// Knobs for [`run_proc_takeover_opts`].
    struct TakeoverOpts {
        pin_cpu: i32,
        prober: bool,
        heartbeat: Duration,
    }

    /// The generational-takeover drill: forked clients barrage a forked
    /// server over a memfd segment; the server SIGKILLs itself
    /// mid-handler at `kill_site`; the parent detects the death by pidfd,
    /// waits for the surviving clients to quiesce (parked in their reply
    /// waits — the fsck precondition), then runs
    /// [`take_over`](crate::take_over) and serves the rest of the barrage
    /// as the new incarnation. Every client completes without ever
    /// observing the crash, except the one whose in-hand request was
    /// dropped — it gets a DROPPED notice and re-issues.
    ///
    /// Same fork discipline as [`run_proc_experiment`].
    ///
    /// # Panics
    ///
    /// On a client failing, the doomed server dying any way but its own
    /// SIGKILL, or a wedged process (watchdog).
    pub fn run_proc_takeover_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        kill_site: u64,
        queue_kind: QueueKind,
    ) -> ProcTakeoverResult {
        run_proc_takeover_opts(
            strategy,
            n_clients,
            msgs_per_client,
            kill_site,
            queue_kind,
            TakeoverOpts {
                pin_cpu: -1,
                prober: false,
                heartbeat: Duration::from_millis(5),
            },
        )
    }

    /// The pinned accounting leg of the drill: everyone on one CPU under
    /// `SCHED_BATCH`, with client 1 held back as a **late prober** that
    /// starts only after the takeover completed and client 0 drained —
    /// so its whole conversation is lockstep BSW against the successor,
    /// and the paper's 4-semaphore-ops-per-round-trip accounting can be
    /// pinned *post-takeover*. The long heartbeat keeps liveness-scan
    /// timeouts out of the measured window.
    pub fn run_proc_takeover_pinned_experiment(
        strategy: WaitStrategy,
        msgs_per_client: u64,
        kill_site: u64,
        cpu: usize,
    ) -> ProcTakeoverResult {
        run_proc_takeover_opts(
            strategy,
            2,
            msgs_per_client,
            kill_site,
            QueueKind::default(),
            TakeoverOpts {
                pin_cpu: cpu as i32,
                prober: true,
                heartbeat: Duration::from_secs(1),
            },
        )
    }

    /// Builds the memfd world of the takeover-family drills: arena,
    /// shared semaphore table, channel and the published
    /// [`TakeoverRoot`].
    #[allow(clippy::type_complexity)]
    fn build_takeover_world(
        n_clients: usize,
        n_victims: usize,
        msgs_per_client: u64,
        kill_site: u64,
        queue_kind: QueueKind,
        pin_cpu: i32,
        prober: bool,
    ) -> (
        Arc<ShmArena>,
        Arc<NativeOs>,
        Channel,
        usipc_shm::ShmPtr<TakeoverRoot>,
    ) {
        use core::mem::{align_of, size_of};
        let ch_cfg = ChannelConfig::new(n_clients).with_queue_kind(queue_kind);
        let cap = ch_cfg.bytes_needed()
            + (1 + n_clients) * size_of::<CountingSem>()
            + align_of::<CountingSem>()
            + n_clients * (size_of::<ProcCell>() + size_of::<AtomicU64>())
            + align_of::<ProcCell>()
            + align_of::<AtomicU64>()
            + size_of::<TakeoverRoot>()
            + align_of::<TakeoverRoot>()
            + 256;
        let arena = Arc::new(ShmArena::new_memfd(cap).expect("memfd arena for takeover"));
        let (os, sems) =
            NativeOs::new_shared(NativeConfig::for_clients(n_clients), Arc::clone(&arena))
                .expect("shared semaphore table fits the arena");
        let channel =
            Channel::create_in(Arc::clone(&arena), &ch_cfg).expect("channel fits the arena");
        let cells = arena
            .alloc_slice(n_clients, |_| ProcCell::new())
            .expect("cells fit the arena");
        let retries = arena
            .alloc_slice(n_clients, |_| AtomicU64::new(0))
            .expect("retry counters fit the arena");
        let root = arena
            .alloc(TakeoverRoot {
                ready: CountingSem::new_shared(0),
                go: CountingSem::new_shared(0),
                prober_go: CountingSem::new_shared(0),
                channel: channel.root_ptr(),
                sems,
                cells,
                retries,
                n_clients: n_clients as u32,
                n_victims: n_victims as u32,
                msgs_per_client,
                kill_site,
                pin_cpu,
                prober: u32::from(prober),
            })
            .expect("root fits the arena");
        arena.publish_root(root);
        (arena, os, channel, root)
    }

    /// Results of one fault storm ([`run_proc_storm_experiment`]).
    #[derive(Debug)]
    pub struct ProcStormResult {
        /// How many clients were SIGKILLed mid-barrage.
        pub n_victims: usize,
        /// Victim exit statuses (all `Signaled(SIGKILL)`).
        pub victim_exits: Vec<ExitStatus>,
        /// Survivor exit statuses (all `Exited(0)` on success).
        pub survivor_exits: Vec<ExitStatus>,
        /// The doomed server's death, when the storm included one
        /// (`kill_server_at` was set).
        pub server_exit: Option<ExitStatus>,
        /// The takeover record, when the storm killed the server.
        pub takeover: Option<crate::recover::Takeover>,
        /// Death detection → fsck complete, when the storm killed the
        /// server.
        pub recovery: Option<Duration>,
        /// The (final) server's run: `reaped` counts every storm victim.
        pub server_run: ServerRun,
        /// Whether each victim's reply queue ended poisoned — the
        /// cascade's visible residue.
        pub victim_poisoned: Vec<bool>,
        /// Per-client DROPPED-retry counts (only a surviving client whose
        /// in-hand request the takeover dropped ever retries).
        pub drop_retries: Vec<u64>,
        /// Echo round trips the survivors completed (their full barrage).
        pub survivor_messages: u64,
    }

    /// Echo round trips a storm victim must complete before its SIGKILL
    /// when the server is still alive, so the kill provably lands
    /// mid-conversation.
    const STORM_KILL_PROGRESS: u64 = 25;

    /// The fault storm: `n_victims` of `n_clients` forked clients are
    /// SIGKILLed mid-barrage — and, when `kill_server_at` is set, the
    /// forked server *also* SIGKILLs itself mid-handler at that site, so
    /// mass client death and server death land in the same run.
    ///
    /// Without a server kill this is the poison-cascade drill: the
    /// parent's resilient server reaps every victim on its heartbeat
    /// scan (their deaths detected by pidfd and fed through
    /// [`mark_consumer_dead`](crate::QueueRef::mark_consumer_dead)),
    /// poisons their reply queues, and finishes the survivors untouched.
    ///
    /// With a server kill, the parent waits for the doomed incarnation
    /// to die, quiesces, runs [`take_over`](crate::take_over) — and then
    /// **re-marks the storm victims dead**: the fsck's fault-state reset
    /// revives every consumer-liveness word, which is correct for clients
    /// that merely lost their server but wrong for actual corpses; the
    /// successor re-feeds the pidfd verdicts before serving so its first
    /// heartbeat scan re-reaps them.
    ///
    /// Same fork discipline as [`run_proc_experiment`].
    pub fn run_proc_storm_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        n_victims: usize,
        msgs_per_client: u64,
        kill_server_at: Option<u64>,
        heartbeat: Duration,
    ) -> ProcStormResult {
        assert!(n_victims >= 1 && n_victims < n_clients);
        let survivors = n_clients - n_victims;
        if let Some(site) = kill_server_at {
            assert!(
                site < survivors as u64 * msgs_per_client,
                "the doomed server must die before the survivors drain (site {site})"
            );
        }
        // kill_site is only read by a forked server body; without one it
        // is inert.
        let (arena, os, channel, root) = build_takeover_world(
            n_clients,
            n_victims,
            msgs_per_client,
            kill_server_at.unwrap_or(0),
            QueueKind::default(),
            -1,
            false,
        );
        let fd = arena.backing_fd().expect("memfd backing");

        let mut children: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| {
                ChildProc::spawn(move || takeover_client_body(fd, c, strategy))
                    .expect("fork client")
            })
            .collect();
        let doomed = kill_server_at.map(|_| {
            ChildProc::spawn(move || takeover_server_body(fd, strategy)).expect("fork server")
        });

        let pr = arena.get(root);
        let participants = n_clients + usize::from(doomed.is_some());
        for _ in 0..participants {
            assert!(
                pr.ready.p_timeout(WATCHDOG_JOIN),
                "a participant never reached the ready barrier"
            );
        }

        // Plain storm: the parent itself is the (resilient) server; it
        // must be serving before the clients start.
        let mut server_thread = None;
        if doomed.is_none() {
            let ch = channel.clone();
            let t0 = os.task(0);
            server_thread = Some(std::thread::spawn(move || {
                crate::server::run_resilient_server(&ch, &t0, strategy, heartbeat, |m| m)
            }));
        }
        for _ in 0..n_clients {
            pr.go.v();
        }

        let cells = arena.get_slice(pr.cells);
        let has_doomed = doomed.is_some();
        let mut server_exit = None;
        if let Some(d) = doomed {
            // Server-death-during-storm ordering: the doomed incarnation
            // dies first, every client (victims included — they are
            // endless) parks against the dead server, and only then do
            // the victims get their SIGKILL: they die *in flight*, parked
            // in their reply waits, which is the state the fsck must then
            // issue verdicts into.
            assert!(
                d.dead_within(WATCHDOG_JOIN),
                "doomed server never reached its kill site"
            );
            server_exit = Some(d.wait().expect("reap doomed server"));
            let all = 0..n_clients as u32;
            await_parked(&os, &channel, cells, all, "after the server kill");
        } else {
            // Live-server storm: let every victim make real progress
            // first, so the kills land mid-conversation.
            let deadline = Instant::now() + WATCHDOG_JOIN;
            for (v, cell) in cells.iter().enumerate().take(n_victims) {
                while cell.progress.load(Ordering::Relaxed) < STORM_KILL_PROGRESS {
                    assert!(Instant::now() < deadline, "victim {v} never made progress");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }

        // The mass kill, and race-free detection through each pidfd.
        let victims: Vec<ChildProc> = children.drain(..n_victims).collect();
        for v in &victims {
            v.kill();
        }
        for (i, v) in victims.iter().enumerate() {
            assert!(
                v.dead_within(WATCHDOG_JOIN),
                "pidfd never signalled victim {i}'s death"
            );
        }
        let monitor = os.task(1 + n_clients as u32);

        let mut takeover = None;
        let mut recovery = None;
        if has_doomed {
            let t_detect = Instant::now();
            // As the parent's own task: task 0 is the successor thread's,
            // and a metrics sink has one writer thread.
            let tk = crate::recover::take_over(&channel, &monitor);
            recovery = Some(t_detect.elapsed());
            takeover = Some(tk);
        }
        // Feed the corpses into the failure model — *after* any fsck,
        // whose fault-state reset revived their liveness words.
        for v in 0..n_victims as u32 {
            channel.reply_queue(v).mark_consumer_dead(&monitor);
        }
        if has_doomed {
            let survivors = n_victims as u32..n_clients as u32;
            mark_finished_dead(&channel, &monitor, cells, survivors);
            let ch = channel.clone();
            let t0 = os.task(0);
            server_thread = Some(std::thread::spawn(move || {
                let _watch = crate::fault::ServerDeathWatch::arm(&ch, &t0);
                crate::server::run_resilient_server(&ch, &t0, strategy, heartbeat, |m| m)
            }));
        }

        let server_run = join_server(server_thread.expect("a server ran"), "storm server");
        let victim_exits: Vec<ExitStatus> = victims
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let e = v.wait().expect("reap victim");
                assert_eq!(e, ExitStatus::Signaled(9), "victim {i} died oddly: {e:?}");
                e
            })
            .collect();
        let survivor_exits: Vec<ExitStatus> = children
            .into_iter()
            .enumerate()
            .map(|(i, child)| reap_child(child, &format!("storm survivor {i}")))
            .collect();
        for (i, e) in survivor_exits.iter().enumerate() {
            assert!(e.success(), "storm survivor {i} failed: {e:?}");
        }
        let victim_poisoned = (0..n_victims as u32)
            .map(|v| channel.reply_queue(v).is_poisoned())
            .collect();
        let drop_retries = arena
            .get_slice(pr.retries)
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();

        ProcStormResult {
            n_victims,
            victim_exits,
            survivor_exits,
            server_exit,
            takeover,
            recovery,
            server_run,
            victim_poisoned,
            drop_retries,
            survivor_messages: survivors as u64 * msgs_per_client,
        }
    }

    /// The half-recoverer of the relay drill: attaches the inherited
    /// segment and dies by its own SIGKILL **during recovery** — either
    /// right after the generation bump (fsck never ran: the wreckage is
    /// still the first server's) or right after the fsck (verdicts
    /// issued, nothing served).
    fn relay_recoverer_body(fd: i32, n_clients: usize, fsck: bool) -> i32 {
        let arena = match ShmArena::attach_memfd(fd) {
            Ok(a) => Arc::new(a),
            Err(_) => return EXIT_ATTACH_FAILED,
        };
        let root = match arena.root::<TakeoverRoot>() {
            Some(r) => r,
            None => return EXIT_NO_ROOT,
        };
        let pr = arena.get(root);
        let os = NativeOs::attach_shared(
            NativeConfig::for_clients(n_clients),
            Arc::clone(&arena),
            pr.sems,
        );
        let ch = Channel::from_root(Arc::clone(&arena), pr.channel).expect("parent's root");
        if fsck {
            let _ = crate::recover::take_over(&ch, &os.task(0));
        } else {
            arena.bump_generation();
        }
        crate::proc::raise_sigkill()
    }

    /// Results of one relay-takeover drill
    /// ([`run_proc_relay_takeover_experiment`]).
    #[derive(Debug)]
    pub struct ProcRelayResult {
        /// The first incarnation's death (`Signaled(SIGKILL)`).
        pub server_exit: ExitStatus,
        /// The half-recoverer's death (`Signaled(SIGKILL)`).
        pub recoverer_exit: ExitStatus,
        /// Whether the half-recoverer completed its fsck before dying.
        pub fsck_before_death: bool,
        /// The *final* takeover record (the one that served).
        pub takeover: crate::recover::Takeover,
        /// The arena generation after the final takeover (3: created at
        /// 1, half-recovery bumped to 2, final takeover to 3).
        pub final_generation: u32,
        /// The final incarnation's serving run.
        pub server_run: ServerRun,
        /// Half-recoverer death detection → final fsck complete.
        pub recovery: Duration,
        /// Per-client DROPPED-retry counts (≤ 1 per recovery wave).
        pub drop_retries: Vec<u64>,
        /// Client exit statuses (all `Exited(0)` on success).
        pub exits: Vec<ExitStatus>,
    }

    /// The kill-during-recovery drill: the first server dies at its kill
    /// site, a forked **half-recoverer** starts the takeover and is
    /// itself SIGKILLed mid-recovery (after the generation bump, with
    /// the fsck either done or never run), and the parent performs the
    /// *third* takeover over a segment the previous recovery already
    /// half-mutated — the fsck idempotence property, exercised in anger.
    /// Every client still finishes its full barrage.
    ///
    /// Same fork discipline as [`run_proc_experiment`]; the
    /// half-recoverer is forked only after the first server's death, at
    /// which point the parent has no threads yet.
    pub fn run_proc_relay_takeover_experiment(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        kill_site: u64,
        fsck_before_death: bool,
    ) -> ProcRelayResult {
        assert!(n_clients >= 1 && kill_site < n_clients as u64 * msgs_per_client);
        let (arena, os, channel, root) = build_takeover_world(
            n_clients,
            0,
            msgs_per_client,
            kill_site,
            QueueKind::default(),
            -1,
            false,
        );
        let fd = arena.backing_fd().expect("memfd backing");

        let clients: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| {
                ChildProc::spawn(move || takeover_client_body(fd, c, strategy))
                    .expect("fork client")
            })
            .collect();
        let doomed =
            ChildProc::spawn(move || takeover_server_body(fd, strategy)).expect("fork server");

        let pr = arena.get(root);
        for _ in 0..=n_clients {
            assert!(
                pr.ready.p_timeout(WATCHDOG_JOIN),
                "a participant never reached the ready barrier"
            );
        }
        for _ in 0..n_clients {
            pr.go.v();
        }
        assert!(
            doomed.dead_within(WATCHDOG_JOIN),
            "first server never reached kill site {kill_site}"
        );
        let server_exit = doomed.wait().expect("reap first server");

        let quiesce = |what: &str| {
            let cells = arena.get_slice(pr.cells);
            await_parked(&os, &channel, cells, 0..n_clients as u32, what);
        };
        quiesce("after the first kill");

        // The half-recoverer: forked (the parent is still threadless),
        // dies by its own hand mid-recovery.
        let recoverer =
            ChildProc::spawn(move || relay_recoverer_body(fd, n_clients, fsck_before_death))
                .expect("fork recoverer");
        assert!(
            recoverer.dead_within(WATCHDOG_JOIN),
            "half-recoverer never died"
        );
        let t_detect = Instant::now();
        let recoverer_exit = recoverer.wait().expect("reap recoverer");
        assert_eq!(
            recoverer_exit,
            ExitStatus::Signaled(9),
            "the half-recoverer must die by its own SIGKILL"
        );
        // If it fscked, clients it dropped are awake and re-enqueueing
        // right now; wait for them to park again.
        quiesce("after the half-recovery");

        // As the parent's own task: task 0 is the successor thread's, and
        // a metrics sink has one writer thread.
        let monitor = os.task(1 + n_clients as u32);
        let takeover = crate::recover::take_over(&channel, &monitor);
        let recovery = t_detect.elapsed();
        let final_generation = arena.generation();
        let cells = arena.get_slice(pr.cells);
        mark_finished_dead(&channel, &monitor, cells, 0..n_clients as u32);
        let server_run = {
            let ch = channel.clone();
            let t0 = os.task(0);
            let handle = std::thread::spawn(move || {
                let _watch = crate::fault::ServerDeathWatch::arm(&ch, &t0);
                crate::server::run_resilient_server(
                    &ch,
                    &t0,
                    strategy,
                    Duration::from_millis(5),
                    |m| m,
                )
            });
            join_server(handle, "relay successor")
        };

        let exits: Vec<ExitStatus> = clients
            .into_iter()
            .enumerate()
            .map(|(c, child)| reap_child(child, &format!("relay client {c}")))
            .collect();
        for (c, e) in exits.iter().enumerate() {
            assert!(e.success(), "relay client {c} failed: {e:?}");
        }
        let drop_retries = arena
            .get_slice(pr.retries)
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();

        ProcRelayResult {
            server_exit,
            recoverer_exit,
            fsck_before_death,
            takeover,
            final_generation,
            server_run,
            recovery,
            drop_retries,
            exits,
        }
    }

    fn run_proc_takeover_opts(
        strategy: WaitStrategy,
        n_clients: usize,
        msgs_per_client: u64,
        kill_site: u64,
        queue_kind: QueueKind,
        opts: TakeoverOpts,
    ) -> ProcTakeoverResult {
        assert!(n_clients >= 1);
        let normal = if opts.prober {
            n_clients - 1
        } else {
            n_clients
        };
        assert!(
            normal >= 1 && kill_site < normal as u64 * msgs_per_client,
            "the doomed server must die mid-barrage (site {kill_site})"
        );
        let (arena, os, channel, root) = build_takeover_world(
            n_clients,
            0,
            msgs_per_client,
            kill_site,
            queue_kind,
            opts.pin_cpu,
            opts.prober,
        );
        let fd = arena.backing_fd().expect("memfd backing");

        let clients: Vec<ChildProc> = (0..n_clients as u32)
            .map(|c| {
                ChildProc::spawn(move || takeover_client_body(fd, c, strategy))
                    .expect("fork client")
            })
            .collect();
        let doomed =
            ChildProc::spawn(move || takeover_server_body(fd, strategy)).expect("fork server");

        let pr = arena.get(root);
        for _ in 0..=n_clients {
            assert!(
                pr.ready.p_timeout(WATCHDOG_JOIN),
                "a participant never reached the ready barrier"
            );
        }
        for _ in 0..n_clients {
            pr.go.v();
        }

        // The doomed incarnation reaches its kill site and dies; the
        // pidfd is the successor's death signal.
        assert!(
            doomed.dead_within(WATCHDOG_JOIN),
            "doomed server never reached kill site {kill_site}"
        );
        let t_detect = Instant::now();
        let server_exit = doomed.wait().expect("reap doomed server");

        // Quiescence: with the server dead no replies flow, so within a
        // bounded time every running client has committed its next
        // request and parked in its reply wait — after which its only
        // remaining write is the `P` on its own semaphore, which the
        // fsck leaves strictly alone for in-flight clients. The prober
        // (if any) is parked on its gate.
        let cells_ref = arena.get_slice(pr.cells);
        await_parked(&os, &channel, cells_ref, 0..normal as u32, "after the kill");

        // A handle stamped under the dead generation, for the staleness
        // probe below.
        let stale_ch = Channel::from_root(Arc::clone(&arena), pr.channel).expect("parent's root");

        // The successor: bump + fsck + re-arm + serve, on its own thread
        // so the parent can probe staleness and orchestrate the pinned
        // accounting window.
        let successor = {
            let ch = channel.clone();
            let os0 = os.task(0);
            let pin = opts.pin_cpu;
            let heartbeat = opts.heartbeat;
            let (arena, cells) = (Arc::clone(&arena), pr.cells);
            std::thread::spawn(move || {
                if pin >= 0 {
                    crate::proc::pin_to_cpu(pin as usize).expect("pin successor");
                    crate::proc::set_sched_batch().expect("batch successor");
                }
                let takeover = crate::recover::take_over(&ch, &os0);
                let fsck_done = Instant::now();
                mark_finished_dead(&ch, &os0, arena.get_slice(cells), 0..normal as u32);
                let _watch = crate::fault::ServerDeathWatch::arm(&ch, &os0);
                let run =
                    crate::server::run_resilient_server(&ch, &os0, strategy, heartbeat, |m| m);
                (takeover, fsck_done, run)
            })
        };

        // Staleness probe, deliberately racing the fsck: the generation
        // bump alone must fence this handle — the call fails fast with a
        // local stamp check before touching any queue.
        while arena.generation() < 2 {
            std::thread::yield_now();
        }
        let probe_task = os.task(1 + n_clients as u32);
        let stale_probe = stale_ch
            .client(&probe_task, 0, strategy)
            .call_deadline(crate::Message::echo(0, 0.0), Duration::from_millis(250));

        // Pinned accounting leg: wait out the normal clients, open the
        // metrics window on the successor task, release the prober.
        let mut window_start = None;
        if opts.prober {
            let deadline = Instant::now() + WATCHDOG_JOIN;
            for (c, cell) in cells_ref.iter().enumerate().take(normal) {
                while cell.state.load(Ordering::Acquire) == 0 {
                    assert!(
                        Instant::now() < deadline,
                        "client {c} never finished against the successor"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            window_start = Some(os.metrics().expect("metrics on").task_snapshot(0));
            pr.prober_go.v();
        }

        let (takeover, fsck_done, server_run) = join_server(successor, "takeover successor");
        let successor_window_sem_ops = window_start.map(|s0| {
            let s1 = os.metrics().expect("metrics on").task_snapshot(0);
            (s1.sem_p - s0.sem_p) + (s1.sem_v - s0.sem_v)
        });

        let exits: Vec<ExitStatus> = clients
            .into_iter()
            .enumerate()
            .map(|(c, child)| reap_child(child, &format!("takeover client {c}")))
            .collect();
        for (c, e) in exits.iter().enumerate() {
            assert!(e.success(), "takeover client {c} failed: {e:?}");
        }

        let mut client_metrics = MetricsSnapshot::default();
        let mut prober_metrics = None;
        for (c, cell) in cells_ref.iter().enumerate() {
            assert_eq!(
                cell.state.load(Ordering::Acquire),
                1,
                "cell {c} not finalized"
            );
            let mut a = [0u64; N_EVENTS];
            for (dst, src) in a.iter_mut().zip(cell.events.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            let snap = MetricsSnapshot::from_array(&a);
            if opts.prober && c == normal {
                prober_metrics = Some(snap);
            }
            client_metrics = client_metrics.add(&snap);
        }
        let drop_retries: Vec<u64> = arena
            .get_slice(pr.retries)
            .iter()
            .map(|r| r.load(Ordering::Relaxed))
            .collect();

        ProcTakeoverResult {
            kill_site,
            server_exit,
            recovery: fsck_done.duration_since(t_detect),
            takeover,
            server_run,
            drop_retries,
            stale_probe,
            exits,
            messages: msgs_per_client * n_clients as u64,
            client_metrics,
            prober_metrics,
            successor_window_sem_ops,
        }
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use proc_harness::{
    run_proc_experiment, run_proc_experiment_pinned, run_proc_experiment_pinned_queue,
    run_proc_experiment_pinned_telemetry, run_proc_kill_experiment, run_proc_observed_experiment,
    run_proc_relay_takeover_experiment, run_proc_storm_experiment, run_proc_takeover_experiment,
    run_proc_takeover_pinned_experiment, ProcExperimentResult, ProcKillResult, ProcRelayResult,
    ProcStormResult, ProcTakeoverResult,
};
