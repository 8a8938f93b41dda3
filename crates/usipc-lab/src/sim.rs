//! The simulator world and the four experiments that run on it.

use crate::{echo_session, IpcNever, Mechanism};
use std::sync::Arc;
use usipc::metrics::{MetricsRegistry, MetricsSnapshot, SketchSnapshot};
use usipc::platform::OsServices;
use usipc::{
    AsyncClient, Channel, ChannelConfig, DuplexChannel, Message, SimCosts, SimIds, SimOs,
    TraceRegistry, UnifiedTrace, WaitStrategy,
};
use usipc_sim::{BarrierId, MachineModel, PolicyKind, SimBuilder, SimReport, VDur};

/// Mark code: a client is about to issue its first request.
const MARK_FIRST_SEND: u64 = 1;
/// Mark code: the server observed the last disconnect.
const MARK_SERVER_DONE: u64 = 2;

/// Depth of a System V baseline queue: that of a channel queue
/// ([`ChannelConfig::new`]'s default), so the two mechanisms buffer alike.
const MSGQ_CAPACITY: usize = 64;

/// The kernel objects a simulated experiment needs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimShape {
    /// Semaphores (conventional indices `0..sems`).
    pub sems: usize,
    /// Kernel message queues, for the System V baseline.
    pub msgqs: usize,
    /// Parties of the clients' start barrier; 0 for none.
    pub barrier: u32,
    /// Per-task event-trace ring capacity; `None` disables tracing.
    pub trace_capacity: Option<usize>,
}

/// What a simulated task is to the measurement window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimRole {
    /// Opens the window: start barrier, then the first-send mark.
    Client,
    /// Closes the window: the server-done mark when it returns.
    Server,
    /// Outside the window (a background job).
    Other,
}

/// One simulated machine with its kernel objects, the per-task metrics and
/// trace registries, the clients' start barrier and the two marks that
/// delimit the paper's measurement window.
pub(crate) struct SimWorld {
    builder: SimBuilder,
    ids: Arc<SimIds>,
    costs: SimCosts,
    multiprocessor: bool,
    barrier: Option<BarrierId>,
    metrics: Arc<MetricsRegistry>,
    traces: Option<Arc<TraceRegistry>>,
    names: Vec<(u32, String)>,
}

impl SimWorld {
    /// Builds the machine under `policy` with the kernel objects of `shape`.
    pub fn new(machine: &MachineModel, policy: PolicyKind, shape: SimShape) -> Self {
        let mut builder = SimBuilder::new(machine.clone(), policy.build());
        // One virtual hour default is plenty; linux-old BSS at 33 ms per round
        // trip with thousands of messages can exceed it, so scale generously.
        builder.time_limit(VDur::seconds(24 * 3600));
        let mut ids = SimIds::default();
        for _ in 0..shape.sems {
            ids.sems.push(builder.add_sem(0));
        }
        for _ in 0..shape.msgqs {
            ids.msgqs.push(builder.add_msgq(MSGQ_CAPACITY));
        }
        let traces = shape.trace_capacity.map(|cap| {
            builder.trace(true); // also capture the engine's scheduling timeline
            Arc::new(TraceRegistry::new(cap))
        });
        SimWorld {
            barrier: (shape.barrier > 0).then(|| builder.add_barrier(shape.barrier)),
            builder,
            ids: Arc::new(ids),
            costs: SimCosts::from_machine(machine),
            multiprocessor: machine.cpus > 1,
            metrics: Arc::new(MetricsRegistry::new()),
            traces,
            names: Vec::new(),
        }
    }

    /// Spawns platform task `id` (pids follow spawn order, so spawn in id
    /// order); `body` gets its [`SimOs`], wired to the world's registries.
    /// A [`Client`](SimRole::Client) first meets the start barrier
    /// (mirroring §2.2) and marks its first send; a
    /// [`Server`](SimRole::Server) marks completion after `body`.
    pub fn task(
        &mut self,
        role: SimRole,
        name: impl Into<String>,
        id: u32,
        body: impl FnOnce(&SimOs<'_>) + Send + 'static,
    ) {
        let name = name.into();
        self.names.push((id, name.clone()));
        let (ids, costs, mp) = (Arc::clone(&self.ids), self.costs, self.multiprocessor);
        let sink = self.metrics.for_task(id);
        let ring = self.traces.as_ref().map(|t| t.for_task(id));
        let barrier = self.barrier;
        self.builder.spawn(name, move |sys| {
            let mut os = SimOs::new(sys, ids, costs, mp, id).with_metrics(sink);
            if let Some(r) = ring {
                os = os.with_trace(r);
            }
            if role == SimRole::Client {
                if let Some(b) = barrier {
                    sys.barrier(b);
                }
                sys.mark(MARK_FIRST_SEND);
            }
            body(&os);
            if role == SimRole::Server {
                sys.mark(MARK_SERVER_DONE);
            }
        });
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// If it does not complete (deadlock, overflow, task panic) — in an
    /// experiment any such outcome is a protocol bug worth a loud failure;
    /// `what` names the cell in the message.
    pub fn run(self, what: &str) -> SimRun {
        let report = self.builder.run();
        assert!(
            report.outcome.is_completed(),
            "experiment did not complete: {:?} ({what})",
            report.outcome
        );
        let start = report
            .first_mark(MARK_FIRST_SEND)
            .expect("clients marked their first send");
        let done = report
            .last_mark(MARK_SERVER_DONE)
            .expect("server marked completion");
        let trace = self.traces.map(|t| {
            let mut u = t.collect(&self.names);
            u.merge_sim(&report.trace);
            u
        });
        SimRun {
            elapsed: done.since(start),
            report,
            metrics: self.metrics,
            trace,
        }
    }
}

/// What a completed [`SimWorld`] hands back.
pub(crate) struct SimRun {
    /// Full simulator report (per-task rusage, marks, outcome).
    pub report: SimReport,
    /// First request → last disconnect, the paper's measurement window.
    pub elapsed: VDur,
    /// Every task's protocol counters.
    pub metrics: Arc<MetricsRegistry>,
    /// Protocol events merged with the engine's timeline, if the world traced.
    pub trace: Option<UnifiedTrace>,
}

impl SimRun {
    /// The echo result over `messages` round trips, with the tasks
    /// `is_server` selects on the server side of the split.
    fn result(self, messages: u64, is_server: impl Fn(u32) -> bool) -> SimExperimentResult {
        let ms = self.elapsed.as_nanos() as f64 / 1e6;
        SimExperimentResult {
            throughput: messages as f64 / ms,
            latency_us: self.elapsed.as_micros_f64() / messages.max(1) as f64,
            elapsed: self.elapsed,
            messages,
            server_metrics: self.metrics.aggregate(&is_server),
            client_metrics: self.metrics.aggregate(|t| !is_server(t)),
            client_latency: self.metrics.aggregate_latency(|t| !is_server(t)),
            trace: self.trace,
            report: self.report,
        }
    }
}

/// One cell of an experiment grid: machine × policy × mechanism × clients.
#[derive(Debug, Clone)]
pub struct SimExperiment {
    machine: MachineModel,
    policy: PolicyKind,
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
    service_jitter: VDur,
    trace_capacity: Option<usize>,
}

impl SimExperiment {
    /// The paper's standard workload shape on the given machine/policy: one
    /// client, 2 000 round trips, no jitter, no tracing.
    pub fn new(machine: MachineModel, policy: PolicyKind, mechanism: Mechanism) -> Self {
        SimExperiment {
            machine,
            policy,
            mechanism,
            n_clients: 1,
            msgs_per_client: 2_000,
            service_jitter: VDur::ZERO,
            trace_capacity: None,
        }
    }

    /// Sets the number of client processes.
    pub fn clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Sets the round trips per client (before the disconnect).
    pub fn messages(mut self, n: u64) -> Self {
        self.msgs_per_client = n;
        self
    }

    /// Sets the maximum extra per-request service time, drawn
    /// deterministically per message (hash of client and argument). Zero
    /// for the pure echo micro-benchmark; nonzero to model real
    /// service-time variability — which is what gives BSLS its nonzero
    /// fall-through rates (§4.2).
    pub fn jitter(mut self, j: VDur) -> Self {
        self.service_jitter = j;
        self
    }

    /// Enables event tracing with the given per-task ring capacity: the
    /// result then carries a [`UnifiedTrace`] merging protocol events with
    /// the engine's scheduling timeline. Tracing never perturbs the
    /// virtual-time schedule (timestamps are zero-cost `Now` requests).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Runs this cell on the simulator: task 0 is the server, tasks `1..=n`
    /// the clients.
    ///
    /// # Panics
    ///
    /// If the simulation does not complete.
    pub fn run(&self) -> SimExperimentResult {
        let n = self.n_clients;
        assert!(n >= 1);
        let mut world = SimWorld::new(
            &self.machine,
            self.policy,
            SimShape {
                sems: n + 1,
                msgqs: n + 1,
                barrier: n as u32,
                trace_capacity: self.trace_capacity,
            },
        );
        let channel = Channel::create(&ChannelConfig::new(n)).expect("channel creation");
        let (mechanism, msgs, jitter) = (self.mechanism, self.msgs_per_client, self.service_jitter);

        let ch = channel.clone();
        world.task(SimRole::Server, "server", 0, move |os| {
            mechanism.serve(&ch, os, n as u32, |m| {
                os.compute(jitter_for(m.channel, m.value, jitter).as_nanos());
                m
            });
        });
        for c in 0..n as u32 {
            let ch = channel.clone();
            world.task(SimRole::Client, format!("client{c}"), 1 + c, move |os| {
                let client = mechanism.connect(&ch, os, c);
                echo_session(c, msgs, |m| Ok::<_, IpcNever>(client.call(m)))
                    .expect("echo corrupted");
                let _ = client.call(Message::disconnect(c));
            });
        }
        world
            .run(&format!("mechanism {mechanism:?}, {n} clients"))
            .result(msgs * n as u64, |t| t == 0)
    }
}

/// Deterministic per-message jitter in `[0, max)` from a 64-bit mix of the
/// client id and the request argument.
fn jitter_for(channel: u32, value: f64, max: VDur) -> VDur {
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
    /// Protocol events recorded by the server task(s).
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client task.
    pub client_metrics: MetricsSnapshot,
    /// Round-trip latency sketch merged over every client task
    /// (virtual-time samples; empty for the SysV baseline, which bypasses
    /// the channel layer).
    pub client_latency: SketchSnapshot,
    /// The unified event trace (protocol events + bridged scheduler
    /// timeline), present when the experiment enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Runs the §2.1 alternative architecture — a server thread per client
/// over full-duplex queue pairs — on the simulator, with the same
/// measurement window as [`SimExperiment::run`].
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
    let n = n_clients as u32;
    assert!(n >= 1);
    let mut world = SimWorld::new(
        machine,
        policy,
        SimShape {
            sems: 2 * n_clients,
            barrier: n,
            ..SimShape::default()
        },
    );
    let channel = DuplexChannel::create(n_clients, 64).expect("duplex channel");
    for c in 0..n {
        let ch = channel.clone();
        world.task(SimRole::Server, format!("srv{c}"), c, move |os| {
            let _ = ch.serve_connection(os, c, max_spin, |m| m);
        });
    }
    for c in 0..n {
        let ch = channel.clone();
        world.task(SimRole::Client, format!("client{c}"), n + c, move |os| {
            echo_session(c, msgs_per_client, |m| {
                Ok::<_, IpcNever>(ch.call(os, c, m, max_spin))
            })
            .expect("duplex echo corrupted");
            ch.disconnect(os, c, max_spin);
        });
    }
    world
        .run(&format!("duplex, {n} clients"))
        .result(msgs_per_client * n as u64, |t| t < n)
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
    assert!(batch >= 1);
    let mut world = SimWorld::new(
        machine,
        policy,
        SimShape {
            sems: 2,
            ..SimShape::default()
        },
    );
    let channel = Channel::create(&ChannelConfig {
        queue_capacity: (batch as usize + 2).max(64),
        ..ChannelConfig::new(1)
    })
    .expect("channel creation");

    let ch = channel.clone();
    world.task(SimRole::Server, "server", 0, move |os| {
        let _ = usipc::run_echo_server(&ch, os, WaitStrategy::Bsw);
    });
    world.task(SimRole::Client, "client", 1, move |os| {
        let mut ac = AsyncClient::new(&channel, os, 0);
        let mut issued = 0u64;
        while issued < msgs {
            let burst = batch.min(msgs - issued);
            for i in 0..burst {
                assert!(
                    ac.post(Message::echo(0, (issued + i) as f64)),
                    "queue sized for the batch"
                );
            }
            for (i, m) in ac.collect_all().into_iter().enumerate() {
                assert_eq!(m.value, (issued + i as u64) as f64);
            }
            issued += burst;
        }
        channel.client(os, 0, WaitStrategy::Bsw).disconnect();
    });
    world
        .run(&format!("async, batch {batch}"))
        .result(msgs, |t| t == 0)
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
    let mut world = SimWorld::new(
        machine,
        policy,
        SimShape {
            sems: 2,
            msgqs: 2,
            ..SimShape::default()
        },
    );
    let channel = Channel::create(&ChannelConfig::new(1)).expect("channel creation");
    let stop = Arc::new(AtomicBool::new(false));

    let ch = channel.clone();
    world.task(SimRole::Server, "server", 0, move |os| {
        mechanism.serve(&ch, os, 1, |m| m)
    });
    let done = Arc::clone(&stop);
    world.task(SimRole::Client, "client", 1, move |os| {
        let client = mechanism.connect(&channel, os, 0);
        echo_session(0, msgs, |m| {
            if !think.is_zero() {
                // Think time is *idle* time (the paper's infrequent
                // clients are waiting on users or I/O, not computing).
                os.sys().sleep(think);
            }
            Ok::<_, IpcNever>(client.call(m))
        })
        .expect("echo corrupted");
        let _ = client.call(Message::disconnect(0));
        done.store(true, Ordering::Release);
    });
    world.task(SimRole::Other, "batch", 2, move |os| {
        while !stop.load(Ordering::Acquire) {
            os.sys().work(VDur::micros(200));
        }
    });

    let run = world.run(&format!("mixed, {mechanism:?}"));
    let batch_cpu = run.report.task("batch").unwrap().stats.cpu_time;
    MixedExperimentResult {
        ipc_throughput: msgs as f64 / (run.elapsed.as_nanos() as f64 / 1e6),
        batch_share: batch_cpu.as_nanos() as f64
            / (run.elapsed.as_nanos() as f64 * machine.cpus as f64).max(1.0),
    }
}
