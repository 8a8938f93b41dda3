//! The thread world (the adoptable backend, one address space) and the
//! three experiments that run on it.

use crate::watchdog::{Named, Watchdog, WATCHDOG_JOIN};
use crate::{apply_fault, echo_session, Mechanism, SessionError};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usipc::metrics::{LatencySketch, MetricsSnapshot, SketchSnapshot};
use usipc::{
    Channel, ChannelConfig, DeathWatch, FaultPlan, FlightRecorder, IpcError, Message, NativeConfig,
    NativeOs, NativeTask, QueueKind, ServerDeathWatch, ServerRun, ShardedConfig, ShardedServer,
    UnifiedTrace,
};

/// One [`NativeOs`], the clients' start barrier, and the named threads of
/// both casts. Task ids: servers `0..n_servers` in spawn order, then the
/// clients. `S` and `C` are what a server and a client thread return.
pub(crate) struct ThreadWorld<S, C> {
    os: Arc<NativeOs>,
    start: Arc<Barrier>,
    n_servers: u32,
    client_stack: Option<usize>,
    servers: Vec<Named<JoinHandle<S>>>,
    clients: Vec<Named<JoinHandle<C>>>,
}

impl<S: Send + 'static, C: Send + 'static> ThreadWorld<S, C> {
    /// A world over `cfg` for `n_servers` server and `n_clients` client
    /// threads, each keeping its last `trace` records in the world's flight
    /// recorder when `trace` is set.
    pub fn new(
        cfg: NativeConfig,
        n_servers: usize,
        n_clients: usize,
        trace: Option<usize>,
    ) -> Self {
        let os = NativeOs::new(cfg);
        if let Some(capacity) = trace {
            // Armed before any task is built: tasks take their ring then.
            os.arm_flight(FlightRecorder::new(n_servers + n_clients, capacity));
        }
        ThreadWorld {
            os,
            start: Arc::new(Barrier::new(n_clients + 1)),
            n_servers: n_servers as u32,
            client_stack: None,
            servers: Vec::with_capacity(n_servers),
            clients: Vec::with_capacity(n_clients),
        }
    }

    /// Client threads get `bytes` of stack instead of the default (hundreds
    /// of shallow clients at the default would be profligate).
    pub fn client_stack(mut self, bytes: usize) -> Self {
        self.client_stack = Some(bytes);
        self
    }

    /// Spawns the next server thread; it starts serving at once.
    pub fn server(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&NativeTask) -> S + Send + 'static,
    ) {
        let id = self.servers.len() as u32;
        assert!(
            id < self.n_servers,
            "more servers than the world was sized for"
        );
        let task = self.os.task(id);
        let handle = std::thread::spawn(move || body(&task));
        self.servers.push((name.into(), id, handle));
    }

    /// Spawns the next client thread; `body` runs once [`run`](Self::run)
    /// releases the start barrier.
    pub fn client(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&NativeTask) -> C + Send + 'static,
    ) {
        let name = name.into();
        let id = self.n_servers + self.clients.len() as u32;
        let task = self.os.task(id);
        let start = Arc::clone(&self.start);
        let mut builder = std::thread::Builder::new().name(name.clone());
        if let Some(bytes) = self.client_stack {
            builder = builder.stack_size(bytes);
        }
        let handle = builder
            .spawn(move || {
                start.wait();
                body(&task)
            })
            .expect("spawn client thread");
        self.clients.push((name, id, handle));
    }

    /// Releases the clients and joins everyone under a watchdog of
    /// `timeout`, which quotes the world's flight recorder when it fires.
    ///
    /// # Panics
    ///
    /// With a participant's own panic, or the watchdog's report.
    pub fn run(self, timeout: Duration) -> ThreadRun<S, C> {
        let names: Vec<(u32, String)> = self
            .servers
            .iter()
            .map(|(n, id, _)| (*id, n.clone()))
            .chain(self.clients.iter().map(|(n, id, _)| (*id, n.clone())))
            .collect();
        self.start.wait();
        let t0 = Instant::now();
        let (servers, clients) = Watchdog::new(timeout)
            .with_evidence(self.os.flight())
            .join2(self.servers, self.clients);
        let elapsed = t0.elapsed();
        let metrics = self.os.metrics().expect("the config collects metrics");
        let n_servers = self.n_servers;
        ThreadRun {
            elapsed,
            server_metrics: metrics.aggregate(|t| t < n_servers),
            client_metrics: (n_servers..n_servers + clients.len() as u32)
                .map(|t| metrics.task_snapshot(t))
                .collect(),
            trace: self.os.flight().map(|f| f.collect(&names)),
            servers,
            clients,
        }
    }
}

/// What a joined [`ThreadWorld`] hands back.
pub(crate) struct ThreadRun<S, C> {
    /// Barrier release → last join.
    pub elapsed: Duration,
    /// Each server thread's value, in spawn order.
    pub servers: Vec<S>,
    /// Each client thread's value, in spawn order.
    pub clients: Vec<C>,
    /// Protocol events summed over the server tasks.
    pub server_metrics: MetricsSnapshot,
    /// Each client task's protocol events.
    pub client_metrics: Vec<MetricsSnapshot>,
    /// The unified event trace, when the world's config enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Field-wise sum of per-task counters.
pub(crate) fn sum(snapshots: &[MetricsSnapshot]) -> MetricsSnapshot {
    snapshots
        .iter()
        .fold(MetricsSnapshot::default(), |acc, s| acc.add(s))
}

/// Cell-wise sum of per-client latency sketches.
pub(crate) fn merged(sketches: impl IntoIterator<Item = SketchSnapshot>) -> SketchSnapshot {
    sketches
        .into_iter()
        .fold(SketchSnapshot::default(), |acc, s| acc.merge(&s))
}

/// The echo workload on real threads, as a value.
#[derive(Debug, Clone)]
pub struct NativeExperiment {
    mechanism: Mechanism,
    n_clients: usize,
    msgs_per_client: u64,
    queue_kind: QueueKind,
    trace_capacity: Option<usize>,
    deadline: Option<(Duration, Duration)>,
}

impl NativeExperiment {
    /// One client, 1 000 round trips, the default queue, no tracing, the
    /// infallible call path.
    pub fn new(mechanism: Mechanism) -> Self {
        NativeExperiment {
            mechanism,
            n_clients: 1,
            msgs_per_client: 1_000,
            queue_kind: QueueKind::default(),
            trace_capacity: None,
            deadline: None,
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

    /// Sets the channel's queue representation ([`QueueKind::Ring`] for the
    /// lock-free arena rings, [`QueueKind::TwoLock`] for the linked queue).
    /// The protocol layer is untouched — this is how the bench matrix
    /// isolates the queue swap's cost.
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Keeps `capacity` trace records per task in the world's flight
    /// recorder (host-time stamps, oldest dropped on overflow), collected
    /// into the result's [`UnifiedTrace`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// The *fallible* twin: every client call goes through
    /// [`call_deadline`](usipc::ClientEndpoint::call_deadline) bounded by
    /// `deadline` and the server runs
    /// [`run_resilient_server`](usipc::run_resilient_server) scanning for
    /// dead peers every `heartbeat`. With nothing faulting, any latency
    /// difference against the infallible twin *is* the robustness overhead
    /// — the number `figures faults` prints. User-level mechanisms only.
    pub fn deadline(mut self, heartbeat: Duration, deadline: Duration) -> Self {
        self.deadline = Some((heartbeat, deadline));
        self
    }

    fn world<S: Send + 'static, C: Send + 'static>(&self) -> (Channel, ThreadWorld<S, C>) {
        let n = self.n_clients;
        let channel = Channel::create(&ChannelConfig::new(n).with_queue_kind(self.queue_kind))
            .expect("channel creation");
        let cfg = NativeConfig::for_clients(n);
        (channel, ThreadWorld::new(cfg, 1, n, self.trace_capacity))
    }

    /// Runs the barrage.
    ///
    /// # Panics
    ///
    /// On echo corruption, any client-visible [`IpcError`], a poisoned
    /// thread or the watchdog.
    pub fn run(&self) -> NativeExperimentResult {
        let (mechanism, n, msgs) = (self.mechanism, self.n_clients, self.msgs_per_client);
        let deadline = self.deadline.map(|(_, d)| d);
        let (channel, mut world) = self.world::<(), SketchSnapshot>();
        let ch = channel.clone();
        match (self.deadline, mechanism) {
            (None, _) => world.server("server", move |os| {
                mechanism.serve(&ch, os, n as u32, |m| m);
            }),
            (Some((heartbeat, _)), Mechanism::UserLevel(strategy)) => {
                world.server("server", move |os| {
                    let _ = usipc::run_resilient_server(&ch, os, strategy, heartbeat, |m| m);
                })
            }
            (Some(_), other) => panic!("{other:?} has no deadline path"),
        }
        for c in 0..n as u32 {
            let ch = channel.clone();
            world.client(format!("client{c}"), move |os| {
                let client = mechanism.connect(&ch, os, c);
                let latency = LatencySketch::default();
                echo_session(c, msgs, |m| {
                    let t0 = Instant::now();
                    let reply = client.call_within(m, deadline);
                    latency.record(t0.elapsed().as_nanos() as u64);
                    reply
                })
                .expect("echo session failed");
                client
                    .call_within(Message::disconnect(c), deadline)
                    .expect("disconnect failed");
                latency.snapshot()
            });
        }
        let run = world.run(WATCHDOG_JOIN);
        let messages = msgs * n as u64;
        NativeExperimentResult {
            throughput: messages as f64 / (run.elapsed.as_secs_f64() * 1e3),
            elapsed: run.elapsed,
            messages,
            server_metrics: run.server_metrics,
            client_metrics: sum(&run.client_metrics),
            client_latency: merged(run.clients),
            trace: run.trace,
        }
    }

    /// Runs the barrage while `plan` kills one participant mid-protocol (a
    /// panic unwinds the victim, its [`DeathWatch`] tombstones the queue it
    /// consumes), and reports what the failure model did about it.
    ///
    /// The plan's victim `0` is the server, `1 + c` client `c`. Needs
    /// [`deadline`](Self::deadline): the server is the resilient one and
    /// clients call with `call_deadline`. The join is bounded: a fault that
    /// escapes the failure model and wedges a thread panics via the
    /// watchdog instead of hanging the run.
    pub fn run_with_fault(&self, plan: Arc<FaultPlan>) -> NativeFaultResult {
        let (n, msgs) = (self.n_clients, self.msgs_per_client);
        let (Mechanism::UserLevel(strategy), Some((heartbeat, deadline))) =
            (self.mechanism, self.deadline)
        else {
            panic!("a fault run needs a user-level mechanism and a deadline");
        };
        let (channel, mut world) = self.world::<Result<ServerRun, String>, ClientFaultOutcome>();

        let (ch, p) = (channel.clone(), Arc::clone(&plan));
        world.server("server", move |os| {
            survive(|| {
                // Tombstone the whole channel if this thread dies: every
                // client fails fast instead of riding out its deadline.
                let _watch = ServerDeathWatch::arm(&ch, os);
                usipc::run_resilient_server(&ch, os, strategy, heartbeat, |m| {
                    apply_fault(&p, 0, "server", os);
                    m
                })
            })
        });
        for c in 0..n as u32 {
            let (ch, p) = (channel.clone(), Arc::clone(&plan));
            world.client(format!("client{c}"), move |os| {
                let who = format!("client {c}");
                survive(|| {
                    let _watch = DeathWatch::arm(ch.reply_queue(c), os);
                    let ep = ch.client(os, c, strategy);
                    let session = echo_session(c, msgs, |m| {
                        apply_fault(&p, 1 + c, &who, os);
                        ep.call_deadline(m, deadline)
                    });
                    let completed = match session {
                        Ok(()) => msgs,
                        Err(SessionError::Call { completed, error }) => {
                            return ClientFaultOutcome::Failed { completed, error }
                        }
                        Err(SessionError::Corrupted { at }) => panic!("echo {at} corrupted"),
                    };
                    match ep.call_deadline(Message::disconnect(c), deadline) {
                        Ok(_) => ClientFaultOutcome::Completed,
                        Err(error) => ClientFaultOutcome::Failed { completed, error },
                    }
                })
                .unwrap_or(ClientFaultOutcome::Killed)
            });
        }

        let mut run = world.run(WATCHDOG_JOIN + deadline * (msgs as u32).max(1));
        NativeFaultResult {
            server: run.servers.remove(0),
            reply_poisoned: (0..n as u32)
                .map(|c| channel.reply_queue(c).is_poisoned())
                .collect(),
            receive_poisoned: channel.receive_queue().is_poisoned(),
            server_metrics: run.server_metrics,
            client_metrics: run.client_metrics,
            trace: run.trace,
            clients: run.clients,
        }
    }
}

/// Runs a thread body that an injected kill may unwind, turning the unwind
/// (drop guards already run) into the victim's last words.
fn survive<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "thread panicked".into())
    })
}

/// Results of one native (real-thread) experiment.
#[derive(Debug, Clone)]
pub struct NativeExperimentResult {
    /// Wall-clock duration of the barrage.
    pub elapsed: Duration,
    /// ECHO messages processed.
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Protocol events recorded by the server thread.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events summed over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Every echo round trip's wall-clock latency, merged over the
    /// clients' sketches (`count == messages`; the backend's own sketch
    /// times one call in 61).
    pub client_latency: SketchSnapshot,
    /// The unified event trace, present when the run enabled tracing.
    pub trace: Option<UnifiedTrace>,
}

/// Outcome of one client thread in a fault-injection run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFaultOutcome {
    /// Completed every echo and disconnected cleanly.
    Completed,
    /// The failure model surfaced: the client stopped after `completed`
    /// echoes with `error` (e.g. [`IpcError::PeerDead`] once the killed
    /// server was detected).
    Failed {
        /// Echo round trips that succeeded before the error.
        completed: u64,
        /// The error that ended the session.
        error: IpcError,
    },
    /// This client was the fault plan's victim and was killed.
    Killed,
}

/// Results of one native fault-injection experiment.
#[derive(Debug)]
pub struct NativeFaultResult {
    /// Server outcome: `Ok` when the resilient loop returned, `Err` with
    /// the panic message when the server was the victim.
    pub server: Result<ServerRun, String>,
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

/// Results of one WaitSet load-matrix cell: `n` clients multiplexed over
/// a [`ShardedServer`] under open-loop arrival.
#[derive(Debug, Clone)]
pub struct WaitsetLoadResult {
    /// Wall-clock duration from barrier release to last join.
    pub elapsed: Duration,
    /// ECHO messages processed (disconnects excluded).
    pub messages: u64,
    /// Throughput in messages per millisecond.
    pub throughput: f64,
    /// Per-shard worker results.
    pub server_runs: Vec<ServerRun>,
    /// Protocol events aggregated over every shard worker.
    pub server_metrics: MetricsSnapshot,
    /// Protocol events aggregated over every client thread.
    pub client_metrics: MetricsSnapshot,
    /// Every echo's latency, merged over the clients' sketches.
    /// **Open-loop**: each is measured from the message's *scheduled* send
    /// time, not the actual one, so the queueing delay a late-running
    /// client inflicts on itself is charged to the system — the
    /// coordinated-omission correction load generators need for honest
    /// p99s.
    pub client_latency: SketchSnapshot,
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
    interval: Duration,
) -> WaitsetLoadResult {
    let srv = Arc::new(ShardedServer::create(ShardedConfig::new(n_clients, n_shards)).expect(
        "sharded topology creation only fails on arena exhaustion, which the config sizing prevents",
    ));
    let mut cfg = NativeConfig::for_clients(0);
    cfg.n_sems = srv.config().n_sems();
    cfg.n_msgqs = 0;
    cfg.full_backoff = Duration::from_micros(200);
    let mut world = ThreadWorld::<ServerRun, SketchSnapshot>::new(cfg, n_shards, n_clients, None)
        .client_stack(192 * 1024);

    for s in 0..n_shards {
        let srv = Arc::clone(&srv);
        world.server(format!("shard{s}"), move |os| srv.run_worker(os, s, |m| m));
    }
    for c in 0..n_clients as u32 {
        let srv = Arc::clone(&srv);
        // Arrival phases staggered across the client population.
        let phase = interval.mul_f64(c as f64 / n_clients.max(1) as f64);
        world.client(format!("load{c}"), move |os| {
            let client = srv.client(os, c);
            let latency = LatencySketch::default();
            let start = Instant::now();
            let mut due = phase;
            echo_session(c, msgs_per_client, |m| {
                // Sleep-based pacing: on an overcommitted host (CI is
                // often 1-2 cores) spinning here would starve the server
                // and corrupt every sample.
                while let Some(early) = due.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) {
                    std::thread::sleep(early);
                }
                let reply = client.call(m);
                latency.record((start.elapsed() - due).as_nanos().max(1) as u64);
                due += interval;
                Ok::<_, crate::IpcNever>(reply)
            })
            .expect("echo corrupted under load");
            client.disconnect();
            latency.snapshot()
        });
    }

    let run = world.run(WATCHDOG_JOIN);
    let messages = msgs_per_client * n_clients as u64;
    WaitsetLoadResult {
        throughput: messages as f64 / (run.elapsed.as_secs_f64() * 1e3),
        elapsed: run.elapsed,
        messages,
        server_metrics: run.server_metrics,
        client_metrics: sum(&run.client_metrics),
        client_latency: merged(run.clients),
        server_runs: run.servers,
    }
}
