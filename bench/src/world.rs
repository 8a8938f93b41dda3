//! The four workloads. Two worlds — one `Channel` behind `run_server`, one
//! `ShardedServer` behind `run_worker` — each driven by one generator
//! thread against one server thread, both pinned, both on the
//! configuration a downstream user gets from the constructors.

use crate::procfs;
use crate::stats::{payload, poisson_schedule, Recorder, Span, StampTable, WINDOW_NS};
use std::collections::VecDeque;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use usipc::{
    opcode, pin_to_cpu, run_echo_server, run_server, set_sched_batch, ArenaFsck, Channel,
    ChannelConfig, ClientEndpoint, Message, MetricsSnapshot, NativeConfig, NativeOs, NativeTask,
    OsServices, QueueKind, ShardedConfig, ShardedServer, WaitStrategy,
};

/// Clients of the mux topology (one `ready_mask` bit each).
pub const MUX_CLIENTS: usize = 64;
/// Offered rate of `mux_open`: an eighth of the highest rate the sweep
/// tries, low enough that the worker sleeps between arrivals.
pub const MUX_OPEN_RATE: f64 = 100_000.0;
/// How long outstanding replies may take to arrive once a phase ends.
const DRAIN_NS: u64 = WINDOW_NS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniBswRt,
    MpBslsRt,
    MuxSat,
    MuxOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UniBswRt,
        Workload::MpBslsRt,
        Workload::MuxSat,
        Workload::MuxOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniBswRt => "uni_bsw_rt",
            Workload::MpBslsRt => "mp_bsls_rt",
            Workload::MuxSat => "mux_sat",
            Workload::MuxOpen => "mux_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mux(self) -> bool {
        matches!(self, Workload::MuxSat | Workload::MuxOpen)
    }

    /// Generator and server share CPU 0 under `SCHED_BATCH`: the paper's
    /// run-until-block uniprocessor. Otherwise the generator has CPU 1.
    pub fn uni(self) -> bool {
        matches!(self, Workload::UniBswRt | Workload::MuxSat)
    }

    /// (generator CPU, server CPU).
    fn cpus(self) -> (usize, usize) {
        if self.uni() {
            (0, 0)
        } else {
            (1, 0)
        }
    }

    /// The load shape this workload is defined with.
    pub fn load(self) -> Load {
        match self {
            Workload::MuxOpen => Load::Open {
                rate_per_s: MUX_OPEN_RATE,
            },
            _ => Load::Closed,
        }
    }

    /// Generous completions per second, to size sample buffers up front.
    fn rate_ceiling(self, load: Load) -> f64 {
        match load {
            Load::Open { rate_per_s } => rate_per_s * 1.1,
            Load::Closed if self.mux() => 2_000_000.0,
            Load::Closed => 1_000_000.0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each client sends its next request when the previous reply arrives.
    Closed,
    /// Poisson arrivals at a fixed rate, spread round-robin over the
    /// clients, each timed from when it was due.
    Open { rate_per_s: f64 },
}

/// One warm-up followed by `windows` measured 1 s windows.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub load: Load,
    pub warm_ns: u64,
    pub windows: usize,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub kind: QueueKind,
    /// Record spans and time the driver's calls (the diagnostic pass).
    pub traced: bool,
    /// Empty: build, one round trip, tear down (a set-up repetition).
    pub phases: Vec<Phase>,
}

/// What the traced pass records around the calls into the product.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    /// Durations of the mux driver's three calls, ns.
    pub enqueue_ns: Vec<u32>,
    pub notify_ns: Vec<u32>,
    pub dequeue_ns: Vec<u32>,
    /// Open loop: how late after its due time each request was sent, ns.
    pub gen_lag_ns: Vec<u32>,
}

#[derive(Debug)]
pub struct PhaseResult {
    pub rec: Recorder,
    /// Requests due (open loop) or sent (closed loop) in the windows.
    pub offered: u64,
    /// (voluntary, involuntary) context switches in the windows.
    pub ctx: (u64, u64),
    /// Protocol-event counters of both tasks, diffed over the windows.
    pub counters: MetricsSnapshot,
    /// Most requests ever due but unsent because a queue was full.
    pub backlog_max: u64,
    pub trace: Trace,
}

#[derive(Debug)]
pub struct WorldResult {
    /// The product's share of set-up: its constructors (`NativeOs::new`,
    /// `Channel::create` or `ShardedServer::create`) plus the first round
    /// trip once the server thread is up. The harness's own thread spawns
    /// and CPU migrations are left out: on this host one migration takes
    /// anything from 25 to 400 µs.
    pub setup_ns: u64,
    /// Sum of `arena().used()` over the channel arenas.
    pub segment_bytes: usize,
    pub phases: Vec<PhaseResult>,
    pub attempted: u64,
    pub failed: u64,
    /// `ServerRun::processed`.
    pub processed: u64,
}

/// One clock for every stamp of a world, on both threads.
#[derive(Debug, Clone, Copy)]
struct Clock(Instant);

impl Clock {
    #[inline]
    fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Correctness tally: every request sent, every way one went wrong.
#[derive(Debug, Default)]
struct Check {
    attempted: u64,
    failed: u64,
}

impl Check {
    /// One request went wrong. Only the first few are spelled out: a lost
    /// reply puts every later reply of its client out of step.
    fn request_failed(&mut self, what: impl Display) {
        if self.failed < 3 {
            eprintln!("check failed: {what}");
        }
        self.failed += 1;
    }

    /// The world as a whole is not as it should be, at the cost of `n`
    /// requests.
    fn world_failed(&mut self, n: u64, what: impl Display) {
        eprintln!("check failed: {what}");
        self.failed += n;
    }

    /// `rep` must be the echo of request `id`.
    #[inline]
    fn reply(&mut self, rep: &Message, id: u64, seed: u64) {
        let want = payload(seed, id);
        if rep.aux != id
            || rep.value.to_bits() != want.to_bits()
            || rep.opcode != opcode::ECHO
            || rep.channel != 0
        {
            self.request_failed(format_args!(
                "request {id} (value {want}) answered by {rep:?}"
            ));
        }
    }
}

fn pin(cpu: usize, batch: bool) -> Result<(), String> {
    pin_to_cpu(cpu).map_err(|e| format!("regime: pin_to_cpu({cpu}) failed: {e}"))?;
    if batch {
        set_sched_batch().map_err(|e| format!("regime: set_sched_batch failed: {e}"))?;
    }
    Ok(())
}

/// Tries both CPUs of an mp workload and leaves the caller on the
/// server's, for the server thread to inherit. A server that could not
/// pin would leave the generator blocked on it, and a generator pinned
/// before the spawn would keep the new thread off its own (spinning) CPU,
/// so both failures have to surface here, before the spawn.
fn try_cpus(gen_cpu: usize, srv_cpu: usize) -> Result<(), String> {
    pin(gen_cpu, false)?;
    pin(srv_cpu, false)
}

const PINNED_BEFORE: &str = "pinning to this CPU worked before the spawn";

/// Runs `build`, adding what it took to `spent_ns`.
fn timed<T>(clock: Clock, spent_ns: &mut u64, build: impl FnOnce() -> T) -> T {
    let start = clock.now();
    let built = build();
    *spent_ns += clock.now() - start;
    built
}

/// Generator side: gives the CPU away until the server thread says it is
/// pinned and about to serve.
fn wait_until(ready: &AtomicBool) {
    while !ready.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

fn echo(seed: u64, id: u64) -> Message {
    Message {
        opcode: opcode::ECHO,
        channel: 0,
        value: payload(seed, id),
        aux: id,
    }
}

/// Counters and context switches at one instant.
struct Snapshot {
    ctx: (u64, u64),
    counters: MetricsSnapshot,
}

impl Snapshot {
    fn take(os: &NativeOs) -> Snapshot {
        Snapshot {
            ctx: procfs::ctx_switches(),
            counters: os
                .metrics()
                .expect("NativeConfig collects metrics by default")
                .aggregate(|_| true),
        }
    }

    fn phase_result(
        &self,
        end: &Snapshot,
        rec: Recorder,
        offered: u64,
        backlog_max: u64,
        trace: Trace,
    ) -> PhaseResult {
        PhaseResult {
            rec,
            offered,
            ctx: (end.ctx.0 - self.ctx.0, end.ctx.1 - self.ctx.1),
            counters: end.counters.diff(&self.counters),
            backlog_max,
            trace,
        }
    }
}

/// After the server has exited: no semaphore credit stranded, every queue
/// empty, every pool slot back on the free list.
fn audit_channel(ch: &Channel, task: &NativeTask, what: &str, check: &mut Check) {
    // A read-only fsck: on a drained channel it must find nothing to
    // repair, reclaim or absorb.
    let report = ArenaFsck::new(ch, task)
        .break_locks(false)
        .drop_notices(false)
        .run();
    if !report.is_clean() || report.ledger.requests_committed + report.ledger.replies_committed != 0
    {
        check.world_failed(
            1,
            format_args!("{what} not clean after drain: {}", report.to_json()),
        );
    }
}

fn audit_sems(os: &NativeOs, doorbells: usize, check: &mut Check) {
    for (i, sem) in os.sem_finals().iter().enumerate() {
        // A WaitSet doorbell may keep the one credit of its last wake
        // cycle (the documented `rung <= wakes + 1`); nothing else may.
        let allowed = u32::from(i < doorbells);
        if sem.count > allowed || sem.waiting != 0 {
            check.world_failed(1, format_args!("semaphore {i} ended as {sem:?}"));
        }
    }
}

/// Builds the workload's world, runs the plan's phases on it, tears it
/// down and audits it.
pub fn run_world(plan: &Plan) -> Result<WorldResult, String> {
    let w = plan.workload;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if !w.uni() && cores < 2 {
        return Err(format!(
            "regime: {} needs 2 CPUs, this process may run on {cores}",
            w.name()
        ));
    }
    let clock = Clock(Instant::now());
    // The generator is a fresh thread so that its pinning never outlives
    // the workload: this thread stays unpinned and only waits.
    std::thread::scope(|s| {
        s.spawn(|| {
            if w.mux() {
                run_mux(plan, clock)
            } else {
                run_rt(plan, clock)
            }
        })
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

// --- the Channel world: uni_bsw_rt and mp_bsls_rt --------------------------

struct RtDriver<'a> {
    client: ClientEndpoint<'a, NativeTask>,
    clock: Clock,
    seed: u64,
    next_id: u64,
    check: Check,
    stamps: Option<&'a StampTable>,
    trace: Trace,
}

impl RtDriver<'_> {
    /// One call → return; yields (completion time, latency).
    #[inline]
    fn round_trip(&mut self) -> (u64, u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.check.attempted += 1;
        let t0 = self.clock.now();
        let rep = self.client.call(echo(self.seed, id));
        let t3 = self.clock.now();
        self.check.reply(&rep, id, self.seed);
        if let Some(stamps) = self.stamps {
            match stamps.take(id).and_then(|t1| Span::checked(id, t0, t1, t3)) {
                Some(span) => self.trace.spans.push(span),
                None => self
                    .check
                    .request_failed(format_args!("request {id}: no span")),
            }
        }
        (t3, t3 - t0)
    }
}

fn run_rt(plan: &Plan, clock: Clock) -> Result<WorldResult, String> {
    let w = plan.workload;
    let uni = w.uni();
    let (gen_cpu, srv_cpu) = w.cpus();
    let strategy = if uni {
        WaitStrategy::Bsw
    } else {
        WaitStrategy::Bsls { max_spin: 50 }
    };
    // `NativeOs::new` clamps `multiprocessor` to the CPUs its *building*
    // thread may run on, so the uni regime builds after pinning and the
    // mp regime before.
    if uni {
        pin(gen_cpu, true)?;
    }
    let mut setup_ns = 0;
    let os = timed(clock, &mut setup_ns, || {
        NativeOs::new(NativeConfig::for_clients(1))
    });
    if !uni {
        try_cpus(gen_cpu, srv_cpu)?;
    }
    if os.effective_multiprocessor() == uni {
        return Err(format!(
            "regime: {} wants effective_multiprocessor() == {}",
            w.name(),
            !uni
        ));
    }
    let ch = timed(clock, &mut setup_ns, || {
        Channel::create(&ChannelConfig::new(1).with_queue_kind(plan.kind))
    })
    .map_err(|e| format!("Channel::create: {e}"))?;
    let stamps = plan.traced.then(StampTable::default);
    let ready = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            pin(srv_cpu, uni).expect(PINNED_BEFORE);
            let task = os.task(0);
            ready.store(true, Ordering::Release);
            match &stamps {
                Some(stamps) => run_server(&ch, &task, strategy, |m| {
                    stamps.stamp(m.aux, clock.now());
                    m
                }),
                None => run_echo_server(&ch, &task, strategy),
            }
        });
        if !uni {
            pin(gen_cpu, false).expect(PINNED_BEFORE);
        }
        let task = os.task(1);
        let mut drv = RtDriver {
            client: ch.client(&task, 0, strategy),
            clock,
            seed: plan.seed,
            next_id: 0,
            check: Check::default(),
            stamps: stamps.as_ref(),
            trace: Trace::default(),
        };
        wait_until(&ready);
        timed(clock, &mut setup_ns, || drv.round_trip());

        let mut phases = Vec::new();
        for phase in &plan.phases {
            let ceiling = w.rate_ceiling(phase.load);
            let mut rec = Recorder::with_capacity((ceiling * phase.windows as f64) as usize);
            let warm_end = clock.now() + phase.warm_ns;
            while drv.round_trip().0 < warm_end {}
            drv.trace = Trace::default();
            let sent_before = drv.next_id;
            let start = Snapshot::take(&os);
            rec.start(clock.now(), phase.windows, procfs::cpu_nanos());
            while !rec.done() {
                let (t3, lat) = drv.round_trip();
                rec.push(lat);
                rec.advance(t3, procfs::cpu_nanos);
            }
            let end = Snapshot::take(&os);
            let trace = std::mem::take(&mut drv.trace);
            phases.push(start.phase_result(&end, rec, drv.next_id - sent_before, 0, trace));
        }

        drv.client.disconnect();
        let run = server.join().expect("server thread panicked");
        let mut check = drv.check;
        if run.processed != drv.next_id + 1 || run.disconnects != 1 || run.malformed != 0 {
            check.world_failed(
                1,
                format_args!(
                    "server saw {run:?}, client sent {} requests and 1 disconnect",
                    drv.next_id
                ),
            );
        }
        audit_sems(&os, 0, &mut check);
        audit_channel(&ch, &task, "channel", &mut check);
        Ok(WorldResult {
            setup_ns,
            segment_bytes: ch.arena().used(),
            phases,
            attempted: check.attempted,
            failed: check.failed,
            processed: run.processed,
        })
    })
}

// --- the ShardedServer world: mux_sat and mux_open -------------------------

/// One thread playing all [`MUX_CLIENTS`] clients with the three calls
/// `MuxClient::call` makes — enqueue, notify, dequeue — minus its sleep.
struct MuxDriver<'a> {
    srv: &'a ShardedServer,
    task: NativeTask,
    clock: Clock,
    seed: u64,
    /// Client → source slot in its shard's WaitSet.
    slots: Vec<usize>,
    /// Per client, oldest first: (request id, t0) of what is in flight.
    inflight: Vec<VecDeque<(u64, u64)>>,
    /// Bit `c` set while client `c` has something in flight.
    ready_mask: u64,
    next_id: u64,
    check: Check,
    stamps: Option<&'a StampTable>,
    trace: Trace,
    /// The worker shares this thread's CPU: give it up when there is
    /// nothing to collect, or the worker never runs.
    shares_cpu: bool,
}

impl MuxDriver<'_> {
    /// Called after a pass that collected nothing.
    #[inline]
    fn nothing_arrived(&self) {
        if self.shares_cpu {
            self.task.yield_now();
        }
    }

    /// Sends client `c`'s next request, timed from `t0`. `false`: the
    /// client is at its limit or its request queue is full.
    #[inline]
    fn issue(&mut self, c: usize, t0: u64) -> bool {
        // The worker gives a reply 25 ms (its heartbeat) to fit into the
        // reply queue and then drops it. A client with no more in flight
        // than that queue holds can never fill it, however long the host
        // keeps this thread off its CPU between two polls.
        if self.inflight[c].len() >= self.srv.config().queue_capacity {
            return false;
        }
        let traced = self.stamps.is_some();
        let id = self.next_id;
        let before = if traced { self.clock.now() } else { 0 };
        let queue = self.srv.channel(c as u32).receive_queue();
        if !queue.try_enqueue(&self.task, echo(self.seed, id)) {
            return false;
        }
        let between = if traced { self.clock.now() } else { 0 };
        self.srv.waitset(0).notify(&self.task, self.slots[c]);
        if traced {
            let after = self.clock.now();
            self.trace.enqueue_ns.push((between - before) as u32);
            self.trace.notify_ns.push((after - between) as u32);
        }
        self.next_id += 1;
        self.check.attempted += 1;
        self.inflight[c].push_back((id, t0));
        self.ready_mask |= 1 << c;
        true
    }

    /// Collects every reply that has arrived; in the closed loop each one
    /// releases that client's next request.
    #[inline]
    fn poll(&mut self, rec: &mut Recorder, reissue: bool) {
        let mut arrived = false;
        let mut mask = self.ready_mask;
        while mask != 0 {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let before = if self.stamps.is_some() {
                self.clock.now()
            } else {
                0
            };
            let reply = self.srv.channel(c as u32).reply_queue(0);
            let Some(rep) = reply.try_dequeue(&self.task) else {
                continue;
            };
            arrived = true;
            let t3 = self.clock.now();
            let (id, t0) = self.inflight[c]
                .pop_front()
                .expect("ready_mask marks clients with requests in flight");
            if self.inflight[c].is_empty() {
                self.ready_mask &= !(1 << c);
            }
            // Per-client FIFO order: the reply must be for the oldest.
            self.check.reply(&rep, id, self.seed);
            if let Some(stamps) = self.stamps {
                self.trace.dequeue_ns.push((t3 - before) as u32);
                match stamps.take(id).and_then(|t1| Span::checked(id, t0, t1, t3)) {
                    Some(span) => self.trace.spans.push(span),
                    None => self
                        .check
                        .request_failed(format_args!("request {id}: no span")),
                }
            }
            rec.push(t3 - t0);
            if reissue && !self.issue(c, t3) {
                self.check
                    .request_failed(format_args!("client {c}: own request queue full"));
            }
        }
        if !arrived {
            self.nothing_arrived();
        }
    }

    /// Waits up to [`DRAIN_NS`] for what is in flight; the rest failed.
    fn drain(&mut self) {
        let mut nowhere = Recorder::default();
        let deadline = self.clock.now() + DRAIN_NS;
        while self.ready_mask != 0 && self.clock.now() < deadline {
            self.poll(&mut nowhere, false);
        }
        let unanswered: usize = self.inflight.iter_mut().map(|q| q.drain(..).count()).sum();
        if unanswered > 0 {
            self.check
                .world_failed(unanswered as u64, "requests unanswered after the drain");
        }
        self.ready_mask = 0;
    }

    fn closed_phase(&mut self, os: &NativeOs, phase: &Phase, mut rec: Recorder) -> PhaseResult {
        for c in 0..MUX_CLIENTS {
            let now = self.clock.now();
            if !self.issue(c, now) {
                self.check
                    .request_failed(format_args!("client {c}: queue full at start"));
            }
        }
        let warm_end = self.clock.now() + phase.warm_ns;
        while self.clock.now() < warm_end {
            self.poll(&mut rec, true);
        }
        self.trace = Trace::default();
        let sent_before = self.next_id;
        let start = Snapshot::take(os);
        rec.start(self.clock.now(), phase.windows, procfs::cpu_nanos());
        while !rec.done() {
            self.poll(&mut rec, true);
            rec.advance(self.clock.now(), procfs::cpu_nanos);
        }
        let end = Snapshot::take(os);
        let offered = self.next_id - sent_before;
        self.drain();
        let trace = std::mem::take(&mut self.trace);
        start.phase_result(&end, rec, offered, 0, trace)
    }

    fn open_phase(
        &mut self,
        os: &NativeOs,
        phase: &Phase,
        rate_per_s: f64,
        schedule_seed: u64,
        mut rec: Recorder,
    ) -> PhaseResult {
        let measured_ns = phase.windows as u64 * WINDOW_NS;
        let due = poisson_schedule(schedule_seed, rate_per_s, phase.warm_ns + measured_ns);
        let origin = self.clock.now();
        let mut next = 0usize;
        let mut backlog_max = 0u64;
        let mut start = None;
        loop {
            let now = self.clock.now();
            if start.is_none() && now >= origin + phase.warm_ns {
                self.trace = Trace::default();
                backlog_max = 0;
                start = Some(Snapshot::take(os));
                rec.start(origin + phase.warm_ns, phase.windows, procfs::cpu_nanos());
            }
            rec.advance(now, procfs::cpu_nanos);
            if start.is_some() && rec.done() {
                break;
            }
            while next < due.len() && origin + due[next] <= now {
                if !self.issue(next % MUX_CLIENTS, origin + due[next]) {
                    // Queue full: the request waits its turn here, first
                    // in line, and its latency keeps counting from `due`.
                    let waiting = due[next..].partition_point(|d| origin + d <= now);
                    backlog_max = backlog_max.max(waiting as u64);
                    break;
                }
                if self.stamps.is_some() {
                    let lag = now - (origin + due[next]);
                    self.trace.gen_lag_ns.push(lag.min(u32::MAX as u64) as u32);
                }
                next += 1;
            }
            self.poll(&mut rec, false);
        }
        let end = Snapshot::take(os);
        let offered = due.partition_point(|&d| d < phase.warm_ns);
        let offered = (due.len() - offered) as u64;
        self.drain();
        let trace = std::mem::take(&mut self.trace);
        start
            .expect("the loop ends only after the windows opened")
            .phase_result(&end, rec, offered, backlog_max, trace)
    }

    /// Every client says goodbye and waits up to [`DRAIN_NS`] for the echo.
    fn disconnect_all(&mut self) {
        for c in 0..MUX_CLIENTS {
            let queue = self.srv.channel(c as u32).receive_queue();
            if !queue.try_enqueue(&self.task, Message::disconnect(0)) {
                self.check
                    .world_failed(1, format_args!("client {c}: disconnect refused"));
            }
            self.srv.waitset(0).notify(&self.task, self.slots[c]);
        }
        let mut waiting: u64 = u64::MAX >> (64 - MUX_CLIENTS);
        let deadline = self.clock.now() + DRAIN_NS;
        while waiting != 0 && self.clock.now() < deadline {
            let before = waiting;
            for c in 0..MUX_CLIENTS {
                let reply = self.srv.channel(c as u32).reply_queue(0);
                if waiting & (1 << c) != 0 {
                    if let Some(rep) = reply.try_dequeue(&self.task) {
                        if rep.opcode != opcode::DISCONNECT {
                            self.check
                                .world_failed(1, format_args!("client {c}: farewell got {rep:?}"));
                        }
                        waiting &= !(1 << c);
                    }
                }
            }
            if waiting == before {
                self.nothing_arrived();
            }
        }
        if waiting != 0 {
            self.check
                .world_failed(1, format_args!("disconnects unanswered: mask {waiting:#x}"));
        }
    }
}

fn run_mux(plan: &Plan, clock: Clock) -> Result<WorldResult, String> {
    let w = plan.workload;
    let uni = w.uni();
    let (gen_cpu, srv_cpu) = w.cpus();
    let mut setup_ns = 0;
    let srv = timed(clock, &mut setup_ns, || {
        ShardedServer::create(ShardedConfig {
            queue_kind: plan.kind,
            ..ShardedConfig::new(MUX_CLIENTS, 1)
        })
    })
    .map_err(|e| format!("ShardedServer::create: {e}"))?;
    let os = timed(clock, &mut setup_ns, || {
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = srv.config().n_sems();
        NativeOs::new(cfg)
    });
    try_cpus(gen_cpu, srv_cpu)?;
    if uni {
        set_sched_batch().map_err(|e| format!("regime: set_sched_batch failed: {e}"))?;
    }
    // 129 semaphores on 2 CPUs: the backend clamps busy_wait to a yield.
    if os.effective_multiprocessor() {
        return Err(format!(
            "regime: {} wants effective_multiprocessor() == false",
            w.name()
        ));
    }
    let stamps = plan.traced.then(StampTable::default);
    let slots = (0..MUX_CLIENTS as u32)
        .map(|c| {
            let members = srv.shard_members(srv.shard_for(c));
            members.iter().position(|&m| m == c).expect("routed client")
        })
        .collect();
    let ready = AtomicBool::new(false);

    std::thread::scope(|s| {
        let worker = s.spawn(|| {
            pin(srv_cpu, uni).expect(PINNED_BEFORE);
            let task = os.task(0);
            ready.store(true, Ordering::Release);
            match &stamps {
                Some(stamps) => srv.run_worker(&task, 0, |m| {
                    stamps.stamp(m.aux, clock.now());
                    m
                }),
                None => srv.run_worker(&task, 0, |m| m),
            }
        });
        pin(gen_cpu, false).expect(PINNED_BEFORE);
        let mut drv = MuxDriver {
            srv: &srv,
            task: os.task(1),
            clock,
            seed: plan.seed,
            slots,
            inflight: (0..MUX_CLIENTS)
                .map(|_| VecDeque::with_capacity(srv.config().queue_capacity))
                .collect(),
            ready_mask: 0,
            next_id: 0,
            check: Check::default(),
            stamps: stamps.as_ref(),
            trace: Trace::default(),
            shares_cpu: uni,
        };
        wait_until(&ready);
        timed(clock, &mut setup_ns, || {
            let now = clock.now();
            if !drv.issue(0, now) {
                drv.check.request_failed("first request refused");
            }
            drv.drain();
        });

        let mut phases = Vec::new();
        for (i, phase) in plan.phases.iter().enumerate() {
            let ceiling = w.rate_ceiling(phase.load);
            let rec = Recorder::with_capacity((ceiling * phase.windows as f64) as usize);
            phases.push(match phase.load {
                Load::Closed => drv.closed_phase(&os, phase, rec),
                Load::Open { rate_per_s } => {
                    let schedule_seed = plan.seed.wrapping_add(i as u64);
                    drv.open_phase(&os, phase, rate_per_s, schedule_seed, rec)
                }
            });
        }

        drv.disconnect_all();
        let run = worker.join().expect("worker thread panicked");
        let mut check = drv.check;
        let farewells = MUX_CLIENTS as u64;
        if run.processed != drv.next_id + farewells
            || run.disconnects as u64 != farewells
            || run.malformed != 0
            || run.reaped != 0
        {
            check.world_failed(
                1,
                format_args!(
                    "worker saw {run:?}, driver sent {} requests and {farewells} disconnects",
                    drv.next_id
                ),
            );
        }
        audit_sems(&os, srv.config().n_shards, &mut check);
        let mut segment_bytes = 0;
        for c in 0..MUX_CLIENTS as u32 {
            let ch = srv.channel(c);
            audit_channel(ch, &drv.task, &format!("client {c}'s channel"), &mut check);
            segment_bytes += ch.arena().used();
        }
        Ok(WorldResult {
            setup_ns,
            segment_bytes,
            phases,
            attempted: check.attempted,
            failed: check.failed,
            processed: run.processed,
        })
    })
}
