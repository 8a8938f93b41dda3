//! The forked-process world — the paper's actual deployment shape
//! ("user-level IPC" means *cross-address-space*; the thread world is only
//! the convenient stand-in) — and the five experiments that run on it.
//!
//! Fork discipline, for every entry point here: children are forked
//! **before** any parent-side thread starts, and the caller must be
//! effectively single-threaded at the call (a forked child reproduces only
//! the calling thread; another thread holding the allocator lock at fork
//! time would deadlock the child). Run them from a `main`, or from a test
//! binary that runs its scenarios sequentially in one test function.
//!
//! Linux-only (fork, memfd, pidfd): gated exactly like [`usipc::proc`].

use crate::threads::sum;
use crate::watchdog::{Evidence, Named, Watchdog, WATCHDOG_JOIN};
use crate::{echo_session, IpcNever};
use core::mem::{align_of, size_of};
use core::ops::Range;
use core::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usipc::metrics::{MetricsSnapshot, N_EVENTS};
use usipc::telemetry::{Role, TelemetryPlane, TelemetryReading};
use usipc::{
    opcode, Channel, ChannelConfig, ChannelRoot, ChildProc, CountingSem, ExitStatus, IpcError,
    Message, NativeConfig, NativeOs, NativeTask, QueueKind, ServerDeathWatch, ServerObservability,
    ServerRun, Takeover, WaitStrategy,
};
use usipc_shm::{ShmArena, ShmPtr, ShmSafe, ShmSlice};

/// Per-client result cell, written by the child and read by the parent. It
/// lives in the shared arena — the only way data crosses back, since a
/// forked child's heap is a private copy-on-write copy.
#[repr(C)]
struct Cell {
    /// The child's final [`MetricsSnapshot`] in
    /// [`to_array`](MetricsSnapshot::to_array) form.
    events: [AtomicU64; N_EVENTS],
    /// Echo round trips completed so far (live; the kill drills watch it to
    /// time a SIGKILL mid-traffic).
    progress: AtomicU64,
    /// Requests re-issued after a [`DROPPED`](opcode::DROPPED) notice.
    retries: AtomicU64,
    /// 0 while running, 1 once `events` is fully stored.
    state: AtomicU32,
}

// SAFETY: every field is an atomic (valid for all bit patterns) and the
// struct holds no host pointers.
unsafe impl ShmSafe for Cell {}

/// The bootstrap object published as the arena root: everything a child
/// needs to reconstruct the channel and the shared semaphore table from
/// nothing but the inherited memfd file descriptor, for every forked
/// experiment (a field an experiment does not use is zero and inert).
#[repr(C)]
struct ForkRoot {
    /// Ready barrier: each participant `V`s once it is attached.
    ready: CountingSem,
    /// Go signal: the parent `V`s once per client to start the barrage (so
    /// the measurement window excludes attach cost).
    go: CountingSem,
    /// Gate the [late prober](ProcExperiment::late_prober) parks on. Lives
    /// outside the channel, so the fsck never touches it.
    prober_go: CountingSem,
    /// The channel's root object (allocated with [`Channel::create_in`],
    /// *not* published as the arena root — this struct is).
    channel: ShmPtr<ChannelRoot>,
    /// The shared semaphore table from [`NativeOs::new_shared`].
    sems: ShmSlice<CountingSem>,
    /// One result cell per client.
    cells: ShmSlice<Cell>,
    /// Raw round-trip samples: client `c` writes nanosecond sample `i` at
    /// index `c * msgs_per_client + i`. Empty when the run collects none.
    samples: ShmSlice<AtomicU64>,
    /// Echo round trips per client.
    msgs_per_client: u64,
    /// Echo requests a doomed server child serves before SIGKILLing itself.
    kill_site: u64,
    /// Number of clients.
    n_clients: u32,
    /// Clients `0..n_victims` barrage endlessly; the parent's SIGKILL is
    /// their only exit, so it provably lands mid-conversation.
    n_victims: u32,
    /// CPU every participant pins itself to (`-1`: run free).
    pin_cpu: i32,
    /// Nonzero: client `n_clients - 1` is the late prober.
    prober: u32,
}

// SAFETY: sems in shared-futex mode, offset handles and plain scalars; no
// host pointers. Fields mutated after placement (the sems' words, the
// cells) are atomics.
unsafe impl ShmSafe for ForkRoot {}

/// Child exit codes (`0` success, `101` reserved by [`ChildProc::spawn`]
/// for panics).
const EXIT_ATTACH_FAILED: i32 = 2;
const EXIT_NO_ROOT: i32 = 3;
const EXIT_ECHO_CORRUPTED: i32 = 4;
const EXIT_PIN_FAILED: i32 = 5;
/// Observer child: the segment carries no telemetry plane.
const EXIT_NO_TELEMETRY: i32 = 6;
/// Observer child: no slot's progress advanced before the deadline.
const EXIT_STALE: i32 = 7;
/// Observer child: a later reading had a *smaller* cumulative counter than
/// an earlier one — a torn or inconsistent snapshot.
const EXIT_TORN: i32 = 8;

/// Pins the calling thread to `cpu` under `SCHED_BATCH` (so a wake-up does
/// not preempt the waker before it sleeps).
fn pin_self(cpu: usize) -> Result<(), usipc::ProcError> {
    usipc::pin_to_cpu(cpu)?;
    usipc::set_sched_batch()
}

impl ProcExperiment {
    fn channel(&self) -> ChannelConfig {
        ChannelConfig::new(self.n_clients).with_queue_kind(self.queue_kind)
    }

    fn n_samples(&self) -> usize {
        if self.samples {
            self.n_clients * self.msgs_per_client as usize
        } else {
            0
        }
    }

    /// Telemetry slots follow the task-id convention: slot 0 the server,
    /// slot `1 + c` client `c`. Flight rings additionally cover the parent's
    /// monitor task (`1 + n_clients`).
    fn plane(&self, flight_capacity: usize) -> (usize, usize, usize) {
        let flight_tasks = if flight_capacity > 0 {
            2 + self.n_clients
        } else {
            0
        };
        (1 + self.n_clients, flight_tasks, flight_capacity)
    }

    /// Arena bytes for this experiment: the exact layout plus per-allocation
    /// alignment slack plus the arena header line.
    fn bytes_needed(&self) -> usize {
        let n = self.n_clients;
        self.channel().bytes_needed()
            + (1 + n) * size_of::<CountingSem>()
            + align_of::<CountingSem>()
            + n * size_of::<Cell>()
            + align_of::<Cell>()
            + self.n_samples() * size_of::<AtomicU64>()
            + align_of::<AtomicU64>()
            + size_of::<ForkRoot>()
            + align_of::<ForkRoot>()
            + self.telemetry.map_or(0, |cap| {
                let (slots, tasks, cap) = self.plane(cap);
                TelemetryPlane::bytes_needed(slots, tasks, cap)
            })
            + 256
    }
}

/// What the one child preamble hands a forked body: a *fresh* mapping of
/// the inherited memfd (nothing from the parent's address space is reused),
/// the backend attached to the shared semaphores, the bootstrap root, and
/// the telemetry plane if the parent made one.
struct ChildCtx<'a> {
    arena: &'a Arc<ShmArena>,
    os: Arc<NativeOs>,
    root: &'a ForkRoot,
    plane: Option<TelemetryPlane>,
}

impl ChildCtx<'_> {
    /// A channel handle stamped under the segment's current generation.
    fn channel(&self) -> Channel {
        Channel::from_root(Arc::clone(self.arena), self.root.channel).expect("parent's root")
    }

    /// The child side of [`ForkWorld::start`].
    fn ready_go(&self) {
        self.root.ready.v();
        self.root.go.p();
    }
}

/// The whole life of a forked child up to its body: attach → root → pin →
/// `attach_shared` → telemetry discovery.
fn child_main(fd: i32, body: impl FnOnce(&ChildCtx<'_>) -> i32) -> i32 {
    let Ok(arena) = ShmArena::attach_memfd(fd).map(Arc::new) else {
        return EXIT_ATTACH_FAILED;
    };
    let Some(root) = arena.root::<ForkRoot>() else {
        return EXIT_NO_ROOT;
    };
    let root = arena.get(root);
    if root.pin_cpu >= 0 && pin_self(root.pin_cpu as usize).is_err() {
        return EXIT_PIN_FAILED;
    }
    let os = NativeOs::attach_shared(
        NativeConfig::for_clients(root.n_clients as usize),
        Arc::clone(&arena),
        root.sems,
    );
    // Telemetry discovery is in-band: the plane (if the parent made one)
    // hangs off the arena's aux slot, so a child — or any other attacher —
    // needs nothing but the fd. Arm the flight recorder *before* building a
    // task so the handle rides the hot path as a plain `Option`.
    let plane = TelemetryPlane::attach(&arena);
    if let Some(f) = plane.as_ref().and_then(|p| p.flight()) {
        os.arm_flight(f);
    }
    body(&ChildCtx {
        arena: &arena,
        os,
        root,
        plane,
    })
}

/// Client `c` of every forked experiment: barrage with the *infallible*
/// protocol (in a takeover drill it must survive the server's death without
/// ever seeing an error), re-issuing any request a takeover dropped, and
/// report through its cell.
fn client_body(ctx: &ChildCtx<'_>, c: u32, strategy: WaitStrategy) -> i32 {
    let root = ctx.root;
    let task = ctx.os.task(1 + c);
    let writer = ctx
        .plane
        .as_ref()
        .map(|p| p.writer(1 + c as usize, 1 + c, Role::Client));
    let cell = &ctx.arena.get_slice(root.cells)[c as usize];
    let samples = ctx.arena.get_slice(root.samples);
    let base = c as usize * root.msgs_per_client as usize;
    let snapshot = || {
        ctx.os
            .metrics()
            .map(|m| m.task_snapshot(1 + c))
            .unwrap_or_default()
    };

    let mut ch = ctx.channel();
    ctx.ready_go();
    if root.prober != 0 && c + 1 == root.n_clients {
        // Park outside the channel until the parent opens the accounting
        // window; the handle is rebuilt afterwards, stamped under the
        // successor's generation.
        root.prober_go.p();
        ch = ctx.channel();
    }
    let ep = ch.client(&task, c, strategy);
    let msgs = if c < root.n_victims {
        u64::MAX
    } else {
        root.msgs_per_client
    };
    let mut done = 0u64;
    let session = echo_session(c, msgs, |m| {
        let t0 = Instant::now();
        let reply = loop {
            let reply = ep.call(m);
            if reply.opcode != opcode::DROPPED {
                break reply;
            }
            // At-most-once service: the takeover dropped the request the
            // dead server had in hand. Re-issue it — the notice is the
            // retry signal the infallible protocol otherwise lacks.
            cell.retries.fetch_add(1, Ordering::Relaxed);
        };
        let rt_nanos = t0.elapsed().as_nanos() as u64;
        if let Some(slot) = samples.get(base + done as usize) {
            slot.store(rt_nanos, Ordering::Relaxed);
        }
        done += 1;
        cell.progress.fetch_add(1, Ordering::Relaxed);
        if let Some(w) = &writer {
            // Per-RT cost: unlocked loads and stores into this client's
            // own cache-line-padded slot — no semaphore ops, no kernel
            // crossings (the zero-overhead contract the accounting test
            // pins).
            w.record_latency_nanos(rt_nanos);
            w.set_progress(done);
            if done.is_multiple_of(64) {
                w.publish(&snapshot());
            }
        }
        Ok::<_, IpcNever>(reply)
    });
    if session.is_err() {
        // It will never disconnect: tell the server, which otherwise waits
        // for it until the watchdog fires.
        ch.reply_queue(c).mark_consumer_dead(&task);
        return EXIT_ECHO_CORRUPTED;
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

/// The serving half of a succession (and a live storm's server, whose death
/// would be the drill's own bug): re-armed and resilient.
fn serve_resilient(
    ch: &Channel,
    os: &NativeTask,
    strategy: WaitStrategy,
    heartbeat: Duration,
) -> ServerRun {
    let _watch = ServerDeathWatch::arm(ch, os);
    usipc::run_resilient_server(ch, os, strategy, heartbeat, |m| m)
}

/// The doomed incarnation: a forked server child that serves exactly
/// `kill_site` echoes, then SIGKILLs itself **inside the handler** —
/// request dequeued, reply uncommitted, no unwind guard, no tombstone.
/// Exactly what an external `kill -9` at that protocol point produces.
fn doomed_server_body(ctx: &ChildCtx<'_>, strategy: WaitStrategy) -> i32 {
    let ch = ctx.channel();
    let task = ctx.os.task(0);
    let kill_site = ctx.root.kill_site;
    let mut served = 0u64;
    ctx.root.ready.v();
    let heartbeat = Duration::from_millis(5);
    let _ = usipc::run_resilient_server(&ch, &task, strategy, heartbeat, move |m| {
        if m.opcode == opcode::ECHO {
            if served == kill_site {
                usipc::raise_sigkill();
            }
            served += 1;
        }
        m
    });
    // Reachable only if the kill site exceeds the traffic — the drills
    // reject such sites up front.
    0
}

/// A forked **observer**: handed nothing but the inherited fd (the preamble
/// found the telemetry plane through the arena's aux slot), it watches until
/// some slot's progress advances between two consistent readings — the
/// external `usipc-top` story reduced to an exit code. Counters are
/// cumulative, so any later reading with a smaller value than an earlier
/// one from the same slot proves a torn read.
fn observer_body(ctx: &ChildCtx<'_>, deadline: Duration) -> i32 {
    let Some(plane) = &ctx.plane else {
        return EXIT_NO_TELEMETRY;
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

/// The parent's half of a forked experiment: the memfd arena, the shared
/// semaphore table, the in-arena channel, the result cells, the bootstrap
/// root and (optionally) the telemetry plane.
#[derive(Clone)]
struct ForkWorld {
    exp: ProcExperiment,
    arena: Arc<ShmArena>,
    os: Arc<NativeOs>,
    channel: Channel,
    root: ShmPtr<ForkRoot>,
    plane: Option<TelemetryPlane>,
}

/// What [`ForkWorld::live_storm`] hands back.
struct LiveStorm {
    victim_exits: Vec<ExitStatus>,
    /// Echo round trips each victim completed before its kill.
    victim_progress: Vec<u64>,
    survivor_exits: Vec<ExitStatus>,
    server_run: ServerRun,
    flight_dump: Option<String>,
}

impl ForkWorld {
    fn build(exp: ProcExperiment) -> Self {
        let n = exp.n_clients;
        let arena = Arc::new(
            ShmArena::new_memfd(exp.bytes_needed())
                .unwrap_or_else(|e| panic!("memfd arena for {exp:?}: {e:?}")),
        );
        let (os, sems) = NativeOs::new_shared(NativeConfig::for_clients(n), Arc::clone(&arena))
            .expect("shared semaphore table fits the arena");
        let channel =
            Channel::create_in(Arc::clone(&arena), &exp.channel()).expect("channel fits the arena");
        let cells = arena
            .alloc_slice(n, |_| Cell {
                events: std::array::from_fn(|_| AtomicU64::new(0)),
                progress: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                state: AtomicU32::new(0),
            })
            .expect("cells fit the arena");
        let samples = arena
            .alloc_slice(exp.n_samples(), |_| AtomicU64::new(0))
            .expect("samples fit the arena");
        let plane = exp.telemetry.map(|cap| {
            let (slots, tasks, cap) = exp.plane(cap);
            let p = TelemetryPlane::create_in(&arena, slots, tasks, cap)
                .expect("telemetry plane fits the arena");
            if let Some(f) = p.flight() {
                os.arm_flight(f);
            }
            p
        });
        let root = arena
            .alloc(ForkRoot {
                ready: CountingSem::new_shared(0),
                go: CountingSem::new_shared(0),
                prober_go: CountingSem::new_shared(0),
                channel: channel.root_ptr(),
                sems,
                cells,
                samples,
                msgs_per_client: exp.msgs_per_client,
                kill_site: exp.kill_site.unwrap_or(0),
                n_clients: n as u32,
                n_victims: exp.n_victims as u32,
                pin_cpu: exp.pin_cpu.map_or(-1, |c| c as i32),
                prober: u32::from(exp.prober),
            })
            .expect("root fits the arena");
        arena.publish_root(root);
        ForkWorld {
            exp,
            arena,
            os,
            channel,
            root,
            plane,
        }
    }

    fn root(&self) -> &ForkRoot {
        self.arena.get(self.root)
    }

    fn cells(&self) -> &[Cell] {
        self.arena.get_slice(self.root().cells)
    }

    /// The parent's own task (`1 + n_clients`): task 0 is the server
    /// thread's, and a metrics sink has one writer thread.
    fn monitor(&self) -> NativeTask {
        self.os.task(1 + self.exp.n_clients as u32)
    }

    /// A watchdog quoting the flight recorder, when the world carries one:
    /// its rings live in the segment, so the last event of a wedged — or
    /// SIGKILLed — *child* is as readable as a thread's.
    fn watchdog(&self) -> Watchdog<'_> {
        let evidence = self.os.flight().map_or(Evidence::None, Evidence::Flight);
        Watchdog::new(WATCHDOG_JOIN).with_evidence(evidence)
    }

    /// Forks a child that runs the preamble and then `body`.
    fn fork(
        &self,
        name: String,
        id: u32,
        body: impl FnOnce(&ChildCtx<'_>) -> i32,
    ) -> Named<ChildProc> {
        let fd = self.arena.backing_fd().expect("memfd backing");
        let child = ChildProc::spawn(move || child_main(fd, body))
            .unwrap_or_else(|e| panic!("fork {name}: {e:?}"));
        (name, id, child)
    }

    fn fork_clients(&self, strategy: WaitStrategy) -> Vec<Named<ChildProc>> {
        (0..self.exp.n_clients as u32)
            .map(|c| {
                self.fork(format!("client{c}"), 1 + c, move |ctx| {
                    client_body(ctx, c, strategy)
                })
            })
            .collect()
    }

    fn fork_doomed_server(&self, strategy: WaitStrategy) -> Named<ChildProc> {
        self.fork("doomed server".into(), 0, move |ctx| {
            doomed_server_body(ctx, strategy)
        })
    }

    /// Starts the parent's server thread as task 0, pinned like everyone
    /// else.
    fn serve<T: Send + 'static>(
        &self,
        body: impl FnOnce(&Channel, &NativeTask) -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let (ch, task, pin) = (self.channel.clone(), self.os.task(0), self.exp.pin_cpu);
        std::thread::spawn(move || {
            if let Some(cpu) = pin {
                pin_self(cpu).expect("pin server thread");
            }
            body(&ch, &task)
        })
    }

    /// The recovery half of a succession, as task `os`: bump + fsck, then
    /// feed the `corpses` back into the failure model — *after* the fsck,
    /// whose fault-state reset revives every consumer-liveness word, which
    /// is correct for clients that merely lost their server but wrong for
    /// actual corpses — and declare dead those of `survivors` that finished
    /// against the dead incarnation. Returns the takeover record and the
    /// instant the fsck completed.
    fn recover(
        &self,
        os: &NativeTask,
        corpses: Range<u32>,
        survivors: Range<u32>,
    ) -> (Takeover, Instant) {
        let takeover = usipc::take_over(&self.channel, os);
        let fsck_done = Instant::now();
        let cells = self.cells();
        // A kill site past one client's share of the barrage lets a fast
        // client finish first: it disconnected from a server that no longer
        // exists and will never disconnect from this one, which would wait
        // for it until the watchdog. The first heartbeat scan reaps it.
        let finished = survivors.filter(|&c| cells[c as usize].state.load(Ordering::Acquire) != 0);
        for c in corpses.chain(finished) {
            self.channel.reply_queue(c).mark_consumer_dead(os);
        }
        (takeover, fsck_done)
    }

    /// The ready/go barrier: waits for `participants` to attach, then
    /// releases the clients. Returns the instant of the release.
    fn start(&self, participants: usize) -> Instant {
        let root = self.root();
        for _ in 0..participants {
            assert!(
                root.ready.p_timeout(WATCHDOG_JOIN),
                "a participant never reached the ready barrier"
            );
        }
        let start = Instant::now();
        for _ in 0..self.exp.n_clients {
            root.go.v();
        }
        start
    }

    /// Joins a parent-side thread under the watchdog.
    fn join<T>(&self, what: &str, handle: JoinHandle<T>) -> T {
        self.watchdog()
            .join(vec![(what.into(), 0, handle)])
            .remove(0)
    }

    /// Reaps `children` under the watchdog; every one must have exited 0.
    fn reap(&self, children: Vec<Named<ChildProc>>) -> Vec<ExitStatus> {
        let names: Vec<String> = children.iter().map(|(n, _, _)| n.clone()).collect();
        let exits = self.watchdog().reap(children);
        for (name, e) in names.iter().zip(&exits) {
            assert!(e.success(), "{name} failed: {e:?}");
        }
        exits
    }

    /// Waits for `child` to die — `ppoll` on its pidfd, race-free, no
    /// reaping required yet — and reaps it.
    fn await_death(&self, (name, id, child): Named<ChildProc>) -> ExitStatus {
        if !child.dead_within(WATCHDOG_JOIN) {
            child.kill();
            let _ = child.wait();
            panic!("{}", self.watchdog().report(&[(name, id)]));
        }
        child
            .wait()
            .unwrap_or_else(|e| panic!("wait({name}): {e:?}"))
    }

    /// Polls (yielding, not sleeping: these waits sit inside measured
    /// recovery windows) until `ready(c)` holds for each of `clients`.
    fn await_clients(&self, clients: Range<u32>, ready: impl Fn(u32, &Cell) -> bool) {
        let cells = self.cells();
        let waiting = || clients.clone().filter(|&c| !ready(c, &cells[c as usize]));
        let watchdog = self.watchdog().tick(Duration::ZERO);
        if !watchdog.until(|| waiting().next().is_none()) {
            let wedged: Vec<_> = waiting().map(|c| (format!("client{c}"), 1 + c)).collect();
            panic!("{}", watchdog.report(&wedged));
        }
    }

    /// Waits until each of `clients` has completed `at_least` round trips,
    /// so a kill provably lands mid-conversation.
    fn await_progress(&self, clients: Range<u32>, at_least: u64) {
        self.await_clients(clients, |_, cell| {
            cell.progress.load(Ordering::Relaxed) >= at_least
        });
    }

    /// Waits until each of `clients` has finished or is parked for good
    /// against a dead server — the quiescence [`take_over`](usipc::take_over)
    /// requires. Parked means `awake` down, no reply queued *and* the
    /// client registered on its semaphore: `awake` alone is also down for a
    /// client descheduled between clearing the flag and the re-check that
    /// finds a reply the server delivered before dying, and flag plus empty
    /// queue for one that has just taken that reply. Either sends its next
    /// request under the fsck's feet, collects a `DROPPED` notice for a
    /// request that is queued and fails on the duplicate reply.
    fn await_parked(&self, clients: Range<u32>) {
        self.await_clients(clients, |c, cell| {
            let rq = self.channel.reply_queue(c);
            cell.state.load(Ordering::Acquire) != 0
                || (rq.awake_down() && rq.queued_len() == 0 && self.os.sem(rq.sem()).waiting() > 0)
        });
    }

    /// The first act of every server-kill drill: forks the clients and the
    /// doomed server, starts the barrage, waits for the doomed incarnation
    /// to reach its kill site and die — the pidfd is the successor's death
    /// signal — and then for `parked` to quiesce: with the server dead no
    /// replies flow, so within a bounded time every running client has
    /// committed its next request and parked in its reply wait, after which
    /// its only remaining write is the `P` on its own semaphore, which the
    /// fsck leaves strictly alone for in-flight clients. Returns the
    /// clients, the server's exit and the instant its death was detected.
    fn until_server_death(
        &self,
        strategy: WaitStrategy,
        parked: Range<u32>,
    ) -> (Vec<Named<ChildProc>>, ExitStatus, Instant) {
        let clients = self.fork_clients(strategy);
        let doomed = self.fork_doomed_server(strategy);
        self.start(clients.len() + 1);
        let server_exit = self.await_death(doomed);
        let t_detect = Instant::now();
        self.await_parked(parked);
        (clients, server_exit, t_detect)
    }

    /// SIGKILLs `victims` and detects each death, race-free, through its
    /// pidfd.
    fn kill(&self, victims: Vec<Named<ChildProc>>) -> Vec<ExitStatus> {
        victims.iter().for_each(|(_, _, v)| v.kill());
        let exits = victims.into_iter().map(|v| {
            let (name, exit) = (v.0.clone(), self.await_death(v));
            assert_eq!(exit, ExitStatus::Signaled(9), "{name} died oddly");
            exit
        });
        exits.collect()
    }

    /// The live-server storm (the kill drill is a storm of one): the cast
    /// is served by the parent's resilient server — which publishes its
    /// telemetry slot and cuts a flight-recorder postmortem at the first
    /// death it detects — the endless clients `0..n_victims` each complete
    /// `after` round trips, so the kills land mid-conversation, are
    /// SIGKILLed, and the parent feeds their deaths into the failure model:
    /// the server's next heartbeat scan reaps them.
    fn live_storm(&self, strategy: WaitStrategy, heartbeat: Duration, after: u64) -> LiveStorm {
        let (n, n_victims) = (self.exp.n_clients as u32, self.exp.n_victims as u32);
        let mut survivors = self.fork_clients(strategy);
        let plane = self.plane.clone().expect("drills carry a plane");
        let server = self.serve(move |ch, os| {
            let writer = plane.writer(0, 0, Role::Server);
            let flight = plane.flight();
            let mut task_names = vec![(0, "server".to_string())];
            task_names.extend((0..n).map(|c| (1 + c, format!("client{c}"))));
            task_names.push((1 + n, "monitor".to_string()));
            let obs = ServerObservability {
                telemetry: Some(&writer),
                flight: flight.as_ref(),
                task_names,
            };
            usipc::run_resilient_server_observed(ch, os, strategy, heartbeat, obs, |m| m)
        });
        self.start(n as usize);

        self.await_progress(0..n_victims, after);
        let victim_exits = self.kill(survivors.drain(..n_victims as usize).collect());
        let progress = |c: u32| self.cells()[c as usize].progress.load(Ordering::Relaxed);
        let victim_progress = (0..n_victims).map(progress).collect();
        let monitor = self.monitor();
        for v in 0..n_victims {
            self.channel.reply_queue(v).mark_consumer_dead(&monitor);
        }
        let (server_run, flight_dump) = self.join("storm server", server);
        LiveStorm {
            victim_exits,
            victim_progress,
            survivor_exits: self.reap(survivors),
            server_run,
            flight_dump,
        }
    }

    /// Each client's final counters, shipped back through its cell.
    fn client_metrics(&self) -> Vec<MetricsSnapshot> {
        self.cells()
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                assert_eq!(
                    cell.state.load(Ordering::Acquire),
                    1,
                    "cell {c} not finalized"
                );
                let events: [u64; N_EVENTS] =
                    std::array::from_fn(|i| cell.events[i].load(Ordering::Relaxed));
                MetricsSnapshot::from_array(&events)
            })
            .collect()
    }

    /// Per-client count of requests re-issued after a DROPPED notice.
    fn drop_retries(&self) -> Vec<u64> {
        self.cells()
            .iter()
            .map(|cell| cell.retries.load(Ordering::Relaxed))
            .collect()
    }

    fn server_metrics(&self) -> MetricsSnapshot {
        self.os.metrics().expect("metrics on").task_snapshot(0)
    }
}

/// A forked-process experiment, as a value: the echo workload
/// ([`run`](Self::run)), the kill drill ([`run_kill`](Self::run_kill)) and
/// the three takeover drills, over one world. The parent hosts (or
/// succeeds) the server; each client is a forked child that attaches the
/// memfd arena by file descriptor and bootstraps from the published root.
/// The counting semaphores live *inside* the segment in cross-process futex
/// mode, so the wait strategies run unmodified across address spaces — the
/// backing-store swap the paper's user-level design promises.
#[derive(Debug, Clone)]
pub struct ProcExperiment {
    strategy: WaitStrategy,
    n_clients: usize,
    msgs_per_client: u64,
    queue_kind: QueueKind,
    pin_cpu: Option<usize>,
    /// Telemetry plane: `Some(0)` the stats slots alone, `Some(n)` also a
    /// flight recorder of `n` records per task.
    telemetry: Option<usize>,
    observer: bool,
    kill_site: Option<u64>,
    heartbeat: Duration,
    prober: bool,
    /// Set by the run methods: one raw sample slot per round trip.
    samples: bool,
    /// Set by the run methods: clients `0..n_victims` barrage endlessly.
    n_victims: usize,
}

impl ProcExperiment {
    /// One client, 1 000 round trips, the default queue, running free, no
    /// telemetry, no kill site, a 5 ms server heartbeat.
    pub fn new(strategy: WaitStrategy) -> Self {
        ProcExperiment {
            strategy,
            n_clients: 1,
            msgs_per_client: 1_000,
            queue_kind: QueueKind::default(),
            pin_cpu: None,
            telemetry: None,
            observer: false,
            kill_site: None,
            heartbeat: Duration::from_millis(5),
            prober: false,
            samples: false,
            n_victims: 0,
        }
    }

    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        assert!(n >= 1);
        self.n_clients = n;
        self
    }

    /// Sets the per-client message count.
    pub fn messages(mut self, n: u64) -> Self {
        self.msgs_per_client = n;
        self
    }

    /// Sets the channel's queue representation — the cross-process leg of
    /// the queue-kind matrix and of the accounting pins (BSW must cost
    /// exactly 4 semaphore ops per round trip on *both* kinds: the queue
    /// swap is below the protocol layer).
    pub fn queue(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Pins everyone — parent-side server threads and every forked child —
    /// to `cpu` under `SCHED_BATCH`, reproducing the paper's
    /// **uniprocessor** regime on a multicore host. Under that schedule
    /// each side genuinely blocks before its peer runs, so BSW's accounting
    /// is exact (4 semaphore ops per round trip) instead of an upper bound
    /// that pipelining undercuts.
    pub fn pinned(mut self, cpu: usize) -> Self {
        self.pin_cpu = Some(cpu);
        self
    }

    /// Allocates the telemetry plane and has every participant publish —
    /// the configuration `tests/metrics_accounting.rs` pins BSW's
    /// four-syscall round trip under, proving the plane adds no semaphore
    /// ops or kernel crossings to the protocol.
    pub fn telemetry(mut self) -> Self {
        self.telemetry = Some(0);
        self
    }

    /// Telemetry on, plus an extra forked **observer** process that attaches
    /// the segment by inherited fd — knowing nothing but that fd — and
    /// exits 0 only after reading a consistent, advancing snapshot while
    /// the barrage is live. The result's `observer_exit` is its verdict.
    pub fn observer(mut self) -> Self {
        self.observer = true;
        self.telemetry()
    }

    /// Forks the server too, doomed to SIGKILL itself **mid-handler** after
    /// serving `site` echoes (the takeover drills): the request in hand is
    /// consumed but its reply never commits, which is the nastiest kill site
    /// the explorer sweeps surface (everything else is either still
    /// committed in the receive queue or already committed as a reply).
    pub fn kill_site(mut self, site: u64) -> Self {
        self.kill_site = Some(site);
        self
    }

    /// Sets the liveness-scan period of the parent's resilient server (the
    /// kill drill's, a storm's, a takeover's successor).
    pub fn heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Holds the last client back as a **late prober** that starts only
    /// after the takeover completed and the others drained. With everyone
    /// [`pinned`](Self::pinned) its whole conversation is lockstep BSW
    /// against the successor, so the paper's 4-semaphore-ops-per-round-trip
    /// accounting can be pinned *post-takeover* (use a long heartbeat to
    /// keep liveness-scan timeouts out of the measured window).
    pub fn late_prober(mut self) -> Self {
        self.prober = true;
        self
    }

    /// The world of a drill with `n_victims` endless clients; the kill site
    /// (if set) must lie inside the `active` clients' barrage.
    fn drill_world(&self, n_victims: usize, active: usize) -> ForkWorld {
        if let Some(site) = self.kill_site {
            assert!(
                active >= 1 && site < active as u64 * self.msgs_per_client,
                "the doomed server must die mid-barrage (site {site})"
            );
        }
        // A drill that wedges must say where: every participant's last
        // events, the children's included, go to a flight recorder.
        ForkWorld::build(ProcExperiment {
            n_victims,
            telemetry: self.telemetry.max(Some(DRILL_FLIGHT_CAPACITY)),
            ..self.clone()
        })
    }

    /// Runs the echo barrage against the parent's server thread.
    ///
    /// # Panics
    ///
    /// On any child failing (attach or pin failure, echo corruption, panic,
    /// signal) or a wedged process (watchdog).
    pub fn run(&self) -> ProcExperimentResult {
        let (strategy, n) = (self.strategy, self.n_clients);
        let world = ForkWorld::build(ProcExperiment {
            samples: true,
            ..self.clone()
        });
        let clients = world.fork_clients(strategy);
        let observer = self.observer.then(|| {
            world.fork("observer".into(), 1 + n as u32, |ctx| {
                observer_body(ctx, WATCHDOG_JOIN)
            })
        });

        let server = world.serve(move |ch, os| usipc::run_echo_server(ch, os, strategy));
        // The parent's server slot is fed by a *sampler* thread reading the
        // server task's counter registry — the echo loop itself is
        // untouched, which is exactly the zero-overhead posture the
        // accounting test verifies. Single-writer discipline holds: only
        // the sampler writes slot 0.
        let stop_sampler = Arc::new(AtomicBool::new(false));
        let sampler = world.plane.clone().map(|p| {
            let (os, ch) = (Arc::clone(&world.os), world.channel.clone());
            let stop = Arc::clone(&stop_sampler);
            std::thread::spawn(move || {
                let w = p.writer(0, 0, Role::Server);
                loop {
                    let s = os.metrics().map(|m| m.task_snapshot(0)).unwrap_or_default();
                    w.set_progress(s.requests_served);
                    w.set_queue_depth(ch.receive_queue().queued_len() as u64);
                    w.set_waiters(n as u64);
                    w.set_slots_leaked(s.slots_leaked);
                    w.publish(&s);
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });

        let start = world.start(n);
        let server_run = world.join("proc-experiment server", server);
        let elapsed = start.elapsed();
        // The observer needs live publications: the sampler keeps feeding
        // the server slot until the observer has its verdict.
        let observer_exit = observer.map(|o| world.watchdog().reap(vec![o]).remove(0));
        stop_sampler.store(true, Ordering::Release);
        if let Some(h) = sampler {
            let _ = h.join();
        }
        let exits = world.reap(clients);
        if let Some(e) = &observer_exit {
            assert!(
                e.success(),
                "external observer failed: {e:?} (2=attach, 6=no plane, 7=stale, 8=torn)"
            );
        }

        let messages = self.msgs_per_client * n as u64;
        let samples = world.arena.get_slice(world.root().samples);
        ProcExperimentResult {
            throughput: messages as f64 / (elapsed.as_secs_f64() * 1e3),
            elapsed,
            messages,
            server_metrics: world.server_metrics(),
            server_run,
            client_metrics: sum(&world.client_metrics()),
            client_samples: samples.iter().map(|s| s.load(Ordering::Relaxed)).collect(),
            exits,
            telemetry: world.plane.as_ref().map(|p| p.readings()),
            observer_exit,
        }
    }

    /// The cross-process failure drill: client `0` barrages endlessly and is
    /// **SIGKILLed mid-traffic** — no unwinding, no `DeathWatch`, exactly
    /// what process death looks like. The parent detects the death through
    /// the child's **pidfd**, feeds it into the failure model via
    /// [`mark_consumer_dead`](usipc::QueueRef::mark_consumer_dead), and the
    /// resilient server's next heartbeat scan reaps the victim and poisons
    /// its reply queue while the surviving clients finish their runs
    /// untouched. Runs with the telemetry plane and the flight recorder on.
    ///
    /// # Panics
    ///
    /// On a survivor failing, the victim dying any way but the SIGKILL, or
    /// a wedged process (watchdog).
    pub fn run_kill(&self) -> ProcKillResult {
        let world = ForkWorld::build(ProcExperiment {
            telemetry: Some(KILL_FLIGHT_CAPACITY),
            n_victims: 1,
            ..self.clone()
        });
        let storm = world.live_storm(self.strategy, self.heartbeat, KILL_AFTER_PROGRESS);
        ProcKillResult {
            server_metrics: world.server_metrics(),
            server_run: storm.server_run,
            victim_exit: storm.victim_exits[0],
            victim_reply_poisoned: world.channel.reply_queue(0).is_poisoned(),
            victim_progress: storm.victim_progress[0],
            survivor_exits: storm.survivor_exits,
            flight_dump: storm.flight_dump,
            telemetry: world.plane.as_ref().map(|p| p.readings()),
        }
    }

    /// The generational-takeover drill: forked clients barrage a forked
    /// server, which SIGKILLs itself at the [`kill_site`](Self::kill_site);
    /// the parent detects the death by pidfd, waits for the surviving
    /// clients to quiesce (parked in their reply waits — the fsck
    /// precondition), then runs [`take_over`](usipc::take_over) and serves
    /// the rest of the barrage as the new incarnation. Every client
    /// completes without ever observing the crash, except the one whose
    /// in-hand request was dropped — it gets a DROPPED notice and re-issues.
    ///
    /// # Panics
    ///
    /// On a client failing, the doomed server dying any way but its own
    /// SIGKILL, or a wedged process (watchdog).
    pub fn run_takeover(&self) -> ProcTakeoverResult {
        let (strategy, n) = (self.strategy, self.n_clients);
        assert!(
            self.kill_site.is_some(),
            "a takeover drill needs a kill site"
        );
        let normal = n - usize::from(self.prober);
        let world = self.drill_world(0, normal);
        // The prober (if any) is parked on its gate, not in the channel.
        let (clients, server_exit, t_detect) = world.until_server_death(strategy, 0..normal as u32);

        // A handle stamped under the dead generation, for the staleness
        // probe below.
        let stale_ch = Channel::from_root(Arc::clone(&world.arena), world.root().channel)
            .expect("parent's root");
        // The successor runs on its own thread so the parent can probe
        // staleness and orchestrate the prober's accounting window.
        let (w, heartbeat) = (world.clone(), self.heartbeat);
        let successor = world.serve(move |ch, os| {
            let recovered = w.recover(os, 0..0, 0..normal as u32);
            (recovered, serve_resilient(ch, os, strategy, heartbeat))
        });

        // Staleness probe, deliberately racing the fsck: the generation
        // bump alone must fence this handle — the call fails fast with a
        // local stamp check before touching any queue.
        while world.arena.generation() < 2 {
            std::thread::yield_now();
        }
        let stale_probe = stale_ch
            .client(&world.monitor(), 0, strategy)
            .call_deadline(Message::echo(0, 0.0), Duration::from_millis(250));

        // Accounting leg: wait out the normal clients, open the metrics
        // window on the successor task, release the prober.
        let window_start = self.prober.then(|| {
            world.await_clients(0..normal as u32, |_, cell| {
                cell.state.load(Ordering::Acquire) != 0
            });
            let s0 = world.server_metrics();
            world.root().prober_go.v();
            s0
        });

        let ((takeover, fsck_done), server_run) = world.join("takeover successor", successor);
        let successor_window_sem_ops = window_start.map(|s0| {
            let s1 = world.server_metrics();
            (s1.sem_p - s0.sem_p) + (s1.sem_v - s0.sem_v)
        });
        world.reap(clients);
        let per_client = world.client_metrics();
        ProcTakeoverResult {
            server_exit,
            recovery: fsck_done.duration_since(t_detect),
            takeover,
            server_run,
            drop_retries: world.drop_retries(),
            stale_probe,
            client_metrics: sum(&per_client),
            prober_metrics: self.prober.then(|| per_client[normal]),
            successor_window_sem_ops,
        }
    }

    /// The fault storm: clients `0..n_victims` are SIGKILLed mid-barrage —
    /// and, when a [`kill_site`](Self::kill_site) is set, the forked server
    /// *also* SIGKILLs itself mid-handler there, so mass client death and
    /// server death land in the same run.
    ///
    /// Without a server kill this is the poison-cascade drill: the parent's
    /// resilient server reaps every victim on its heartbeat scan (their
    /// deaths detected by pidfd and fed through `mark_consumer_dead`),
    /// poisons their reply queues, and finishes the survivors untouched.
    ///
    /// With a server kill, the parent waits for the doomed incarnation to
    /// die, quiesces, and the successor fscks a segment holding both kinds
    /// of corpse, **re-marks the storm victims dead** and re-reaps them.
    pub fn run_storm(&self, n_victims: usize) -> ProcStormResult {
        let (strategy, heartbeat, n) = (self.strategy, self.heartbeat, self.n_clients);
        assert!(n_victims >= 1 && n_victims < n);
        let world = self.drill_world(n_victims, n - n_victims);
        let (victim_exits, server_exit, recovered, server_run) = if self.kill_site.is_none() {
            let storm = world.live_storm(strategy, heartbeat, STORM_KILL_PROGRESS);
            (storm.victim_exits, None, None, storm.server_run)
        } else {
            // Server-death-during-storm ordering: the doomed incarnation
            // dies first, every client (victims included — they are
            // endless) parks against the dead server, and only then do the
            // victims get their SIGKILL: they die *in flight*, parked in
            // their reply waits, which is the state the fsck must then
            // issue verdicts into.
            let (mut clients, server_exit, _) = world.until_server_death(strategy, 0..n as u32);
            let victim_exits = world.kill(clients.drain(..n_victims).collect());

            let t_detect = Instant::now();
            let (corpses, survivors) = (0..n_victims as u32, n_victims as u32..n as u32);
            let (tk, fsck_done) = world.recover(&world.monitor(), corpses, survivors);
            let successor = world.serve(move |ch, os| serve_resilient(ch, os, strategy, heartbeat));
            let run = world.join("storm successor", successor);
            world.reap(clients);
            let recovered = (tk, fsck_done.duration_since(t_detect));
            (victim_exits, Some(server_exit), Some(recovered), run)
        };
        let (takeover, recovery) = recovered.unzip();
        ProcStormResult {
            n_victims,
            victim_exits,
            server_exit,
            takeover,
            recovery,
            server_run,
            victim_poisoned: (0..n_victims as u32)
                .map(|v| world.channel.reply_queue(v).is_poisoned())
                .collect(),
            drop_retries: world.drop_retries(),
            survivor_messages: (n - n_victims) as u64 * self.msgs_per_client,
        }
    }

    /// The kill-during-recovery drill: the first server dies at its kill
    /// site, a forked **half-recoverer** starts the takeover and is itself
    /// SIGKILLed mid-recovery — right after the generation bump (the
    /// wreckage is still the first server's) or, with `fsck_before_death`,
    /// right after its fsck (verdicts issued, nothing served) — and the
    /// parent performs the *third* takeover over a segment the previous
    /// recovery already half-mutated: the fsck idempotence property,
    /// exercised in anger. Every client still finishes its full barrage.
    ///
    /// The half-recoverer is forked only after the first server's death, at
    /// which point the parent has no threads yet.
    pub fn run_relay(&self, fsck_before_death: bool) -> ProcRelayResult {
        let (strategy, n) = (self.strategy, self.n_clients);
        assert!(self.kill_site.is_some(), "a relay drill needs a kill site");
        let world = self.drill_world(0, n);
        let (clients, server_exit, _) = world.until_server_death(strategy, 0..n as u32);

        let recoverer = world.fork("half-recoverer".into(), 0, move |ctx| {
            if fsck_before_death {
                let _ = usipc::take_over(&ctx.channel(), &ctx.os.task(0));
            } else {
                ctx.arena.bump_generation();
            }
            usipc::raise_sigkill()
        });
        let recoverer_exit = world.await_death(recoverer);
        let t_detect = Instant::now();
        assert_eq!(
            recoverer_exit,
            ExitStatus::Signaled(9),
            "the half-recoverer must die by its own SIGKILL"
        );
        // If it fscked, clients it dropped are awake and re-enqueueing
        // right now; wait for them to park again.
        world.await_parked(0..n as u32);

        let (takeover, fsck_done) = world.recover(&world.monitor(), 0..0, 0..n as u32);
        let heartbeat = self.heartbeat;
        let successor = world.serve(move |ch, os| serve_resilient(ch, os, strategy, heartbeat));
        let server_run = world.join("relay successor", successor);
        world.reap(clients);
        ProcRelayResult {
            server_exit,
            recoverer_exit,
            takeover,
            final_generation: world.arena.generation(),
            server_run,
            recovery: fsck_done.duration_since(t_detect),
            drop_retries: world.drop_retries(),
        }
    }
}

/// Flight-ring capacity for the kill drill: generous enough to hold the
/// victim's whole final conversation (~10 events per round trip).
const KILL_FLIGHT_CAPACITY: usize = 2048;

/// Flight-ring capacity for the takeover drills: the last few round trips of
/// each participant, for the watchdog's report.
const DRILL_FLIGHT_CAPACITY: usize = 256;

/// Echo round trips the kill drill's victim must complete before the
/// SIGKILL, so the kill provably lands mid-conversation, not before the
/// first message.
const KILL_AFTER_PROGRESS: u64 = 50;

/// Echo round trips a storm victim must complete before its SIGKILL when
/// the server is still alive.
const STORM_KILL_PROGRESS: u64 = 25;

/// Results of one cross-process experiment ([`ProcExperiment::run`]).
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

/// Results of one cross-process kill drill ([`ProcExperiment::run_kill`]).
#[derive(Debug)]
pub struct ProcKillResult {
    /// The resilient server's run summary (`reaped` counts the victim).
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
    /// task's final events, cut by the server the moment it detected the
    /// death — the victim's records read out of shared memory, where they
    /// survived the SIGKILL.
    pub flight_dump: Option<String>,
    /// Final telemetry readings (server slot + surviving clients).
    pub telemetry: Option<Vec<TelemetryReading>>,
}

/// Results of one generational-takeover drill ([`ProcExperiment::run_takeover`]).
#[derive(Debug)]
pub struct ProcTakeoverResult {
    /// How the doomed server died (`Signaled(SIGKILL)`).
    pub server_exit: ExitStatus,
    /// The successor's takeover record: generations and the
    /// [`FsckReport`](usipc::FsckReport) with its conservation ledger.
    pub takeover: Takeover,
    /// The successor's serving run (it finishes the whole barrage).
    pub server_run: ServerRun,
    /// Death detection (pidfd readable) → fsck complete, including the
    /// quiescence wait — the end-to-end recovery latency.
    pub recovery: Duration,
    /// Per-client count of requests re-issued after a DROPPED notice (the
    /// drill kills mid-handler, so the total is exactly 1).
    pub drop_retries: Vec<u64>,
    /// Verdict of a fallible call issued on a handle stamped under the
    /// dead generation, raced against the fsck on purpose: must be
    /// `Err(StaleGeneration)`, never a hang.
    pub stale_probe: Result<Message, IpcError>,
    /// Protocol events summed over every client process.
    pub client_metrics: MetricsSnapshot,
    /// The late prober's own events (pinned accounting leg only):
    /// entirely post-takeover, entirely lockstep.
    pub prober_metrics: Option<MetricsSnapshot>,
    /// The successor task's semaphore ops inside the prober window
    /// (pinned accounting leg only).
    pub successor_window_sem_ops: Option<u64>,
}

/// Results of one fault storm ([`ProcExperiment::run_storm`]).
#[derive(Debug)]
pub struct ProcStormResult {
    /// How many clients were SIGKILLed mid-barrage.
    pub n_victims: usize,
    /// Victim exit statuses (all `Signaled(SIGKILL)`).
    pub victim_exits: Vec<ExitStatus>,
    /// The doomed server's death, when the storm included one.
    pub server_exit: Option<ExitStatus>,
    /// The takeover record, when the storm killed the server.
    pub takeover: Option<Takeover>,
    /// Death detection → fsck complete, when the storm killed the server.
    pub recovery: Option<Duration>,
    /// The (final) server's run: `reaped` counts every storm victim.
    pub server_run: ServerRun,
    /// Whether each victim's reply queue ended poisoned — the cascade's
    /// visible residue.
    pub victim_poisoned: Vec<bool>,
    /// Per-client DROPPED-retry counts (only a surviving client whose
    /// in-hand request the takeover dropped ever retries).
    pub drop_retries: Vec<u64>,
    /// Echo round trips the survivors completed (their full barrage).
    pub survivor_messages: u64,
}

/// Results of one relay-takeover drill ([`ProcExperiment::run_relay`]).
#[derive(Debug)]
pub struct ProcRelayResult {
    /// The first incarnation's death (`Signaled(SIGKILL)`).
    pub server_exit: ExitStatus,
    /// The half-recoverer's death (`Signaled(SIGKILL)`).
    pub recoverer_exit: ExitStatus,
    /// The *final* takeover record (the one that served).
    pub takeover: Takeover,
    /// The arena generation after the final takeover (3: created at 1,
    /// half-recovery bumped to 2, final takeover to 3).
    pub final_generation: u32,
    /// The final incarnation's serving run.
    pub server_run: ServerRun,
    /// Half-recoverer death detection → final fsck complete.
    pub recovery: Duration,
    /// Per-client DROPPED-retry counts (≤ 1 per recovery wave).
    pub drop_retries: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::mem::offset_of;

    /// The one bootstrap root may cross address spaces.
    const _: () = {
        const fn shm_safe<T: ShmSafe>() {}
        shm_safe::<ForkRoot>();
        shm_safe::<Cell>();
    };

    /// `#[repr(C)]`: fields sit in declaration order, so a child built from
    /// the same source reads the parent's root the way it was written.
    #[test]
    fn the_root_is_laid_out_in_declaration_order() {
        let offsets = [
            offset_of!(ForkRoot, ready),
            offset_of!(ForkRoot, go),
            offset_of!(ForkRoot, prober_go),
            offset_of!(ForkRoot, channel),
            offset_of!(ForkRoot, sems),
            offset_of!(ForkRoot, cells),
            offset_of!(ForkRoot, samples),
            offset_of!(ForkRoot, msgs_per_client),
            offset_of!(ForkRoot, kill_site),
            offset_of!(ForkRoot, n_clients),
            offset_of!(ForkRoot, n_victims),
            offset_of!(ForkRoot, pin_cpu),
            offset_of!(ForkRoot, prober),
        ];
        assert_eq!(offsets[0], 0);
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{offsets:?}");
    }

    /// A drill's watchdog quotes the flight recorder — shared memory, so a
    /// forked child's last event is as readable as a thread's.
    #[test]
    fn a_drills_watchdog_reads_the_flight_recorder() {
        use usipc::metrics::ProtoEvent;
        let world = ProcExperiment::new(WaitStrategy::Bsw)
            .clients(2)
            .kill_site(1)
            .drill_world(0, 2);
        let flight = world.os.flight().expect("drills carry a flight recorder");
        let ring = flight.ring(2).expect("a ring per task");
        ring.record(70, usipc::TracePoint::Begin(usipc::Span::Block));
        ring.record(77, usipc::TracePoint::Proto(ProtoEvent::BlockEntered));
        let report = world.watchdog().report(&[("client1".into(), 2)]);
        assert!(
            report.contains("client1 wedged; last trace point Proto(BlockEntered) at 77 ns"),
            "{report}"
        );
        // Written whole, as the heap rings' report is: same drain, same file.
        let json = crate::watchdog::take_trace_file(&report);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1, "{json}");
    }

    /// Every forked experiment sizes its arena from the one `bytes_needed`:
    /// the echo shape (samples, telemetry), the kill drill (flight rings)
    /// and the takeover drills all allocate without `OutOfMemory`, at 1 and
    /// at 8 clients, and publish the one root.
    #[test]
    fn every_experiment_shape_fits_the_arena_it_asks_for() {
        for n in [1, 8] {
            let echo = ProcExperiment::new(WaitStrategy::Bsw).clients(n);
            let drill = echo.clone().kill_site(7).pinned(0).late_prober();
            let shapes = [
                ProcExperiment {
                    samples: true,
                    ..echo.clone().telemetry()
                },
                ProcExperiment {
                    telemetry: Some(KILL_FLIGHT_CAPACITY),
                    n_victims: 1,
                    ..echo
                },
                ProcExperiment {
                    n_victims: n - 1,
                    ..drill
                },
            ];
            for shape in shapes {
                let world = ForkWorld::build(shape);
                assert!(world.arena.root::<ForkRoot>().is_some());
                assert_eq!(world.root().n_clients as usize, n);
                assert_eq!(world.cells().len(), n);
                assert_eq!(world.drop_retries(), vec![0; n]);
            }
        }
    }
}
