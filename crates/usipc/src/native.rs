//! The native backend: real threads on the host OS.
//!
//! This is the backend a downstream user adopts. Threads sharing one
//! address space stand in for the paper's processes sharing a mapped
//! segment (DESIGN.md substitution table): all IPC state still lives in the
//! position-independent arena, so moving to real `shm_open`/`mmap`
//! processes changes only who maps the memory. Sleep/wake-up uses the
//! counting semaphores of [`crate::sem`]: raw-futex-backed on Linux
//! (uncontended `P`/`V` never enter the kernel), portable Mutex/Condvar
//! elsewhere.

use crate::metrics::{EndpointMetrics, MetricsRegistry, ProtoEvent};
use crate::platform::{Cost, HandoffHint, OsServices};
use crate::sem::{CountingSem, PAUSE_NANOS};
use crate::trace::{FlightRecorder, TracePoint, TraceRing};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use usipc_shm::{ShmArena, ShmError, ShmSlice};

/// A kernel-style message queue for the SysV baseline: bounded FIFO with
/// blocking send and receive.
#[derive(Debug)]
pub struct NativeMsgq {
    inner: Mutex<std::collections::VecDeque<[u64; 4]>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl NativeMsgq {
    /// Creates a queue holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        NativeMsgq {
            inner: Mutex::new(std::collections::VecDeque::with_capacity(capacity)),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Blocking send (`msgsnd`).
    pub fn send(&self, m: [u64; 4]) {
        let mut q = self.inner.lock().unwrap();
        while q.len() >= self.capacity {
            q = self.not_full.wait(q).unwrap();
        }
        q.push_back(m);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Blocking receive (`msgrcv`).
    pub fn recv(&self) -> [u64; 4] {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(m) = q.pop_front() {
                drop(q);
                self.not_full.notify_one();
                return m;
            }
            q = self.not_empty.wait(q).unwrap();
        }
    }
}

/// Configuration for [`NativeOs`].
#[derive(Debug, Clone)]
pub struct NativeConfig {
    /// Number of semaphores (1 + number of clients, by convention).
    pub n_sems: usize,
    /// Number of kernel message queues (0 if the SysV baseline is unused).
    pub n_msgqs: usize,
    /// Capacity of each kernel message queue.
    pub msgq_capacity: usize,
    /// `true` on a multiprocessor: `busy_wait` (a flat 25 µs) and
    /// `poll_pause` (one `spin_loop` hint ramping up to it) spin instead
    /// of yielding (§2.1/§5). [`NativeOs::new`] clamps this against the
    /// CPUs its building thread may run on: with fewer than runnable tasks,
    /// spinning only starves the awaited peer, so both degrade to
    /// `yield_now`.
    pub multiprocessor: bool,
    /// Queue-full back-off. The paper sleeps a full second; tests and
    /// benches usually shorten this.
    pub full_backoff: Duration,
    /// Collect per-task protocol-event metrics (one unlocked `Relaxed`
    /// load + store per event when on; a single `Option` branch per event
    /// when off). Each task id must then belong to one thread: see the
    /// single-writer contract in [`metrics`](crate::metrics).
    pub collect_metrics: bool,
}

impl NativeConfig {
    /// Convention-following config for `n_clients` clients.
    pub fn for_clients(n_clients: usize) -> Self {
        NativeConfig {
            n_sems: 1 + n_clients,
            n_msgqs: 1 + n_clients,
            msgq_capacity: 64,
            multiprocessor: cpus_allowed() > 1,
            full_backoff: Duration::from_millis(1),
            collect_metrics: true,
        }
    }

    /// Same config with metrics collection disabled.
    pub fn without_metrics(mut self) -> Self {
        self.collect_metrics = false;
        self
    }
}

/// Where the backend's counting semaphores live.
///
/// `Local` is the classic thread-mode store: a host-side `Vec` of
/// process-private sems. `Shared` places the very same semaphore type
/// inside a [`ShmArena`] (in cross-process futex mode), so a forked child
/// that attaches the segment and rebuilds a `NativeOs` around the same
/// slice sleeps and wakes against the parent's sems — the protocols never
/// learn which store they are running on.
#[derive(Debug)]
enum SemStore {
    Local(Vec<CountingSem>),
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Shared {
        arena: Arc<ShmArena>,
        sems: ShmSlice<CountingSem>,
    },
}

/// Shared state of the native backend; each participating thread holds an
/// [`Arc`] and presents it to the protocols via [`NativeTask`].
#[derive(Debug)]
pub struct NativeOs {
    sems: SemStore,
    msgqs: Vec<NativeMsgq>,
    multiprocessor: bool,
    /// Whether a waiter spins before it announces a sleep
    /// ([`OsServices::wake_latency_nanos`] hands out the semaphore's
    /// learned wake cost), and so whether the `P` after that spin
    /// ([`OsServices::sem_p_learning`]) learns that cost: not if the
    /// builder had one CPU, else yes — whatever `multiprocessor`
    /// ([`crate::sem`]).
    spins: bool,
    full_backoff: Duration,
    metrics: Option<MetricsRegistry>,
    flight: OnceLock<FlightRecorder>,
}

impl NativeOs {
    fn from_store(cfg: &NativeConfig, sems: SemStore) -> Arc<Self> {
        // The building thread decides: pinned to one CPU, a uniprocessor.
        let cpus = cpus_allowed();
        Arc::new(NativeOs {
            sems,
            msgqs: (0..cfg.n_msgqs)
                .map(|_| NativeMsgq::new(cfg.msgq_capacity))
                .collect(),
            // Spinning between polls pays off only if the awaited peer can
            // run *while* we spin. By the platform convention there is one
            // task per semaphore, so `n_sems` approximates the runnable-task
            // count; with fewer CPUs than that (an 8-way config on a 2-core
            // CI runner) a spin merely starves the producer of the event
            // being awaited, so degrade to yielding.
            multiprocessor: cfg.multiprocessor && cpus >= cfg.n_sems.max(1),
            spins: cpus > 1,
            full_backoff: cfg.full_backoff,
            metrics: cfg.collect_metrics.then(MetricsRegistry::new),
            flight: OnceLock::new(),
        })
    }

    /// Builds the backend from a config, with process-private semaphores.
    pub fn new(cfg: NativeConfig) -> Arc<Self> {
        let sems = SemStore::Local((0..cfg.n_sems).map(|_| CountingSem::new(0)).collect());
        Self::from_store(&cfg, sems)
    }

    /// Builds the backend with its semaphores allocated *inside* `arena`
    /// in cross-process futex mode, returning the slice handle a child
    /// passes to [`attach_shared`](Self::attach_shared) (typically via a
    /// bootstrap struct published as the arena root).
    ///
    /// Msgqs and metrics stay process-local: each process keeps its own
    /// registry, exactly like each of the paper's processes keeping its
    /// own counters.
    ///
    /// # Errors
    ///
    /// [`ShmError::OutOfMemory`] when the arena cannot hold `n_sems`
    /// cache-line-aligned semaphores.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn new_shared(
        cfg: NativeConfig,
        arena: Arc<ShmArena>,
    ) -> Result<(Arc<Self>, ShmSlice<CountingSem>), ShmError> {
        let sems = arena.alloc_slice(cfg.n_sems, |_| CountingSem::new_shared(0))?;
        let os = Self::from_store(&cfg, SemStore::Shared { arena, sems });
        Ok((os, sems))
    }

    /// Builds the backend around semaphores that already live in `arena` —
    /// the attaching side of [`new_shared`](Self::new_shared). `sems` must
    /// be the slice the creator allocated (bounds and alignment are
    /// re-checked against the arena on every access).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn attach_shared(
        cfg: NativeConfig,
        arena: Arc<ShmArena>,
        sems: ShmSlice<CountingSem>,
    ) -> Arc<Self> {
        Self::from_store(&cfg, SemStore::Shared { arena, sems })
    }

    /// A per-thread view implementing [`OsServices`]. One thread per
    /// `task_id`: the id names the task's metrics sink, which has a single
    /// writer (handles for the same id share it; debug builds panic when
    /// a second thread records through one).
    pub fn task(self: &Arc<Self>, task_id: u32) -> NativeTask {
        NativeTask {
            metrics: self.metrics.as_ref().map(|r| r.for_task(task_id)),
            trace: self.flight.get().and_then(|r| r.ring(task_id)),
            os: Arc::clone(self),
            task_id,
        }
    }

    /// Arms the flight recorder, the backend's one way to trace: every task
    /// handle created *after* this call stamps its trace points into the
    /// recorder's ring for its task id (a task id past the recorder's last
    /// ring stays untraced). With a recorder in a shared segment
    /// ([`TelemetryPlane::flight`](crate::TelemetryPlane::flight)), a reader
    /// in another process can recover a task's final events even after the
    /// writer is SIGKILLed. Returns `false` (and changes nothing) if a
    /// recorder was already armed.
    ///
    /// Arming is create-time only by design: the hot path sees a plain
    /// `Option` field, not a `OnceLock` load.
    pub fn arm_flight(&self, recorder: FlightRecorder) -> bool {
        self.flight.set(recorder).is_ok()
    }

    /// The armed flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.get()
    }

    /// Nanoseconds on the shared segment's clock axis when the semaphore
    /// store lives in an arena; `None` for process-private stores.
    fn arena_nanos(&self) -> Option<u64> {
        match &self.sems {
            SemStore::Local(_) => None,
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            SemStore::Shared { arena, .. } => Some(arena.now_nanos()),
        }
    }

    /// Whether `busy_wait` and `poll_pause` actually spin: the configured
    /// `multiprocessor` flag after the clamp against the building thread's
    /// CPU count (see [`NativeConfig::multiprocessor`]).
    pub fn effective_multiprocessor(&self) -> bool {
        self.multiprocessor
    }

    /// The backend's metrics registry (`None` when collection is off).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// One semaphore's handle (diagnostics: count, limit, high-water mark)
    /// — resolved through whichever store backs this instance.
    pub fn sem(&self, sem: u32) -> &CountingSem {
        match &self.sems {
            SemStore::Local(v) => &v[sem as usize],
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            SemStore::Shared { arena, sems } => arena.get(sems.at(sem as usize)),
        }
    }

    /// Number of semaphores in the store.
    pub fn n_sems(&self) -> usize {
        match &self.sems {
            SemStore::Local(v) => v.len(),
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            SemStore::Shared { sems, .. } => sems.len(),
        }
    }

    /// Per-semaphore final-state snapshots, index-aligned with the sim
    /// report's `sems` — the native side of the `max_count` diagnostics
    /// (a BSW reply queue whose high-water mark exceeds 1 is accumulating
    /// stray credits).
    pub fn sem_finals(&self) -> Vec<usipc_sim::SemFinal> {
        (0..self.n_sems())
            .map(|i| self.sem(i as u32).final_state())
            .collect()
    }
}

/// CPUs the calling thread may run on.
fn cpus_allowed() -> usize {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    if let Some(n) = crate::proc::cpus_allowed() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Nominal cost of one `spin_loop` hint (x86 `PAUSE`: 3–45 ns across parts).
const HINT_NANOS: u64 = 10;

/// Nominal pause after `attempt` earlier ones in the same wait: one hint —
/// the cheapest pause the CPU has; the polled word is written only by the
/// awaited peer, so a longer first step saves no traffic and only delays
/// seeing the write — doubling every other attempt, [`PAUSE_NANOS`] from
/// attempt 24 on. A reply that lands after *t* is seen within ≈ 2*t*, and
/// `MAX_SPIN` = 50 still spans ≈ 0.73 ms (26 capped pauses) before BSLS
/// blocks.
fn poll_pause_nanos(attempt: u32) -> u64 {
    (HINT_NANOS << (attempt / 2).min(16)).min(PAUSE_NANOS)
}

/// One round trip in this many is timed ([`OsServices::latency_sample_period`]).
/// Prime, so the sample cannot lock onto a power-of-two cycle in the caller
/// (the mux sweeps 64 messages at a time).
const LATENCY_SAMPLE_PERIOD: u32 = 61;

/// Nanoseconds since a process-wide epoch (first use). Monotonic, shared
/// by every task so latency windows from different threads compare.
fn host_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's handle onto [`NativeOs`].
#[derive(Debug, Clone)]
pub struct NativeTask {
    os: Arc<NativeOs>,
    task_id: u32,
    metrics: Option<Arc<EndpointMetrics>>,
    trace: Option<TraceRing>,
}

// The protocols are generic over `OsServices`, so they are monomorphized
// in the caller's crate; there a hook without `#[inline]` is an opaque call
// on every counted event. So `charge` and the two hooks `record` calls,
// `metrics` and `trace`, are `#[inline]`, and `trace` inlines only its test.
impl NativeTask {
    /// Every `P` of the backend ([`CountingSem::acquire`]).
    /// `SemP` keeps the paper's protocol-level syscall accounting;
    /// `SemKernelWait` counts actual kernel entries (none: credit banked).
    fn p(&self, sem: u32, timeout: Option<Duration>, learn: bool) -> bool {
        self.record(ProtoEvent::SemP);
        let (taken, entered) = self.os.sem(sem).acquire(timeout, learn);
        for _ in 0..entered {
            self.record(ProtoEvent::SemKernelWait);
        }
        if !taken {
            self.record(ProtoEvent::TimedOut);
        }
        taken
    }
}

impl OsServices for NativeTask {
    fn yield_now(&self) {
        self.record(ProtoEvent::Yield);
        std::thread::yield_now();
    }

    fn busy_wait(&self) {
        self.record(ProtoEvent::SpinIteration);
        if self.os.multiprocessor {
            self.compute(PAUSE_NANOS);
        } else {
            std::thread::yield_now();
        }
    }

    fn poll_pause(&self, attempt: u32) {
        let nanos = poll_pause_nanos(attempt);
        if self.os.multiprocessor && nanos < PAUSE_NANOS {
            // Counted hints, no clock: a read costs more than the first steps.
            self.record(ProtoEvent::SpinIteration);
            for _ in 0..nanos / HINT_NANOS {
                core::hint::spin_loop();
            }
        } else {
            self.busy_wait(); // the capped pause, or the uniprocessor yield
        }
    }

    fn sem_p(&self, sem: u32) {
        self.p(sem, None, false);
    }

    fn sem_p_deadline(&self, sem: u32, timeout: Duration) -> bool {
        self.p(sem, Some(timeout), false)
    }

    fn sem_p_learning(&self, sem: u32, timeout: Option<Duration>) -> bool {
        self.p(sem, timeout, self.os.spins)
    }

    #[inline]
    fn wake_latency_nanos(&self, sem: u32) -> u64 {
        if self.os.spins {
            self.os.sem(sem).wake_estimate_nanos()
        } else {
            0
        }
    }

    fn sem_v(&self, sem: u32) {
        self.record(ProtoEvent::SemV);
        match self.os.sem(sem).try_v_counted() {
            Ok(true) => self.record(ProtoEvent::SemKernelWake),
            Ok(false) => {}
            Err(limit) => panic!("semaphore overflow: credit limit {limit} exceeded"),
        }
    }

    fn sleep_full(&self) {
        self.record(ProtoEvent::QueueFullBackoff);
        std::thread::sleep(self.os.full_backoff);
    }

    #[inline]
    fn charge(&self, c: Cost) {
        // Real hardware pays the cost in the operation itself, so `charge`
        // carries no time here — but it is the one place every protocol
        // already reports its user-level operations, so it doubles as the
        // event sink for them.
        self.record(match c {
            Cost::QueueOp => ProtoEvent::QueueOp,
            Cost::Tas => ProtoEvent::TasOp,
            Cost::Request => ProtoEvent::RequestServed,
            Cost::Poll => ProtoEvent::PollCheck,
        });
    }

    fn handoff(&self, _h: HandoffHint) {
        // No host support for directed yield: degrade to sched_yield, which
        // is exactly the portability situation the paper laments in §6.
        self.record(ProtoEvent::Handoff);
        std::thread::yield_now();
    }

    fn msgsnd(&self, q: u32, m: [u64; 4]) {
        self.os.msgqs[q as usize].send(m);
    }

    fn msgrcv(&self, q: u32) -> [u64; 4] {
        self.os.msgqs[q as usize].recv()
    }

    fn compute(&self, nanos: u64) {
        // Only the order of magnitude matters. On hosts without a vDSO
        // `Instant::now()` is itself a syscall, so the clock is read once
        // per batch of spin hints rather than every iteration.
        const SPIN_BATCH: u32 = 64;
        let start = std::time::Instant::now();
        let d = Duration::from_nanos(nanos);
        while start.elapsed() < d {
            for _ in 0..SPIN_BATCH {
                core::hint::spin_loop();
            }
        }
    }

    fn task_id(&self) -> u32 {
        self.task_id
    }

    #[inline]
    fn metrics(&self) -> Option<&EndpointMetrics> {
        self.metrics.as_deref()
    }

    #[inline]
    fn trace(&self, p: TracePoint) {
        if let Some(ring) = &self.trace {
            self.stamp(ring, p);
        }
    }

    fn latency_sample_period(&self) -> u32 {
        LATENCY_SAMPLE_PERIOD
    }

    fn now_nanos(&self) -> Option<u64> {
        // With a shared semaphore store the segment's clock epoch is the
        // time origin, so two processes attached to one arena stamp
        // comparable timestamps; process-private stores keep the local
        // epoch (nothing outside this process will read them).
        Some(self.os.arena_nanos().unwrap_or_else(host_nanos))
    }
}

impl NativeTask {
    /// [`OsServices::trace`]'s body, out of line: stamps `p` into the
    /// task's ring.
    #[cold]
    #[inline(never)]
    fn stamp(&self, ring: &TraceRing, p: TracePoint) {
        ring.record(self.now_nanos().unwrap_or(0), p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sem_cross_thread() {
        let s = Arc::new(CountingSem::new(0));
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || {
            s2.p(); // blocks until main Vs
            s2.p();
        });
        s.v();
        s.v();
        t.join().unwrap();
    }

    #[test]
    fn uncontended_sem_ops_record_zero_kernel_entries() {
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let t = os.task(1);
        t.sem_v(1); // no sleeper: no kernel wake
        t.sem_p(1); // banked credit: no kernel wait
        let s = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(s.sem_p, 1, "protocol-level accounting unchanged");
        assert_eq!(s.sem_v, 1);
        assert_eq!(s.sem_kernel_waits, 0, "P took the user-space fast path");
        assert_eq!(s.sem_kernel_wakes, 0, "V saw no sleeper");
        assert_eq!(os.sem(1).kernel_waits(), 0);
        assert_eq!(os.sem(1).kernel_wakes(), 0);
    }

    #[test]
    fn contended_sem_ops_record_their_kernel_entries() {
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let sleeper = {
            let t = os.task(1);
            std::thread::spawn(move || t.sem_p(1))
        };
        // Only V once the P caller is registered, so the wake path is
        // actually taken; then give it ample time to pass its final
        // user-space retry and truly commit to the kernel sleep
        // (registration precedes the sleep by a few instructions).
        while os.sem(1).waiting() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(50));
        os.task(0).sem_v(1);
        sleeper.join().unwrap();
        let reg = os.metrics().unwrap();
        assert_eq!(reg.task_snapshot(0).sem_kernel_wakes, 1);
        // The sleeper may or may not have hit its EAGAIN window more than
        // once, but it entered the kernel at least once.
        assert!(reg.task_snapshot(1).sem_kernel_waits >= 1);
    }

    #[test]
    fn multiprocessor_clamped_to_available_cores() {
        // More runnable tasks than any host has cores: spinning must
        // degrade to yielding no matter what the config claims.
        let cores = cpus_allowed();
        let mut cfg = NativeConfig::for_clients(4 * cores);
        cfg.multiprocessor = true;
        assert!(!NativeOs::new(cfg).effective_multiprocessor());
        // A single task always fits.
        let mut cfg = NativeConfig::for_clients(0);
        cfg.multiprocessor = true;
        assert!(NativeOs::new(cfg).effective_multiprocessor());
    }

    #[test]
    fn poll_schedule_ramps_to_the_papers_pause_and_keeps_the_budget() {
        let steps: Vec<u64> = (0..50).map(poll_pause_nanos).collect();
        assert!(steps.windows(2).all(|w| w[0] <= w[1]), "{steps:?}");
        assert_eq!(steps[0], HINT_NANOS, "first step is one spin_loop hint");
        assert_eq!(steps[49], PAUSE_NANOS);
        assert_eq!(poll_pause_nanos(u32::MAX), PAUSE_NANOS, "capped for good");
        // MAX_SPIN = 50 keeps roughly the 50 × 25 µs it always bought.
        let budget: u64 = steps.iter().sum();
        assert!((500_000..=1_250_000).contains(&budget), "{budget} ns");
    }

    #[test]
    fn native_os_surfaces_sem_finals() {
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let t = os.task(1);
        t.sem_v(1);
        t.sem_v(1);
        t.sem_p(1);
        let finals = os.sem_finals();
        assert_eq!(finals.len(), 2);
        assert_eq!(finals[1].count, 1);
        assert_eq!(finals[1].max_count, 2);
        assert_eq!(os.sem(1).max_count(), 2);
    }

    #[test]
    fn native_msgq_blocking_roundtrip() {
        let req = Arc::new(NativeMsgq::new(2));
        let rsp = Arc::new(NativeMsgq::new(2));
        let (req2, rsp2) = (Arc::clone(&req), Arc::clone(&rsp));
        let t = std::thread::spawn(move || {
            let m = req2.recv();
            rsp2.send([m[0] + 1, 0, 0, 0]);
        });
        req.send([41, 0, 0, 0]);
        assert_eq!(rsp.recv()[0], 42);
        t.join().unwrap();
    }

    #[test]
    fn msgq_capacity_blocks_until_drained() {
        let q = Arc::new(NativeMsgq::new(1));
        let q2 = Arc::clone(&q);
        q.send([1, 0, 0, 0]);
        let t = std::thread::spawn(move || {
            q2.send([2, 0, 0, 0]); // blocks until main drains
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(q.recv()[0], 1);
        assert_eq!(q.recv()[0], 2);
        t.join().unwrap();
    }

    #[test]
    fn os_services_surface_works() {
        let os = NativeOs::new(NativeConfig {
            n_sems: 2,
            n_msgqs: 1,
            msgq_capacity: 4,
            multiprocessor: false,
            full_backoff: Duration::from_millis(1),
            collect_metrics: false,
        });
        let t = os.task(7);
        assert_eq!(t.task_id(), 7);
        assert!(t.metrics().is_none(), "collection disabled");
        t.charge(Cost::QueueOp);
        t.yield_now();
        t.sem_v(1);
        t.sem_p(1);
        t.msgsnd(0, [5, 0, 0, 0]);
        assert_eq!(t.msgrcv(0)[0], 5);
        t.handoff(HandoffHint::Any);
    }

    #[test]
    fn native_task_counts_syscall_events() {
        let os = NativeOs::new(NativeConfig::for_clients(1));
        let t = os.task(1);
        t.sem_v(1);
        t.sem_p(1);
        t.yield_now();
        t.handoff(HandoffHint::Peer(0));
        t.charge(Cost::QueueOp);
        t.charge(Cost::Tas);
        let s = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(s.sem_p, 1);
        assert_eq!(s.sem_v, 1);
        assert_eq!(s.yields, 1);
        assert_eq!(s.handoffs, 1);
        assert_eq!(s.queue_ops, 1);
        assert_eq!(s.tas_ops, 1);
        // Another task's counters are independent.
        assert_eq!(os.metrics().unwrap().task_snapshot(0), Default::default());
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn shared_store_stamps_on_the_segment_clock_axis() {
        let arena = Arc::new(ShmArena::new(1 << 16).unwrap());
        let (os, _sems) =
            NativeOs::new_shared(NativeConfig::for_clients(1), arena.clone()).unwrap();
        let t = os.task(0);
        let host = host_nanos();
        let a = t.now_nanos().unwrap();
        let b = t.now_nanos().unwrap();
        assert!(b >= a, "segment clock went backwards");
        // The segment axis starts at the arena's creation, so its readings
        // sit far below the raw host monotonic clock (which the process
        // epoch also shrinks, but independently) — the point is simply
        // that we are *not* on the host_nanos axis when shared.
        assert!(a <= arena.now_nanos().max(host));
        assert_eq!(
            t.now_nanos().unwrap() / 1_000_000_000,
            arena.now_nanos() / 1_000_000_000,
            "shared-mode timestamps must come from the arena epoch"
        );
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn an_armed_recorder_takes_every_trace_point_and_arms_once() {
        use crate::telemetry::TelemetryPlane;
        use crate::trace::Span;

        let arena = Arc::new(ShmArena::new(1 << 18).unwrap());
        let (os, _sems) =
            NativeOs::new_shared(NativeConfig::for_clients(1), arena.clone()).unwrap();
        let plane = TelemetryPlane::create_in(&arena, 2, 2, 32).unwrap();
        let recorder = plane.flight().unwrap();
        assert!(os.arm_flight(recorder.clone()));
        assert!(!os.arm_flight(recorder.clone()), "second arming is a no-op");

        // A task created after arming stamps every trace point there.
        let t = os.task(1);
        t.trace(TracePoint::Begin(Span::RoundTrip));
        t.record(ProtoEvent::SemP);
        t.trace(TracePoint::End(Span::RoundTrip));

        let trace = recorder.collect(&[(1, "client".into())]);
        let recs = trace.task_records(1);
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[0].point, TracePoint::Begin(Span::RoundTrip)));
        assert!(matches!(recs[1].point, TracePoint::Proto(ProtoEvent::SemP)));
        assert!(recs.windows(2).all(|w| w[0].ts_nanos <= w[1].ts_nanos));
    }

    #[test]
    fn host_nanos_is_monotone() {
        let os = NativeOs::new(NativeConfig::for_clients(0));
        let t = os.task(0);
        let a = t.now_nanos().unwrap();
        let b = t.now_nanos().unwrap();
        assert!(b >= a);
    }
}
