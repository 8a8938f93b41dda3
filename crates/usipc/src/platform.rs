//! The operating-system services abstraction the protocols are written
//! against.
//!
//! The paper stresses that its facility "employs only widely available
//! operating system mechanisms": `yield`, counting semaphores, `sleep`, and
//! (for the baseline) System V message queues. [`OsServices`] captures
//! exactly that surface, so a single implementation of each protocol runs
//! unchanged on
//!
//! * [`NativeOs`](crate::NativeOs) — real threads on the host, and
//! * [`SimOs`](crate::SimOs) — processes on the
//!   [`usipc-sim`](usipc_sim) scheduler simulator, where the figures are
//!   regenerated.
//!
//! Identifier conventions (shared by both backends and by the channel
//! constructor): semaphore `0` belongs to the server's receive queue and
//! semaphore `1 + c` to client `c`'s reply queue; kernel message queue `0`
//! is the SysV request queue and `1 + c` client `c`'s SysV reply queue.
//!
//! Every backend can optionally carry a per-task
//! [`EndpointMetrics`](crate::metrics::EndpointMetrics) sink; the shared
//! [`OsServices::record`] default forwards protocol events to it, so
//! protocol code calls `os.record(..)` unconditionally and pays only an
//! `Option` discriminant test when metrics are disabled.

use crate::metrics::{EndpointMetrics, ProtoEvent};
use crate::trace::TracePoint;

/// Cost classes protocols charge to virtual time (no-ops on real hardware,
/// where the operation itself takes the time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cost {
    /// One user-level enqueue or dequeue on the shared queue.
    QueueOp,
    /// One test-and-set on an `awake` flag.
    Tas,
    /// Server-side processing of one request.
    Request,
    /// One `empty(Q)` check in the BSLS spin loop.
    Poll,
}

/// Target hint for the proposed `handoff` call (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffHint {
    /// Hand off to a specific peer (platform task number).
    Peer(u32),
    /// `PID_SELF`: plain yield semantics.
    SelfHint,
    /// `PID_ANY`: let anyone else run, even lower priority.
    Any,
}

/// The kernel services the protocols rely on.
///
/// Implementations are used from within a single task at a time (`&self`
/// methods, no `Send` bound), which is what lets the simulator backend wrap
/// a per-task [`Sys`](usipc_sim::Sys) handle.
pub trait OsServices {
    /// `sched_yield()`.
    fn yield_now(&self);

    /// The `busy_wait()` of Figs. 1/7: a yield on a uniprocessor (§2.1: "On
    /// uniprocessors `busy_wait` should be implemented as a `yield()` system
    /// call"), one flat delay — §5's 25 µs — on a multiprocessor.
    fn busy_wait(&self);

    /// One pacing step of a poll loop that has paused `attempt` times in
    /// this wait already (`protocol::PollLoop` owns the counter). By default
    /// the flat [`busy_wait`](Self::busy_wait) whatever the attempt (the
    /// simulator); the native multiprocessor backend ramps up to it.
    fn poll_pause(&self, attempt: u32) {
        let _ = attempt;
        self.busy_wait();
    }

    /// Counting-semaphore down on the conventional semaphore index.
    fn sem_p(&self, sem: u32);

    /// Counting-semaphore up on the conventional semaphore index.
    fn sem_v(&self, sem: u32);

    /// Counting-semaphore down with a deadline: blocks for at most
    /// `timeout`, returning `true` iff a credit was taken. On `false`
    /// (expiry) **no credit was consumed** — a `V` racing the deadline
    /// keeps its credit banked (see `FutexSem::p_timeout` /
    /// `Sys::sem_p_timeout` for the per-backend contract).
    ///
    /// The default falls back to the infallible wait and returns `true`,
    /// so wrapper implementations that only forward the classic surface
    /// keep working — at the cost of losing deadline support.
    fn sem_p_deadline(&self, sem: u32, timeout: core::time::Duration) -> bool {
        let _ = timeout;
        self.sem_p(sem);
        true
    }

    /// The queue-full back-off (`sleep(1)` in the paper).
    fn sleep_full(&self);

    /// Charge `c` to virtual time (no-op on real hardware).
    fn charge(&self, c: Cost);

    /// The proposed hand-off call; platforms without it degrade to yield.
    fn handoff(&self, h: HandoffHint);

    /// Kernel `msgsnd` on the conventional queue index (SysV baseline).
    fn msgsnd(&self, q: u32, m: [u64; 4]);

    /// Kernel `msgrcv` on the conventional queue index (SysV baseline).
    fn msgrcv(&self, q: u32) -> [u64; 4];

    /// Consume `nanos` of CPU performing application work (used by
    /// workload handlers to model variable service times; a no-op charge on
    /// the simulator, a calibrated spin on real hardware).
    fn compute(&self, nanos: u64) {
        let _ = nanos;
    }

    /// This task's platform task number (used as a handoff target by
    /// peers; `u32::MAX` when unknown).
    fn task_id(&self) -> u32;

    /// This task's metrics sink, if collection is enabled (`None` by
    /// default: recording folds to one branch).
    fn metrics(&self) -> Option<&EndpointMetrics> {
        None
    }

    /// Records a protocol event on this task's sink (no-op when metrics
    /// are disabled) and stamps it into the trace ring when tracing is
    /// enabled.
    #[inline]
    fn record(&self, e: ProtoEvent) {
        if let Some(m) = self.metrics() {
            m.record(e);
        }
        self.trace(TracePoint::Proto(e));
    }

    /// Stamps a trace point into this task's rings — a no-op by default and
    /// whenever the backend has none attached, so tracing folds to one
    /// `Option` discriminant branch. The timestamp is read only when a ring
    /// takes the record: host time on native, *virtual* time on the
    /// simulator, where the time request is absorbed inline at zero virtual
    /// cost so tracing cannot perturb the schedule.
    #[inline]
    fn trace(&self, p: TracePoint) {
        let _ = p;
    }

    /// Monotonic timestamp in nanoseconds for round-trip latency
    /// measurement: host time on native, *virtual* time on the simulator.
    /// `None` when the backend cannot provide one.
    fn now_nanos(&self) -> Option<u64> {
        None
    }

    /// One client round trip in this many is timed into the latency
    /// sketch. 1 by default (the simulator: virtual time is free to
    /// read); the native backend samples, because a host clock pair is a
    /// tenth of its shortest round trip.
    fn latency_sample_period(&self) -> u32 {
        1
    }
}

/// Semaphore index of the server receive queue.
pub fn server_sem() -> u32 {
    0
}

/// Semaphore index of client `c`'s reply queue.
pub fn client_sem(c: u32) -> u32 {
    1 + c
}

/// Kernel message-queue index of the SysV request queue.
pub fn sysv_request_q() -> u32 {
    0
}

/// Kernel message-queue index of client `c`'s SysV reply queue.
pub fn sysv_reply_q(c: u32) -> u32 {
    1 + c
}
