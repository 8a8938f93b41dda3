//! Protocol-event metrics: single-writer per-endpoint counters and
//! round-trip latency sketches.
//!
//! The paper's entire argument is an *accounting* argument — BSW loses
//! because it pays "four system calls per round trip" (Fig. 6, Table 1),
//! BSLS wins because a well-chosen `MAX_SPIN` makes clients block only ~3 %
//! of the time (Fig. 10). This module makes that accounting live
//! instrumentation instead of hand-counting: every protocol-visible event
//! (queue ops, semaphore calls, yields, spins, blocks, stray wake-ups,
//! hand-offs) increments a counter on the endpoint's [`EndpointMetrics`],
//! and synchronous round trips feed a log-linear [`LatencySketch`] —
//! every one on the simulator, where reading virtual time is free; on the
//! native backend a sink's first and then one in
//! [`latency_sample_period`](crate::platform::OsServices::latency_sample_period),
//! because a host clock pair is a tenth of the shortest round trip. The
//! native sketch therefore holds *samples*: its quantiles and mean
//! estimate the round trip, its `count` is not a round-trip count (the
//! counters are). The same sketch type sits in every telemetry slot
//! ([`TelemetrySlot`](crate::telemetry::TelemetrySlot)), so a latency reads
//! the same, within [`SKETCH_MAX_RELATIVE_ERROR`], wherever it was recorded.
//!
//! ## The single-writer contract
//!
//! A sink belongs to one *task*, and a task is one thread: **only one
//! thread ever records into a given [`EndpointMetrics`] or
//! [`LatencySketch`]**. Any number of threads may read it (snapshots,
//! registry aggregation) at any time. That is what lets recording be a
//! `Relaxed` load followed by a `Relaxed` store — a plain `add` to memory,
//! no `lock` prefix — instead of a `fetch_add`: with one writer no
//! increment can be lost, and because each counter is one aligned atomic
//! word a concurrent reader sees some value the writer actually stored,
//! never a torn one, so successive snapshots of a live sink never go
//! backwards. Two threads recording into one sink *would* lose counts
//! silently; debug builds therefore remember the first recording thread
//! and panic when a second one shows up, so a shared task id fails the
//! test suite instead of skewing a budget.
//!
//! Cost model: recording one event is that unlocked load + add + store;
//! when metrics are disabled the sink is `None` and the entire path folds
//! to a branch on an `Option` discriminant. Counters are per-*task*, so
//! there is no cross-thread cache-line ping-pong on the hot path.
//!
//! The cheap read side is [`MetricsSnapshot`]: a plain-`u64` copy of the
//! counters at an instant, with [`MetricsSnapshot::diff`] for windowed
//! accounting (e.g. "system calls per round trip over this barrage" =
//! `end.diff(start).sem_ops() / messages`).

use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use usipc_shm::ShmSafe;

/// A protocol-visible event, recorded through
/// [`OsServices::record`](crate::platform::OsServices::record).
///
/// The first four mirror the [`Cost`](crate::platform::Cost) classes the
/// protocols already charge to virtual time; the rest are the sleep/wake-up
/// events the paper's analysis counts by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProtoEvent {
    /// One user-level enqueue or dequeue *attempt* (`Cost::QueueOp`).
    QueueOp,
    /// One test-and-set (or store) on an `awake` flag (`Cost::Tas`).
    TasOp,
    /// One paced `empty(Q)` check in a limited-spin loop (`Cost::Poll`); a
    /// pause's uncharged look at its queue after every hint is not counted.
    PollCheck,
    /// One request processed by a server loop (`Cost::Request`).
    RequestServed,
    /// A successful enqueue onto a shared queue.
    Enqueue,
    /// A successful dequeue from a shared queue.
    Dequeue,
    /// A counting-semaphore `P` system call.
    SemP,
    /// A counting-semaphore `V` system call.
    SemV,
    /// A `sched_yield` system call.
    Yield,
    /// A `handoff` system call (or its yield fallback).
    Handoff,
    /// One `busy_wait`/`poll_queue` pacing step (a yield on uniprocessors,
    /// on multiprocessors a spin of ≤ ~25 µs that its awaited queue ends).
    SpinIteration,
    /// A queue-full back-off (`sleep(1)` in the paper).
    QueueFullBackoff,
    /// The consumer committed to sleep: the `P` on the empty re-check of
    /// the Fig. 5/7/9 wait loop. `blocks_entered / dequeues` is the
    /// fall-through rate of §4.2 (Fig. 10's "blocked only 3 % of the
    /// time").
    BlockEntered,
    /// A stray wake-up absorbed by the `tas`-guarded `P` (interleaving 3
    /// of Fig. 4 — the credit that overflowed the authors' first version).
    StrayWakeupAbsorbed,
    /// A request dropped because its client-supplied `channel` named no
    /// reply queue. Shared memory is a trust boundary: a buggy or hostile
    /// client must not be able to crash the server.
    MalformedRequest,
    /// An *actual* host-kernel sleep inside a semaphore `P` (a `futex_wait`
    /// on the native futex path; a condvar wait on the portable fallback).
    /// Zero on an uncontended `P`: the credit was taken entirely in user
    /// space. Distinct from [`ProtoEvent::SemP`], which keeps the paper's
    /// protocol-level "system calls per round trip" accounting; only the
    /// native backend emits this.
    SemKernelWait,
    /// An *actual* host-kernel wake inside a semaphore `V` (`futex_wake` /
    /// condvar notify with a sleeper registered). Zero on an uncontended
    /// `V`. Native backend only; see [`ProtoEvent::SemKernelWait`].
    SemKernelWake,
    /// A deadline-aware wait expired without taking a credit (a
    /// `sem_p_deadline` that returned `false`). The fault layer's
    /// first-line detection signal.
    TimedOut,
    /// A fault-injection plan fired (task killed, wake-up dropped, or
    /// delay inserted) — emitted by the harness, never by real protocols.
    FaultInjected,
    /// A survivor detected its peer dead (liveness word flipped, or a
    /// deadline expired against a dead peer).
    PeerDeathDetected,
    /// A channel queue was poisoned (sticky one-way flag set, waiters
    /// broadcast-woken, in-flight slots drained).
    ChannelPoisoned,
    /// A producer's `V` rang a WaitSet doorbell: the source made a
    /// quiescent→ready edge *and* won the `pending` latch, so a real
    /// semaphore `V` was issued. `doorbells_rung / waitset_wakes` is the
    /// doorbell budget the WaitSet design pins at ≤ 1 (+1 for the last
    /// un-consumed credit).
    DoorbellRung,
    /// A producer's notification was absorbed without a semaphore `V`:
    /// either its source was already ready (level held high) or another
    /// producer already rang the doorbell for this wake cycle. The
    /// coalescing win of the edge-triggered design.
    DoorbellCoalesced,
    /// A WaitSet waiter's doorbell `P` completed (one server wake-up
    /// serving any number of ready sources). The denominator of the
    /// doorbell budget.
    WaitSetWake,
    /// A queued message (and the queue node holding it) became
    /// permanently unreachable while draining a poisoned two-lock queue:
    /// the drain stopped at a head lock a dead process abandoned, and
    /// everything still queued behind it is stranded — one event per
    /// stranded message. Segment attrition, surfaced so `usipc-top` shows
    /// it instead of hiding it. The ring cannot strand anything: a dead
    /// producer's hole is retired ([`ProtoEvent::HoleRetired`]) and its
    /// slot reused.
    SlotLeaked,
    /// A `call_retry` attempt was (re)issued after a timeout: the bounded
    /// jittered-backoff layer went around once more. First attempts are
    /// not counted — this measures *extra* work caused by loss/slowness.
    RetryAttempted,
    /// A `call_retry` ran out of attempts and surfaced
    /// [`RetriesExhausted`](crate::IpcError::RetriesExhausted).
    RetryExhausted,
    /// One repair performed by an arena fsck pass (lock broken, tail or
    /// count rewritten, node reclaimed, waitset word rebuilt, …). Zero on
    /// a clean segment — the idempotence property, live.
    FsckRepair,
    /// A stray semaphore credit absorbed by the fsck credit-conservation
    /// audit (a wakeup a corpse posted, or was posted to the corpse, that
    /// no live waiter should ever consume).
    CreditAbsorbed,
    /// A ring hole (or stranded sub-cursor slot) retired by recovery —
    /// fsck's hole audit or the live `reclaim_stuck` path of a
    /// poisoned-queue drain.
    HoleRetired,
    /// A reply the server had computed was not delivered: its queue stayed
    /// full past the server's bound, named no client, or belongs to a
    /// client that is dead or poisoned. Every processed request ends in
    /// exactly one of a reply enqueue or this event, so replies are never
    /// lost silently.
    ReplyDropped,
}

/// Number of distinct [`ProtoEvent`] kinds.
pub const N_EVENTS: usize = 31;

impl ProtoEvent {
    /// Every event kind, in discriminant order (`ALL[e as usize] == e`).
    pub const ALL: [ProtoEvent; N_EVENTS] = [
        ProtoEvent::QueueOp,
        ProtoEvent::TasOp,
        ProtoEvent::PollCheck,
        ProtoEvent::RequestServed,
        ProtoEvent::Enqueue,
        ProtoEvent::Dequeue,
        ProtoEvent::SemP,
        ProtoEvent::SemV,
        ProtoEvent::Yield,
        ProtoEvent::Handoff,
        ProtoEvent::SpinIteration,
        ProtoEvent::QueueFullBackoff,
        ProtoEvent::BlockEntered,
        ProtoEvent::StrayWakeupAbsorbed,
        ProtoEvent::MalformedRequest,
        // New kinds append at the end: the trace codec and the telemetry
        // slots encode events by index. A kind may still be *removed* (the
        // work-stealing counter was, at index 24): no binary trace or
        // telemetry slot outlives the segment it was recorded in, and the
        // JSON exports carry labels, not indices.
        ProtoEvent::SemKernelWait,
        ProtoEvent::SemKernelWake,
        ProtoEvent::TimedOut,
        ProtoEvent::FaultInjected,
        ProtoEvent::PeerDeathDetected,
        ProtoEvent::ChannelPoisoned,
        ProtoEvent::DoorbellRung,
        ProtoEvent::DoorbellCoalesced,
        ProtoEvent::WaitSetWake,
        ProtoEvent::SlotLeaked,
        ProtoEvent::RetryAttempted,
        ProtoEvent::RetryExhausted,
        ProtoEvent::FsckRepair,
        ProtoEvent::CreditAbsorbed,
        ProtoEvent::HoleRetired,
        ProtoEvent::ReplyDropped,
    ];

    /// Inverse of `e as usize` (used by the trace codec); `None` when `i`
    /// names no event.
    pub fn from_index(i: usize) -> Option<ProtoEvent> {
        Self::ALL.get(i).copied()
    }

    /// Whether this event is a scheduler-visible kernel crossing (the
    /// currency of [`MetricsSnapshot::kernel_crossings`]).
    ///
    /// Deliberately counts the *protocol-level* crossings (`SemP`/`SemV`
    /// model the paper's `semop` calls) and not `SemKernelWait`/`Wake`:
    /// those measure how often the futex implementation actually entered
    /// the host kernel, a property of the semaphore, not the protocol.
    pub fn is_kernel_crossing(self) -> bool {
        matches!(
            self,
            ProtoEvent::SemP
                | ProtoEvent::SemV
                | ProtoEvent::Yield
                | ProtoEvent::Handoff
                | ProtoEvent::QueueFullBackoff
        )
    }
}

const EVENTS: [ProtoEvent; N_EVENTS] = ProtoEvent::ALL;

/// `counter += by` for a counter with a single writer: no `lock` prefix,
/// and readers still only ever observe values the writer stored.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

/// Debug-build enforcement of the single-writer contract (module docs):
/// the first thread to record claims the sink, any other recording thread
/// panics. Compiles to nothing in release builds.
#[derive(Debug, Default)]
struct WriterCheck {
    #[cfg(debug_assertions)]
    owner: AtomicU64,
}

impl WriterCheck {
    #[inline]
    fn assert_sole_writer(&self) {
        #[cfg(debug_assertions)]
        {
            static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
            thread_local! {
                static TOKEN: u64 = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            }
            let me = TOKEN.with(|t| *t);
            // Unclaimed (0): the first recorder wins; anyone else sees the
            // winner's token and fails the assertion.
            let owner = self
                .owner
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                .map_or_else(|winner| winner, |_| me);
            assert_eq!(
                owner, me,
                "single-writer metrics sink recorded into by two threads \
                 (is a task id shared between threads?)"
            );
        }
    }
}

/// Event counters and a latency sketch for one endpoint (task).
/// **Single-writer** (see the module docs): one thread records, any
/// thread reads; reads produce a [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    counters: [AtomicU64; N_EVENTS],
    latency: LatencySketch,
    /// Round trips to let pass before the next one is timed (0 on a fresh
    /// sink: its first is).
    sample_skip: AtomicU64,
    writer: WriterCheck,
}

impl EndpointMetrics {
    /// A fresh all-zero sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event (an unlocked `Relaxed` load + store). Only the
    /// sink's one writer thread may call this.
    #[inline]
    pub fn record(&self, e: ProtoEvent) {
        self.writer.assert_sole_writer();
        bump(&self.counters[e as usize], 1);
    }

    /// Whether the round trip now starting is the one in `period` to time:
    /// a sink's first, then every `period`-th after it. Single-writer like
    /// `record`, so the countdown is a load + store, not an RMW.
    #[inline]
    pub(crate) fn latency_sample_due(&self, period: u32) -> bool {
        self.writer.assert_sole_writer();
        let skip = self.sample_skip.load(Ordering::Relaxed);
        let due = skip == 0;
        let next = if due {
            u64::from(period).saturating_sub(1)
        } else {
            skip - 1
        };
        self.sample_skip.store(next, Ordering::Relaxed);
        due
    }

    /// Records the latency of a timed round trip (writer thread only).
    #[inline]
    pub fn record_latency_nanos(&self, nanos: u64) {
        self.writer.assert_sole_writer();
        self.latency.record(nanos);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for &e in &EVENTS {
            *s.field_mut(e) = self.counters[e as usize].load(Ordering::Relaxed);
        }
        s
    }

    /// Point-in-time copy of the latency sketch.
    pub fn latency_snapshot(&self) -> SketchSnapshot {
        self.latency.snapshot()
    }
}

/// Number of log₂ major buckets in the latency sketch: major `m` holds
/// `[2^m, 2^(m+1))` ns, and major 33 absorbs everything ≥ ~8.6 s.
pub const SKETCH_MAJORS: usize = 34;
/// Linear sub-buckets per major: 2 extra mantissa bits of resolution.
pub const SKETCH_MINORS: usize = 4;
/// Total monotone counters in one sketch.
pub const N_SKETCH_CELLS: usize = SKETCH_MAJORS * SKETCH_MINORS;

/// The sketch's worst-case relative quantile error: a cell spans
/// `[2^(m-2)·(4+k), 2^(m-2)·(5+k))`, the widest being `k = 0` with ratio
/// 5/4, and estimates are geometric cell midpoints, so an estimate is
/// within a factor `√(5/4) ≈ 1.118` of the true sample — under 12 %
/// (against √2 ≈ 41 % for a plain log₂ histogram).
pub const SKETCH_MAX_RELATIVE_ERROR: f64 = 0.1181;

/// Cell index of a nanosecond sample: which quarter of its log₂ bucket
/// `[2^m, 2^(m+1))` the sample falls in. Samples at or above `2^33` ns
/// collapse into the top major's cells.
fn sketch_cell(nanos: u64) -> usize {
    let n = nanos.max(1);
    let major = (63 - n.leading_zeros() as usize).min(SKETCH_MAJORS - 1);
    let off = n - (1u64 << major);
    // minor = floor((n − 2^m) · 4 / 2^m), i.e. the quarter index — computed
    // by shift so the low majors (where the quarter is fractional) still
    // resolve, and clamped so the collapsed top major stays in range.
    let minor = if major >= 2 {
        (off >> (major - 2)).min(3) as usize
    } else {
        ((off << (2 - major)).min(3)) as usize
    };
    major * SKETCH_MINORS + minor
}

/// `[lo, hi)` nanosecond bounds of cell `i` (fractional for majors < 2,
/// where a quarter of the bucket is narrower than 1 ns).
fn sketch_bounds(i: usize) -> (f64, f64) {
    let (major, minor) = (i / SKETCH_MINORS, (i % SKETCH_MINORS) as f64);
    let base = (1u64 << major) as f64;
    (base * (4.0 + minor) / 4.0, base * (5.0 + minor) / 4.0)
}

/// A log-linear streaming sketch of nanosecond samples, `repr(C)` so it
/// can live in a shared segment (one per telemetry slot) as well as on
/// the heap (one per [`EndpointMetrics`]). **Single-writer** like the
/// counters: recording is three unlocked load + store pairs, and a reader
/// on any thread or process sees every word only grow.
#[repr(C)]
#[derive(Debug)]
pub struct LatencySketch {
    count: AtomicU64,
    sum: AtomicU64,
    cells: [AtomicU64; N_SKETCH_CELLS],
}

// SAFETY: repr(C), all-atomic.
unsafe impl ShmSafe for LatencySketch {}

impl Default for LatencySketch {
    fn default() -> Self {
        LatencySketch {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            cells: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencySketch {
    /// Records one sample. Only the sketch's one writer thread may call
    /// this.
    #[inline]
    pub fn record(&self, nanos: u64) {
        bump(&self.cells[sketch_cell(nanos)], 1);
        bump(&self.count, 1);
        bump(&self.sum, nanos);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> SketchSnapshot {
        let mut s = SketchSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum.load(Ordering::Relaxed),
            ..SketchSnapshot::default()
        };
        for (dst, cell) in s.cells.iter_mut().zip(&self.cells) {
            *dst = cell.load(Ordering::Relaxed);
        }
        s
    }
}

/// Plain-`u64` copy of a [`LatencySketch`], with quantile estimation. On
/// the native backend a sink's sketch holds one round trip in
/// [`latency_sample_period`](crate::platform::OsServices::latency_sample_period),
/// so `count` counts samples, not round trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// `cells[i]` counts samples inside cell `i`: quarter `i % 4` of the
    /// log₂ bucket `[2^(i/4), 2^(i/4+1))` ns.
    pub cells: [u64; N_SKETCH_CELLS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples in nanoseconds (for exact means).
    pub sum_nanos: u64,
}

impl Default for SketchSnapshot {
    fn default() -> Self {
        SketchSnapshot {
            cells: [0; N_SKETCH_CELLS],
            count: 0,
            sum_nanos: 0,
        }
    }
}

impl SketchSnapshot {
    /// Exact mean in microseconds (`NaN` when empty).
    pub fn mean_us(&self) -> f64 {
        self.sum_nanos as f64 / 1e3 / self.count as f64
    }

    /// Estimate of the `q`-quantile in microseconds (`NaN` when empty):
    /// the geometric midpoint of the cell containing the quantile sample,
    /// within [`SKETCH_MAX_RELATIVE_ERROR`] of the true sample. Ranks count
    /// the cells themselves, so a reading taken mid-record still resolves.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n: u64 = self.cells.iter().sum();
        if n == 0 {
            return f64::NAN;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.cells.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = sketch_bounds(i);
                return (lo * hi).sqrt() / 1e3;
            }
        }
        f64::NAN
    }

    /// `self - earlier`, cell-wise: the samples of a measurement window
    /// (cells are monotone, so the difference is well defined).
    pub fn diff(&self, earlier: &SketchSnapshot) -> SketchSnapshot {
        let mut out = SketchSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            ..SketchSnapshot::default()
        };
        for (i, dst) in out.cells.iter_mut().enumerate() {
            *dst = self.cells[i].saturating_sub(earlier.cells[i]);
        }
        out
    }

    /// Cell-wise accumulation (merging per-task sketches).
    pub fn merge(mut self, other: &SketchSnapshot) -> SketchSnapshot {
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self
    }
}

/// Point-in-time copy of an endpoint's counters: plain `u64`s, `Copy`,
/// field-per-event. See [`ProtoEvent`] for what each field counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs)]
pub struct MetricsSnapshot {
    pub queue_ops: u64,
    pub tas_ops: u64,
    pub poll_checks: u64,
    pub requests_served: u64,
    pub enqueues: u64,
    pub dequeues: u64,
    pub sem_p: u64,
    pub sem_v: u64,
    pub yields: u64,
    pub handoffs: u64,
    pub spin_iterations: u64,
    pub queue_full_backoffs: u64,
    pub blocks_entered: u64,
    pub stray_wakeups_absorbed: u64,
    pub malformed_requests: u64,
    pub sem_kernel_waits: u64,
    pub sem_kernel_wakes: u64,
    pub timed_out: u64,
    pub faults_injected: u64,
    pub peer_deaths_detected: u64,
    pub channels_poisoned: u64,
    pub doorbells_rung: u64,
    pub doorbells_coalesced: u64,
    pub waitset_wakes: u64,
    pub slots_leaked: u64,
    pub retries_attempted: u64,
    pub retries_exhausted: u64,
    pub fsck_repairs: u64,
    pub credits_absorbed: u64,
    pub holes_retired: u64,
    pub replies_dropped: u64,
}

impl MetricsSnapshot {
    fn field_mut(&mut self, e: ProtoEvent) -> &mut u64 {
        match e {
            ProtoEvent::QueueOp => &mut self.queue_ops,
            ProtoEvent::TasOp => &mut self.tas_ops,
            ProtoEvent::PollCheck => &mut self.poll_checks,
            ProtoEvent::RequestServed => &mut self.requests_served,
            ProtoEvent::Enqueue => &mut self.enqueues,
            ProtoEvent::Dequeue => &mut self.dequeues,
            ProtoEvent::SemP => &mut self.sem_p,
            ProtoEvent::SemV => &mut self.sem_v,
            ProtoEvent::Yield => &mut self.yields,
            ProtoEvent::Handoff => &mut self.handoffs,
            ProtoEvent::SpinIteration => &mut self.spin_iterations,
            ProtoEvent::QueueFullBackoff => &mut self.queue_full_backoffs,
            ProtoEvent::BlockEntered => &mut self.blocks_entered,
            ProtoEvent::StrayWakeupAbsorbed => &mut self.stray_wakeups_absorbed,
            ProtoEvent::MalformedRequest => &mut self.malformed_requests,
            ProtoEvent::SemKernelWait => &mut self.sem_kernel_waits,
            ProtoEvent::SemKernelWake => &mut self.sem_kernel_wakes,
            ProtoEvent::TimedOut => &mut self.timed_out,
            ProtoEvent::FaultInjected => &mut self.faults_injected,
            ProtoEvent::PeerDeathDetected => &mut self.peer_deaths_detected,
            ProtoEvent::ChannelPoisoned => &mut self.channels_poisoned,
            ProtoEvent::DoorbellRung => &mut self.doorbells_rung,
            ProtoEvent::DoorbellCoalesced => &mut self.doorbells_coalesced,
            ProtoEvent::WaitSetWake => &mut self.waitset_wakes,
            ProtoEvent::SlotLeaked => &mut self.slots_leaked,
            ProtoEvent::RetryAttempted => &mut self.retries_attempted,
            ProtoEvent::RetryExhausted => &mut self.retries_exhausted,
            ProtoEvent::FsckRepair => &mut self.fsck_repairs,
            ProtoEvent::CreditAbsorbed => &mut self.credits_absorbed,
            ProtoEvent::HoleRetired => &mut self.holes_retired,
            ProtoEvent::ReplyDropped => &mut self.replies_dropped,
        }
    }

    fn field(&self, e: ProtoEvent) -> u64 {
        match e {
            ProtoEvent::QueueOp => self.queue_ops,
            ProtoEvent::TasOp => self.tas_ops,
            ProtoEvent::PollCheck => self.poll_checks,
            ProtoEvent::RequestServed => self.requests_served,
            ProtoEvent::Enqueue => self.enqueues,
            ProtoEvent::Dequeue => self.dequeues,
            ProtoEvent::SemP => self.sem_p,
            ProtoEvent::SemV => self.sem_v,
            ProtoEvent::Yield => self.yields,
            ProtoEvent::Handoff => self.handoffs,
            ProtoEvent::SpinIteration => self.spin_iterations,
            ProtoEvent::QueueFullBackoff => self.queue_full_backoffs,
            ProtoEvent::BlockEntered => self.blocks_entered,
            ProtoEvent::StrayWakeupAbsorbed => self.stray_wakeups_absorbed,
            ProtoEvent::MalformedRequest => self.malformed_requests,
            ProtoEvent::SemKernelWait => self.sem_kernel_waits,
            ProtoEvent::SemKernelWake => self.sem_kernel_wakes,
            ProtoEvent::TimedOut => self.timed_out,
            ProtoEvent::FaultInjected => self.faults_injected,
            ProtoEvent::PeerDeathDetected => self.peer_deaths_detected,
            ProtoEvent::ChannelPoisoned => self.channels_poisoned,
            ProtoEvent::DoorbellRung => self.doorbells_rung,
            ProtoEvent::DoorbellCoalesced => self.doorbells_coalesced,
            ProtoEvent::WaitSetWake => self.waitset_wakes,
            ProtoEvent::SlotLeaked => self.slots_leaked,
            ProtoEvent::RetryAttempted => self.retries_attempted,
            ProtoEvent::RetryExhausted => self.retries_exhausted,
            ProtoEvent::FsckRepair => self.fsck_repairs,
            ProtoEvent::CreditAbsorbed => self.credits_absorbed,
            ProtoEvent::HoleRetired => self.holes_retired,
            ProtoEvent::ReplyDropped => self.replies_dropped,
        }
    }

    /// `self - earlier`, field-wise: the events of a measurement window.
    ///
    /// # Panics
    ///
    /// In debug builds, if `earlier` is not actually earlier (counters are
    /// monotone, so a negative delta is caller error).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for &e in &EVENTS {
            let (now, was) = (self.field(e), earlier.field(e));
            debug_assert!(now >= was, "snapshot diff went backwards for {e:?}");
            *out.field_mut(e) = now.wrapping_sub(was);
        }
        out
    }

    /// Field-wise sum (aggregating tasks).
    pub fn add(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for &e in &EVENTS {
            *out.field_mut(e) = self.field(e) + other.field(e);
        }
        out
    }

    /// The counters as a flat `[u64; N_EVENTS]`, indexed by
    /// `ProtoEvent as usize` — the transport form for carrying a snapshot
    /// through shared memory (a child process stores each element into an
    /// `AtomicU64` cell; the parent rebuilds with [`Self::from_array`]).
    pub fn to_array(&self) -> [u64; N_EVENTS] {
        let mut a = [0u64; N_EVENTS];
        for (i, &e) in EVENTS.iter().enumerate() {
            a[i] = self.field(e);
        }
        a
    }

    /// Inverse of [`Self::to_array`].
    pub fn from_array(a: &[u64; N_EVENTS]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (i, &e) in EVENTS.iter().enumerate() {
            *s.field_mut(e) = a[i];
        }
        s
    }

    /// Semaphore system calls (`P` + `V`) — the "four system calls per
    /// round trip" currency of Fig. 6.
    pub fn sem_ops(&self) -> u64 {
        self.sem_p + self.sem_v
    }

    /// All scheduler-visible kernel crossings: semaphore ops, yields,
    /// hand-offs and queue-full sleeps.
    pub fn kernel_crossings(&self) -> u64 {
        self.sem_ops() + self.yields + self.handoffs + self.queue_full_backoffs
    }

    /// Fraction of dequeues that committed to sleep first (the paper's
    /// §4.2 "percent of time the client blocked"); `NaN` with no dequeues.
    pub fn block_rate(&self) -> f64 {
        self.blocks_entered as f64 / self.dequeues as f64
    }
}

/// Per-task metrics sinks for one experiment: task id → shared
/// [`EndpointMetrics`]. The map is locked only at task registration;
/// recording never touches it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    tasks: Mutex<HashMap<u32, Arc<EndpointMetrics>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sink for `task_id`, created on first use.
    pub fn for_task(&self, task_id: u32) -> Arc<EndpointMetrics> {
        Arc::clone(self.tasks.lock().unwrap().entry(task_id).or_default())
    }

    /// Snapshot of one task's counters (zeros if the task never recorded).
    pub fn task_snapshot(&self, task_id: u32) -> MetricsSnapshot {
        self.aggregate(|id| id == task_id)
    }

    /// Snapshot of one task's latency sketch (empty if it never recorded).
    pub fn task_latency(&self, task_id: u32) -> SketchSnapshot {
        self.aggregate_latency(|id| id == task_id)
    }

    /// Field-wise sum over every task matching `keep`.
    pub fn aggregate(&self, mut keep: impl FnMut(u32) -> bool) -> MetricsSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .iter()
            .filter(|(&id, _)| keep(id))
            .fold(MetricsSnapshot::default(), |acc, (_, m)| {
                acc.add(&m.snapshot())
            })
    }

    /// Merged latency sketch over every task matching `keep`.
    pub fn aggregate_latency(&self, mut keep: impl FnMut(u32) -> bool) -> SketchSnapshot {
        self.tasks
            .lock()
            .unwrap()
            .iter()
            .filter(|(&id, _)| keep(id))
            .fold(SketchSnapshot::default(), |acc, (_, m)| {
                acc.merge(&m.latency_snapshot())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_roundtrip_covers_every_event() {
        let m = EndpointMetrics::new();
        for (i, &e) in EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.record(e);
            }
        }
        let s = m.snapshot();
        for (i, &e) in EVENTS.iter().enumerate() {
            assert_eq!(s.field(e), i as u64 + 1, "{e:?}");
        }
    }

    #[test]
    fn diff_is_windowed_accounting() {
        let m = EndpointMetrics::new();
        m.record(ProtoEvent::SemP);
        m.record(ProtoEvent::SemP);
        let start = m.snapshot();
        m.record(ProtoEvent::SemP);
        m.record(ProtoEvent::SemV);
        let window = m.snapshot().diff(&start);
        assert_eq!(window.sem_p, 1);
        assert_eq!(window.sem_v, 1);
        assert_eq!(window.sem_ops(), 2);
        assert_eq!(window.queue_ops, 0);
    }

    #[test]
    fn add_aggregates_tasks() {
        let a = MetricsSnapshot {
            sem_p: 3,
            yields: 1,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            sem_p: 2,
            handoffs: 4,
            ..Default::default()
        };
        let sum = a.add(&b);
        assert_eq!(sum.sem_p, 5);
        assert_eq!(sum.yields, 1);
        assert_eq!(sum.handoffs, 4);
        assert_eq!(sum.kernel_crossings(), 10);
    }

    #[test]
    fn sketch_cells_are_quarters_of_log2_buckets() {
        assert_eq!(sketch_cell(0), sketch_cell(1), "0 ns shares 1 ns's cell");
        assert_eq!(sketch_cell(1024), 10 * SKETCH_MINORS);
        assert_eq!(sketch_cell(1024 + 255), 10 * SKETCH_MINORS);
        assert_eq!(sketch_cell(1024 + 256), 10 * SKETCH_MINORS + 1);
        assert_eq!(sketch_cell(2047), 10 * SKETCH_MINORS + 3);
        assert_eq!(sketch_cell(u64::MAX), N_SKETCH_CELLS - 1);
        for i in 0..N_SKETCH_CELLS - SKETCH_MINORS {
            let (lo, hi) = sketch_bounds(i);
            assert_eq!(sketch_bounds(i + 1).0, hi, "cells tile the axis");
            if lo.fract() == 0.0 {
                assert_eq!(
                    sketch_cell(lo as u64),
                    i,
                    "a cell starts at its lower bound"
                );
            }
        }
    }

    #[test]
    fn sketch_estimates_within_error_bound() {
        // Sweep the whole range of sample magnitudes: a single-sample sketch
        // must estimate its own sample within the documented bound.
        let mut v = 1u64;
        while v < (1u64 << 33) {
            let s = LatencySketch::default();
            s.record(v);
            let est_ns = s.snapshot().quantile_us(1.0) * 1e3;
            let rel = (est_ns - v as f64).abs() / v as f64;
            assert!(
                rel <= SKETCH_MAX_RELATIVE_ERROR + 1e-9,
                "sample {v} ns estimated {est_ns} ns: relative error {rel}"
            );
            v = (v * 13 / 8).max(v + 1);
        }
    }

    #[test]
    fn latency_mean_and_quantiles() {
        let h = LatencySketch::default();
        for _ in 0..99 {
            h.record(1_000); // log₂ bucket [512, 1024), its last quarter
        }
        h.record(1 << 20); // ~1 ms outlier
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        let mean = s.mean_us();
        assert!(mean > 1.0 && mean < 12.0, "{mean}");
        // A plain log₂ histogram read p50 as 512·√2 ≈ 0.724 µs (28 % low);
        // the sketch's cell [896, 1024) ns reads √(896·1024) ≈ 0.958 µs.
        let p50 = s.quantile_us(0.5);
        assert!(
            (p50 - 1.0).abs() <= SKETCH_MAX_RELATIVE_ERROR,
            "p50 {p50} µs"
        );
        // p100 reaches the outlier's cell, within the same bound of 2^20 ns.
        let p100 = s.quantile_us(1.0) * 1e3;
        let outlier = (1u64 << 20) as f64;
        assert!(
            (p100 - outlier).abs() / outlier <= SKETCH_MAX_RELATIVE_ERROR,
            "{p100}"
        );
    }

    #[test]
    fn sketch_diff_is_windowed_and_merge_accumulates() {
        let (a, b) = (LatencySketch::default(), LatencySketch::default());
        a.record(100);
        let start = a.snapshot();
        a.record(200);
        a.record(300);
        let window = a.snapshot().diff(&start);
        assert_eq!((window.count, window.sum_nanos), (2, 500));
        b.record(100);
        b.record(200);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!((merged.count, merged.sum_nanos), (5, 900));
        assert_eq!(merged.cells.iter().sum::<u64>(), 5);
        assert_eq!(merged.cells[sketch_cell(100)], 2);
    }

    #[test]
    fn empty_latency_is_nan_not_panic() {
        let s = SketchSnapshot::default();
        assert!(s.mean_us().is_nan());
        assert!(s.quantile_us(0.5).is_nan());
    }

    #[test]
    fn registry_hands_out_shared_sinks() {
        let reg = MetricsRegistry::new();
        let a = reg.for_task(3);
        let b = reg.for_task(3);
        a.record(ProtoEvent::Yield);
        b.record(ProtoEvent::Yield);
        assert_eq!(reg.task_snapshot(3).yields, 2);
        assert_eq!(reg.task_snapshot(9).yields, 0, "unknown task reads zero");
        let clients = reg.aggregate(|id| id != 0);
        assert_eq!(clients.yields, 2);
    }

    #[test]
    fn array_roundtrip_preserves_every_field() {
        let m = EndpointMetrics::new();
        for (i, &e) in EVENTS.iter().enumerate() {
            for _ in 0..=i {
                m.record(e);
            }
        }
        let s = m.snapshot();
        assert_eq!(MetricsSnapshot::from_array(&s.to_array()), s);
    }

    #[test]
    fn block_rate_is_fraction_of_dequeues() {
        let s = MetricsSnapshot {
            dequeues: 100,
            blocks_entered: 3,
            ..Default::default()
        };
        assert!((s.block_rate() - 0.03).abs() < 1e-12);
    }
}
