//! Unified cross-backend event tracing: per-task bounded ring buffers of
//! timestamped protocol events, with Chrome-trace and Fig. 4-style ASCII
//! exporters.
//!
//! The paper argues through *execution interleaving timelines* (Fig. 4) and
//! per-round-trip accounting (Fig. 6, Table 1). The
//! [`metrics`](crate::metrics) layer gives the totals; this module gives
//! the *order and timing*: every [`ProtoEvent`] plus span-style state
//! transitions (round-trip begin/end, block enter/exit, spin-loop
//! enter/exit) is stamped into a fixed-capacity, single-writer ring —
//! host nanoseconds on [`NativeOs`](crate::NativeOs), virtual nanoseconds
//! on [`SimOs`](crate::SimOs) — so a race or a BSLS fall-through can be
//! *seen* on real threads, not just inferred from counters.
//!
//! Cost model: tracing rides the same
//! [`OsServices::record`](crate::platform::OsServices::record) path as
//! metrics, through the one [`OsServices::trace`](crate::platform::OsServices::trace)
//! hook, and costs a single `Option` discriminant branch when disabled.
//! When enabled, a record is one timestamp read plus five `Release` stores
//! into the task's own ring (no sharing, no allocation, no locks). The ring
//! drops the *oldest* records on overflow and counts every drop, so
//! truncation is never silent.
//!
//! One ring algorithm serves both storages: [`TraceRing`] keeps its
//! `TraceSlot`s on the heap, the flight recorder
//! ([`FlightRecorder`](crate::telemetry::FlightRecorder)) keeps the same
//! slots in a shared segment, and both write with this module's one
//! `record` and read with its one `drain`.
//!
//! Two exporters consume the unified [`TraceRecord`] stream:
//!
//! * [`UnifiedTrace::to_chrome_json`] — Chrome Trace Event Format JSON
//!   (duration + instant events, one row per task), loadable in Perfetto
//!   or `chrome://tracing`;
//! * [`UnifiedTrace::render_ascii`] — the simulator's Fig. 4 interleaving
//!   chart ([`usipc_sim::render_columns`]) generalized to unified records,
//!   so native runs render the same charts as the simulator.
//!
//! Simulator runs can additionally bridge the engine's scheduling timeline
//! ([`usipc_sim::TraceEvent`]) into the same stream via
//! [`bridge_sim_trace`], interleaving dispatches/preemptions/wake-ups with
//! the protocol-level events.

use crate::metrics::ProtoEvent;
use core::sync::atomic::{AtomicU64, Ordering};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use usipc_shm::ShmSafe;

/// A span (duration) a task can be inside; spans nest per task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One synchronous client round trip (`Send` → reply in hand).
    RoundTrip,
    /// Committed sleep: from just before the `P` of the Fig. 5/7/9 wait
    /// loop until the task is back and has restored its `awake` flag.
    Block,
    /// A BSLS limited-spin loop (`poll_queue` until non-empty or budget
    /// exhausted).
    Spin,
}

const SPANS: [Span; 3] = [Span::RoundTrip, Span::Block, Span::Spin];

impl Span {
    /// Stable display name (also the Chrome event name).
    pub fn name(self) -> &'static str {
        match self {
            Span::RoundTrip => "round_trip",
            Span::Block => "block",
            Span::Spin => "spin",
        }
    }
}

/// A scheduling-level event bridged from the simulator's engine timeline
/// ([`usipc_sim::TraceWhat`]); the native backend cannot observe these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// Task dispatched onto a CPU.
    Dispatched {
        /// CPU index (saturated to 16 bits by the codec).
        cpu: u32,
    },
    /// Task involuntarily requeued.
    Preempted,
    /// Task yielded and the policy switched away.
    YieldSwitch,
    /// Task yielded and the policy let it continue.
    YieldContinue,
    /// Task blocked in the kernel.
    Blocked,
    /// Task made runnable again.
    Woken,
    /// Task exited.
    Exited,
    /// A priced kernel/work operation began.
    OpStart,
    /// The operation completed.
    OpDone,
}

/// One traced instant or span edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePoint {
    /// A protocol-visible event (the same stream the metrics counters
    /// count).
    Proto(ProtoEvent),
    /// Entering a span.
    Begin(Span),
    /// Leaving a span.
    End(Span),
    /// A bridged scheduler event (simulator backend only).
    Sched(SchedPoint),
}

const TAG_PROTO: u32 = 0;
const TAG_BEGIN: u32 = 1;
const TAG_END: u32 = 2;
const TAG_SCHED: u32 = 3;

impl TracePoint {
    /// Packs the point into 32 bits (tag byte + 24-bit payload) for the
    /// ring's atomic slots.
    pub fn encode(self) -> u32 {
        let (tag, arg) = match self {
            TracePoint::Proto(e) => (TAG_PROTO, e as u32),
            TracePoint::Begin(s) => (TAG_BEGIN, s as u32),
            TracePoint::End(s) => (TAG_END, s as u32),
            TracePoint::Sched(p) => {
                let (kind, cpu) = match p {
                    SchedPoint::Dispatched { cpu } => (0u32, cpu.min(0xFFFF)),
                    SchedPoint::Preempted => (1, 0),
                    SchedPoint::YieldSwitch => (2, 0),
                    SchedPoint::YieldContinue => (3, 0),
                    SchedPoint::Blocked => (4, 0),
                    SchedPoint::Woken => (5, 0),
                    SchedPoint::Exited => (6, 0),
                    SchedPoint::OpStart => (7, 0),
                    SchedPoint::OpDone => (8, 0),
                };
                (TAG_SCHED, (kind << 16) | cpu)
            }
        };
        (tag << 24) | (arg & 0x00FF_FFFF)
    }

    /// Inverse of [`encode`](Self::encode); `None` for bit patterns no
    /// point produces (a torn or corrupt slot).
    pub fn decode(word: u32) -> Option<TracePoint> {
        let arg = word & 0x00FF_FFFF;
        match word >> 24 {
            TAG_PROTO => ProtoEvent::from_index(arg as usize).map(TracePoint::Proto),
            TAG_BEGIN => SPANS.get(arg as usize).copied().map(TracePoint::Begin),
            TAG_END => SPANS.get(arg as usize).copied().map(TracePoint::End),
            TAG_SCHED => {
                let cpu = arg & 0xFFFF;
                Some(TracePoint::Sched(match arg >> 16 {
                    0 => SchedPoint::Dispatched { cpu },
                    1 => SchedPoint::Preempted,
                    2 => SchedPoint::YieldSwitch,
                    3 => SchedPoint::YieldContinue,
                    4 => SchedPoint::Blocked,
                    5 => SchedPoint::Woken,
                    6 => SchedPoint::Exited,
                    7 => SchedPoint::OpStart,
                    8 => SchedPoint::OpDone,
                    _ => return None,
                }))
            }
            _ => None,
        }
    }
}

/// One unified trace record, identical in shape on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the backend's epoch: process start on native,
    /// simulation start (virtual) on the simulator.
    pub ts_nanos: u64,
    /// Platform task number of the recording task.
    pub task_id: u32,
    /// What happened.
    pub point: TracePoint,
}

/// One slot of a trace ring, the same on the heap ([`TraceRing`]) and in
/// a shared segment (the flight recorder's rings).
#[repr(C)]
#[derive(Default)]
pub(crate) struct TraceSlot {
    /// Seqlock word: `2·lap + 1` while the writer is mid-store,
    /// `2·lap + 2` once the record for lap `lap` is complete. A reader
    /// accepts a slot only when the sequence matches the lap it expects,
    /// so torn and overwritten slots are detected, never returned.
    seq: AtomicU64,
    ts: AtomicU64,
    point: AtomicU64,
}

// SAFETY: repr(C), all-atomic.
unsafe impl ShmSafe for TraceSlot {}

/// Appends one record to the ring `(slots, cursor)` — `cursor` counts the
/// records ever started — overwriting the oldest when full. The one writer
/// of every trace ring, heap or shared; only the ring's owning task may
/// call it.
#[inline]
pub(crate) fn record(slots: &[TraceSlot], cursor: &AtomicU64, ts_nanos: u64, point: TracePoint) {
    let i = cursor.load(Ordering::Relaxed);
    let n = slots.len() as u64;
    let slot = &slots[(i % n) as usize];
    let lap = i / n;
    slot.seq.store(2 * lap + 1, Ordering::Release);
    slot.ts.store(ts_nanos, Ordering::Release);
    slot.point.store(point.encode() as u64, Ordering::Release);
    slot.seq.store(2 * lap + 2, Ordering::Release);
    cursor.store(i + 1, Ordering::Release);
}

/// Copies out the surviving records of `task_id`'s ring `(slots, cursor)`,
/// oldest first, with the number lost to overflow. Safe against a
/// concurrent writer *and* one that died mid-record: slots overwritten or
/// mid-write during the drain fail their sequence check and are skipped,
/// so every returned record is fully written and timestamps are
/// non-decreasing.
pub(crate) fn drain(
    slots: &[TraceSlot],
    cursor: &AtomicU64,
    task_id: u32,
) -> (Vec<TraceRecord>, u64) {
    let end = cursor.load(Ordering::Acquire);
    let n = slots.len() as u64;
    let start = end.saturating_sub(n);
    let mut out = Vec::with_capacity((end - start) as usize);
    let mut last_ts = 0u64;
    for i in start..end {
        let slot = &slots[(i % n) as usize];
        let expect = 2 * (i / n) + 2;
        if slot.seq.load(Ordering::Acquire) != expect {
            continue;
        }
        let ts = slot.ts.load(Ordering::Acquire);
        let word = slot.point.load(Ordering::Acquire);
        if slot.seq.load(Ordering::Acquire) != expect {
            continue;
        }
        let Some(point) = TracePoint::decode(word as u32) else {
            continue;
        };
        // Per-task timestamps are monotone at the writer; a violation
        // here means the slot was recycled between the checks, so the
        // record cannot be trusted.
        if ts < last_ts {
            continue;
        }
        last_ts = ts;
        out.push(TraceRecord {
            ts_nanos: ts,
            task_id,
            point,
        });
    }
    (out, start)
}

/// A per-task, single-writer, bounded ring buffer of [`TraceRecord`]s.
///
/// The owning task is the only writer (the `&self` methods mirror
/// [`OsServices`](crate::platform::OsServices)'s single-task usage);
/// draining may happen concurrently from any thread and yields only
/// fully-written records. On overflow the *oldest* records are overwritten
/// and [`dropped`](Self::dropped) counts them, so truncation is never
/// silent.
pub struct TraceRing {
    task_id: u32,
    slots: Box<[TraceSlot]>,
    /// Total records ever started, written only by the owner task.
    cursor: AtomicU64,
}

impl core::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TraceRing")
            .field("task_id", &self.task_id)
            .field("capacity", &self.slots.len())
            .field("written", &self.written())
            .finish()
    }
}

impl TraceRing {
    /// A ring holding the most recent `capacity` records of `task_id`.
    pub fn new(task_id: u32, capacity: usize) -> Self {
        assert!(capacity >= 1, "trace ring needs capacity >= 1");
        TraceRing {
            task_id,
            slots: (0..capacity).map(|_| TraceSlot::default()).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// The owning task's platform task number.
    pub fn task_id(&self) -> u32 {
        self.task_id
    }

    /// Fixed capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (including since-overwritten ones).
    pub fn written(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Records lost to overflow so far (`written − capacity`, floored at
    /// zero): the dropped-records counter that keeps truncation honest.
    pub fn dropped(&self) -> u64 {
        self.written().saturating_sub(self.slots.len() as u64)
    }

    /// Appends one record, overwriting the oldest when full. Must only be
    /// called from the owning task (single-writer).
    #[inline]
    pub fn record(&self, ts_nanos: u64, point: TracePoint) {
        record(&self.slots, &self.cursor, ts_nanos, point);
    }

    /// Copies out the surviving records, oldest first. Safe against a
    /// concurrent writer: torn and overwritten slots are skipped.
    pub fn drain(&self) -> Vec<TraceRecord> {
        drain(&self.slots, &self.cursor, self.task_id).0
    }
}

/// Per-task trace rings for one experiment: task id → shared
/// [`TraceRing`]. Locked only at task registration, like
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry).
#[derive(Debug)]
pub struct TraceRegistry {
    capacity: usize,
    tasks: Mutex<HashMap<u32, Arc<TraceRing>>>,
}

impl TraceRegistry {
    /// A registry handing out rings of `capacity` records each.
    pub fn new(capacity: usize) -> Self {
        TraceRegistry {
            capacity,
            tasks: Mutex::new(HashMap::new()),
        }
    }

    /// The ring for `task_id`, created on first use.
    pub fn for_task(&self, task_id: u32) -> Arc<TraceRing> {
        Arc::clone(
            self.tasks
                .lock()
                .unwrap()
                .entry(task_id)
                .or_insert_with(|| Arc::new(TraceRing::new(task_id, self.capacity))),
        )
    }

    /// Drains every ring into one time-sorted [`UnifiedTrace`]. `names`
    /// supplies display names (`task_id`, name); tasks that recorded but
    /// were not named get `task<N>`.
    pub fn collect(&self, names: &[(u32, String)]) -> UnifiedTrace {
        let rings: Vec<Arc<TraceRing>> = self.tasks.lock().unwrap().values().cloned().collect();
        UnifiedTrace::from_rings(
            rings.iter().map(|r| (&r.slots[..], &r.cursor, r.task_id)),
            names,
        )
    }
}

/// Bridges the simulator engine's scheduling timeline into unified
/// records, using `pid.idx()` as the task id (the identity mapping the
/// harness uses: task 0 is the server, task `1 + c` client `c`).
///
/// Op identities (`P(sem0)` etc.) are not carried over — the protocol
/// layer already records them as [`TracePoint::Proto`] events with the
/// same virtual timestamps; the bridge contributes what the protocol
/// layer *cannot* see: dispatches, preemptions, blocks and wake-ups.
pub fn bridge_sim_trace(events: &[usipc_sim::TraceEvent]) -> Vec<TraceRecord> {
    use usipc_sim::TraceWhat;
    events
        .iter()
        .map(|e| TraceRecord {
            ts_nanos: e.at.as_nanos(),
            task_id: e.pid.idx() as u32,
            point: TracePoint::Sched(match &e.what {
                TraceWhat::Dispatched { cpu } => SchedPoint::Dispatched { cpu: *cpu as u32 },
                TraceWhat::OpStart { .. } => SchedPoint::OpStart,
                TraceWhat::OpDone { .. } => SchedPoint::OpDone,
                TraceWhat::Preempted => SchedPoint::Preempted,
                TraceWhat::YieldSwitch => SchedPoint::YieldSwitch,
                TraceWhat::YieldContinue => SchedPoint::YieldContinue,
                TraceWhat::Blocked => SchedPoint::Blocked,
                TraceWhat::Woken => SchedPoint::Woken,
                TraceWhat::Exited => SchedPoint::Exited,
            }),
        })
        .collect()
}

fn proto_label(e: ProtoEvent) -> &'static str {
    match e {
        ProtoEvent::QueueOp => "queue_op",
        ProtoEvent::TasOp => "tas",
        ProtoEvent::PollCheck => "empty_check",
        ProtoEvent::RequestServed => "request_served",
        ProtoEvent::Enqueue => "enqueue",
        ProtoEvent::Dequeue => "dequeue",
        ProtoEvent::SemP => "sem_p",
        ProtoEvent::SemV => "sem_v",
        ProtoEvent::Yield => "yield",
        ProtoEvent::Handoff => "handoff",
        ProtoEvent::SpinIteration => "spin_iter",
        ProtoEvent::QueueFullBackoff => "queue_full_backoff",
        ProtoEvent::BlockEntered => "block_entered",
        ProtoEvent::StrayWakeupAbsorbed => "stray_wakeup_absorbed",
        ProtoEvent::MalformedRequest => "malformed_request",
        ProtoEvent::SemKernelWait => "sem_kernel_wait",
        ProtoEvent::SemKernelWake => "sem_kernel_wake",
        ProtoEvent::TimedOut => "timed_out",
        ProtoEvent::FaultInjected => "fault_injected",
        ProtoEvent::PeerDeathDetected => "peer_death_detected",
        ProtoEvent::ChannelPoisoned => "channel_poisoned",
        ProtoEvent::DoorbellRung => "doorbell_rung",
        ProtoEvent::DoorbellCoalesced => "doorbell_coalesced",
        ProtoEvent::WaitSetWake => "waitset_wake",
        ProtoEvent::SlotLeaked => "slot_leaked",
        ProtoEvent::RetryAttempted => "retry_attempted",
        ProtoEvent::RetryExhausted => "retry_exhausted",
        ProtoEvent::FsckRepair => "fsck_repair",
        ProtoEvent::CreditAbsorbed => "credit_absorbed",
        ProtoEvent::HoleRetired => "hole_retired",
        ProtoEvent::ReplyDropped => "reply_dropped",
    }
}

fn sched_label(p: SchedPoint) -> String {
    match p {
        SchedPoint::Dispatched { cpu } => format!("▶ on cpu{cpu}"),
        SchedPoint::Preempted => "⏸ preempted".into(),
        SchedPoint::YieldSwitch => "yield → switch".into(),
        SchedPoint::YieldContinue => "yield → continue".into(),
        SchedPoint::Blocked => "⏳ blocked".into(),
        SchedPoint::Woken => "⏰ woken".into(),
        SchedPoint::Exited => "■ exit".into(),
        SchedPoint::OpStart => "op …".into(),
        SchedPoint::OpDone => "op ✓".into(),
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A merged, time-sorted trace from every task of one experiment — the
/// input to both exporters.
#[derive(Debug, Clone, Default)]
pub struct UnifiedTrace {
    /// All records, sorted by timestamp (stable: per-task order is
    /// preserved).
    pub records: Vec<TraceRecord>,
    /// Display names, `(task_id, name)`; order fixes the ASCII column
    /// order.
    pub task_names: Vec<(u32, String)>,
    /// Total records lost to ring overflow across all tasks.
    pub dropped: u64,
}

impl UnifiedTrace {
    /// Builds a trace, sorting `records` by timestamp (stable).
    pub fn from_parts(
        records: Vec<TraceRecord>,
        task_names: Vec<(u32, String)>,
        dropped: u64,
    ) -> Self {
        let mut t = UnifiedTrace {
            records: Vec::new(),
            task_names,
            dropped,
        };
        t.extend(records);
        t
    }

    /// Adds `records`, keeping the stream time-sorted (stable) and every
    /// recording task named.
    fn extend(&mut self, records: Vec<TraceRecord>) {
        self.records.extend(records);
        self.records.sort_by_key(|r| r.ts_nanos);
        let ids: Vec<u32> = self.records.iter().map(|r| r.task_id).collect();
        for id in ids {
            self.ensure_task(id);
        }
    }

    /// Drains every `(slots, cursor, task_id)` ring into one time-sorted
    /// trace. `names` supplies display names; a task that recorded but was
    /// not named gets `task<N>`.
    pub(crate) fn from_rings<'a>(
        rings: impl IntoIterator<Item = (&'a [TraceSlot], &'a AtomicU64, u32)>,
        names: &[(u32, String)],
    ) -> Self {
        let (mut records, mut dropped) = (Vec::new(), 0);
        for (slots, cursor, task_id) in rings {
            let (survivors, lost) = drain(slots, cursor, task_id);
            records.extend(survivors);
            dropped += lost;
        }
        UnifiedTrace::from_parts(records, names.to_vec(), dropped)
    }

    /// Appends bridged simulator scheduling events and re-sorts.
    pub fn merge_sim(&mut self, events: &[usipc_sim::TraceEvent]) {
        self.extend(bridge_sim_trace(events));
    }

    /// Guarantees `task_id` has a display name (auto-named `task<N>`).
    pub fn ensure_task(&mut self, task_id: u32) {
        if !self.task_names.iter().any(|(id, _)| *id == task_id) {
            self.task_names.push((task_id, format!("task{task_id}")));
        }
    }

    /// Records of one task, in time order.
    pub fn task_records(&self, task_id: u32) -> Vec<TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.task_id == task_id)
            .copied()
            .collect()
    }

    /// Display name of `task_id` (auto-form `task<N>` when unnamed).
    pub fn task_name(&self, task_id: u32) -> String {
        self.task_names
            .iter()
            .find(|(id, _)| *id == task_id)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("task{task_id}"))
    }

    /// Exports Chrome Trace Event Format JSON (the JSON-object form with a
    /// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Spans become `B`/`E` duration events and are guaranteed balanced
    /// and properly nested per task even if ring overflow cut a `Begin`
    /// (orphan `End`s are dropped, spans still open at the end of the
    /// stream are closed at the task's last timestamp). Instants become
    /// thread-scoped `i` events. Timestamps are microseconds with
    /// nanosecond precision, monotone non-decreasing per task.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut emit = |ev: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };
        for (id, name) in &self.task_names {
            emit(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    id,
                    json_escape(name)
                ),
                &mut first,
            );
        }
        // Per-task span stacks for B/E balance.
        let mut stacks: HashMap<u32, Vec<Span>> = HashMap::new();
        let mut last_ts: HashMap<u32, u64> = HashMap::new();
        let us = |ns: u64| format!("{:.3}", ns as f64 / 1e3);
        for r in &self.records {
            last_ts.insert(r.task_id, r.ts_nanos);
            match r.point {
                TracePoint::Begin(s) => {
                    stacks.entry(r.task_id).or_default().push(s);
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"B\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                            s.name(),
                            us(r.ts_nanos),
                            r.task_id
                        ),
                        &mut first,
                    );
                }
                TracePoint::End(s) => {
                    let stack = stacks.entry(r.task_id).or_default();
                    if !stack.contains(&s) {
                        continue; // orphan End: its Begin was dropped
                    }
                    // Close any spans opened inside `s` first so B/E stay
                    // properly nested.
                    while let Some(top) = stack.pop() {
                        emit(
                            format!(
                                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                                top.name(),
                                us(r.ts_nanos),
                                r.task_id
                            ),
                            &mut first,
                        );
                        if top == s {
                            break;
                        }
                    }
                }
                TracePoint::Proto(e) => emit(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"proto\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                        proto_label(e),
                        us(r.ts_nanos),
                        r.task_id
                    ),
                    &mut first,
                ),
                TracePoint::Sched(p) => {
                    let (name, args) = match p {
                        SchedPoint::Dispatched { cpu } => {
                            ("dispatched", format!(",\"args\":{{\"cpu\":{cpu}}}"))
                        }
                        SchedPoint::Preempted => ("preempted", String::new()),
                        SchedPoint::YieldSwitch => ("yield_switch", String::new()),
                        SchedPoint::YieldContinue => ("yield_continue", String::new()),
                        SchedPoint::Blocked => ("sched_blocked", String::new()),
                        SchedPoint::Woken => ("sched_woken", String::new()),
                        SchedPoint::Exited => ("sched_exited", String::new()),
                        SchedPoint::OpStart => ("op_start", String::new()),
                        SchedPoint::OpDone => ("op_done", String::new()),
                    };
                    emit(
                        format!(
                            "{{\"name\":\"{}\",\"cat\":\"sched\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"{}}}",
                            name,
                            us(r.ts_nanos),
                            r.task_id,
                            args
                        ),
                        &mut first,
                    );
                }
            }
        }
        // Close spans left open by truncation or early drain.
        for (task, stack) in &mut stacks {
            let ts = last_ts.get(task).copied().unwrap_or(0);
            while let Some(top) = stack.pop() {
                emit(
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\"tid\":{}}}",
                        top.name(),
                        us(ts),
                        task
                    ),
                    &mut first,
                );
            }
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"droppedRecords\":{}}}}}",
            self.dropped
        );
        out
    }

    /// Renders the Fig. 4-style ASCII interleaving chart (one column per
    /// task) from the unified records — the simulator's chart, now equally
    /// available to native runs.
    pub fn render_ascii(&self, width: usize) -> String {
        let names: Vec<String> = self.task_names.iter().map(|(_, n)| n.clone()).collect();
        let col_of = |task_id: u32| {
            self.task_names
                .iter()
                .position(|(id, _)| *id == task_id)
                .unwrap_or(0)
        };
        let rows: Vec<(f64, usize, String)> = self
            .records
            .iter()
            .map(|r| {
                let label = match r.point {
                    TracePoint::Proto(e) => proto_label(e).to_string(),
                    TracePoint::Begin(s) => format!("⟦ {}", s.name()),
                    TracePoint::End(s) => format!("⟧ {}", s.name()),
                    TracePoint::Sched(p) => sched_label(p),
                };
                (r.ts_nanos as f64 / 1e3, col_of(r.task_id), label)
            })
            .collect();
        let mut out = usipc_sim::render_columns(&rows, &names, width);
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} older records dropped by ring overflow)\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_roundtrips_every_point() {
        let mut points = Vec::new();
        for e in ProtoEvent::ALL {
            points.push(TracePoint::Proto(e));
        }
        for s in SPANS {
            points.push(TracePoint::Begin(s));
            points.push(TracePoint::End(s));
        }
        for p in [
            SchedPoint::Dispatched { cpu: 0 },
            SchedPoint::Dispatched { cpu: 7 },
            SchedPoint::Dispatched { cpu: 0xFFFF },
            SchedPoint::Preempted,
            SchedPoint::YieldSwitch,
            SchedPoint::YieldContinue,
            SchedPoint::Blocked,
            SchedPoint::Woken,
            SchedPoint::Exited,
            SchedPoint::OpStart,
            SchedPoint::OpDone,
        ] {
            points.push(TracePoint::Sched(p));
        }
        for p in points {
            assert_eq!(TracePoint::decode(p.encode()), Some(p), "{p:?}");
        }
        assert_eq!(TracePoint::decode(0xFF00_0000), None, "bad tag");
        assert_eq!(TracePoint::decode(0x0000_00FF), None, "bad proto index");
        assert_eq!(TracePoint::decode(0x03FF_0000), None, "bad sched kind");
    }

    #[test]
    fn ring_keeps_insertion_order_below_capacity() {
        let r = TraceRing::new(3, 8);
        for i in 0..5u64 {
            r.record(i * 10, TracePoint::Proto(ProtoEvent::SemP));
        }
        let got = r.drain();
        assert_eq!(got.len(), 5);
        assert_eq!(r.dropped(), 0);
        for (i, rec) in got.iter().enumerate() {
            assert_eq!(rec.ts_nanos, i as u64 * 10);
            assert_eq!(rec.task_id, 3);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts_exactly() {
        let r = TraceRing::new(0, 8);
        for i in 0..20u64 {
            let p = if i % 2 == 0 {
                TracePoint::Proto(ProtoEvent::Enqueue)
            } else {
                TracePoint::Proto(ProtoEvent::Dequeue)
            };
            r.record(i, p);
        }
        assert_eq!(r.written(), 20);
        assert_eq!(r.dropped(), 12, "exactly written − capacity");
        let got = r.drain();
        assert_eq!(got.len(), 8, "only the newest capacity records survive");
        // Drop-oldest: the survivors are records 12..20, still in order.
        for (k, rec) in got.iter().enumerate() {
            let i = 12 + k as u64;
            assert_eq!(rec.ts_nanos, i, "record {k} is original record {i}");
            let want = if i.is_multiple_of(2) {
                TracePoint::Proto(ProtoEvent::Enqueue)
            } else {
                TracePoint::Proto(ProtoEvent::Dequeue)
            };
            assert_eq!(rec.point, want);
        }
    }

    #[test]
    fn a_heap_ring_and_a_flight_ring_are_one_ring() {
        use crate::telemetry::TelemetryPlane;
        use usipc_shm::ShmArena;
        const CAP: usize = 8;
        // Below capacity, 12 records past it, and past it with one slot
        // left mid-write.
        for (written, torn) in [
            (5, None),
            (CAP as u64 + 12, None),
            (CAP as u64 + 12, Some(3)),
        ] {
            let heap = TraceRing::new(0, CAP);
            let arena = Arc::new(ShmArena::new(TelemetryPlane::bytes_needed(0, 1, CAP)).unwrap());
            let plane = TelemetryPlane::create_in(&arena, 0, 1, CAP).unwrap();
            let flight = plane.flight().unwrap();
            let shared = flight.ring(0).unwrap();
            for i in 0..written {
                let p = TracePoint::Sched(SchedPoint::Dispatched { cpu: i as u32 });
                heap.record(i, p);
                shared.record(i, p);
            }
            if let Some(k) = torn {
                // What a writer killed between its two `seq` stores leaves.
                for slots in [&heap.slots[..], shared.view().0] {
                    slots[k].seq.fetch_sub(1, Ordering::Relaxed);
                }
            }
            let trace = flight.collect(&[]);
            let what = format!("{written} written, slot {torn:?} torn");
            assert_eq!(heap.drain(), trace.records, "{what}");
            assert_eq!(heap.dropped(), trace.dropped, "{what}");
            let survivors = written.min(CAP as u64) as usize - usize::from(torn.is_some());
            assert_eq!(trace.records.len(), survivors, "{what}");
        }
    }

    #[test]
    fn concurrent_drain_yields_only_complete_monotone_records() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(7, 64));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut ts = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Vary the payload so a torn slot cannot masquerade as
                    // a valid record with the expected encoding.
                    let p = TracePoint::Sched(SchedPoint::Dispatched {
                        cpu: (ts % 0x1_0000) as u32,
                    });
                    ring.record(ts, p);
                    ts += 1;
                }
                ts
            })
        };
        for _ in 0..200 {
            let got = ring.drain();
            assert!(got.len() <= 64);
            for pair in got.windows(2) {
                assert!(
                    pair[0].ts_nanos < pair[1].ts_nanos,
                    "drained records stay in write order"
                );
            }
            for rec in &got {
                // A fully-written record carries the cpu its timestamp
                // implies; any mismatch means a torn read slipped through.
                match rec.point {
                    TracePoint::Sched(SchedPoint::Dispatched { cpu }) => {
                        assert_eq!(cpu as u64, rec.ts_nanos % 0x1_0000, "torn record");
                    }
                    other => panic!("corrupt point {other:?}"),
                }
            }
        }
        stop.store(true, Ordering::Release);
        let written = writer.join().unwrap();
        assert_eq!(ring.written(), written);
        assert_eq!(ring.dropped(), written.saturating_sub(64));
    }

    #[test]
    fn chrome_json_balances_spans_cut_by_overflow() {
        // An End whose Begin was dropped, plus a Begin never closed.
        let records = vec![
            TraceRecord {
                ts_nanos: 10,
                task_id: 0,
                point: TracePoint::End(Span::RoundTrip),
            },
            TraceRecord {
                ts_nanos: 20,
                task_id: 0,
                point: TracePoint::Begin(Span::Block),
            },
            TraceRecord {
                ts_nanos: 30,
                task_id: 0,
                point: TracePoint::Proto(ProtoEvent::SemP),
            },
        ];
        let t = UnifiedTrace::from_parts(records, vec![(0, "server".into())], 5);
        let json = t.to_chrome_json();
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 1, "{json}");
        assert_eq!(ends, 1, "orphan End dropped, open Begin closed: {json}");
        assert!(json.contains("\"droppedRecords\":5"));
    }

    #[test]
    fn ascii_chart_places_tasks_in_columns() {
        let records = vec![
            TraceRecord {
                ts_nanos: 1_000,
                task_id: 0,
                point: TracePoint::Proto(ProtoEvent::Enqueue),
            },
            TraceRecord {
                ts_nanos: 2_000,
                task_id: 1,
                point: TracePoint::Begin(Span::RoundTrip),
            },
        ];
        let t = UnifiedTrace::from_parts(
            records,
            vec![(0, "server".into()), (1, "client0".into())],
            0,
        );
        let s = t.render_ascii(18);
        assert!(s.contains("server") && s.contains("client0"));
        assert!(s.contains("enqueue"));
        assert!(s.contains("⟦ round_trip"));
        let row = s.lines().last().unwrap();
        assert!(
            row.find("⟦").unwrap() > 30,
            "client event in client column: {row}"
        );
    }

    #[test]
    fn unified_trace_autonames_unknown_tasks() {
        let records = vec![TraceRecord {
            ts_nanos: 0,
            task_id: 9,
            point: TracePoint::Proto(ProtoEvent::Yield),
        }];
        let t = UnifiedTrace::from_parts(records, vec![], 0);
        assert_eq!(t.task_name(9), "task9");
        assert!(t.to_chrome_json().contains("task9"));
    }
}
