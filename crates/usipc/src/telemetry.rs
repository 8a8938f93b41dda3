//! Arena-resident live telemetry: per-task stats published *into the
//! shared segment itself*, so any process that can map the memfd can watch
//! a running server without stopping it.
//!
//! The paper's argument is made of continuous measurements — sem ops per
//! round trip (Fig. 6), block rates (Fig. 10), spin success — and the
//! [`metrics`](crate::metrics) layer already counts all of them. But those
//! counters live in process-private memory and die with the process: an
//! operator of the cross-process sharded server cannot see queue depth or
//! doorbell coalescing *while it serves load*. This module moves the read
//! side into the segment:
//!
//! * [`TelemetrySlot`] — one cache-line-padded block per task holding a
//!   seqlock-published [`MetricsSnapshot`] epoch, live single-word gauges
//!   (queue depth, waiters, progress), and the round-trip
//!   [`LatencySketch`] every metrics sink carries. The owning task is the
//!   only writer, so publishing is a handful of `Release` stores into its
//!   own lines — no semaphores, no kernel crossings, nothing added to the
//!   protocol hot path (the BSW 4-sem-ops/RT pin holds with telemetry on).
//! * [`TelemetryPlane`] — creation/attachment: the plane registers itself
//!   in the arena's auxiliary bootstrap slot
//!   ([`ShmArena::publish_aux`]), so it piggybacks on any segment without
//!   displacing the application's root object. `usipc-top` (`figures
//!   top`) attaches with [`ShmArena::attach_memfd`] +
//!   [`TelemetryPlane::attach`] and polls [`TelemetryPlane::read`].
//! * The flight recorder — a [`FlightRecorder`] whose per-task
//!   [`TraceRing`](crate::trace::TraceRing)s live *in the segment*,
//!   stamped on the segment-wide clock axis ([`ShmArena::now_nanos`]), so
//!   the last N events of a task survive its death by SIGKILL and the
//!   survivors can dump a merged, correctly-ordered Perfetto timeline
//!   postmortem.
//!
//! Both directories are peer-writable, so both are validated once, when a
//! handle is made ([`TelemetryPlane::attach`], [`TelemetryPlane::flight`]):
//! a count that disagrees with its array, or an array outside the
//! allocated range, yields `None`. The handles then run on the offsets
//! and counts they validated, never re-reading a directory word.
//!
//! ## Seqlock protocol
//!
//! Snapshot epochs use the same even/odd discipline as
//! [`TraceRing`](crate::trace::TraceRing): the writer bumps the slot's
//! sequence word to odd (`Release`), stores the payload, then bumps it to
//! even (`Release`); a reader loads the sequence (`Acquire`), rejects odd,
//! copies the payload, re-loads the sequence and retries on any change.
//! Torn snapshots are therefore *detected*, never returned. The gauges and
//! the sketch live outside the seqlock on purpose: each is a single
//! monotone (or single-word) value whose individual reads are always
//! atomic, and keeping them out lets the hot path touch them without
//! bumping the epoch.

use crate::metrics::{LatencySketch, MetricsSnapshot, SketchSnapshot, N_EVENTS};
use crate::trace::{self, FlightRecorder, RingHeader};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use usipc_shm::{ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// `"USTP"`: marks the aux object as a telemetry root so
/// [`TelemetryPlane::attach`] can reject segments publishing something else
/// in the aux slot.
const TELEMETRY_MAGIC: u32 = 0x5553_5450;

/// What kind of endpoint owns a telemetry slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The (resilient) server's receive side.
    Server,
    /// A client endpoint.
    Client,
    /// A sharded-server worker.
    Shard,
}

impl Role {
    fn to_u32(self) -> u32 {
        match self {
            Role::Server => 1,
            Role::Client => 2,
            Role::Shard => 3,
        }
    }

    fn from_u32(v: u32) -> Option<Role> {
        match v {
            1 => Some(Role::Server),
            2 => Some(Role::Client),
            3 => Some(Role::Shard),
            _ => None,
        }
    }

    /// Stable display name (the `usipc-top` role column).
    pub fn name(self) -> &'static str {
        match self {
            Role::Server => "server",
            Role::Client => "client",
            Role::Shard => "shard",
        }
    }
}

/// One task's telemetry block, resident in the shared segment.
///
/// `repr(C, align(64))` so consecutive slots never share a cache line:
/// each writer touches only its own slot, so publication cannot ping-pong
/// lines between endpoints (let alone add kernel crossings).
///
/// Single-writer: only the owning task calls the `&self` publish methods.
#[repr(C, align(64))]
#[derive(Default)]
pub struct TelemetrySlot {
    /// Seqlock word: odd while a publish is in flight, even when stable.
    seq: AtomicU32,
    /// [`Role`] as `u32`; 0 while the slot is unclaimed.
    role: AtomicU32,
    /// Platform task number of the owner.
    task_id: AtomicU32,
    _pad: AtomicU32,
    /// Segment-axis nanoseconds of the last publish (inside the seqlock).
    published_at: AtomicU64,
    /// The [`MetricsSnapshot`] epoch, as its transport array (inside the
    /// seqlock).
    events: [AtomicU64; N_EVENTS],
    /// Live gauge: receive-queue depth at last update.
    queue_depth: AtomicU64,
    /// Live gauge: tasks currently committed to sleep on this endpoint.
    waiters: AtomicU64,
    /// Live gauge: round trips completed (clients) / requests served.
    progress: AtomicU64,
    /// Live gauge: messages permanently stranded behind an abandoned
    /// two-lock head lock by poisoned-queue drains — segment attrition
    /// (see `ProtoEvent::SlotLeaked`).
    slots_leaked: AtomicU64,
    /// Round-trip latency (every word monotone).
    latency: LatencySketch,
}

// SAFETY: repr(C), no host pointers, every mutated field is an inline
// atomic; arrays of atomics are atomics.
unsafe impl ShmSafe for TelemetrySlot {}

impl TelemetrySlot {
    /// Publishes one snapshot epoch under the seqlock (writer side).
    fn publish(&self, now_nanos: u64, snap: &MetricsSnapshot) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Release);
        for (cell, v) in self.events.iter().zip(snap.to_array()) {
            cell.store(v, Ordering::Release);
        }
        self.published_at.store(now_nanos, Ordering::Release);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Reads one consistent snapshot epoch, retrying while a writer is in
    /// flight. `None` after `retries` failed attempts (a storming writer).
    fn read_epoch(&self, retries: usize) -> Option<(u64, MetricsSnapshot)> {
        for _ in 0..retries {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                core::hint::spin_loop();
                continue;
            }
            let mut arr = [0u64; N_EVENTS];
            for (dst, cell) in arr.iter_mut().zip(&self.events) {
                *dst = cell.load(Ordering::Acquire);
            }
            let at = self.published_at.load(Ordering::Acquire);
            if self.seq.load(Ordering::Acquire) == s1 {
                return Some((at, MetricsSnapshot::from_array(&arr)));
            }
        }
        None
    }
}

/// One consistent reading of a claimed [`TelemetrySlot`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryReading {
    /// Platform task number of the publishing endpoint.
    pub task_id: u32,
    /// What kind of endpoint it is.
    pub role: Role,
    /// Segment-axis nanoseconds of the snapshot's publication.
    pub published_at: u64,
    /// The seqlock-consistent counter epoch.
    pub snapshot: MetricsSnapshot,
    /// Live receive-queue depth.
    pub queue_depth: u64,
    /// Live waiter count.
    pub waiters: u64,
    /// Live progress count (round trips / requests).
    pub progress: u64,
    /// Queue nodes permanently stranded on this endpoint's watch (segment
    /// attrition; see `ProtoEvent::SlotLeaked`).
    pub slots_leaked: u64,
    /// The streaming round-trip latency sketch.
    pub latency: SketchSnapshot,
}

/// The segment-resident telemetry directory: a fixed array of slots plus
/// an optional flight recorder, discoverable through the arena aux slot.
#[repr(C)]
pub struct TelemetryRoot {
    magic: AtomicU32,
    n_slots: AtomicU32,
    slots: ShmSlice<TelemetrySlot>,
    /// Null when the segment carries no flight recorder.
    flight: ShmPtr<FlightRoot>,
}

// SAFETY: repr(C); `slots`/`flight` are offsets written before the root is
// published via the aux slot's Release store and never mutated after.
unsafe impl ShmSafe for TelemetryRoot {}

/// Host-side handle to a segment's telemetry plane.
#[derive(Clone, Debug)]
pub struct TelemetryPlane {
    arena: Arc<ShmArena>,
    root: ShmPtr<TelemetryRoot>,
    /// The slot array, validated against `n_slots` when the handle was made.
    slots: ShmSlice<TelemetrySlot>,
}

impl TelemetryPlane {
    /// Bytes the plane consumes inside an arena (slots + roots + flight
    /// rings), for capacity budgeting. Slightly over-estimates by one
    /// cache line per object for alignment padding.
    pub fn bytes_needed(n_slots: usize, flight_tasks: usize, flight_capacity: usize) -> usize {
        let slots = n_slots * core::mem::size_of::<TelemetrySlot>() + 64;
        let root = core::mem::size_of::<TelemetryRoot>() + 64;
        let flight = if flight_tasks == 0 {
            0
        } else {
            core::mem::size_of::<FlightRoot>()
                + 64
                + trace::rings_bytes(flight_tasks, flight_capacity)
        };
        slots + root + flight
    }

    /// Allocates a plane with `n_slots` telemetry slots — and, when
    /// `flight_tasks > 0`, a flight recorder of `flight_tasks` rings
    /// holding the last `flight_capacity` events each — then publishes it
    /// in the arena's aux slot.
    ///
    /// # Errors
    ///
    /// [`ShmError::OutOfMemory`] when the arena cannot hold it.
    pub fn create_in(
        arena: &Arc<ShmArena>,
        n_slots: usize,
        flight_tasks: usize,
        flight_capacity: usize,
    ) -> Result<TelemetryPlane, ShmError> {
        let slots = arena.alloc_slice(n_slots, |_| TelemetrySlot::default())?;
        let flight = if flight_tasks > 0 {
            let cap = flight_capacity.max(1);
            let tasks = trace::alloc_rings(arena, flight_tasks, cap)?;
            arena.alloc(FlightRoot {
                n_tasks: AtomicU32::new(flight_tasks as u32),
                capacity: AtomicU32::new(cap as u32),
                tasks,
            })?
        } else {
            ShmPtr::NULL
        };
        let root = arena.alloc(TelemetryRoot {
            magic: AtomicU32::new(TELEMETRY_MAGIC),
            n_slots: AtomicU32::new(n_slots as u32),
            slots,
            flight,
        })?;
        arena.publish_aux(root);
        Ok(TelemetryPlane {
            arena: Arc::clone(arena),
            root,
            slots,
        })
    }

    /// Attaches to the plane a creator published in `arena`'s aux slot.
    /// `None` when the segment has no telemetry plane, the aux object is
    /// something else, or the directory is malformed: a root or slot array
    /// outside the allocated range, or `n_slots` disagreeing with the
    /// array's length.
    pub fn attach(arena: &Arc<ShmArena>) -> Option<TelemetryPlane> {
        let root: ShmPtr<TelemetryRoot> = arena.aux()?;
        let r = arena.try_get(root).ok()?;
        let slots = r.slots;
        let valid = r.magic.load(Ordering::Acquire) == TELEMETRY_MAGIC
            && r.n_slots.load(Ordering::Relaxed) as usize == slots.len()
            && arena.try_get_slice(slots).is_ok();
        valid.then(|| TelemetryPlane {
            arena: Arc::clone(arena),
            root,
            slots,
        })
    }

    /// Number of slots in the plane.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    fn slots(&self) -> &[TelemetrySlot] {
        self.arena.get_slice(self.slots)
    }

    /// Claims slot `i` for `task_id` in `role` and returns its writer.
    ///
    /// Slots are assigned by convention (the harness uses slot = task id),
    /// not negotiated: the single-writer discipline is the caller's
    /// responsibility, exactly as for [`TraceRing`](crate::trace::TraceRing).
    pub fn writer(&self, i: usize, task_id: u32, role: Role) -> TelemetryWriter {
        let s = &self.slots()[i];
        s.task_id.store(task_id, Ordering::Relaxed);
        s.role.store(role.to_u32(), Ordering::Release);
        TelemetryWriter {
            plane: self.clone(),
            index: i,
        }
    }

    /// One consistent reading of slot `i`; `None` for a slot the plane
    /// does not have, while the slot is unclaimed, or while a writer storm
    /// starves the seqlock.
    pub fn read(&self, i: usize) -> Option<TelemetryReading> {
        let s = self.slots().get(i)?;
        let role = Role::from_u32(s.role.load(Ordering::Acquire))?;
        let (published_at, snapshot) = s.read_epoch(1_000)?;
        Some(TelemetryReading {
            task_id: s.task_id.load(Ordering::Relaxed),
            role,
            published_at,
            snapshot,
            queue_depth: s.queue_depth.load(Ordering::Relaxed),
            waiters: s.waiters.load(Ordering::Relaxed),
            progress: s.progress.load(Ordering::Relaxed),
            slots_leaked: s.slots_leaked.load(Ordering::Relaxed),
            latency: s.latency.snapshot(),
        })
    }

    /// All claimed slots' readings, slot order.
    pub fn readings(&self) -> Vec<TelemetryReading> {
        (0..self.n_slots()).filter_map(|i| self.read(i)).collect()
    }

    /// The segment's flight recorder, when the creator armed one and its
    /// directory is well formed: `None` when `n_tasks` disagrees with the
    /// task array, or the array or any ring lies outside the allocated
    /// range or holds other than `capacity` (≥ 1) slots.
    pub fn flight(&self) -> Option<FlightRecorder> {
        let f = self.arena.get(self.root).flight;
        if f.is_null() {
            return None;
        }
        let r = self.arena.try_get(f).ok()?;
        let tasks = r.tasks;
        if r.n_tasks.load(Ordering::Relaxed) as usize != tasks.len() {
            return None;
        }
        FlightRecorder::resolve(
            &self.arena,
            tasks,
            r.capacity.load(Ordering::Relaxed) as usize,
        )
    }

    /// The arena the plane lives in (timestamp axis + memfd access).
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }
}

/// Write handle for one claimed slot; the owning task's publication side.
#[derive(Clone, Debug)]
pub struct TelemetryWriter {
    plane: TelemetryPlane,
    index: usize,
}

impl TelemetryWriter {
    fn slot(&self) -> &TelemetrySlot {
        &self.plane.slots()[self.index]
    }

    /// Publishes a counter snapshot epoch (seqlock write), stamped on the
    /// segment clock axis.
    pub fn publish(&self, snap: &MetricsSnapshot) {
        self.slot().publish(self.plane.arena.now_nanos(), snap);
    }

    /// Updates the live queue-depth gauge (single store, outside the
    /// seqlock).
    pub fn set_queue_depth(&self, depth: u64) {
        self.slot().queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Updates the live waiter-count gauge.
    pub fn set_waiters(&self, waiters: u64) {
        self.slot().waiters.store(waiters, Ordering::Relaxed);
    }

    /// Updates the live progress gauge.
    pub fn set_progress(&self, progress: u64) {
        self.slot().progress.store(progress, Ordering::Relaxed);
    }

    /// Updates the stranded-slot gauge (segment attrition; fed from the
    /// endpoint's `slots_leaked` counter so `usipc-top` shows a two-lock
    /// queue's decay instead of hiding it).
    pub fn set_slots_leaked(&self, leaked: u64) {
        self.slot().slots_leaked.store(leaked, Ordering::Relaxed);
    }

    /// Streams one round-trip latency sample into the slot's sketch
    /// ([`LatencySketch::record`], on the writer's own lines).
    pub fn record_latency_nanos(&self, nanos: u64) {
        self.slot().latency.record(nanos);
    }
}

/// The flight recorder's segment-resident directory: its rings' headers,
/// each the cursor's cache line then the slot array.
#[repr(C)]
pub struct FlightRoot {
    n_tasks: AtomicU32,
    capacity: AtomicU32,
    tasks: ShmSlice<RingHeader>,
}

// SAFETY: repr(C); `tasks` is an offset written before publication.
unsafe impl ShmSafe for FlightRoot {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ProtoEvent;
    use crate::trace::{Span, TracePoint};

    fn plane(n_slots: usize, flight_tasks: usize, flight_cap: usize) -> TelemetryPlane {
        let bytes = TelemetryPlane::bytes_needed(n_slots, flight_tasks, flight_cap) + 256;
        let arena = Arc::new(ShmArena::new(bytes).unwrap());
        TelemetryPlane::create_in(&arena, n_slots, flight_tasks, flight_cap).unwrap()
    }

    #[test]
    fn bytes_needed_is_sufficient() {
        // The budget must actually cover the allocations it predicts —
        // `plane()` would panic on OutOfMemory otherwise.
        let _ = plane(16, 8, 256);
        let _ = plane(1, 0, 0);
    }

    #[test]
    fn publish_read_roundtrip_through_aux_slot() {
        let p = plane(4, 0, 0);
        assert!(p.read(0).is_none(), "unclaimed slot reads as absent");
        let w = p.writer(0, 7, Role::Client);
        let snap = MetricsSnapshot {
            sem_p: 3,
            sem_v: 4,
            dequeues: 100,
            blocks_entered: 3,
            ..Default::default()
        };
        w.publish(&snap);
        w.set_queue_depth(5);
        w.set_waiters(1);
        w.set_progress(42);
        w.set_slots_leaked(2);
        w.record_latency_nanos(1_000);

        // A second attach through the same arena (heap: same mapping, but
        // the discovery path is identical to the cross-process one).
        let p2 = TelemetryPlane::attach(p.arena()).expect("aux-slot discovery");
        let r = p2.read(0).expect("claimed slot");
        assert_eq!(r.task_id, 7);
        assert_eq!(r.role, Role::Client);
        assert_eq!(r.snapshot, snap);
        assert_eq!(r.queue_depth, 5);
        assert_eq!(r.waiters, 1);
        assert_eq!(r.progress, 42);
        assert_eq!(r.slots_leaked, 2);
        assert_eq!(r.latency.count, 1);
        assert!((r.snapshot.block_rate() - 0.03).abs() < 1e-12);
        assert_eq!(p2.readings().len(), 1);
    }

    #[test]
    fn attach_rejects_arena_without_plane() {
        let arena = Arc::new(ShmArena::new(4096).unwrap());
        assert!(TelemetryPlane::attach(&arena).is_none());
    }

    #[test]
    fn a_writer_and_a_metrics_sink_keep_the_same_sketch() {
        // One sketch type: the segment slot and the heap sink bin the same
        // samples into equal snapshots, and snapshots merge across them.
        let p = plane(1, 0, 0);
        let w = p.writer(0, 0, Role::Client);
        let sink = crate::metrics::EndpointMetrics::new();
        let samples = [0, 1, 3, 999, 1_000, 4_321, 65_537, 1 << 20, 1 << 40];
        for &v in &samples {
            w.record_latency_nanos(v);
            sink.record_latency_nanos(v);
        }
        let (shared, heap) = (p.read(0).unwrap().latency, sink.latency_snapshot());
        assert_eq!(shared, heap);
        assert_eq!(shared.count, samples.len() as u64);
        let both = shared.merge(&heap);
        assert_eq!(both.count, 2 * shared.count);
        assert_eq!(both.sum_nanos, 2 * shared.sum_nanos);
        for (m, c) in both.cells.iter().zip(&shared.cells) {
            assert_eq!(*m, 2 * c);
        }
        assert_eq!(both.quantile_us(0.5), shared.quantile_us(0.5));
    }

    #[test]
    fn seqlock_never_returns_a_torn_snapshot_under_writer_storm() {
        use std::sync::atomic::AtomicBool;
        let p = plane(1, 0, 0);
        let w = p.writer(0, 3, Role::Server);
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut g = 1u64;
                while !stop.load(Ordering::Acquire) {
                    // Every field of generation g is a known function of g,
                    // so a reader mixing two generations cannot satisfy the
                    // relation checked below.
                    let mut arr = [0u64; N_EVENTS];
                    for (i, v) in arr.iter_mut().enumerate() {
                        *v = g * (i as u64 + 1);
                    }
                    let snap = MetricsSnapshot::from_array(&arr);
                    p.slots()[0].publish(g, &snap);
                    g += 1;
                }
                g
            })
        };
        let reader_plane = TelemetryPlane::attach(w.plane.arena()).unwrap();
        // Read until enough *distinct* generations have come back whole —
        // a fixed number of reads can be over before the freshly spawned
        // writer has published twice — and at least as often as before.
        const GENERATIONS: u64 = 16;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let (mut reads, mut consistent_reads) = (0u64, 0u64);
        let (mut generations_seen, mut last_seen) = (0u64, 0u64);
        while (reads < 2_000 || generations_seen < GENERATIONS)
            && std::time::Instant::now() < deadline
        {
            reads += 1;
            let Some(r) = reader_plane.read(0) else {
                continue; // seqlock starved this attempt: allowed, not torn
            };
            let g = r.published_at;
            if g == 0 {
                continue; // before the first publish
            }
            let arr = r.snapshot.to_array();
            for (i, &v) in arr.iter().enumerate() {
                assert_eq!(
                    v,
                    g * (i as u64 + 1),
                    "torn read: field {i} of generation {g}"
                );
            }
            consistent_reads += 1;
            if g != last_seen {
                (generations_seen, last_seen) = (generations_seen + 1, g);
            }
        }
        stop.store(true, Ordering::Release);
        let gens = writer.join().unwrap();
        assert!(gens > 1, "writer made progress");
        assert!(consistent_reads > 0, "reader starved completely");
        assert!(
            generations_seen >= GENERATIONS,
            "only {generations_seen} generations read whole in {reads} reads before the deadline"
        );
    }

    #[test]
    fn flight_ring_records_survive_and_merge_ordered() {
        let p = plane(2, 3, 8);
        let f = p.flight().expect("flight recorder armed");
        assert!(f.ring(2).is_some(), "a ring per task");
        assert!(f.ring(3).is_none(), "out-of-range task refused");

        let r0 = f.ring(0).unwrap();
        let r1 = f.ring(1).unwrap();
        r0.record(10, TracePoint::Begin(Span::RoundTrip));
        r1.record(15, TracePoint::Proto(ProtoEvent::SemP));
        r0.record(20, TracePoint::End(Span::RoundTrip));
        // Overflow task 1's ring: only the newest 8 survive, drops counted.
        for i in 0..12u64 {
            r1.record(100 + i, TracePoint::Proto(ProtoEvent::Enqueue));
        }
        let trace = f.collect(&[(0, "server".into()), (1, "victim".into())]);
        assert_eq!(trace.dropped, 12 + 1 - 8);
        let t0 = trace.task_records(0);
        assert_eq!(t0.len(), 2);
        assert_eq!(t0[0].point, TracePoint::Begin(Span::RoundTrip));
        let t1 = trace.task_records(1);
        assert_eq!(t1.len(), 8, "last N events of the busy task");
        // Merged stream is time-sorted across tasks.
        for pair in trace.records.windows(2) {
            assert!(pair[0].ts_nanos <= pair[1].ts_nanos);
        }
        // And the Perfetto export balances the spans.
        let json = trace.to_chrome_json();
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count()
        );
    }

    #[test]
    fn plane_without_flight_reports_none() {
        let p = plane(1, 0, 0);
        assert!(p.flight().is_none());
    }
}
