//! The trust boundary, from the hostile peer's side (DESIGN.md §8,
//! "Resolve once, run on views — validate at attach, private copies inside").
//!
//! A peer that maps the segment can write any word of it. These tests do
//! exactly that — through `arena.get(ShmPtr::<AtomicU32>::from_raw(off))`,
//! the way any holder of the mapping can — and pin the two halves of the
//! contract:
//!
//! * **At attach** every field a later operation would rely on is checked:
//!   a corrupted one makes `Channel::attach`/`from_root` return
//!   `Err(BadSegment)` (`WaitSet::attach`: its assert) — never UB, never a
//!   panic inside a later queue operation — and putting the word back makes
//!   the same segment attach and carry traffic again.
//! * **After attach** the views run on private copies: overwriting the
//!   shared `capacity`/`mode` words under a live `QueueRef` changes
//!   nothing — FIFO order, flow control, in-bounds indexing.
//!
//! The telemetry plane and its flight recorder keep the same contract,
//! with `None` for `Err`: `TelemetryPlane::attach` and `flight()`.
//!
//! The offsets below are the `#[repr(C)]` layouts of the segment
//! structures. Every scribble first checks that the word holds what the
//! layout says it should, so a layout this file has wrong fails *here*,
//! loudly, instead of corrupting a neighbour and passing by accident.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use usipc::waitset::{WaitSet, WaitSetRoot};
use usipc::{
    monotonic_nanos, Channel, ChannelConfig, Message, NativeConfig, NativeOs, ProtoEvent,
    QueueKind, Role, TelemetryPlane, TracePoint,
};
use usipc_shm::{ShmArena, ShmError, ShmPtr};

// `ChannelRoot`: the receive `WaitableQueue` (three cache lines, its
// `AnyShmFifo { kind, two_lock, ring }` first), the reply slice, `n_clients`.
const FIFO_KIND: u32 = 0;
const FIFO_TWO_LOCK_BOX: u32 = 4;
const FIFO_RING_BOX: u32 = 8;
const WAITABLE_QUEUE_BYTES: u32 = 192;
const ROOT_REPLY_OFF: u32 = 192;
const ROOT_REPLY_LEN: u32 = 196;
const ROOT_N_CLIENTS: u32 = 200;
// The boxed `ShmRing { header, slots: (off, len) }`.
const RING_HEADER: u32 = 0;
const RING_SLOTS_OFF: u32 = 4;
const RING_SLOTS_LEN: u32 = 8;
// `RingHeader`: two cache-line cursors, then `capacity: u64`, `mode: u32`.
const HDR_CAPACITY: u32 = 128;
const HDR_MODE: u32 = 136;
// `WaitSetRoot`: the latch's cache line, the ready slice, doorbell, sources.
const WS_N_SOURCES: u32 = 76;

const KIND_RING: u32 = 1;
const CLIENTS: u32 = 3;
const CAPACITY: u32 = 8;

/// A channel's segment with every handle to it dropped: what an attaching
/// process is given.
struct Segment {
    arena: Arc<ShmArena>,
    /// Offset of the `ChannelRoot`.
    root: u32,
}

impl Segment {
    fn new(kind: QueueKind) -> Segment {
        let cfg = ChannelConfig {
            queue_capacity: CAPACITY as usize,
            queue_kind: kind,
            ..ChannelConfig::new(CLIENTS as usize)
        };
        let ch = Channel::create(&cfg).expect("create");
        Segment {
            arena: Arc::clone(ch.arena()),
            root: ch.root_ptr().raw(),
        }
    }

    fn attach(&self) -> Result<Channel, ShmError> {
        Channel::attach(Arc::clone(&self.arena))
    }

    fn word(&self, off: u32) -> &AtomicU32 {
        self.arena.get(ShmPtr::from_raw(off))
    }

    fn dword(&self, off: u32) -> &AtomicU64 {
        self.arena.get(ShmPtr::from_raw(off))
    }

    /// Past everything allocated, and still a multiple of every alignment.
    fn beyond(&self) -> u32 {
        (self.arena.capacity() as u32).next_multiple_of(4096) + 4096
    }

    /// Writes each of `bad` over the word at `off` (which must hold
    /// `expect`), demands that the segment no longer attaches, puts the
    /// word back and demands that it attaches and works again.
    fn refuses(&self, what: &str, off: u32, expect: u32, bad: &[u32]) {
        for &bad in bad {
            assert_eq!(self.word(off).swap(bad, SeqCst), expect, "layout: {what}");
            assert_eq!(
                self.attach().err(),
                Some(ShmError::BadSegment),
                "{what} = {bad:#x} must be refused at attach"
            );
            self.word(off).store(expect, SeqCst);
            carries_traffic(&self.attach().expect(what));
        }
    }
}

/// One round trip's worth of traffic through every queue of `ch`.
fn carries_traffic(ch: &Channel) {
    let os = NativeOs::new(NativeConfig::for_clients(CLIENTS as usize));
    let t = os.task(0);
    let replies = (0..CLIENTS).map(|c| ch.reply_queue(c));
    for (i, q) in (0..).zip(std::iter::once(ch.receive_queue()).chain(replies)) {
        assert!(q.try_enqueue(&t, Message::echo(0, f64::from(i))));
        assert_eq!(q.try_dequeue(&t).map(|m| m.value), Some(f64::from(i)));
        assert!(q.is_empty(&t));
    }
}

#[test]
fn every_validated_field_is_refused_at_attach_and_accepted_when_restored() {
    let seg = Segment::new(QueueKind::Ring);
    let (root, beyond) = (seg.root, seg.beyond());
    carries_traffic(&seg.attach().expect("pristine segment"));

    // The root: client count against the reply array, the array itself.
    seg.refuses(
        "n_clients",
        root + ROOT_N_CLIENTS,
        CLIENTS,
        &[CLIENTS + 1, 0],
    );
    let lens = [CLIENTS - 1, CLIENTS + 1, u32::MAX];
    seg.refuses("reply.len", root + ROOT_REPLY_LEN, CLIENTS, &lens);
    let reply = seg.word(root + ROOT_REPLY_OFF).load(SeqCst);
    assert_eq!(reply % 64, 0, "layout: reply.off");
    let offs = [0, beyond, reply + 4];
    seg.refuses("reply.off", root + ROOT_REPLY_OFF, reply, &offs);

    // Every queue, not only the first: the receive queue and the last
    // client's reply queue, field by field.
    let last_reply = reply + (CLIENTS - 1) * WAITABLE_QUEUE_BYTES;
    for wq in [root, last_reply] {
        seg.refuses("kind", wq + FIFO_KIND, KIND_RING, &[2, u32::MAX]);
        let boxed = seg.word(wq + FIFO_RING_BOX).load(SeqCst);
        seg.refuses(
            "ring box",
            wq + FIFO_RING_BOX,
            boxed,
            &[0, beyond, boxed + 2],
        );

        let hdr = seg.word(boxed + RING_HEADER).load(SeqCst);
        let slots = seg.word(boxed + RING_SLOTS_OFF).load(SeqCst);
        assert_eq!((hdr % 64, slots % 32), (0, 0), "layout: ring handle");
        seg.refuses("header", boxed + RING_HEADER, hdr, &[0, beyond, hdr + 8]);
        let offs = [0, beyond, slots + 8];
        seg.refuses("slots.off", boxed + RING_SLOTS_OFF, slots, &offs);
        let lens = [CAPACITY / 2, CAPACITY * 2, u32::MAX];
        seg.refuses("slots.len", boxed + RING_SLOTS_LEN, CAPACITY, &lens);

        // `capacity` (a u64, low word first): not a power of two, a power
        // of two that is not the slot count, below the minimum of 2.
        let capacity = seg.dword(hdr + HDR_CAPACITY).load(SeqCst);
        assert_eq!(capacity, u64::from(CAPACITY), "layout: capacity");
        let caps = [CAPACITY - 2, CAPACITY * 2, CAPACITY / 2, 1, 0];
        seg.refuses("capacity", hdr + HDR_CAPACITY, CAPACITY, &caps);
        seg.refuses("capacity (high word)", hdr + HDR_CAPACITY + 4, 0, &[1]);
        let mode = seg.word(hdr + HDR_MODE).load(SeqCst);
        assert!(mode <= 1, "layout: mode");
        seg.refuses("mode", hdr + HDR_MODE, mode, &[2, u32::MAX]);
    }

    // The root pointer itself, as `from_root` is handed it.
    for bad in [0, beyond, root + 4] {
        let got = Channel::from_root(Arc::clone(&seg.arena), ShmPtr::from_raw(bad));
        assert_eq!(got.err(), Some(ShmError::BadSegment), "root +{bad:#x}");
    }
}

#[test]
fn the_two_lock_baseline_validates_its_tag_and_its_box() {
    let seg = Segment::new(QueueKind::TwoLock);
    // A tag that names the other kind finds a null box, not a queue.
    seg.refuses("kind", seg.root + FIFO_KIND, 0, &[7, KIND_RING]);
    let boxed = seg.word(seg.root + FIFO_TWO_LOCK_BOX).load(SeqCst);
    let bad = [0, seg.beyond(), boxed + 2];
    seg.refuses("two-lock box", seg.root + FIFO_TWO_LOCK_BOX, boxed, &bad);
}

#[test]
fn a_waitset_root_naming_more_sources_than_its_bitmap_is_refused_at_attach() {
    let arena = ShmArena::new(WaitSetRoot::bytes_needed(64) + 256).expect("arena");
    let root = WaitSetRoot::create_in(&arena, 64, 0).expect("waitset");
    assert_eq!(WaitSet::attach(&arena, root).n_sources(), 64);
    let n_sources: &AtomicU32 = arena.get(ShmPtr::from_raw(root.raw() + WS_N_SOURCES));
    for bad in [65, 128, u32::MAX, 0] {
        assert_eq!(n_sources.swap(bad, SeqCst), 64, "layout: n_sources");
        let attached = std::panic::catch_unwind(|| WaitSet::attach(&arena, root).n_sources());
        assert!(attached.is_err(), "n_sources = {bad} must not attach");
        n_sources.store(64, SeqCst);
    }
    let ws = WaitSet::attach(&arena, root);
    let os = NativeOs::new(NativeConfig::for_clients(0));
    ws.notify(&os.task(0), 63);
    assert_eq!(ws.poll(&mut 0), Some(63));
}

#[test]
fn a_live_view_is_unmoved_by_scribbles_on_the_shared_header() {
    let seg = Segment::new(QueueKind::Ring);
    let ch = seg.attach().expect("attach");
    let os = NativeOs::new(NativeConfig::for_clients(CLIENTS as usize));
    let t = os.task(0);
    let reply = seg.word(seg.root + ROOT_REPLY_OFF).load(SeqCst);
    // The receive queue is the multi-producer ring, a reply queue the
    // single-producer one: scribble `mode` to the *other* valid value too.
    for (wq, q) in [(seg.root, ch.receive_queue()), (reply, ch.reply_queue(0))] {
        let boxed = seg.word(wq + FIFO_RING_BOX).load(SeqCst);
        let hdr = seg.word(boxed + RING_HEADER).load(SeqCst);
        let (capacity, mode) = (seg.dword(hdr + HDR_CAPACITY), seg.word(hdr + HDR_MODE));
        let honest = (capacity.load(SeqCst), mode.load(SeqCst));
        assert_eq!(honest.0, u64::from(CAPACITY), "layout: capacity");

        let echo = |i: u32| Message::echo(0, f64::from(i));
        let (mut sent, mut next) = (0u32, 0u32); // next: what a dequeue must return
        for (cap, md) in [
            (3, 2),
            (0, u32::MAX),
            (u64::MAX, 1 - honest.1),
            (1 << 20, 7),
        ] {
            capacity.store(cap, SeqCst);
            mode.store(md, SeqCst);
            // Several laps, then full to the brim: order, flow control and
            // indexing are the view's own, whatever the header says now.
            for _ in 0..5 * CAPACITY {
                assert!(q.try_enqueue(&t, echo(sent)));
                sent += 1;
                let got = q.try_dequeue(&t).expect("just enqueued");
                assert_eq!(got, echo(next), "FIFO under capacity={cap} mode={md}");
                next += 1;
            }
            for _ in 0..CAPACITY {
                assert!(q.try_enqueue(&t, echo(sent)));
                sent += 1;
            }
            assert_eq!(q.queued_len(), CAPACITY as usize);
            assert!(!q.try_enqueue(&t, echo(u32::MAX)), "full is still full");
            for _ in 0..CAPACITY {
                assert_eq!(q.try_dequeue(&t), Some(echo(next)));
                next += 1;
            }
            assert!(q.is_empty(&t) && q.try_dequeue(&t).is_none());
            // The same words refuse a *new* handle; the view the old one
            // handed out never reads them.
            assert_eq!(seg.attach().err(), Some(ShmError::BadSegment));
        }
        capacity.store(honest.0, SeqCst);
        mode.store(honest.1, SeqCst);
    }
    carries_traffic(&seg.attach().expect("honest header attaches again"));
}

// `TelemetryRoot`: magic, `n_slots`, the slot slice, the flight root.
const TEL_MAGIC: u32 = 0;
const TEL_N_SLOTS: u32 = 4;
const TEL_SLOTS_OFF: u32 = 8;
const TEL_SLOTS_LEN: u32 = 12;
const TEL_FLIGHT: u32 = 16;
// `FlightRoot`: `n_tasks`, `capacity`, the task slice.
const FLIGHT_N_TASKS: u32 = 0;
const FLIGHT_CAPACITY: u32 = 4;
const FLIGHT_TASKS_OFF: u32 = 8;
const FLIGHT_TASKS_LEN: u32 = 12;
// `FlightTask`: the cursor's cache line, then the ring slice.
const TASK_BYTES: u32 = 128;
const TASK_RING_OFF: u32 = 64;
const TASK_RING_LEN: u32 = 68;

#[test]
fn a_scribbled_telemetry_or_flight_directory_reads_as_absent_never_a_panic() {
    const SLOTS: u32 = 3;
    const TASKS: u32 = 2;
    const RING: u32 = 16;
    let (n, t, r) = (SLOTS as usize, TASKS as usize, RING as usize);
    let arena = Arc::new(ShmArena::new(TelemetryPlane::bytes_needed(n, t, r)).expect("arena"));
    let plane = TelemetryPlane::create_in(&arena, n, t, r).expect("plane");
    plane
        .writer(0, 0, Role::Server)
        .publish(&Default::default());
    let live = plane.flight().expect("flight recorder");
    let word = |off: u32| arena.get::<AtomicU32>(ShmPtr::from_raw(off));
    let beyond = (arena.capacity() as u32).next_multiple_of(4096) + 4096;
    let root = arena.aux::<AtomicU32>().expect("aux root").raw();
    let flight = word(root + TEL_FLIGHT).load(SeqCst);
    let tasks = word(flight + FLIGHT_TASKS_OFF).load(SeqCst);

    let no_plane = || TelemetryPlane::attach(&arena).is_none();
    let no_flight = || {
        TelemetryPlane::attach(&arena)
            .and_then(|p| p.flight())
            .is_none()
    };
    // Writes each of `bad` over the word at `off` (which must hold
    // `expect`), demands that reading sees nothing, puts it back and
    // demands that reading works again.
    let refuses = |what: &str, off: u32, expect: u32, bad: &[u32], absent: &dyn Fn() -> bool| {
        for &b in bad {
            assert_eq!(word(off).swap(b, SeqCst), expect, "layout: {what}");
            assert!(absent(), "{what} = {b:#x} must read as absent");
            word(off).store(expect, SeqCst);
            assert!(!absent(), "{what} restored");
        }
    };

    refuses("magic", root + TEL_MAGIC, 0x5553_5450, &[0, 1], &no_plane);
    let counts = [SLOTS - 1, SLOTS + 1, u32::MAX];
    refuses("n_slots", root + TEL_N_SLOTS, SLOTS, &counts, &no_plane);
    refuses("slots.len", root + TEL_SLOTS_LEN, SLOTS, &counts, &no_plane);
    let slots = word(root + TEL_SLOTS_OFF).load(SeqCst);
    let offs = [0, beyond, slots + 4];
    refuses("slots.off", root + TEL_SLOTS_OFF, slots, &offs, &no_plane);
    let offs = [beyond, flight + 2];
    refuses("flight", root + TEL_FLIGHT, flight, &offs, &no_flight);

    let counts = [0, TASKS + 1, u32::MAX];
    refuses(
        "n_tasks",
        flight + FLIGHT_N_TASKS,
        TASKS,
        &counts,
        &no_flight,
    );
    refuses(
        "tasks.len",
        flight + FLIGHT_TASKS_LEN,
        TASKS,
        &counts,
        &no_flight,
    );
    let offs = [0, beyond, tasks + 4];
    refuses(
        "tasks.off",
        flight + FLIGHT_TASKS_OFF,
        tasks,
        &offs,
        &no_flight,
    );
    let caps = [0, RING - 1, RING + 1];
    refuses(
        "capacity",
        flight + FLIGHT_CAPACITY,
        RING,
        &caps,
        &no_flight,
    );
    for task in (0..TASKS).map(|i| tasks + i * TASK_BYTES) {
        let lens = [0, RING - 1, RING + 1, u32::MAX];
        refuses("ring.len", task + TASK_RING_LEN, RING, &lens, &no_flight);
        let ring = word(task + TASK_RING_OFF).load(SeqCst);
        let offs = [0, beyond, ring + 4];
        refuses("ring.off", task + TASK_RING_OFF, ring, &offs, &no_flight);
    }

    // Handles made before the scribbles run on the counts and offsets they
    // validated: every directory word at once is garbage, and they still
    // read, record and drain in range.
    for off in [
        root + TEL_N_SLOTS,
        root + TEL_SLOTS_OFF,
        flight + FLIGHT_N_TASKS,
        flight + FLIGHT_TASKS_OFF,
        tasks + TASK_RING_OFF,
        tasks + TASK_RING_LEN,
    ] {
        word(off).store(beyond, SeqCst);
    }
    assert_eq!(plane.n_slots(), n);
    assert_eq!(plane.readings().len(), 1);
    assert!(plane.read(n).is_none(), "a slot the plane lacks");
    let ring = live.ring(0).expect("ring 0");
    for i in 0..2 * RING {
        ring.record(u64::from(i), TracePoint::Proto(ProtoEvent::Enqueue));
    }
    let trace = live.collect(&[]);
    assert_eq!((trace.records.len(), trace.dropped), (r, u64::from(RING)));
    assert!(no_plane() && no_flight(), "and a new handle refuses them");
}

// `FutexSem`'s words a wait reads, and the `WaitSetRoot` latch line's
// words the spin before it reads.
const SEM_COUNT: u32 = 0;
const SEM_WAITERS: u32 = 4;
const WS_RING_STAMP: u32 = 8;
const WS_BUDGET: u32 = 16;

/// The semaphore and latch words are shared too. Whatever a peer writes
/// into the doorbell's `count` or `waiters`, or into the WaitSet's ring
/// stamp or learned spin budget — before a wait, or while a waiter sleeps
/// — no wait panics, every request is still served, and no wait is
/// budgeted a spin past §5's 25 µs.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[test]
fn scribbled_semaphore_words_never_make_a_wait_spin_long_or_panic() {
    use std::time::Duration;
    const PAUSE_NANOS: u64 = 25_000;
    let arena = Arc::new(ShmArena::new(1 << 16).expect("arena"));
    // No metrics: each round's waiter is a fresh thread on task 1.
    let mut cfg = NativeConfig::for_clients(0).without_metrics();
    (cfg.n_sems, cfg.n_msgqs) = (1, 0);
    let (os, sems) = NativeOs::new_shared(cfg, Arc::clone(&arena)).expect("sems");
    let root = WaitSetRoot::create_in(&arena, 2, 0).expect("waitset");
    let ws = WaitSet::attach(&arena, root);
    let word = |at: u32| -> &AtomicU32 { arena.get(ShmPtr::from_raw(at)) };
    let (sem, latch) = (sems.at(0).raw(), root.raw());
    let stamp: &AtomicU64 = arena.get(ShmPtr::from_raw(latch + WS_RING_STAMP));
    let t = os.task(0);
    let bounded = || assert!(ws.spin_budget_nanos() <= PAUSE_NANOS);
    // One empty wait, then one request made while a waiter sleeps (or
    // would: a scribbled `waiters` can hide it from the `V`, and its
    // heartbeat finds the request instead). `mid_sleep` scribbles once the
    // waiter has registered.
    let round = |mid_sleep: &dyn Fn()| {
        let _ = ws.wait_deadline(&t, &mut 0, Duration::from_millis(1));
        bounded();
        let before = os.sem(0).waiting();
        let got = std::thread::scope(|sc| {
            let waiter =
                sc.spawn(|| ws.wait_deadline(&os.task(1), &mut 0, Duration::from_millis(50)));
            let t0 = std::time::Instant::now();
            while os.sem(0).waiting() == before && t0.elapsed() < Duration::from_millis(20) {
                std::thread::yield_now();
            }
            mid_sleep();
            ws.notify(&t, 1);
            waiter.join().expect("no panic in the wait")
        });
        assert_eq!(
            got.ok().or_else(|| ws.poll(&mut 0)),
            Some(1),
            "request lost"
        );
        bounded();
    };

    // A count at the SEMVMX limit makes the next `V` die loudly by design
    // (`FutexSem::v`'s overflow panic), so these stay below it.
    for bad in [1, 7, 30_000] {
        assert_eq!(word(sem + SEM_COUNT).swap(bad, SeqCst), 0, "layout: count");
        round(&|| {});
        word(sem + SEM_COUNT).store(0, SeqCst);
    }
    for bad in [7, u32::MAX] {
        let waiters = word(sem + SEM_WAITERS);
        assert_eq!(waiters.swap(bad, SeqCst), 0, "layout: waiters");
        round(&|| {});
        waiters.store(0, SeqCst);
    }
    // The rounds above rang: the stamp is a reading of the shared clock.
    let honest = stamp.load(SeqCst);
    assert!(
        (1..=monotonic_nanos()).contains(&honest),
        "layout: ring_stamp"
    );
    for bad in [1, u64::MAX, u64::MAX - 1, monotonic_nanos() + (1 << 40)] {
        // A credit no ring stamped: the wait that takes it learns from
        // the scribbled stamp.
        stamp.store(bad, SeqCst);
        word(sem + SEM_COUNT).store(1, SeqCst);
        round(&|| {});
        round(&|| stamp.store(bad, SeqCst));
    }
    for bad in [PAUSE_NANOS as u32 + 1, u32::MAX] {
        let budget = word(latch + WS_BUDGET);
        let honest = budget.swap(bad, SeqCst);
        assert!(u64::from(honest) <= PAUSE_NANOS, "layout: budget");
        assert_eq!(ws.spin_budget_nanos(), PAUSE_NANOS, "clamped at its read");
        round(&|| {});
        round(&|| budget.store(bad, SeqCst));
        budget.store(honest, SeqCst);
    }
    assert_eq!(os.sem(0).count(), 0, "every credit consumed");
}
