//! The lock-free bounded ring in shared-memory (offset) form — the queue
//! that structurally eliminates the abandoned-lock failure mode.
//!
//! The two-lock queue ([`ShmQueue`](crate::ShmQueue)) keeps its spinlocks in
//! the shared segment, so a producer SIGKILLed inside its tail-lock critical
//! section leaves the lock held *forever* and wedges every surviving
//! producer. This ring has no locks to abandon: every operation is a short
//! sequence of individually-atomic steps on per-slot sequence words
//! (Vyukov-style, wCQ-adjacent), and a process that dies between any two
//! steps leaves no lock behind: every survivor's operation still
//! completes. The worst a corpse can leave behind is a *hole* — a
//! claimed-but-never-published slot — which reads as "empty" to consumers
//! and which only the poison-drain path and fsck retire
//! ([`ShmRing::reclaim_stuck`], [`ShmRing::fsck`]). Nothing spins or
//! sleeps on a hole, but reading as empty is not harmless: a hole at the
//! head of a live MPSC receive ring hides every request published behind
//! it until fsck or poison retires it, and a live server's receive queue
//! is never poisoned. So a producer's death can stall its consumer.
//!
//! Two producer modes share one layout and one consumer path:
//!
//! * [`RingMode::Spsc`] — single producer: claiming a ticket is a plain
//!   store (no CAS), the wait-free fast path for reply queues.
//! * [`RingMode::Mpsc`] — multiple producers claim tickets by CAS, for the
//!   shared receive queue.
//!
//! In **both** modes the *publish* is a CAS (`seq: pos → pos+1`), not
//! Vyukov's blind store: publication and the fault path's hole reclamation
//! (`seq: pos → pos+capacity`) race on the same word, so exactly one wins —
//! a slow-but-alive producer whose slot was reclaimed under it observes
//! [`RingPush::Dropped`] instead of corrupting the lap arithmetic. The
//! dequeue side also claims by CAS in both modes, because a poison-drain
//! can race the queue's live consumer (e.g. the server tombstoning every
//! reply queue while a client is still dequeuing its own) and two
//! consumers would each deliver the same message.
//!
//! **The element rides in the slot.** A slot is its sequence word plus the
//! three words of an [`Elem`] — 32 bytes, two to a cache line — so an
//! enqueue allocates nothing beyond its ticket. The three words cannot
//! tear: a producer writes them only between winning ticket `pos` (it
//! observed `seq == pos`, i.e. the previous lap's consumer is done with
//! the slot) and its publishing CAS (`Release`); a consumer reads them
//! only after observing `seq == pos + 1` (`Acquire`) and winning the head
//! CAS, and recycles the slot (`seq = pos + capacity`, `Release`) after
//! the read. Every slot therefore has one writer, then one reader, per
//! lap, with a release/acquire edge at each hand-over. (The one exception
//! is deliberate: on a queue being poison-drained, a producer that lost
//! its slot to [`ShmRing::reclaim_stuck`] may still be storing while the
//! next lap's producer stores — the drain discards that queue's messages
//! anyway.)
//!
//! Flow control matches the two-lock queue: a full ring refuses the
//! enqueue, which is what triggers the paper's `sleep(1)` back-off.

use crate::{Elem, ElemCell};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use usipc_shm::{CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// Producer topology of a [`ShmRing`] (the consumer path is identical in
/// both modes; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingMode {
    /// Exactly one producer at a time. Successive producers on different
    /// threads are fine provided each hand-over is ordered by a
    /// happens-before edge (the reply-queue pattern: the next producer
    /// only exists because it dequeued a request the previous reply's
    /// consumer enqueued).
    Spsc,
    /// Any number of concurrent producers (ticket claim by CAS).
    Mpsc,
}

const MODE_SPSC: u32 = 0;
const MODE_MPSC: u32 = 1;

/// One ring slot: sequence word plus payload.
///
/// Slot `i` starts at `seq == i`. For ticket `pos` (landing in slot
/// `pos % capacity`), the sequence word encodes the slot's state:
/// `seq == pos` — free for this lap (or claimed and not yet published);
/// `seq == pos + 1` — published, ready to dequeue;
/// `seq == pos + capacity` — consumed (free for the next lap's ticket).
///
/// 32 bytes, 32-aligned: two slots per cache line, none straddling one.
#[repr(C, align(32))]
#[derive(Debug)]
pub struct RingSlot {
    seq: AtomicU64,
    elem: ElemCell,
}

unsafe impl ShmSafe for RingSlot {}

/// Ring bookkeeping. The producer and consumer cursors sit on separate
/// cache lines so enqueues never bounce the line dequeues hammer.
/// `capacity` and `mode` are written at creation and read once, by
/// [`ShmRing::view`]; they are atomics because a peer *can* write them.
#[repr(C)]
#[derive(Debug)]
pub struct RingHeader {
    enqueue_pos: CacheAligned<AtomicU64>,
    dequeue_pos: CacheAligned<AtomicU64>,
    capacity: AtomicU64,
    mode: AtomicU32,
}

unsafe impl ShmSafe for RingHeader {}

/// Outcome of a [`ShmRing::try_push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPush {
    /// Enqueued and visible to the consumer.
    Queued,
    /// The ring is full — flow control, back off and retry.
    Full,
    /// The ticket was claimed but a poison-drain reclaimed the slot before
    /// this producer published ([`ShmRing::reclaim_stuck`] won the publish
    /// CAS race). The element was *not* enqueued and never will be. Only
    /// possible on a queue that is being drained on a dead peer's behalf —
    /// losing the message there is exactly dead-peer semantics.
    Dropped,
}

/// What [`ShmRing::reclaim_stuck`] found at the head of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingReclaim {
    /// No hole at the head: the ring is empty, or the head element is
    /// published and an ordinary dequeue will take it.
    Clean,
    /// A claimed-but-unpublished slot was reclaimed. Its producer died
    /// mid-enqueue (its element is lost; the slot itself is back in
    /// service, so nothing leaks) — or, rarely, is alive and will observe
    /// [`RingPush::Dropped`].
    Leaked,
    /// The race resolved the other way: the slow producer published
    /// between our inspection and our reclaim CAS, so the element was
    /// *recovered* — the caller owns it now, exactly as if dequeued.
    Recovered(Elem),
}

/// What [`ShmRing::fsck`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingFsck {
    /// Holes (claimed-but-never-published tickets of dead producers) that
    /// were retired so the values behind them became visible again.
    pub holes_retired: u32,
    /// Values recovered through the [`RingReclaim::Recovered`] race arm —
    /// expected to be 0 under true quiescence, but counted faithfully.
    pub recovered: u32,
    /// Published values a dead consumer claimed but never finished taking
    /// (sub-cursor stranded claims) — recovered and kept, in order, ahead
    /// of the in-range values.
    pub claims_recovered: u32,
    /// The committed values, in FIFO order, left in place in the ring.
    pub values: Vec<Elem>,
}

impl RingFsck {
    /// Whether the pass changed anything (a clean ring reports `false`).
    pub fn repaired_anything(&self) -> bool {
        self.repairs() > 0
    }

    /// Number of individual repairs performed (for the repair ledger).
    pub fn repairs(&self) -> u32 {
        self.holes_retired + self.recovered + self.claims_recovered
    }
}

/// Handle to a lock-free bounded ring in an arena (plain offsets, `Copy`,
/// position independent — fork-inheritable like every arena structure).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct ShmRing {
    header: ShmPtr<RingHeader>,
    slots: ShmSlice<RingSlot>,
}

unsafe impl ShmSafe for ShmRing {}

impl ShmRing {
    /// Creates an empty ring; `capacity` is rounded up to a power of two
    /// with a minimum of 2 (see [`ShmRing::effective_capacity`]). The
    /// minimum is load-bearing: with a single slot the sequence scheme
    /// cannot tell "free for this lap" (`seq == pos`) from "still holding
    /// last lap's element" (`seq == pos - capacity + 1`), so an enqueue
    /// would overwrite an unconsumed element.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(arena: &ShmArena, capacity: usize, mode: RingMode) -> Result<Self, ShmError> {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        let cap = Self::effective_capacity(capacity);
        let slots = arena.alloc_slice(cap, |i| RingSlot {
            seq: AtomicU64::new(i as u64),
            elem: ElemCell::default(),
        })?;
        let header = arena.alloc(RingHeader {
            enqueue_pos: CacheAligned::new(AtomicU64::new(0)),
            dequeue_pos: CacheAligned::new(AtomicU64::new(0)),
            capacity: AtomicU64::new(cap as u64),
            mode: AtomicU32::new(match mode {
                RingMode::Spsc => MODE_SPSC,
                RingMode::Mpsc => MODE_MPSC,
            }),
        })?;
        Ok(ShmRing { header, slots })
    }

    /// The capacity a ring created with `capacity` actually provides
    /// (next power of two, minimum 2).
    pub fn effective_capacity(capacity: usize) -> usize {
        capacity.next_power_of_two().max(2)
    }

    /// Arena bytes [`Self::create`] consumes for a ring of `capacity`
    /// elements (after rounding), padded by worst-case alignment slack.
    pub fn bytes_needed(capacity: usize) -> usize {
        Self::effective_capacity(capacity) * core::mem::size_of::<RingSlot>()
            + core::mem::align_of::<RingSlot>()
            + core::mem::size_of::<RingHeader>()
            + core::mem::align_of::<RingHeader>()
    }

    /// Resolves the ring **once** — the trust boundary for a handle that
    /// lives in memory a peer can write. [`ShmError::BadSegment`] when the
    /// header or the slot array is outside the arena's allocated range or
    /// misaligned, `capacity` is not a power of two ≥ 2 equal to the slot
    /// count, or `mode` is not one [`Self::create`] writes. The view keeps
    /// its *own* mask and mode: nothing written to the header afterwards
    /// can move this process's indexing.
    pub fn view<'a>(&self, arena: &'a ShmArena) -> Result<RingView<'a>, ShmError> {
        let hdr = arena.try_get(self.header)?;
        let slots = arena.try_get_slice(self.slots)?;
        let cap = hdr.capacity.load(Ordering::Relaxed);
        let mode = hdr.mode.load(Ordering::Relaxed);
        if cap < 2 || !cap.is_power_of_two() || cap != slots.len() as u64 || mode > MODE_MPSC {
            return Err(ShmError::BadSegment);
        }
        Ok(RingView {
            hdr,
            slots,
            mask: cap - 1,
            spsc: mode == MODE_SPSC,
        })
    }
}

/// The arena-taking fronts of [`ShmRing`]: each resolves a [`RingView`] for the
/// one call (panicking on a malformed handle) and runs its method of that name.
macro_rules! per_call {
    ($($(#[$attr:meta])* $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        impl ShmRing {$(
            #[doc = concat!("[`RingView::", stringify!($name), "`], resolving per call.")]
            $(#[$attr])*
            pub fn $name(&self, arena: &ShmArena $(, $arg: $ty)*) -> $ret {
                self.view(arena).expect("malformed ring handle").$name($($arg),*)
            }
        )*}
    };
}

per_call! {
    capacity() -> usize;
    try_push(elem: Elem) -> RingPush;
    enqueue(elem: Elem) -> bool;
    dequeue() -> Option<Elem>;
    is_empty() -> bool;
    len() -> usize;
    reclaim_stuck() -> RingReclaim;
    snapshot_published() -> Vec<Elem>;
    fsck() -> RingFsck;
    #[doc(hidden)] step_enqueue_claim() -> Option<u64>;
    #[doc(hidden)] step_enqueue_store(pos: u64, elem: Elem) -> ();
    #[doc(hidden)] step_enqueue_publish(pos: u64, elem: Elem) -> bool;
    #[doc(hidden)] step_dequeue_claim() -> Option<u64>;
    #[doc(hidden)] step_dequeue_finish(pos: u64) -> Elem;
}

/// A ring resolved and validated by [`ShmRing::view`]. The ring algorithm
/// lives here — index arithmetic on a process-local mask and nothing else:
/// no operation consults the arena or re-reads `capacity` or `mode`.
#[derive(Debug, Clone, Copy)]
pub struct RingView<'a> {
    hdr: &'a RingHeader,
    /// `mask + 1` slots (checked at [`ShmRing::view`]).
    slots: &'a [RingSlot],
    mask: u64,
    spsc: bool,
}

impl<'a> RingView<'a> {
    /// Maximum number of elements (the rounded capacity).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot ticket `pos` lands in.
    #[inline]
    fn slot(&self, pos: u64) -> &'a RingSlot {
        &self.slots[(pos & self.mask) as usize]
    }

    /// Attempts to enqueue with the full outcome (see [`RingPush`]).
    #[inline]
    pub fn try_push(&self, elem: Elem) -> RingPush {
        let Some(pos) = self.step_enqueue_claim() else {
            return RingPush::Full;
        };
        if self.step_enqueue_publish(pos, elem) {
            RingPush::Queued
        } else {
            RingPush::Dropped
        }
    }

    /// Attempts to enqueue; `false` when the ring is full. A
    /// [`RingPush::Dropped`] outcome reports `true`: the element was
    /// accepted and then immediately lost to a poison-drain — delivered,
    /// then discarded with the rest of the dead peer's queue.
    #[inline]
    pub fn enqueue(&self, elem: Elem) -> bool {
        self.try_push(elem) != RingPush::Full
    }

    /// Removes the oldest *published* element, or `None` if none is ready.
    ///
    /// A hole (claimed-unpublished slot) at the head reads as empty: the
    /// element logically after it stays invisible until the hole is
    /// published or reclaimed. That is deliberate — it keeps "observed
    /// non-empty" actionable — and it is harmless for liveness, because
    /// the producer that eventually publishes the hole also runs the
    /// protocols' wake-up sequence.
    #[inline]
    pub fn dequeue(&self) -> Option<Elem> {
        let pos = self.step_dequeue_claim()?;
        Some(self.step_dequeue_finish(pos))
    }

    /// Cheap emptiness poll — the `empty(Q)` test in the BSLS spin loop.
    ///
    /// Same advisory contract as the two-lock queue's, with the same
    /// actionable half: `false` means the head slot is *published*, so an
    /// immediately following [`Self::dequeue`] by this thread finds it
    /// (unless another consumer takes it first). Keyed on the head slot's
    /// sequence word, **not** on `enqueue_pos - dequeue_pos`: a hole makes
    /// the latter positive while nothing is dequeueable, and a consumer
    /// spinning on that signal would busy-loop on a corpse's claim.
    #[inline]
    pub fn is_empty(&self) -> bool {
        let pos = self.hdr.dequeue_pos.load(Ordering::Acquire);
        let seq = self.slot(pos).seq.load(Ordering::Acquire);
        (seq as i64 - (pos + 1) as i64) < 0
    }

    /// Number of tickets in flight (`enqueue_pos - dequeue_pos`):
    /// published elements *plus holes*. Approximate under concurrency;
    /// suitable for backlog heuristics and depth gauges, not for an
    /// if-then-act. For "is anything dequeueable" use [`Self::is_empty`].
    #[inline]
    pub fn len(&self) -> usize {
        let e = self.hdr.enqueue_pos.load(Ordering::Acquire);
        let d = self.hdr.dequeue_pos.load(Ordering::Acquire);
        e.saturating_sub(d) as usize
    }

    /// Fault-path head inspection: if the head slot is a *hole* (ticket
    /// claimed, never published — the signature of a producer that died
    /// mid-enqueue), reclaim it so the elements behind it become visible
    /// again. See [`RingReclaim`] for the three outcomes.
    ///
    /// Safe to race ordinary dequeues and the straggling producer itself:
    /// the head claim goes through the same `dequeue_pos` CAS dequeues
    /// use, and the reclaim/publish race on the sequence word has exactly
    /// one winner. Intended to be called only while draining a poisoned
    /// queue — on a live queue it would steal a slot out from under a
    /// merely slow producer.
    pub fn reclaim_stuck(&self) -> RingReclaim {
        let hdr = self.hdr;
        let pos = hdr.dequeue_pos.load(Ordering::Acquire);
        if hdr.enqueue_pos.load(Ordering::Acquire) <= pos {
            return RingReclaim::Clean; // no tickets in flight
        }
        let slot = self.slot(pos);
        if slot.seq.load(Ordering::Acquire) != pos {
            return RingReclaim::Clean; // published (or already recycled)
        }
        // A hole. Take ownership of the head index the same way a dequeue
        // would, then race the (possibly live) producer for the slot.
        if hdr
            .dequeue_pos
            .compare_exchange(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return RingReclaim::Clean; // another consumer moved the head
        }
        match slot.seq.compare_exchange(
            pos,
            pos + self.mask + 1,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => RingReclaim::Leaked, // producer (if alive) sees Dropped
            Err(_) => {
                // The producer published in the window: consume normally.
                let elem = slot.elem.load();
                slot.seq.store(pos + self.mask + 1, Ordering::Release);
                RingReclaim::Recovered(elem)
            }
        }
    }

    /// Fsck support: the published (committed) values currently in the
    /// ring, in ticket order, holes skipped. Pure reads — never repairs
    /// anything. Exact only under quiescence; under concurrency it is a
    /// recent-past snapshot like [`Self::len`].
    pub fn snapshot_published(&self) -> Vec<Elem> {
        let d = self.hdr.dequeue_pos.load(Ordering::Acquire);
        let e = self.hdr.enqueue_pos.load(Ordering::Acquire);
        let mut out = Vec::new();
        for pos in d..e {
            let slot = self.slot(pos);
            if slot.seq.load(Ordering::Acquire) == pos + 1 {
                out.push(slot.elem.load());
            }
        }
        out
    }

    /// Segment fsck for the ring: audits every slot's sequence word
    /// against the cursors, retires every hole a dead producer left,
    /// recovers values stranded by a dead *consumer*, and preserves every
    /// committed value in order.
    ///
    /// **Requires quiescence** (the recovery window after the owner's
    /// death). Three damage classes, keyed on slot `i`'s sequence word
    /// `s` and the cursors `d = dequeue_pos`, `e = enqueue_pos`:
    ///
    /// * *Stranded claim* (`s ≡ i+1 (mod cap)` with ticket `s-1 < d`): a
    ///   consumer claimed the head and died before finishing — the cursor
    ///   moved past a still-published slot, which would otherwise never
    ///   recycle (the ring reads "full" forever once the enqueue cursor
    ///   laps to it). The value is intact and is **recovered**: it
    ///   precedes everything still in `[d, e)` in FIFO order.
    /// * *Stranded hole* (`s ≡ i (mod cap)` with ticket `s < d`): a
    ///   reclaim interrupted between its cursor advance and its sequence
    ///   CAS (kill-during-recovery). No value was ever published; the
    ///   slot is refreshed for its next lap.
    /// * *In-range hole* (`s == pos` for `pos ∈ [d, e)`): the classic
    ///   dead-producer hole. [`Self::reclaim_stuck`] only retires these
    ///   at the head, so when any exist fsck drains the whole ring —
    ///   ordinary dequeues for published values, `reclaim_stuck` for
    ///   holes — and re-enqueues the committed values in order.
    ///
    /// An undamaged ring takes the pure-read path: `fsck` on a clean ring
    /// is a strict byte-level no-op (a drain-and-requeue would preserve
    /// the logical content but advance cursors and sequence words, which
    /// the idempotence tests would catch). Repairs are made in place, so a
    /// view taken before the pass is as good after it.
    pub fn fsck(&self) -> RingFsck {
        let mask = self.mask;
        let d = self.hdr.dequeue_pos.load(Ordering::Acquire);
        let mut report = RingFsck::default();
        // Sub-cursor audit: slots the dequeue cursor has passed must be
        // consumed (`seq ≡ i + cap` for their old ticket). Anything else
        // is a corpse's footprint. Both repairs store `ticket + cap` —
        // the consumed state for the lap the cursor already credited —
        // which is exactly where the next enqueue lap expects to find
        // the slot (`e ≤ ticket + cap` always: no producer can lap past
        // an unrecycled slot).
        let mut stranded: Vec<(u64, Elem)> = Vec::new();
        for (i, slot) in (0u64..).zip(self.slots) {
            let s = slot.seq.load(Ordering::Acquire);
            if s < d && (s & mask) == i {
                // Stranded hole: claimed ticket `s`, cursor already past.
                slot.seq.store(s + self.mask + 1, Ordering::Release);
                report.holes_retired += 1;
            } else if s >= 1 && s - 1 < d && ((s - 1) & mask) == i {
                // Stranded claim: published ticket `s - 1`, cursor past,
                // never finished — recover the value, retire the slot.
                stranded.push((s - 1, slot.elem.load()));
                slot.seq.store(s + self.mask, Ordering::Release);
                report.claims_recovered += 1;
            }
        }
        stranded.sort_unstable_by_key(|&(pos, _)| pos);
        let published = self.snapshot_published();
        if stranded.is_empty() && self.len() == published.len() {
            // No stranded claims to reorder and no in-range holes:
            // nothing to drain. (On a fully clean ring this path makes
            // the whole pass a pure read.)
            report.values = published;
            return report;
        }
        // Drain-and-requeue: stranded claims are older than everything
        // still in `[d, e)`, so they go first.
        report.values = stranded.into_iter().map(|(_, v)| v).collect();
        loop {
            if let Some(v) = self.dequeue() {
                report.values.push(v);
                continue;
            }
            match self.reclaim_stuck() {
                RingReclaim::Leaked => report.holes_retired += 1,
                RingReclaim::Recovered(v) => {
                    report.values.push(v);
                    report.recovered += 1;
                }
                RingReclaim::Clean => break,
            }
        }
        for &v in &report.values {
            let pushed = self.try_push(v);
            debug_assert_eq!(pushed, RingPush::Queued, "requeue into a drained ring");
        }
        report
    }

    // --- stepped operations -------------------------------------------------
    //
    // The production paths above are compositions of these steps, exposed
    // (doc-hidden) so the kill drills and the interleaving explorer can
    // stop a producer or consumer between any two shared-memory effects —
    // exactly the states a SIGKILL can strand the segment in.

    /// Claims the next enqueue ticket, or `None` when the ring is full.
    /// First half of an enqueue; a process that dies after this step
    /// leaves a hole for [`Self::reclaim_stuck`].
    #[doc(hidden)]
    #[inline]
    pub fn step_enqueue_claim(&self) -> Option<u64> {
        let hdr = self.hdr;
        let mut pos = hdr.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let seq = self.slot(pos).seq.load(Ordering::Acquire);
            match seq as i64 - pos as i64 {
                0 => {
                    if self.spsc {
                        // Sole producer: no rival can claim this ticket.
                        hdr.enqueue_pos.store(pos + 1, Ordering::Relaxed);
                        return Some(pos);
                    }
                    match hdr.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some(pos),
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // unconsumed previous lap: full
                _ => pos = hdr.enqueue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Writes `elem` into the slot of a claimed ticket without publishing
    /// it: a process that dies after this step leaves the same hole as one
    /// that died before it — the words are in the slot, invisible.
    #[doc(hidden)]
    pub fn step_enqueue_store(&self, pos: u64, elem: Elem) {
        self.slot(pos).elem.store(elem);
    }

    /// Stores and publishes `elem` under a claimed ticket. Second half of
    /// an enqueue. `false` means a poison-drain reclaimed the slot first
    /// ([`RingPush::Dropped`]): the element was not enqueued.
    #[doc(hidden)]
    #[inline]
    pub fn step_enqueue_publish(&self, pos: u64, elem: Elem) -> bool {
        let slot = self.slot(pos);
        slot.elem.store(elem);
        // CAS, not a blind store: the one-winner race with `reclaim_stuck`.
        slot.seq
            .compare_exchange(pos, pos + 1, Ordering::Release, Ordering::Relaxed)
            .is_ok()
    }

    /// Claims the head element if one is published; `None` when nothing is
    /// dequeueable (empty, or a hole at the head). First half of a
    /// dequeue; the claimer owns slot `pos` exclusively until it runs
    /// [`Self::step_dequeue_finish`].
    #[doc(hidden)]
    #[inline]
    pub fn step_dequeue_claim(&self) -> Option<u64> {
        let hdr = self.hdr;
        let mut pos = hdr.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let seq = self.slot(pos).seq.load(Ordering::Acquire);
            match seq as i64 - (pos + 1) as i64 {
                0 => {
                    match hdr.dequeue_pos.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some(pos),
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // not published: empty or a hole
                _ => pos = hdr.dequeue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Reads the element of a claimed head slot and recycles the slot for
    /// the next lap. Second half of a dequeue.
    #[doc(hidden)]
    #[inline]
    pub fn step_dequeue_finish(&self, pos: u64) -> Elem {
        let slot = self.slot(pos);
        let elem = slot.elem.load();
        slot.seq.store(pos + self.mask + 1, Ordering::Release);
        elem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{unw, w};
    use std::sync::Arc;

    fn ring(capacity: usize, mode: RingMode) -> (Arc<ShmArena>, ShmRing) {
        let arena = Arc::new(ShmArena::new(1 << 18).unwrap());
        let q = ShmRing::create(&arena, capacity, mode).unwrap();
        (arena, q)
    }

    #[test]
    fn fifo_and_capacity_both_modes() {
        for mode in [RingMode::Spsc, RingMode::Mpsc] {
            let (a, q) = ring(4, mode);
            for i in 0..4u64 {
                assert_eq!(q.try_push(&a, w(i)), RingPush::Queued, "{mode:?} slot {i}");
            }
            assert_eq!(q.try_push(&a, w(99)), RingPush::Full, "{mode:?}");
            assert_eq!(q.len(&a), 4);
            for i in 0..4u64 {
                assert!(!q.is_empty(&a));
                assert_eq!(q.dequeue(&a), Some(w(i)), "{mode:?}");
            }
            assert_eq!(q.dequeue(&a), None);
            assert!(q.is_empty(&a));
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(ShmRing::effective_capacity(1), 2);
        assert_eq!(ShmRing::effective_capacity(5), 8);
        assert_eq!(ShmRing::effective_capacity(64), 64);
        let (a, q) = ring(5, RingMode::Mpsc);
        assert_eq!(q.capacity(&a), 8);
        for i in 0..8u64 {
            assert!(q.enqueue(&a, w(i)), "slot {i}");
        }
        assert!(!q.enqueue(&a, w(99)));
    }

    #[test]
    fn wraparound_many_laps() {
        for mode in [RingMode::Spsc, RingMode::Mpsc] {
            let (a, q) = ring(2, mode);
            for i in 0..10_000u64 {
                assert!(q.enqueue(&a, w(i)), "{mode:?}");
                assert_eq!(q.dequeue(&a), Some(w(i)), "{mode:?}");
            }
        }
    }

    #[test]
    fn spsc_concurrent_transfer_in_order() {
        let (a, q) = ring(16, RingMode::Spsc);
        const N: u64 = 30_000;
        let ap = Arc::clone(&a);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while !q.enqueue(&ap, w(i)) {
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        while expect < N {
            if let Some(v) = q.dequeue(&a) {
                assert_eq!(unw(v), expect, "FIFO violated");
                expect += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(q.is_empty(&a));
    }

    #[test]
    fn mpsc_conservation_and_per_producer_order() {
        let (a, q) = ring(32, RingMode::Mpsc);
        const PRODUCERS: u64 = 4;
        const PER: u64 = 6_000;
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        while !q.enqueue(&a, w(p * PER + i)) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
        let mut got = 0u64;
        while got < PRODUCERS * PER {
            if let Some(v) = q.dequeue(&a).map(unw) {
                assert!(seen.insert(v), "duplicate {v}");
                let p = (v / PER) as usize;
                let i = v % PER;
                if let Some(prev) = last_per_producer[p] {
                    assert!(i > prev, "per-producer FIFO violated");
                }
                last_per_producer[p] = Some(i);
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for t in producers {
            t.join().unwrap();
        }
        assert!(q.is_empty(&a));
    }

    #[test]
    fn observed_nonempty_is_dequeueable_spsc() {
        let (a, q) = ring(8, RingMode::Spsc);
        const N: u64 = 20_000;
        let ap = Arc::clone(&a);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                while !q.enqueue(&ap, w(i)) {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..N {
            while q.is_empty(&a) {
                std::thread::yield_now();
            }
            assert_eq!(
                q.dequeue(&a),
                Some(w(i)),
                "non-empty was observed but nothing was dequeueable"
            );
        }
        producer.join().unwrap();
        assert!(q.is_empty(&a));
    }

    /// A hole — claimed ticket, producer "dead" before publishing — must
    /// read as *empty* (nothing is dequeueable), even though `len` counts
    /// the in-flight ticket. This is the property that keeps a consumer
    /// from busy-looping on a corpse's claim: it goes to sleep, and the
    /// eventual publish (or reclaim) is what makes the queue non-empty.
    #[test]
    fn hole_reads_as_empty_until_published() {
        let (a, q) = ring(8, RingMode::Mpsc);
        let pos = q.step_enqueue_claim(&a).unwrap();
        assert!(q.is_empty(&a), "hole must not read as dequeueable");
        assert_eq!(q.dequeue(&a), None);
        assert_eq!(q.len(&a), 1, "the ticket is in flight");
        assert!(q.step_enqueue_publish(&a, pos, w(42)));
        assert!(!q.is_empty(&a));
        assert_eq!(q.dequeue(&a), Some(w(42)));
    }

    /// A hole behind a published element hides it (FIFO holds even across
    /// a corpse), and reclaiming the hole re-exposes it.
    #[test]
    fn reclaim_unblocks_elements_behind_a_hole() {
        let (a, q) = ring(8, RingMode::Mpsc);
        let dead = q.step_enqueue_claim(&a).unwrap(); // ticket 0, never published
        assert!(q.enqueue(&a, w(7))); // ticket 1, published
        assert!(q.is_empty(&a), "hole at head hides ticket 1");
        assert_eq!(q.dequeue(&a), None);
        assert_eq!(q.reclaim_stuck(&a), RingReclaim::Leaked);
        assert_eq!(q.dequeue(&a), Some(w(7)), "reclaim re-exposed ticket 1");
        assert_eq!(q.reclaim_stuck(&a), RingReclaim::Clean);
        // The corpse's late publish (were it alive after all) is refused.
        assert!(!q.step_enqueue_publish(&a, dead, w(13)));
        assert_eq!(q.dequeue(&a), None);
        // The reclaimed slot is clean for the lap that next reaches it.
        for i in 0..20u64 {
            assert!(q.enqueue(&a, w(i)));
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
    }

    #[test]
    fn reclaim_on_live_or_empty_ring_is_clean() {
        let (a, q) = ring(4, RingMode::Mpsc);
        assert_eq!(q.reclaim_stuck(&a), RingReclaim::Clean, "empty");
        assert!(q.enqueue(&a, w(5)));
        assert_eq!(q.reclaim_stuck(&a), RingReclaim::Clean, "published head");
        assert_eq!(q.dequeue(&a), Some(w(5)));
    }

    /// The publish/reclaim race has exactly one winner: across many rounds
    /// of a deliberately slow producer vs a reclaiming drainer, every
    /// value is either Dropped by the producer or Recovered/consumed by
    /// the drainer — never both, never neither.
    #[test]
    fn publish_reclaim_race_has_one_winner() {
        let (a, q) = ring(4, RingMode::Mpsc);
        const ROUNDS: u64 = 2_000;
        let ap = Arc::clone(&a);
        let producer = std::thread::spawn(move || {
            let mut dropped = 0u64;
            for i in 0..ROUNDS {
                let pos = loop {
                    match q.step_enqueue_claim(&ap) {
                        Some(p) => break p,
                        None => std::thread::yield_now(),
                    }
                };
                if i % 7 == 0 {
                    std::thread::yield_now(); // widen the race window
                }
                if !q.step_enqueue_publish(&ap, pos, w(i)) {
                    dropped += 1;
                }
            }
            dropped
        });
        let mut taken = 0u64;
        let mut leaked = 0u64;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !producer.is_finished() || !q.is_empty(&a) || q.len(&a) > 0 {
            match q.reclaim_stuck(&a) {
                RingReclaim::Leaked => leaked += 1,
                RingReclaim::Recovered(_) => taken += 1,
                RingReclaim::Clean => {}
            }
            if q.dequeue(&a).is_some() {
                taken += 1;
            }
            assert!(std::time::Instant::now() < deadline, "drill wedged");
        }
        let dropped = producer.join().unwrap();
        assert_eq!(
            taken + dropped,
            ROUNDS,
            "conservation: {taken} taken + {dropped} dropped (leaked {leaked})"
        );
        assert_eq!(dropped, leaked, "every Dropped pairs with one Leaked");
    }

    /// Kill-at-every-step drill, in-process: a producer abandoned at each
    /// step of its enqueue must never block a surviving producer or
    /// consumer, and a reclaim pass accounts for exactly the strandable
    /// states. (The real SIGKILL version forks in
    /// `usipc/tests/cross_process.rs`.)
    #[test]
    fn survivors_progress_past_any_abandoned_enqueue_step() {
        for mode in [RingMode::Spsc, RingMode::Mpsc] {
            // Step 0: die after claiming, before publishing.
            let (a, q) = ring(8, mode);
            let _hole = q.step_enqueue_claim(&a).unwrap();
            // A surviving producer (Mpsc) — or the *next* producer after a
            // hand-over (Spsc) — still enqueues, a consumer still drains.
            assert_eq!(q.try_push(&a, w(1)), RingPush::Queued, "{mode:?}");
            assert_eq!(q.dequeue(&a), None, "{mode:?}: hole hides value 1");
            assert_eq!(q.reclaim_stuck(&a), RingReclaim::Leaked, "{mode:?}");
            assert_eq!(q.dequeue(&a), Some(w(1)), "{mode:?}");

            // Step 1: die after publishing — a complete enqueue; nothing
            // dangles, the element is simply there.
            let (a, q) = ring(8, mode);
            let pos = q.step_enqueue_claim(&a).unwrap();
            assert!(q.step_enqueue_publish(&a, pos, w(2)));
            assert_eq!(q.try_push(&a, w(3)), RingPush::Queued, "{mode:?}");
            assert_eq!(q.dequeue(&a), Some(w(2)), "{mode:?}");
            assert_eq!(q.dequeue(&a), Some(w(3)), "{mode:?}");
            assert_eq!(q.reclaim_stuck(&a), RingReclaim::Clean, "{mode:?}");
        }
    }

    /// The new kill site the in-slot element opens: a producer that dies
    /// after storing its three words and before publishing them. The words
    /// sit in the slot, invisible — the same hole as a bare claim. Reclaim
    /// (live drain) or fsck (takeover) retires it, the committed
    /// neighbours keep all three of their words, and the slot serves later
    /// laps as if the corpse had never written to it.
    #[test]
    fn words_stored_but_never_published_are_an_ordinary_hole() {
        for use_fsck in [false, true] {
            let (a, q) = ring(4, RingMode::Mpsc);
            assert!(q.enqueue(&a, w(1)));
            let pos = q.step_enqueue_claim(&a).unwrap();
            q.step_enqueue_store(&a, pos, w(666)); // the corpse stops here
            assert!(q.enqueue(&a, w(3)));
            assert_eq!(q.snapshot_published(&a), [1, 3].map(w));
            if use_fsck {
                let report = q.fsck(&a);
                assert_eq!((report.holes_retired, report.repairs()), (1, 1));
                assert_eq!(report.values, [1, 3].map(w));
                assert!(!q.fsck(&a).repaired_anything(), "second pass is clean");
                assert_eq!(q.dequeue(&a), Some(w(1)));
            } else {
                assert_eq!(q.dequeue(&a), Some(w(1)));
                assert_eq!(q.dequeue(&a), None, "the hole hides ticket 2");
                assert_eq!(q.reclaim_stuck(&a), RingReclaim::Leaked);
            }
            assert_eq!(q.dequeue(&a), Some(w(3)), "fsck={use_fsck}");
            assert_eq!(q.dequeue(&a), None, "the corpse's words never surface");
            for i in 10..30u64 {
                assert!(q.enqueue(&a, w(i)), "fsck={use_fsck}: slot back in service");
                assert_eq!(q.dequeue(&a), Some(w(i)));
            }
        }
    }

    #[test]
    fn slot_is_half_a_cache_line() {
        assert_eq!(core::mem::size_of::<RingSlot>(), 32);
        assert_eq!(core::mem::align_of::<RingSlot>(), 32);
    }

    /// A consumer abandoned between its two dequeue steps has already
    /// advanced the head past its claimed slot; survivors keep operating.
    /// The claimed element is lost with the corpse (dead-consumer
    /// semantics) and its slot never recycles — the seq word stays at
    /// `pos + 1` — so once the enqueue cursor laps around to it the ring
    /// reads "full": *flow control*, the same signal as a slow consumer,
    /// not a wedge. (A dead consumer poisons the channel anyway, so the
    /// degraded ring is torn down, never spun on.)
    #[test]
    fn abandoned_dequeue_claim_degrades_to_flow_control() {
        let (a, q) = ring(2, RingMode::Mpsc);
        assert!(q.enqueue(&a, w(1)));
        let _claimed = q.step_dequeue_claim(&a).unwrap(); // corpse stops here
                                                          // Survivors still move: the other slot keeps cycling.
        assert!(q.enqueue(&a, w(2)));
        assert_eq!(q.dequeue(&a), Some(w(2)));
        // The next ticket lands on the corpse's un-recycled slot: full,
        // immediately and permanently — but every refusal returns at once.
        assert_eq!(q.try_push(&a, w(3)), RingPush::Full);
        assert_eq!(q.try_push(&a, w(4)), RingPush::Full);
        assert_eq!(q.dequeue(&a), None);
    }

    /// Fsck on a clean ring is a pure read: zero repairs, the published
    /// snapshot intact, and the ring still drains in order afterwards.
    #[test]
    fn fsck_on_clean_ring_reports_nothing() {
        let (a, q) = ring(8, RingMode::Mpsc);
        for i in 0..5u64 {
            assert!(q.enqueue(&a, w(i)));
        }
        assert_eq!(q.dequeue(&a), Some(w(0)));
        let report = q.fsck(&a);
        assert!(!report.repaired_anything(), "{report:?}");
        assert_eq!(report.values, [1, 2, 3, 4].map(w));
        for i in 1..5u64 {
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
    }

    /// Fsck retires a mid-ring hole (dead producer) while preserving the
    /// committed values on both sides of it, in order; a second pass is a
    /// no-op.
    #[test]
    fn fsck_retires_mid_ring_hole_and_keeps_order() {
        let (a, q) = ring(8, RingMode::Mpsc);
        assert!(q.enqueue(&a, w(1)));
        let _hole = q.step_enqueue_claim(&a).unwrap(); // corpse's ticket
        assert!(q.enqueue(&a, w(3)));
        assert!(q.enqueue(&a, w(4)));
        let report = q.fsck(&a);
        assert_eq!(report.holes_retired, 1);
        assert_eq!(report.values, [1, 3, 4].map(w));
        assert!(!q.fsck(&a).repaired_anything(), "second pass must be clean");
        assert_eq!(q.dequeue(&a), Some(w(1)));
        assert_eq!(q.dequeue(&a), Some(w(3)));
        assert_eq!(q.dequeue(&a), Some(w(4)));
        assert_eq!(q.dequeue(&a), None);
        for i in 0..8u64 {
            assert!(q.enqueue(&a, w(i)), "capacity restored after retirement");
        }
    }

    /// Fsck recovers a stranded dequeue claim — the consumer died between
    /// its two dequeue steps, leaving a published slot below the cursor
    /// that would otherwise never recycle (permanent "full") and a value
    /// that would otherwise be lost. The recovered value keeps its FIFO
    /// position ahead of everything still in range.
    #[test]
    fn fsck_recovers_stranded_dequeue_claim() {
        let (a, q) = ring(2, RingMode::Mpsc);
        assert!(q.enqueue(&a, w(1)));
        let _claimed = q.step_dequeue_claim(&a).unwrap(); // corpse stops here
        assert!(q.enqueue(&a, w(2)));
        assert_eq!(q.try_push(&a, w(3)), RingPush::Full, "stranded slot wedges");
        let report = q.fsck(&a);
        assert_eq!(report.claims_recovered, 1);
        assert_eq!(report.values, [1, 2].map(w), "recovered value leads");
        assert!(!q.fsck(&a).repaired_anything(), "second pass must be clean");
        assert_eq!(q.dequeue(&a), Some(w(1)));
        assert_eq!(q.dequeue(&a), Some(w(2)));
        // The slot recycles again: the permanent-full wedge is gone.
        for i in 0..10u64 {
            assert!(q.enqueue(&a, w(i)));
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
    }

    /// Kill-during-recovery: a reclaimer that died between its cursor
    /// advance and its sequence CAS leaves a stranded hole below the
    /// cursor; fsck refreshes the slot for its next lap.
    #[test]
    fn fsck_retires_hole_stranded_below_the_cursor() {
        let (a, q) = ring(2, RingMode::Mpsc);
        let hdr = a.get(q.header);
        let _hole = q.step_enqueue_claim(&a).unwrap(); // ticket 0, never published
        assert!(q.enqueue(&a, w(7))); // ticket 1
                                      // Simulate the dying reclaimer: cursor advanced, seq CAS never ran.
        assert_eq!(
            hdr.dequeue_pos
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed),
            Ok(0)
        );
        let report = q.fsck(&a);
        assert_eq!(report.holes_retired, 1);
        assert_eq!(report.values, [7].map(w));
        assert!(!q.fsck(&a).repaired_anything(), "second pass must be clean");
        assert_eq!(q.dequeue(&a), Some(w(7)));
        for i in 0..10u64 {
            assert!(q.enqueue(&a, w(i)), "slot {i} recycles");
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
    }

    /// Fsck repairs in place — it moves cursors and sequence words, never
    /// the header or the slot array — so a view resolved before the pass
    /// (a handle built before a takeover) is as good after it.
    #[test]
    fn a_view_taken_before_fsck_is_as_good_after_it() {
        let (a, q) = ring(4, RingMode::Mpsc);
        let view = q.view(&a).unwrap();
        assert!(view.enqueue(w(1)));
        let _hole = view.step_enqueue_claim().unwrap();
        assert!(view.enqueue(w(3)));
        assert_eq!(q.fsck(&a).holes_retired, 1);
        assert_eq!(view.dequeue(), Some(w(1)));
        assert_eq!(view.dequeue(), Some(w(3)));
        for i in 0..20u64 {
            assert!(view.enqueue(w(i)) && q.dequeue(&a) == Some(w(i)));
        }
        assert_eq!((view.is_empty(), view.len()), (true, 0));
    }

    #[test]
    fn snapshot_published_skips_holes_without_repairing() {
        let (a, q) = ring(8, RingMode::Mpsc);
        assert!(q.enqueue(&a, w(1)));
        let _hole = q.step_enqueue_claim(&a).unwrap();
        assert!(q.enqueue(&a, w(3)));
        assert_eq!(q.snapshot_published(&a), [1, 3].map(w));
        assert_eq!(q.len(&a), 3, "snapshot must not consume or repair");
        assert_eq!(q.dequeue(&a), Some(w(1)), "head still dequeues normally");
    }

    #[test]
    fn handle_is_plain_data() {
        let arena = ShmArena::new(1 << 18).unwrap();
        let q = ShmRing::create(&arena, 8, RingMode::Mpsc).unwrap();
        let stored = arena.alloc(q).unwrap();
        let q2 = *arena.get(stored);
        assert!(q2.enqueue(&arena, w(7)));
        assert_eq!(q.dequeue(&arena), Some(w(7)));
    }

    #[test]
    fn bytes_needed_covers_create() {
        for cap in [1usize, 2, 5, 64, 100] {
            let arena = ShmArena::new(ShmRing::bytes_needed(cap) + 256).unwrap();
            ShmRing::create(&arena, cap, RingMode::Mpsc)
                .unwrap_or_else(|e| panic!("cap {cap}: {e:?}"));
        }
    }

    // --- exhaustive interleaving explorer -----------------------------------
    //
    // Replays every interleaving of stepped producer/consumer operations
    // from a fresh ring and asserts linearizable FIFO order by ticket:
    // the dequeue sequence must be exactly the publish values in ticket
    // order. Ticket order subsumes per-producer FIFO *and* real-time
    // order (an enqueue that completes before another begins holds the
    // smaller ticket).

    /// One actor's remaining stepped work.
    enum Actor {
        Producer {
            value: u64,
            claimed: Option<u64>,
            done: bool,
        },
        Consumer {
            claimed: Option<u64>,
        },
    }

    /// Executes one step of `actor`; consumer pushes into `got`.
    fn step(q: &ShmRing, a: &ShmArena, actor: &mut Actor, got: &mut Vec<u64>) {
        match actor {
            Actor::Producer {
                value,
                claimed,
                done,
            } => {
                if *done {
                    return;
                }
                match claimed {
                    None => *claimed = q.step_enqueue_claim(a), // None = full: retry later
                    Some(pos) => {
                        assert!(
                            q.step_enqueue_publish(a, *pos, w(*value)),
                            "no drain running"
                        );
                        *done = true;
                    }
                }
            }
            Actor::Consumer { claimed } => match claimed {
                None => *claimed = q.step_dequeue_claim(a), // None = empty poll
                Some(pos) => {
                    got.push(unw(q.step_dequeue_finish(a, *pos)));
                    *claimed = None;
                }
            },
        }
    }

    fn producer_done(a: &Actor) -> bool {
        matches!(a, Actor::Producer { done: true, .. })
    }

    /// Enumerates every interleaving of `steps_per_actor` step slots via
    /// the classic multiset-permutation recursion, replaying each from
    /// scratch; returns how many schedules ran.
    fn explore(capacity: usize, producers: &[u64], consumer_steps: usize) -> u64 {
        let mut slots: Vec<usize> = Vec::new(); // actor index per step slot
        for (i, _) in producers.iter().enumerate() {
            slots.extend(std::iter::repeat_n(i, 2)); // claim + publish
        }
        slots.extend(std::iter::repeat_n(producers.len(), consumer_steps));
        let mut schedules = 0u64;
        let mut order = Vec::with_capacity(slots.len());
        permute(&mut slots.clone(), &mut order, &mut |sched| {
            run_schedule(capacity, producers, sched);
            schedules += 1;
        });
        schedules
    }

    /// Distinct permutations of `pool`, visitor-style.
    fn permute(pool: &mut Vec<usize>, order: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
        if pool.is_empty() {
            visit(order);
            return;
        }
        let mut tried = std::collections::HashSet::new();
        for i in 0..pool.len() {
            let actor = pool[i];
            if !tried.insert(actor) {
                continue;
            }
            pool.swap_remove(i);
            order.push(actor);
            permute(pool, order, visit);
            order.pop();
            pool.push(actor);
            let last = pool.len() - 1;
            pool.swap(i, last);
        }
    }

    /// Runs one schedule to completion and checks the FIFO invariants.
    fn run_schedule(capacity: usize, producers: &[u64], sched: &[usize]) {
        let arena = ShmArena::new(1 << 16).unwrap();
        let q = ShmRing::create(&arena, capacity, RingMode::Mpsc).unwrap();
        let mut actors: Vec<Actor> = producers
            .iter()
            .map(|&value| Actor::Producer {
                value,
                claimed: None,
                done: false,
            })
            .collect();
        actors.push(Actor::Consumer { claimed: None });
        let mut got = Vec::new();
        for &i in sched {
            step(&q, &arena, &mut actors[i], &mut got);
        }
        // Completion phase: schedules where an actor starved (full ring,
        // empty polls) finish round-robin — bounded, since every actor is
        // obstruction-free once it runs alone.
        for _ in 0..(producers.len() + 1) * 8 {
            for a in actors.iter_mut() {
                step(&q, &arena, a, &mut got);
            }
        }
        while let Some(v) = q.dequeue(&arena) {
            got.push(unw(v));
        }
        assert!(
            actors[..producers.len()].iter().all(producer_done),
            "a producer starved: {sched:?}"
        );
        // Linearizable FIFO by ticket: dequeues come out in ticket order,
        // and tickets 0..n were each published exactly once.
        assert_eq!(got.len(), producers.len(), "conservation: {sched:?}");
        let mut sorted: Vec<u64> = got.clone();
        sorted.sort_unstable();
        let mut expect: Vec<u64> = producers.to_vec();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "loss or duplication: {sched:?}");
        // Per-producer FIFO: for producers enqueueing multiple values the
        // schedule driver above would need per-producer scripts; with one
        // value each, ticket order == dequeue order is the whole property:
        // verify the dequeue order equals publish-ticket order by replay.
        // (The dequeue loop can only surface values in head order, and the
        // head only advances by CAS from pos to pos+1, so `got` *is* the
        // ticket order; the conservation check above completes the proof.)
    }

    /// Every interleaving of two stepped producers and a stepped consumer
    /// on a roomy ring preserves linearizable FIFO order.
    #[test]
    fn explorer_mpsc_fifo_all_interleavings() {
        let n = explore(8, &[101, 202], 4);
        assert_eq!(n, 420, "schedule count = 8!/(2!·2!·4!)");
    }

    /// Same sweep with the ring at its minimum capacity, so schedules hit
    /// the full path and wraparound too.
    #[test]
    fn explorer_mpsc_fifo_under_full_pressure() {
        let n = explore(2, &[7, 8, 9], 4);
        assert_eq!(n, 18_900, "schedule count = 10!/(2!·2!·2!·4!)");
    }

    /// Kill sweep × schedule sweep: producer 0 executes only its claim
    /// (its publish step becomes a no-op — the SIGKILL), under every
    /// interleaving of the remaining steps. No survivor ever wedges, the
    /// live producer's value is always delivered, and the reclaim pass
    /// accounts for the corpse's ticket iff it claimed one.
    #[test]
    fn explorer_killed_producer_never_wedges_survivors() {
        // Step slots: victim claim (may or may not run before the "kill"),
        // live producer claim+publish, consumer 4 polls.
        let mut schedules = 0u64;
        for victim_claims in [false, true] {
            let mut slots = vec![1usize, 1, 2, 2, 2, 2];
            if victim_claims {
                slots.push(0);
            }
            permute(&mut slots, &mut Vec::new(), &mut |sched| {
                let arena = ShmArena::new(1 << 16).unwrap();
                let q = ShmRing::create(&arena, 4, RingMode::Mpsc).unwrap();
                let mut victim = Actor::Producer {
                    value: 666,
                    claimed: None,
                    done: false,
                };
                let mut live = Actor::Producer {
                    value: 42,
                    claimed: None,
                    done: false,
                };
                let mut consumer = Actor::Consumer { claimed: None };
                let mut got = Vec::new();
                for &i in sched {
                    match i {
                        0 => {
                            // The victim's only step before the kill.
                            if let Actor::Producer { claimed, .. } = &mut victim {
                                *claimed = q.step_enqueue_claim(&arena);
                            }
                        }
                        1 => step(&q, &arena, &mut live, &mut got),
                        _ => step(&q, &arena, &mut consumer, &mut got),
                    }
                }
                // Survivor-side recovery: finish the live producer and the
                // consumer (it may hold a claimed ticket), drain, reclaim.
                let mut leaked = 0;
                for _ in 0..16 {
                    step(&q, &arena, &mut live, &mut got);
                    step(&q, &arena, &mut consumer, &mut got);
                    while let Some(v) = q.dequeue(&arena) {
                        got.push(unw(v));
                    }
                    if q.reclaim_stuck(&arena) == RingReclaim::Leaked {
                        leaked += 1;
                    }
                }
                assert!(producer_done(&live), "live producer wedged: {sched:?}");
                assert_eq!(got, vec![42], "live value lost: {sched:?}");
                let claimed = matches!(
                    victim,
                    Actor::Producer {
                        claimed: Some(_),
                        ..
                    }
                );
                assert_eq!(
                    leaked, claimed as usize,
                    "reclaim accounting wrong: {sched:?}"
                );
                assert!(q.is_empty(&arena) && q.len(&arena) == 0);
                schedules += 1;
            });
        }
        assert!(
            schedules > 100,
            "sweep degenerated to {schedules} schedules"
        );
    }
}
