//! Queue-kind dispatch: one `Copy`, arena-storable handle that is either a
//! two-lock [`ShmQueue`] or a lock-free [`ShmRing`], so channel plumbing
//! can select the queue implementation per channel without being generic
//! over it (the handle must live inside shared structures like the channel
//! root, where a type parameter would infect every consumer).
//!
//! The inactive variant's handle is a null [`ShmPtr`]; the active one is
//! *boxed in the arena* (the handles themselves are `ShmSafe` plain data).
//! Looking up the box and the ring behind it is five checked resolutions —
//! half a ring operation's time — so a holder that operates more than once
//! runs on a [`FifoView`]; the handle's arena-taking methods resolve one per call.

use crate::shm_ring::{RingMode, RingPush, RingReclaim, RingView, ShmRing};
use crate::shm_two_lock::{HeadLockBusy, ShmQueue, TailLockBusy};
use crate::Elem;
use usipc_shm::{ShmArena, ShmError, ShmPtr, ShmSafe};

/// Which queue implementation a channel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The Michael & Scott two-lock queue ([`ShmQueue`]) — the paper's
    /// queue, kept as the paper-faithful baseline. Locks live in the
    /// segment, so crash-robustness relies on the *bounded* lock
    /// acquisitions (`dequeue_bounded`, `enqueue_bounded`) to degrade
    /// instead of wedge.
    TwoLock,
    /// The lock-free bounded ring ([`ShmRing`]), the default — nothing to
    /// abandon, so a peer death can cost at most the messages the corpse
    /// had in flight, never another process's progress; and no lock or
    /// free-list head for two CPUs to bounce on the data path.
    #[default]
    Ring,
}

impl QueueKind {
    /// Stable label for bench rows / display.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::TwoLock => "two_lock",
            QueueKind::Ring => "ring",
        }
    }
}

/// Outcome of [`AnyShmFifo::try_enqueue`] — the union of both queue kinds'
/// flow-control and fault signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueFlow {
    /// Enqueued and visible.
    Queued,
    /// Full: ordinary flow control, back off and retry.
    Full,
    /// Ring only: the claimed slot was reclaimed by a poison-drain before
    /// the publish ([`RingPush::Dropped`]) — the element is gone.
    /// Semantically "enqueued, then drained with the rest of the dead
    /// peer's queue".
    Dropped,
    /// Two-lock only: the tail lock stayed busy past the bound
    /// ([`TailLockBusy`]) — an abandoned lock. Degrade like `Full`; the
    /// deadline/poison machinery handles the funeral.
    LockBusy,
}

const KIND_TWO_LOCK: u32 = 0;
const KIND_RING: u32 = 1;

/// A queue handle of either kind (see the module docs).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct AnyShmFifo {
    kind: u32,
    two_lock: ShmPtr<ShmQueue>,
    ring: ShmPtr<ShmRing>,
}

unsafe impl ShmSafe for AnyShmFifo {}

impl AnyShmFifo {
    /// Creates a queue of `kind` with room for `capacity` elements (the
    /// ring rounds up; see [`ShmRing::effective_capacity`]). `mode` is the
    /// ring's producer topology and ignored for the two-lock kind.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(
        arena: &ShmArena,
        capacity: usize,
        kind: QueueKind,
        mode: RingMode,
    ) -> Result<Self, ShmError> {
        Ok(match kind {
            QueueKind::TwoLock => AnyShmFifo {
                kind: KIND_TWO_LOCK,
                two_lock: arena.alloc(ShmQueue::create(arena, capacity)?)?,
                ring: ShmPtr::NULL,
            },
            QueueKind::Ring => AnyShmFifo {
                kind: KIND_RING,
                two_lock: ShmPtr::NULL,
                ring: arena.alloc(ShmRing::create(arena, capacity, mode)?)?,
            },
        })
    }

    /// Arena bytes [`Self::create`] consumes for `capacity` elements of
    /// `kind`, including the boxed handle.
    pub fn bytes_needed(capacity: usize, kind: QueueKind) -> usize {
        match kind {
            QueueKind::TwoLock => {
                ShmQueue::bytes_needed(capacity)
                    + core::mem::size_of::<ShmQueue>()
                    + core::mem::align_of::<ShmQueue>()
            }
            QueueKind::Ring => {
                ShmRing::bytes_needed(capacity)
                    + core::mem::size_of::<ShmRing>()
                    + core::mem::align_of::<ShmRing>()
            }
        }
    }

    /// Which implementation this handle dispatches to.
    pub fn kind(&self) -> QueueKind {
        match self.kind {
            KIND_TWO_LOCK => QueueKind::TwoLock,
            _ => QueueKind::Ring,
        }
    }

    /// The ring behind this handle (`None` on the two-lock kind): the way
    /// to its stepped operations, for crash drills on a live channel.
    #[doc(hidden)]
    pub fn as_ring<'a>(&self, arena: &'a ShmArena) -> Option<&'a ShmRing> {
        (self.kind == KIND_RING).then(|| arena.get(self.ring))
    }

    /// Resolves the queue behind the handle **once** (see the module docs).
    /// [`ShmError::BadSegment`] when `kind` is not one [`Self::create`]
    /// writes, the boxed handle is outside the arena's allocated range or
    /// misaligned, or the ring is malformed ([`ShmRing::view`]).
    pub fn view<'a>(&self, arena: &'a ShmArena) -> Result<FifoView<'a>, ShmError> {
        match self.kind {
            KIND_RING => Ok(FifoView::Ring(arena.try_get(self.ring)?.view(arena)?)),
            KIND_TWO_LOCK => Ok(FifoView::TwoLock(arena.try_get(self.two_lock)?, arena)),
            _ => Err(ShmError::BadSegment),
        }
    }

    /// The per-call form of [`Self::view`]; panics on a malformed handle.
    fn resolve<'a>(&self, arena: &'a ShmArena) -> FifoView<'a> {
        self.view(arena).expect("malformed queue handle or header")
    }

    /// [`FifoView::try_enqueue_elem`], resolving per call.
    pub fn try_enqueue_elem(&self, arena: &ShmArena, elem: Elem, tail_yields: u32) -> EnqueueFlow {
        self.resolve(arena).try_enqueue_elem(elem, tail_yields)
    }

    /// [`Self::try_enqueue_elem`] of the one word `value`, zero-padded.
    pub fn try_enqueue(&self, arena: &ShmArena, value: u64, tail_yields: u32) -> EnqueueFlow {
        self.try_enqueue_elem(arena, [value, 0, 0], tail_yields)
    }

    /// The first word of [`FifoView::dequeue_elem`], resolving per call.
    pub fn dequeue(&self, arena: &ShmArena) -> Option<u64> {
        self.resolve(arena).dequeue_elem().map(|e| e[0])
    }
}

/// A queue of either kind, resolved by [`AnyShmFifo::view`]: the dispatch
/// happens on this process-local tag.
#[derive(Debug, Clone, Copy)]
pub enum FifoView<'a> {
    /// The lock-free ring, resolved and validated.
    Ring(RingView<'a>),
    /// The two-lock baseline, resolving its nodes per operation as ever.
    TwoLock(&'a ShmQueue, &'a ShmArena),
}

impl FifoView<'_> {
    /// Attempts to enqueue with full outcome reporting. `tail_yields`
    /// bounds the two-lock tail-lock acquisition (yield budget of
    /// [`ShmQueue::enqueue_bounded`]); the ring never waits.
    #[inline]
    pub fn try_enqueue_elem(&self, elem: Elem, tail_yields: u32) -> EnqueueFlow {
        match *self {
            FifoView::Ring(r) => match r.try_push(elem) {
                RingPush::Queued => EnqueueFlow::Queued,
                RingPush::Full => EnqueueFlow::Full,
                RingPush::Dropped => EnqueueFlow::Dropped,
            },
            FifoView::TwoLock(q, arena) => match q.enqueue_bounded(arena, elem, tail_yields) {
                Ok(true) => EnqueueFlow::Queued,
                Ok(false) => EnqueueFlow::Full,
                Err(TailLockBusy) => EnqueueFlow::LockBusy,
            },
        }
    }

    /// Removes the oldest element, or `None` if the queue is empty.
    /// Unbounded on the two-lock kind — live-path use only.
    #[inline]
    pub fn dequeue_elem(&self) -> Option<Elem> {
        match *self {
            FifoView::Ring(r) => r.dequeue(),
            FifoView::TwoLock(q, arena) => q.dequeue(arena),
        }
    }

    /// Fault-path dequeue: bounded on the two-lock kind, plain dequeue on
    /// the ring (which has nothing to wait on).
    ///
    /// # Errors
    ///
    /// [`HeadLockBusy`] when the two-lock head lock stayed held past the
    /// budget (abandoned by a dead consumer); the ring never errors.
    pub fn dequeue_bounded(&self, max_yields: u32) -> Result<Option<Elem>, HeadLockBusy> {
        match *self {
            FifoView::Ring(r) => Ok(r.dequeue()),
            FifoView::TwoLock(q, arena) => q.dequeue_bounded(arena, max_yields),
        }
    }

    /// Fault-path hole reclamation ([`RingView::reclaim_stuck`]); the
    /// two-lock kind has no holes and always reports
    /// [`RingReclaim::Clean`].
    pub fn reclaim_stuck(&self) -> RingReclaim {
        match *self {
            FifoView::Ring(r) => r.reclaim_stuck(),
            FifoView::TwoLock(..) => RingReclaim::Clean,
        }
    }

    /// Cheap emptiness poll (advisory; see each implementation's notes).
    #[inline]
    pub fn is_empty(&self) -> bool {
        match *self {
            FifoView::Ring(r) => r.is_empty(),
            FifoView::TwoLock(q, arena) => q.is_empty(arena),
        }
    }

    /// Approximate element count (ring: includes in-flight holes).
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            FifoView::Ring(r) => r.len(),
            FifoView::TwoLock(q, arena) => q.len(arena),
        }
    }

    /// Segment fsck, dispatched by kind: [`ShmQueue::fsck`] (with
    /// `break_locks` honored) or [`RingView::fsck`] (lock-free — the flag
    /// is irrelevant). Both require quiescence and are strict no-ops on
    /// clean queues; see each implementation's docs for the repairs.
    pub fn fsck(&self, break_locks: bool) -> FifoFsck {
        match *self {
            FifoView::Ring(r) => {
                let r = r.fsck();
                FifoFsck {
                    repairs: r.repairs(),
                    holes_retired: r.holes_retired,
                    nodes_reclaimed: 0,
                    values: r.values,
                }
            }
            FifoView::TwoLock(q, arena) => {
                let r = q.fsck(arena, break_locks);
                FifoFsck {
                    repairs: r.repairs(),
                    holes_retired: 0,
                    nodes_reclaimed: r.nodes_reclaimed,
                    values: r.values,
                }
            }
        }
    }
}

/// Outcome of [`FifoView::fsck`], in the terms both kinds share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FifoFsck {
    /// Individual repairs performed (0 on a clean queue): broken locks,
    /// re-aimed tail, rewritten count, and the two classes below.
    pub repairs: u32,
    /// Ring: slots retired out of dead producers' unpublished tickets.
    pub holes_retired: u32,
    /// Two-lock: nodes a dead producer allocated and never linked.
    pub nodes_reclaimed: u32,
    /// The committed elements, in FIFO order, left in place in the queue.
    pub values: Vec<Elem>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use usipc_shm::ShmArena;

    fn fifo(kind: QueueKind) -> (ShmArena, AnyShmFifo) {
        let arena = ShmArena::new(1 << 18).unwrap();
        let q = AnyShmFifo::create(&arena, 8, kind, RingMode::Mpsc).unwrap();
        (arena, q)
    }

    #[test]
    fn both_kinds_roundtrip_through_one_interface() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let (a, q) = fifo(kind);
            assert_eq!(q.kind(), kind);
            // The per-call fronts and a view resolved once see one queue.
            let view = q.view(&a).unwrap();
            assert!(view.is_empty(), "{kind:?}");
            for i in 0..8u64 {
                assert_eq!(q.try_enqueue(&a, i, 10), EnqueueFlow::Queued, "{kind:?}");
            }
            assert_eq!(q.try_enqueue(&a, 99, 10), EnqueueFlow::Full, "{kind:?}");
            assert_eq!(view.len(), 8, "{kind:?}");
            for i in 0..8u64 {
                assert_eq!(q.dequeue(&a), Some(i), "{kind:?}");
            }
            assert_eq!(view.dequeue_bounded(10), Ok(None), "{kind:?}");
            assert_eq!(view.reclaim_stuck(), RingReclaim::Clean, "{kind:?}");
            // The one-word fronts are the three-word calls, zero-padded.
            assert_eq!(q.try_enqueue(&a, 7, 10), EnqueueFlow::Queued, "{kind:?}");
            assert_eq!(view.dequeue_elem(), Some([7, 0, 0]), "{kind:?}");
            let full = [1, u64::MAX, 3];
            assert_eq!(q.try_enqueue_elem(&a, full, 10), EnqueueFlow::Queued);
            assert_eq!(view.dequeue_bounded(10), Ok(Some(full)), "{kind:?}");
        }
    }

    #[test]
    fn bytes_needed_covers_create_for_both_kinds() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            for cap in [2usize, 8, 64, 100] {
                let arena = ShmArena::new(AnyShmFifo::bytes_needed(cap, kind) + 256).unwrap();
                AnyShmFifo::create(&arena, cap, kind, RingMode::Spsc)
                    .unwrap_or_else(|e| panic!("{kind:?} cap {cap}: {e:?}"));
            }
        }
    }

    #[test]
    fn handle_is_plain_data() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let (a, q) = fifo(kind);
            let stored = a.alloc(q).unwrap();
            let q2 = *a.get(stored);
            assert_eq!(q2.try_enqueue(&a, 7, 10), EnqueueFlow::Queued);
            assert_eq!(q.dequeue(&a), Some(7));
        }
    }
}
