//! Queue-kind dispatch: one `Copy`, arena-storable handle that is either a
//! two-lock [`ShmQueue`] or a lock-free [`ShmRing`], so channel plumbing
//! can select the queue implementation per channel without being generic
//! over it (the handle must live inside shared structures like the channel
//! root, where a type parameter would infect every consumer).
//!
//! The inactive variant's handle is a null [`ShmPtr`]; the active one is
//! *boxed in the arena* (the handles themselves are `ShmSafe` plain data),
//! which costs one extra `arena.get` per operation — noise next to the
//! cache-line traffic of the operation itself.

use crate::shm_ring::{RingMode, RingPush, RingReclaim, ShmRing};
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
#[derive(Debug)]
pub struct AnyShmFifo {
    kind: u32,
    two_lock: ShmPtr<ShmQueue>,
    ring: ShmPtr<ShmRing>,
}

impl Clone for AnyShmFifo {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for AnyShmFifo {}
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

    fn as_two_lock<'a>(&self, arena: &'a ShmArena) -> Option<&'a ShmQueue> {
        (self.kind == KIND_TWO_LOCK).then(|| arena.get(self.two_lock))
    }

    /// The ring behind this handle (`None` on the two-lock kind): the way
    /// to its stepped operations, for crash drills on a live channel.
    #[doc(hidden)]
    pub fn as_ring<'a>(&self, arena: &'a ShmArena) -> Option<&'a ShmRing> {
        (self.kind == KIND_RING).then(|| arena.get(self.ring))
    }

    /// Attempts to enqueue with full outcome reporting. `tail_yields`
    /// bounds the two-lock tail-lock acquisition (yield budget of
    /// [`ShmQueue::enqueue_bounded`]); the ring never waits.
    pub fn try_enqueue_elem(&self, arena: &ShmArena, elem: Elem, tail_yields: u32) -> EnqueueFlow {
        if let Some(q) = self.as_two_lock(arena) {
            match q.enqueue_bounded(arena, elem, tail_yields) {
                Ok(true) => EnqueueFlow::Queued,
                Ok(false) => EnqueueFlow::Full,
                Err(TailLockBusy) => EnqueueFlow::LockBusy,
            }
        } else {
            match self.as_ring(arena).unwrap().try_push(arena, elem) {
                RingPush::Queued => EnqueueFlow::Queued,
                RingPush::Full => EnqueueFlow::Full,
                RingPush::Dropped => EnqueueFlow::Dropped,
            }
        }
    }

    /// [`Self::try_enqueue_elem`] of the one word `value`, zero-padded.
    pub fn try_enqueue(&self, arena: &ShmArena, value: u64, tail_yields: u32) -> EnqueueFlow {
        self.try_enqueue_elem(arena, [value, 0, 0], tail_yields)
    }

    /// Removes the oldest element, or `None` if the queue is empty.
    /// Unbounded on the two-lock kind — live-path use only.
    pub fn dequeue_elem(&self, arena: &ShmArena) -> Option<Elem> {
        if let Some(q) = self.as_two_lock(arena) {
            q.dequeue(arena)
        } else {
            self.as_ring(arena).unwrap().dequeue(arena)
        }
    }

    /// [`Self::dequeue_elem`], returning the element's first word.
    pub fn dequeue(&self, arena: &ShmArena) -> Option<u64> {
        self.dequeue_elem(arena).map(|e| e[0])
    }

    /// Fault-path dequeue: bounded on the two-lock kind, plain dequeue on
    /// the ring (which has nothing to wait on).
    ///
    /// # Errors
    ///
    /// [`HeadLockBusy`] when the two-lock head lock stayed held past the
    /// budget (abandoned by a dead consumer); the ring never errors.
    pub fn dequeue_bounded(
        &self,
        arena: &ShmArena,
        max_yields: u32,
    ) -> Result<Option<Elem>, HeadLockBusy> {
        if let Some(q) = self.as_two_lock(arena) {
            q.dequeue_bounded(arena, max_yields)
        } else {
            Ok(self.as_ring(arena).unwrap().dequeue(arena))
        }
    }

    /// Fault-path hole reclamation ([`ShmRing::reclaim_stuck`]); the
    /// two-lock kind has no holes and always reports
    /// [`RingReclaim::Clean`].
    pub fn reclaim_stuck(&self, arena: &ShmArena) -> RingReclaim {
        match self.as_ring(arena) {
            Some(r) => r.reclaim_stuck(arena),
            None => RingReclaim::Clean,
        }
    }

    /// Cheap emptiness poll (advisory; see each implementation's notes).
    pub fn is_empty(&self, arena: &ShmArena) -> bool {
        if let Some(q) = self.as_two_lock(arena) {
            q.is_empty(arena)
        } else {
            self.as_ring(arena).unwrap().is_empty(arena)
        }
    }

    /// Approximate element count (ring: includes in-flight holes).
    pub fn len(&self, arena: &ShmArena) -> usize {
        if let Some(q) = self.as_two_lock(arena) {
            q.len(arena)
        } else {
            self.as_ring(arena).unwrap().len(arena)
        }
    }

    /// Segment fsck, dispatched by kind: [`ShmQueue::fsck`] (with
    /// `break_locks` honored) or [`ShmRing::fsck`] (lock-free — the flag
    /// is irrelevant). Both require quiescence and are strict no-ops on
    /// clean queues; see each implementation's docs for the repairs.
    pub fn fsck(&self, arena: &ShmArena, break_locks: bool) -> FifoFsck {
        if let Some(q) = self.as_two_lock(arena) {
            let r = q.fsck(arena, break_locks);
            FifoFsck {
                repairs: r.repairs(),
                holes_retired: 0,
                nodes_reclaimed: r.nodes_reclaimed,
                values: r.values,
            }
        } else {
            let r = self.as_ring(arena).unwrap().fsck(arena);
            FifoFsck {
                repairs: r.repairs(),
                holes_retired: r.holes_retired,
                nodes_reclaimed: 0,
                values: r.values,
            }
        }
    }
}

/// Outcome of [`AnyShmFifo::fsck`], in the terms both kinds share.
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
            assert!(q.is_empty(&a), "{kind:?}");
            for i in 0..8u64 {
                assert_eq!(q.try_enqueue(&a, i, 10), EnqueueFlow::Queued, "{kind:?}");
            }
            assert_eq!(q.try_enqueue(&a, 99, 10), EnqueueFlow::Full, "{kind:?}");
            assert_eq!(q.len(&a), 8, "{kind:?}");
            for i in 0..8u64 {
                assert_eq!(q.dequeue(&a), Some(i), "{kind:?}");
            }
            assert_eq!(q.dequeue_bounded(&a, 10), Ok(None), "{kind:?}");
            assert_eq!(q.reclaim_stuck(&a), RingReclaim::Clean, "{kind:?}");
            // The one-word fronts are the three-word calls, zero-padded.
            assert_eq!(q.try_enqueue(&a, 7, 10), EnqueueFlow::Queued, "{kind:?}");
            assert_eq!(q.dequeue_elem(&a), Some([7, 0, 0]), "{kind:?}");
            let full = [1, u64::MAX, 3];
            assert_eq!(q.try_enqueue_elem(&a, full, 10), EnqueueFlow::Queued);
            assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(full)), "{kind:?}");
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
