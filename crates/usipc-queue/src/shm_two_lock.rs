//! The Michael & Scott two-lock queue in shared-memory (offset) form.
//!
//! The paper's queue (§2.2): the header, the locks, the node pool and the
//! nodes all live in a [`ShmArena`], linked by offsets, so the whole
//! structure is position independent. A node *is* the message — FIFO link
//! plus the three words of an [`Elem`] — taken from the queue's one free
//! pool. Capacity is fixed and `enqueue` reports fullness instead of
//! growing — the flow-control signal on which the paper's
//! `sleep(1)`-on-full back-off is built.

use crate::spinlock::SpinLock;
use crate::{Elem, ElemCell};
use core::sync::atomic::{AtomicU32, Ordering};
use usipc_shm::{
    CacheAligned, PoolSlot, ShmArena, ShmError, ShmPtr, ShmSafe, SlotPool, NULL_OFFSET,
};

/// A queue node: FIFO link plus the element.
///
/// The link (`next`) is distinct from the pool's internal free-list link, so
/// a consumer that reads a node which has just been recycled sees stale but
/// type-stable data — never free-list internals.
#[repr(C)]
#[derive(Debug)]
pub struct QNode {
    next: AtomicU32,
    elem: ElemCell,
}

unsafe impl ShmSafe for QNode {}

impl QNode {
    fn empty() -> Self {
        QNode {
            next: AtomicU32::new(NULL_OFFSET),
            elem: ElemCell::default(),
        }
    }
}

type NodePtr = ShmPtr<PoolSlot<QNode>>;

/// Shared queue bookkeeping.
///
/// Head state (consumer side) and tail state (producer side) sit on separate
/// cache lines so a client enqueuing requests never bounces the line the
/// server is dequeuing from.
#[repr(C)]
#[derive(Debug)]
pub struct QueueHeader {
    head_lock: CacheAligned<SpinLock>,
    head: CacheAligned<AtomicU32>,
    tail_lock: CacheAligned<SpinLock>,
    tail: CacheAligned<AtomicU32>,
    count: CacheAligned<AtomicU32>,
    capacity: u32,
}

unsafe impl ShmSafe for QueueHeader {}

/// [`ShmQueue::dequeue_bounded`] gave up: the head lock stayed held past
/// the spin budget. With all peers alive this would mean extreme
/// contention; after a peer death it is the signature of a lock the dead
/// process abandoned inside its critical section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadLockBusy;

/// [`ShmQueue::enqueue_bounded`] gave up: the tail lock stayed held past
/// the spin budget — the producer-side twin of [`HeadLockBusy`], i.e. a
/// *producer* SIGKILLed inside its enqueue critical section. The value was
/// not enqueued; callers degrade exactly as they would for a full queue
/// (back off and retry a bounded number of times), which turns the former
/// unbounded wedge into ordinary flow control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailLockBusy;

/// Handle to a two-lock FIFO queue in an arena (plain offsets, `Copy`).
#[derive(Debug)]
pub struct ShmQueue {
    header: ShmPtr<QueueHeader>,
    pool: SlotPool<QNode>,
}

impl Clone for ShmQueue {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for ShmQueue {}
unsafe impl ShmSafe for ShmQueue {}

/// Extra pool slots beyond `capacity`: one for the dummy node plus slack for
/// dequeuers that have unlinked a node but not yet returned it to the pool.
/// With fewer concurrent dequeuers than `POOL_SLACK` the `count`-based
/// capacity check is exact and pool exhaustion can never cause a spurious
/// "full" report. Exactness is a *contract*, not a best effort: a channel
/// queue has at most two concurrent dequeuers — its consumer and the one
/// poisoner whose `swap` wins — and the channel asserts that bound against
/// this constant at compile time.
pub const POOL_SLACK: usize = 8;

impl ShmQueue {
    /// Creates an empty queue with room for `capacity` elements.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(arena: &ShmArena, capacity: usize) -> Result<Self, ShmError> {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        assert!(capacity < u32::MAX as usize - POOL_SLACK, "queue too large");
        let pool = SlotPool::create(arena, capacity + POOL_SLACK, |_| QNode::empty())?;
        let dummy = pool.alloc(arena).expect("fresh pool has a free slot");
        let header = arena.alloc(QueueHeader {
            head_lock: CacheAligned::new(SpinLock::new()),
            head: CacheAligned::new(AtomicU32::new(dummy.raw())),
            tail_lock: CacheAligned::new(SpinLock::new()),
            tail: CacheAligned::new(AtomicU32::new(dummy.raw())),
            count: CacheAligned::new(AtomicU32::new(0)),
            capacity: capacity as u32,
        })?;
        Ok(ShmQueue { header, pool })
    }

    /// Arena bytes [`Self::create`] consumes for a queue of `capacity`
    /// elements: the node pool (including its `POOL_SLACK` extra slots)
    /// plus the header, each padded by its worst-case alignment slack.
    pub fn bytes_needed(capacity: usize) -> usize {
        SlotPool::<QNode>::bytes_needed(capacity + POOL_SLACK)
            + core::mem::size_of::<QueueHeader>()
            + core::mem::align_of::<QueueHeader>()
    }

    /// Maximum number of elements.
    pub fn capacity(&self, arena: &ShmArena) -> usize {
        arena.get(self.header).capacity as usize
    }

    /// Attempts to enqueue `elem`; returns `false` when the queue is full.
    pub fn enqueue(&self, arena: &ShmArena, elem: Elem) -> bool {
        let hdr = arena.get(self.header);
        let Some(node) = self.pool.alloc(arena) else {
            return false; // all slack consumed: treat as full
        };
        self.prepare_node(arena, node, elem);
        hdr.tail_lock.lock();
        let full = self.enqueue_locked(arena, hdr, node);
        if full {
            self.pool.free(arena, node);
        }
        !full
    }

    /// [`Self::enqueue`] with a *bounded* tail-lock acquisition: gives up
    /// with [`TailLockBusy`] after roughly `max_yields` scheduler yields
    /// instead of spinning forever — the exact producer-side mirror of
    /// [`Self::dequeue_bounded`].
    ///
    /// The tail lock lives in the shared segment, so a producer SIGKILLed
    /// inside its enqueue critical section leaves it held for good; an
    /// unbounded `enqueue` by any surviving producer would then livelock.
    /// A *live* holder's critical section is a handful of loads and stores
    /// and completes within a yield or two, so exhausting the budget is
    /// the signature of an abandoned lock. `Ok(false)` still means "full";
    /// callers treat `Err` the same way (back off, retry bounded, let the
    /// deadline/poison machinery decide the peer is dead) — never as a
    /// reason to spin harder.
    ///
    /// # Errors
    ///
    /// [`TailLockBusy`] when the tail lock could not be acquired within
    /// the budget; nothing was enqueued.
    pub fn enqueue_bounded(
        &self,
        arena: &ShmArena,
        elem: Elem,
        max_yields: u32,
    ) -> Result<bool, TailLockBusy> {
        let hdr = arena.get(self.header);
        let Some(node) = self.pool.alloc(arena) else {
            return Ok(false); // all slack consumed: treat as full
        };
        self.prepare_node(arena, node, elem);
        let mut yields = 0u32;
        let mut spins = 0u32;
        while !hdr.tail_lock.try_lock() {
            spins += 1;
            if spins > 100 {
                spins = 0;
                if yields >= max_yields {
                    self.pool.free(arena, node);
                    return Err(TailLockBusy);
                }
                yields += 1;
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
        let full = self.enqueue_locked(arena, hdr, node);
        if full {
            self.pool.free(arena, node);
        }
        Ok(!full)
    }

    fn prepare_node(&self, arena: &ShmArena, node: NodePtr, elem: Elem) {
        let qn = arena.get(node).value();
        qn.elem.store(elem);
        qn.next.store(NULL_OFFSET, Ordering::Relaxed);
    }

    /// The enqueue body. The caller holds `tail_lock` (released here) and
    /// owns `node`, already prepared; returns `true` when the queue was
    /// full (caller frees the node).
    fn enqueue_locked(&self, arena: &ShmArena, hdr: &QueueHeader, node: NodePtr) -> bool {
        if hdr.count.load(Ordering::Relaxed) >= hdr.capacity {
            hdr.tail_lock.unlock();
            return true;
        }
        let tail: NodePtr = ShmPtr::from_raw(hdr.tail.load(Ordering::Relaxed));
        // Release: publishes the payload store in `prepare_node` to the
        // consumer's acquiring load of `next`.
        arena
            .get(tail)
            .value()
            .next
            .store(node.raw(), Ordering::Release);
        hdr.tail.store(node.raw(), Ordering::Relaxed);
        // The commit point (see `is_empty`): SeqCst so it is ordered
        // against the consumer's `awake` clear, and (being at least
        // Release) a reader that observes the incremented count also
        // observes the link store above — "saw non-empty" implies a
        // following `dequeue` finds the node.
        hdr.count.fetch_add(1, Ordering::SeqCst);
        hdr.tail_lock.unlock();
        false
    }

    /// Kill-drill hook: performs the first `steps` micro-operations of an
    /// enqueue and then stops dead — *without* releasing anything — leaving
    /// the segment exactly as a producer SIGKILLed at that point would.
    /// Steps: 1 = pool slot allocated; 2 = + tail lock seized; 3 = + new
    /// node linked after the tail; 4 = + tail advanced. (Step 5 would add
    /// the count increment and the unlock — a completed enqueue — so it is
    /// not offered; use [`Self::enqueue`].) Returns `false` if the pool
    /// had no free slot.
    #[doc(hidden)]
    pub fn enqueue_abandoned_at(&self, arena: &ShmArena, elem: Elem, steps: u32) -> bool {
        assert!((1..=4).contains(&steps), "steps must be 1..=4");
        let hdr = arena.get(self.header);
        let Some(node) = self.pool.alloc(arena) else {
            return false;
        };
        self.prepare_node(arena, node, elem);
        if steps < 2 {
            return true; // died between pool alloc and lock
        }
        hdr.tail_lock.lock();
        if steps < 3 {
            return true; // died holding the lock, before linking
        }
        let tail: NodePtr = ShmPtr::from_raw(hdr.tail.load(Ordering::Relaxed));
        arena
            .get(tail)
            .value()
            .next
            .store(node.raw(), Ordering::Release);
        if steps < 4 {
            return true; // died after linking, before advancing the tail
        }
        hdr.tail.store(node.raw(), Ordering::Relaxed);
        true // died before the count increment / unlock
    }

    /// Removes the oldest element, or `None` if the queue is empty.
    ///
    /// Emptiness is decided by the `count` pre-check of [`Self::is_empty`]
    /// *before* the head lock is touched: a miss costs one load of a
    /// shared line, not a lock round trip, and a poller never bounces the
    /// lock line under a consumer that is mid-dequeue.
    pub fn dequeue(&self, arena: &ShmArena) -> Option<Elem> {
        let hdr = arena.get(self.header);
        if hdr.count.load(Ordering::SeqCst) == 0 {
            return None;
        }
        hdr.head_lock.lock();
        self.dequeue_locked(arena, hdr)
    }

    /// [`Self::dequeue`] with a *bounded* head-lock acquisition: gives up
    /// with [`HeadLockBusy`] after roughly `max_yields` scheduler yields
    /// instead of spinning forever.
    ///
    /// This is the fault-path variant. The head lock lives in the shared
    /// segment, so a consumer that is SIGKILLed inside its dequeue
    /// critical section leaves it held for good — an unbounded `dequeue`
    /// by whoever cleans up on the corpse's behalf (channel poisoning
    /// drains the dead peer's queue) would livelock on the abandoned
    /// lock. A *live* holder's critical section is a handful of loads and
    /// stores and completes within a yield or two even on a uniprocessor,
    /// so exhausting the budget is the signature of an abandoned lock,
    /// not of contention. Callers must treat `Err` as "stop draining",
    /// never as "empty".
    pub fn dequeue_bounded(
        &self,
        arena: &ShmArena,
        max_yields: u32,
    ) -> Result<Option<Elem>, HeadLockBusy> {
        let hdr = arena.get(self.header);
        if hdr.count.load(Ordering::SeqCst) == 0 {
            return Ok(None); // same pre-check as `dequeue`
        }
        let mut yields = 0u32;
        let mut spins = 0u32;
        while !hdr.head_lock.try_lock() {
            spins += 1;
            if spins > 100 {
                spins = 0;
                if yields >= max_yields {
                    return Err(HeadLockBusy);
                }
                yields += 1;
                std::thread::yield_now();
            } else {
                core::hint::spin_loop();
            }
        }
        Ok(self.dequeue_locked(arena, hdr))
    }

    /// The dequeue body. The caller holds `head_lock`; released here.
    fn dequeue_locked(&self, arena: &ShmArena, hdr: &QueueHeader) -> Option<Elem> {
        let dummy: NodePtr = ShmPtr::from_raw(hdr.head.load(Ordering::Relaxed));
        let next_off = arena.get(dummy).value().next.load(Ordering::Acquire);
        if next_off == NULL_OFFSET {
            hdr.head_lock.unlock();
            return None;
        }
        let next: NodePtr = ShmPtr::from_raw(next_off);
        // M&S: read the element from the node that becomes the new dummy.
        let elem = arena.get(next).value().elem.load();
        hdr.head.store(next_off, Ordering::Relaxed);
        // An `is_empty` reader that sees the decremented count also sees
        // the head advance.
        hdr.count.fetch_sub(1, Ordering::SeqCst);
        hdr.head_lock.unlock();
        self.pool.free(arena, dummy);
        Some(elem)
    }

    /// Cheap emptiness poll — the `empty(Q)` test in the BSLS spin loop.
    ///
    /// **Contract.** The count is a single `AtomicU32` (no torn reads),
    /// incremented *after* the link store and decremented after the head
    /// advance, each under its lock, all `SeqCst` — as is the load here and
    /// the identical pre-check [`Self::dequeue`] and
    /// [`Self::dequeue_bounded`] make before taking the head lock. The
    /// increment is therefore the enqueue's *commit point*, and three
    /// guarantees follow:
    ///
    /// 1. *Non-empty is actionable*: if this returns `false`, the enqueue
    ///    that made it so happens-before this load, so an immediately
    ///    following [`Self::dequeue`] by this thread finds a linked node
    ///    (unless another consumer takes it first).
    /// 2. *Monotone per producer/consumer*: the value is never torn and
    ///    never runs ahead of the operations that produced it.
    /// 3. *The Fig. 5 re-check still closes the sleep race.* The consumer
    ///    clears `awake` (a `SeqCst` store) and then re-checks the queue,
    ///    which now reads `count`; the producer increments `count` and
    ///    then test-and-sets `awake` (a `SeqCst` swap). All four accesses
    ///    are `SeqCst`, so they fall in one total order: if the consumer's
    ///    load misses the increment, the increment — and hence the
    ///    producer's `tas` — comes after the consumer's clear, so the
    ///    `tas` reads 0 and the producer posts the `V`. Either the
    ///    re-check sees the message or the wake-up is sent; with a weaker
    ///    load both sides could read the other's old value (store
    ///    buffering) and the consumer would sleep on a non-empty queue.
    ///
    /// It is still a snapshot: concurrent enqueues/dequeues may change the
    /// answer before the caller acts on it. Spin loops must re-test; a
    /// `true` here never proves the queue *stays* empty. A node a dead
    /// producer linked but never counted is invisible to `dequeue` until
    /// [`Self::fsck`] repairs the count, so dequeuing never takes `count`
    /// below zero.
    pub fn is_empty(&self, arena: &ShmArena) -> bool {
        arena.get(self.header).count.load(Ordering::SeqCst) == 0
    }

    /// Current number of elements. Same advisory contract as
    /// [`Self::is_empty`]: exact only when no enqueue/dequeue is in
    /// flight; under concurrency it is a recent-past snapshot, suitable
    /// for backlog heuristics (admission control, spin/block
    /// decisions) but not for an if-then-act without re-checking.
    pub fn len(&self, arena: &ShmArena) -> usize {
        arena.get(self.header).count.load(Ordering::SeqCst) as usize
    }

    /// Segment fsck for the two-lock queue: audits and repairs every
    /// invariant a SIGKILL can break, and snapshots the committed values.
    ///
    /// **Requires quiescence**: no live producer or consumer may touch the
    /// queue during the pass (the recovery window after the owner's death).
    /// The repairs, in order:
    ///
    /// 1. *Abandoned locks* (`break_locks` only): the head and tail
    ///    spinlocks are broken if held — sound because quiescence means
    ///    any holder is a corpse.
    /// 2. *FIFO chain walk*: from the dummy node, following `next` links,
    ///    cycle-capped at the pool size. Every linked node is **committed**
    ///    — a producer that got as far as the link store published its
    ///    value even if it died before advancing the tail or bumping the
    ///    count (M&S dequeue follows links, not the tail).
    /// 3. *Tail repair*: the tail pointer is re-aimed at the last chain
    ///    node (a corpse at abandonment step 3 left it one node behind).
    /// 4. *Count repair*: `count` is rewritten to the exact linked length,
    ///    which is what makes a linked-but-uncounted node dequeueable
    ///    again (the `count` pre-check hides it until then).
    /// 5. *Node-pool reclaim*: slots neither free nor chain-reachable were
    ///    allocated by producers that died before linking (abandonment
    ///    steps 1–2) — **uncommitted**, reclaimed to the free list.
    ///
    /// On a clean queue every repair is conditional, so the pass is a
    /// strict byte-level no-op — the property the idempotence tests pin.
    pub fn fsck(&self, arena: &ShmArena, break_locks: bool) -> TwoLockFsck {
        let hdr = arena.get(self.header);
        let mut report = TwoLockFsck::default();
        if break_locks {
            report.head_lock_broken = hdr.head_lock.force_unlock();
            report.tail_lock_broken = hdr.tail_lock.force_unlock();
        }
        let max_nodes = hdr.capacity as usize + POOL_SLACK;
        let mut reachable = Vec::with_capacity(max_nodes);
        let mut cur: NodePtr = ShmPtr::from_raw(hdr.head.load(Ordering::Relaxed));
        reachable.push(cur.raw());
        while reachable.len() <= max_nodes {
            let next_off = arena.get(cur).value().next.load(Ordering::Acquire);
            if next_off == NULL_OFFSET {
                break;
            }
            let next: NodePtr = ShmPtr::from_raw(next_off);
            report.values.push(arena.get(next).value().elem.load());
            reachable.push(next_off);
            cur = next;
        }
        if hdr.tail.load(Ordering::Relaxed) != cur.raw() {
            hdr.tail.store(cur.raw(), Ordering::Relaxed);
            report.tail_repaired = true;
        }
        let linked = report.values.len() as u32;
        if hdr.count.load(Ordering::Relaxed) != linked {
            hdr.count.store(linked, Ordering::Relaxed);
            report.count_repaired = true;
        }
        report.nodes_reclaimed = self.pool.audit_reclaim(arena, &reachable).reclaimed;
        report
    }
}

/// What [`ShmQueue::fsck`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TwoLockFsck {
    /// The head spinlock was held by a corpse and was broken.
    pub head_lock_broken: bool,
    /// The tail spinlock was held by a corpse and was broken.
    pub tail_lock_broken: bool,
    /// The tail pointer lagged the last linked node and was re-aimed.
    pub tail_repaired: bool,
    /// The element count disagreed with the linked-chain length and was
    /// rewritten.
    pub count_repaired: bool,
    /// Pool slots that were neither free nor chain-reachable (allocated by
    /// producers that died before linking) and were reclaimed.
    pub nodes_reclaimed: u32,
    /// The committed values, in FIFO order, left in place in the queue.
    pub values: Vec<Elem>,
}

impl TwoLockFsck {
    /// Whether the pass changed anything (a clean queue reports `false`).
    pub fn repaired_anything(&self) -> bool {
        self.repairs() > 0
    }

    /// Number of individual repairs performed (for the repair ledger).
    pub fn repairs(&self) -> u32 {
        self.head_lock_broken as u32
            + self.tail_lock_broken as u32
            + self.tail_repaired as u32
            + self.count_repaired as u32
            + self.nodes_reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{unw, w};
    use std::sync::Arc;

    fn queue(capacity: usize) -> (Arc<ShmArena>, ShmQueue) {
        let arena = Arc::new(ShmArena::new(1 << 20).unwrap());
        let q = ShmQueue::create(&arena, capacity).unwrap();
        (arena, q)
    }

    #[test]
    fn fifo_order() {
        let (a, q) = queue(64);
        for i in 0..50u64 {
            assert!(q.enqueue(&a, w(i)));
        }
        assert_eq!(q.len(&a), 50);
        for i in 0..50u64 {
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
        assert_eq!(q.dequeue(&a), None);
        assert!(q.is_empty(&a));
    }

    #[test]
    fn capacity_enforced_exactly() {
        let (a, q) = queue(4);
        for i in 0..4u64 {
            assert!(q.enqueue(&a, w(i)), "slot {i} should fit");
        }
        assert!(!q.enqueue(&a, w(99)), "fifth element must be refused");
        assert_eq!(q.len(&a), 4);
        assert_eq!(q.dequeue(&a), Some(w(0)));
        assert!(q.enqueue(&a, w(99)), "room again after a dequeue");
    }

    #[test]
    fn full_then_drain_then_reuse() {
        let (a, q) = queue(2);
        assert!(q.enqueue(&a, w(1)) && q.enqueue(&a, w(2)));
        assert!(!q.enqueue(&a, w(3)));
        assert_eq!(q.dequeue(&a), Some(w(1)));
        assert_eq!(q.dequeue(&a), Some(w(2)));
        assert_eq!(q.dequeue(&a), None);
        for round in 0..100u64 {
            assert!(q.enqueue(&a, w(round)));
            assert_eq!(q.dequeue(&a), Some(w(round)));
        }
    }

    #[test]
    fn spsc_concurrent_transfer() {
        let (a, q) = queue(16);
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
    fn mpsc_conservation() {
        let (a, q) = queue(32);
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

    /// The advisory contract's actionable half: a consumer that observes
    /// `!is_empty()` must find a linked node on its next `dequeue` (it is
    /// the only consumer here). Pins the Release increment in `enqueue` —
    /// with a Relaxed count the spinner can see `len() == 1` before the
    /// tail link is visible and dequeue `None`.
    #[test]
    fn observed_nonempty_is_dequeueable_spsc() {
        let (a, q) = queue(8);
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
                "non-empty was observed but the node was not dequeueable"
            );
        }
        producer.join().unwrap();
        assert!(q.is_empty(&a));
    }

    /// The abandoned-lock drill: a consumer "dies" holding the head lock
    /// (seized here and never released), and `dequeue_bounded` must give
    /// up instead of spinning forever — the livelock a poisoner would
    /// otherwise hit draining a SIGKILLed peer's queue. Once the lock is
    /// released, the same call drains normally.
    #[test]
    fn dequeue_bounded_gives_up_on_abandoned_head_lock() {
        let (a, q) = queue(8);
        assert!(q.enqueue(&a, w(7)));
        a.get(q.header).head_lock.lock(); // the corpse's lock
        assert_eq!(q.dequeue_bounded(&a, 10), Err(HeadLockBusy));
        assert_eq!(q.len(&a), 1, "giving up must consume nothing");
        a.get(q.header).head_lock.unlock();
        assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(7))));
        assert_eq!(q.dequeue_bounded(&a, 10), Ok(None));
    }

    /// The `count` pre-check decides emptiness without the head lock: a
    /// poll of an empty queue returns at once even under a lock a corpse
    /// abandoned, and a node a dead producer linked but never counted
    /// stays out of sight — instead of being dequeued and driving `count`
    /// below zero — until fsck commits it.
    #[test]
    fn empty_is_decided_by_count_before_the_head_lock() {
        let (a, q) = queue(8);
        a.get(q.header).head_lock.lock(); // the corpse's lock
        assert_eq!(q.dequeue(&a), None, "must not wait for the lock");
        assert_eq!(q.dequeue_bounded(&a, 10), Ok(None));
        a.get(q.header).head_lock.unlock();

        assert!(q.enqueue_abandoned_at(&a, w(666), 4), "linked, not counted");
        assert!(q.is_empty(&a));
        assert_eq!(q.dequeue(&a), None, "uncounted means uncommitted");
        assert!(q.fsck(&a, true).count_repaired);
        assert_eq!(q.dequeue(&a), Some(w(666)));
        assert_eq!(q.len(&a), 0, "count never went below zero");
    }

    /// The producer-side abandoned-lock drill: a producer "dies" holding
    /// the tail lock (seized here and never released), and
    /// `enqueue_bounded` must give up with `TailLockBusy` instead of
    /// spinning forever — the wedge that used to take down every other
    /// producer. Once the lock is released, the same call enqueues
    /// normally, and the give-up leaked no pool slot.
    #[test]
    fn enqueue_bounded_gives_up_on_abandoned_tail_lock() {
        let (a, q) = queue(8);
        assert!(q.enqueue(&a, w(7)));
        let free_before = q.pool.capacity(&a) - q.pool.in_use(&a);
        a.get(q.header).tail_lock.lock(); // the corpse's lock
        assert_eq!(q.enqueue_bounded(&a, w(8), 10), Err(TailLockBusy));
        assert_eq!(q.len(&a), 1, "giving up must enqueue nothing");
        assert_eq!(
            q.pool.capacity(&a) - q.pool.in_use(&a),
            free_before,
            "giving up must not leak the staged pool slot"
        );
        a.get(q.header).tail_lock.unlock();
        assert_eq!(q.enqueue_bounded(&a, w(8), 10), Ok(true));
        assert_eq!(q.dequeue(&a), Some(w(7)));
        assert_eq!(q.dequeue(&a), Some(w(8)));
    }

    /// Every abandonment point `enqueue_abandoned_at` offers leaves the
    /// queue in a state `enqueue_bounded` + `dequeue_bounded` survive:
    /// either the lock was never taken (survivors operate normally) or it
    /// was (survivors get the bounded-busy signal, never a wedge).
    #[test]
    fn every_enqueue_abandonment_point_is_survivable() {
        for steps in 1..=4u32 {
            let (a, q) = queue(8);
            assert!(q.enqueue(&a, w(1)), "step {steps}: pre-fill");
            assert!(q.enqueue_abandoned_at(&a, w(666), steps));
            match q.enqueue_bounded(&a, w(2), 10) {
                Ok(true) => {
                    // Lock was free (died before seizing it): fully live.
                    assert!(steps < 2, "step {steps}: lock should be held");
                    assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(1))));
                    assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(2))));
                }
                Err(TailLockBusy) => {
                    // Lock abandoned: producers degrade, consumers drain
                    // what was fully published before the death.
                    assert!(steps >= 2, "step {steps}: lock should be free");
                    assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(1))));
                }
                Ok(false) => panic!("step {steps}: queue cannot be full"),
            }
        }
    }

    /// Fsck across every enqueue abandonment point: locks get broken,
    /// uncommitted nodes reclaimed, linked-but-unaccounted nodes committed
    /// (tail/count repaired), and afterwards the queue behaves as if the
    /// corpse never existed — full capacity, FIFO order preserved.
    #[test]
    fn fsck_repairs_every_enqueue_abandonment_point() {
        for steps in 1..=4u32 {
            let (a, q) = queue(8);
            assert!(q.enqueue(&a, w(1)), "step {steps}: pre-fill");
            assert!(q.enqueue_abandoned_at(&a, w(666), steps));
            let report = q.fsck(&a, true);
            assert!(report.repaired_anything(), "step {steps}: must repair");
            if steps < 2 {
                // Died before the lock: slot leaked, chain untouched.
                assert_eq!(report.nodes_reclaimed, 1, "step {steps}");
                assert!(!report.tail_lock_broken, "step {steps}");
                assert_eq!(report.values, [1].map(w), "step {steps}");
            } else if steps < 3 {
                // Died holding the lock, before linking: lock + leak.
                assert!(report.tail_lock_broken, "step {steps}");
                assert_eq!(report.nodes_reclaimed, 1, "step {steps}");
                assert_eq!(report.values, [1].map(w), "step {steps}");
            } else {
                // Linked: the value is committed; tail and/or count lagged.
                assert!(report.tail_lock_broken, "step {steps}");
                assert_eq!(report.nodes_reclaimed, 0, "step {steps}");
                assert!(report.count_repaired, "step {steps}: count lagged");
                assert_eq!(report.tail_repaired, steps < 4, "step {steps}");
                assert_eq!(report.values, [1, 666].map(w), "step {steps}");
            }
            // Idempotence: the second pass finds a clean queue.
            assert!(
                !q.fsck(&a, true).repaired_anything(),
                "step {steps}: second pass must be a no-op"
            );
            // The repaired queue is fully live again.
            let expect: Vec<Elem> = report.values;
            for v in &expect {
                assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(*v)), "step {steps}");
            }
            assert_eq!(q.dequeue_bounded(&a, 10), Ok(None), "step {steps}");
            for i in 0..8u64 {
                assert!(q.enqueue(&a, w(i)), "step {steps}: capacity restored");
            }
            assert!(!q.enqueue(&a, w(99)), "step {steps}: capacity exact");
        }
    }

    /// A consumer SIGKILLed inside its dequeue critical section (head lock
    /// held, possibly mid-unlink) is repaired: the lock is broken and the
    /// surviving chain drains in order.
    #[test]
    fn fsck_breaks_abandoned_head_lock() {
        let (a, q) = queue(8);
        assert!(q.enqueue(&a, w(1)) && q.enqueue(&a, w(2)));
        a.get(q.header).head_lock.lock(); // the corpse's lock
        assert_eq!(q.dequeue_bounded(&a, 10), Err(HeadLockBusy));
        let report = q.fsck(&a, true);
        assert!(report.head_lock_broken);
        assert_eq!(report.values, [1, 2].map(w));
        assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(1))));
        assert_eq!(q.dequeue_bounded(&a, 10), Ok(Some(w(2))));
    }

    /// On a clean queue fsck is a strict no-op even with lock breaking
    /// requested — every repair is conditional, nothing is stored.
    #[test]
    fn fsck_on_clean_queue_reports_nothing() {
        let (a, q) = queue(8);
        for i in 0..5u64 {
            assert!(q.enqueue(&a, w(i)));
        }
        assert_eq!(q.dequeue(&a), Some(w(0)));
        let report = q.fsck(&a, true);
        assert!(!report.repaired_anything(), "{report:?}");
        assert_eq!(report.repairs(), 0);
        assert_eq!(report.values, [1, 2, 3, 4].map(w));
        for i in 1..5u64 {
            assert_eq!(q.dequeue(&a), Some(w(i)));
        }
    }

    #[test]
    fn two_queues_share_one_arena() {
        let arena = ShmArena::new(1 << 20).unwrap();
        let q1 = ShmQueue::create(&arena, 8).unwrap();
        let q2 = ShmQueue::create(&arena, 8).unwrap();
        assert!(q1.enqueue(&arena, w(1)));
        assert!(q2.enqueue(&arena, w(2)));
        assert_eq!(q1.dequeue(&arena), Some(w(1)));
        assert_eq!(q2.dequeue(&arena), Some(w(2)));
    }

    #[test]
    fn handle_is_plain_data() {
        // The handle itself can live in the arena (root structure pattern).
        let arena = ShmArena::new(1 << 20).unwrap();
        let q = ShmQueue::create(&arena, 8).unwrap();
        let stored = arena.alloc(q).unwrap();
        let q2 = *arena.get(stored);
        assert!(q2.enqueue(&arena, w(7)));
        assert_eq!(q.dequeue(&arena), Some(w(7)));
    }
}
