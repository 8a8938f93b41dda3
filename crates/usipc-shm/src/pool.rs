//! Lock-free fixed-slot pools: the "efficient free-pool management" that the
//! paper's fixed-size message design enables (§2.1).
//!
//! Senders allocate a message slot, fill it, and pass its *offset* through a
//! queue; the receiver reads the slot and returns it to the pool. Because all
//! slots are the same size and live in the arena, allocation is a single
//! tagged compare-and-swap on a Treiber free stack — no heap, no system
//! calls, and safe against the ABA recycling hazard via modification tags.
//!
//! That CAS is the *only* read-modify-write `alloc` or `free` performs.
//! The pool keeps no checked-out counter: the free list is the single
//! source of truth, and [`SlotPool::in_use`] derives the number on demand
//! as `capacity − free-list length` with a bounded walk. A derived number
//! cannot disagree with the list, so there is nothing for a crash to leave
//! inconsistent and nothing for fsck to rewrite.

use crate::arena::{ShmArena, ShmError};
use crate::ptr::{ShmPtr, ShmSlice, TaggedAtomicPtr, TaggedPtr};
use crate::ShmSafe;
use core::sync::atomic::Ordering;

/// One pool slot: an intrusive free-list link plus the payload.
///
/// The payload is exposed as `&T`; types stored in a pool perform their own
/// interior mutation (e.g. the 24-byte IPC message is a pair of atomics).
/// While a slot is checked out its link word is unused and the holder has
/// logical exclusivity; the happens-before edge that makes the payload's
/// relaxed writes visible to the next reader is supplied by whatever channel
/// transfers the offset (queue enqueue/dequeue, or the pool's own free/alloc
/// release/acquire pair).
#[repr(C)]
#[derive(Debug)]
pub struct PoolSlot<T> {
    next: TaggedAtomicPtr,
    value: T,
}

unsafe impl<T: ShmSafe> ShmSafe for PoolSlot<T> {}

impl<T> PoolSlot<T> {
    /// Shared access to the payload.
    pub fn value(&self) -> &T {
        &self.value
    }
}

/// Shared pool bookkeeping, stored in the arena.
#[repr(C)]
#[derive(Debug)]
pub struct SlotPoolHeader {
    /// Top of the Treiber free stack (tagged against ABA).
    free: TaggedAtomicPtr,
    /// Total number of slots.
    capacity: u32,
}

unsafe impl ShmSafe for SlotPoolHeader {}

/// A handle to a fixed-slot pool in an arena.
///
/// The handle is plain data (offsets only) and `Copy`, so it can be embedded
/// in a root structure and picked up by attaching peers.
#[derive(Debug)]
pub struct SlotPool<T> {
    header: ShmPtr<SlotPoolHeader>,
    slots: ShmSlice<PoolSlot<T>>,
}

// Manual impls: derives would add an unwanted `T: Clone/Copy` bound.
impl<T> Clone for SlotPool<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SlotPool<T> {}

unsafe impl<T: 'static> ShmSafe for SlotPool<T> {}

impl<T: ShmSafe> SlotPool<T> {
    /// Creates a pool of `capacity` slots, payloads initialized by `init(i)`,
    /// with every slot initially free.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(
        arena: &ShmArena,
        capacity: usize,
        mut init: impl FnMut(usize) -> T,
    ) -> Result<Self, ShmError> {
        assert!(capacity > 0, "slot pool needs at least one slot");
        assert!(capacity <= u32::MAX as usize, "slot pool too large");
        let slots = arena.alloc_slice(capacity, |i| PoolSlot {
            next: TaggedAtomicPtr::new(TaggedPtr::NULL),
            value: init(i),
        })?;
        // Thread the free list through the freshly created slots.
        for i in 0..capacity - 1 {
            let this = arena.get(slots.at(i));
            this.next
                .store(TaggedPtr::new(slots.at(i + 1).raw(), 0), Ordering::Relaxed);
        }
        let header = arena.alloc(SlotPoolHeader {
            free: TaggedAtomicPtr::new(TaggedPtr::new(slots.at(0).raw(), 0)),
            capacity: capacity as u32,
        })?;
        Ok(SlotPool { header, slots })
    }

    /// Arena bytes [`Self::create`] consumes for `capacity` slots: the slot
    /// array plus the header, each padded by its worst-case alignment slack.
    /// Lets callers size an arena from the actual types instead of magic
    /// constants.
    pub fn bytes_needed(capacity: usize) -> usize {
        capacity * core::mem::size_of::<PoolSlot<T>>()
            + core::mem::align_of::<PoolSlot<T>>()
            + core::mem::size_of::<SlotPoolHeader>()
            + core::mem::align_of::<SlotPoolHeader>()
    }

    /// Total number of slots.
    pub fn capacity(&self, arena: &ShmArena) -> usize {
        arena.get(self.header).capacity as usize
    }

    /// Slots currently checked out: `capacity − free-list length`, by a
    /// walk of the free list bounded at `capacity` hops. A diagnostic, not
    /// a hot-path call — exact when the pool is quiescent, a best-effort
    /// snapshot while peers `alloc`/`free` (see
    /// [`Self::free_list_offsets`]).
    pub fn in_use(&self, arena: &ShmArena) -> usize {
        self.capacity(arena) - self.free_list_offsets(arena).len()
    }

    /// Pops a free slot, or `None` if the pool is exhausted.
    ///
    /// Lock-free: a failed tagged CAS means another thread made progress.
    pub fn alloc(&self, arena: &ShmArena) -> Option<ShmPtr<PoolSlot<T>>> {
        let hdr = arena.get(self.header);
        loop {
            let top = hdr.free.load(Ordering::Acquire);
            if top.is_null() {
                return None;
            }
            let node_ptr: ShmPtr<PoolSlot<T>> = ShmPtr::from_raw(top.off);
            let next = arena.get(node_ptr).next.load(Ordering::Relaxed);
            if hdr
                .free
                .compare_exchange_weak(
                    top,
                    top.bumped(next.off),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return Some(node_ptr);
            }
        }
    }

    /// Returns a slot to the pool.
    ///
    /// # Panics
    ///
    /// If `slot` does not belong to this pool's slot array (debug builds
    /// verify membership; release builds verify bounds via the arena).
    pub fn free(&self, arena: &ShmArena, slot: ShmPtr<PoolSlot<T>>) {
        debug_assert!(self.owns(slot), "freeing a slot from a different pool");
        let hdr = arena.get(self.header);
        let node = arena.get(slot);
        loop {
            let top = hdr.free.load(Ordering::Relaxed);
            node.next.store(top, Ordering::Relaxed);
            if hdr
                .free
                .compare_exchange_weak(
                    top,
                    top.bumped(slot.raw()),
                    Ordering::Release,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
        }
    }

    /// Whether `slot` lies within this pool's slot array.
    pub fn owns(&self, slot: ShmPtr<PoolSlot<T>>) -> bool {
        let start = self.slots.raw();
        let stride = core::mem::size_of::<PoolSlot<T>>() as u64;
        let end = start as u64 + stride * self.slots.len() as u64;
        let off = slot.raw() as u64;
        off >= start as u64 && off < end && (off - start as u64).is_multiple_of(stride)
    }

    /// Index of `slot` within the pool (for tracing/diagnostics).
    ///
    /// # Panics
    ///
    /// If the slot is not owned by this pool.
    pub fn index_of(&self, slot: ShmPtr<PoolSlot<T>>) -> usize {
        assert!(self.owns(slot));
        ((slot.raw() - self.slots.raw()) as usize) / core::mem::size_of::<PoolSlot<T>>()
    }

    /// Fsck support: the raw offsets currently threaded on the free list,
    /// top first. **Requires quiescence** — the walk follows `next` links
    /// without re-checking the tag, so a concurrent `alloc`/`free` could
    /// splice the list mid-walk. The walk is cycle-bounded at `capacity`
    /// hops, so even a corrupted list terminates.
    pub fn free_list_offsets(&self, arena: &ShmArena) -> Vec<u32> {
        let hdr = arena.get(self.header);
        let mut out = Vec::new();
        let cap = hdr.capacity as usize;
        let mut cur = hdr.free.load(Ordering::Acquire);
        while !cur.is_null() && out.len() < cap {
            out.push(cur.off);
            let node: ShmPtr<PoolSlot<T>> = ShmPtr::from_raw(cur.off);
            if !self.owns(node) {
                break; // corrupted link: stop rather than chase it
            }
            cur = arena.get(node).next.load(Ordering::Relaxed);
        }
        out
    }
}

/// What [`SlotPool::audit_reclaim`] found and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolAudit {
    /// Slots on the free list before the audit.
    pub free: u32,
    /// Slots that were neither free nor reachable — leaked by a dead
    /// holder — and were returned to the free list.
    pub reclaimed: u32,
}

impl<T: ShmSafe> SlotPool<T> {
    /// Fsck support: free-list vs. reachable-slot accounting.
    ///
    /// `reachable` names (by raw offset) every slot legitimately checked
    /// out — e.g. every node a queue's link chain can still reach. Any
    /// slot that is neither on the free list nor in `reachable` was
    /// checked out by a holder that died before publishing or returning
    /// it; such slots are reclaimed onto the free list.
    ///
    /// **Requires quiescence** (see [`Self::free_list_offsets`]): run it
    /// only while no peer can be mid-`alloc`/`free` — the recovery window
    /// after the owner's death, before a successor resumes service. On a
    /// consistent pool this is a strict no-op.
    pub fn audit_reclaim(&self, arena: &ShmArena, reachable: &[u32]) -> PoolAudit {
        let free: std::collections::HashSet<u32> =
            self.free_list_offsets(arena).into_iter().collect();
        let mut audit = PoolAudit {
            free: free.len() as u32,
            reclaimed: 0,
        };
        for i in 0..self.slots.len() {
            let p = self.slots.at(i);
            if !free.contains(&p.raw()) && !reachable.contains(&p.raw()) {
                self.free(arena, p);
                audit.reclaimed += 1;
            }
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn pool_of(n: usize) -> (Arc<ShmArena>, SlotPool<AtomicU64>) {
        let arena = Arc::new(ShmArena::new(1 << 20).unwrap());
        let pool = SlotPool::create(&arena, n, |_| AtomicU64::new(0)).unwrap();
        (arena, pool)
    }

    #[test]
    fn alloc_all_then_exhausted() {
        let (arena, pool) = pool_of(4);
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(pool.alloc(&arena).expect("slot available"));
        }
        assert!(pool.alloc(&arena).is_none());
        assert_eq!(pool.in_use(&arena), 4);
        pool.free(&arena, got[2]);
        assert_eq!(pool.in_use(&arena), 3, "derived from the free list");
        // Distinct slots.
        let mut raws: Vec<_> = got.iter().map(|p| p.raw()).collect();
        raws.sort_unstable();
        raws.dedup();
        assert_eq!(raws.len(), 4);
    }

    #[test]
    fn free_makes_slot_reusable() {
        let (arena, pool) = pool_of(1);
        let s = pool.alloc(&arena).unwrap();
        assert!(pool.alloc(&arena).is_none());
        pool.free(&arena, s);
        assert_eq!(pool.in_use(&arena), 0);
        assert!(pool.alloc(&arena).is_some());
    }

    #[test]
    fn payload_persists_across_checkout() {
        let (arena, pool) = pool_of(2);
        let s = pool.alloc(&arena).unwrap();
        arena.get(s).value().store(77, Ordering::Relaxed);
        pool.free(&arena, s);
        let s2 = pool.alloc(&arena).unwrap();
        // LIFO free stack: we get the same slot back, value intact (pools do
        // not zero on free; protocols overwrite).
        assert_eq!(s2, s);
        assert_eq!(arena.get(s2).value().load(Ordering::Relaxed), 77);
    }

    #[test]
    fn index_and_ownership() {
        let (arena, pool) = pool_of(8);
        let a = pool.alloc(&arena).unwrap();
        let b = pool.alloc(&arena).unwrap();
        assert!(pool.owns(a) && pool.owns(b));
        assert_ne!(pool.index_of(a), pool.index_of(b));
        assert!(pool.index_of(a) < 8);
        let foreign: ShmPtr<PoolSlot<AtomicU64>> = ShmPtr::from_raw(4);
        assert!(!pool.owns(foreign));
    }

    #[test]
    fn concurrent_alloc_free_conserves_slots() {
        let (arena, pool) = pool_of(16);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..1000u64 {
                        if let Some(s) = pool.alloc(&arena) {
                            arena.get(s).value().fetch_add(1, Ordering::Relaxed);
                            held.push(s);
                        }
                        if round % 3 == 0 {
                            if let Some(s) = held.pop() {
                                pool.free(&arena, s);
                            }
                        }
                        if held.len() > 2 {
                            pool.free(&arena, held.remove(0));
                        }
                    }
                    for s in held {
                        pool.free(&arena, s);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The derived count and the list it is derived from: every slot
        // is back on the free list exactly once.
        assert_eq!(pool.in_use(&arena), 0);
        let mut free = pool.free_list_offsets(&arena);
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), 16, "free list incomplete or cyclic");
        assert!(free.iter().all(|&off| pool.owns(ShmPtr::from_raw(off))));
        // All 16 slots recoverable.
        let mut all = Vec::new();
        while let Some(s) = pool.alloc(&arena) {
            all.push(s);
        }
        assert_eq!(all.len(), 16);
    }
}
