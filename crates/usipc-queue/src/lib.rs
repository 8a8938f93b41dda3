//! # usipc-queue — concurrent FIFO queues for user-level IPC
//!
//! The paper's communication substrate is "concurrent uni-directional queues
//! implemented in shared memory", which its evaluation software realizes with
//! "a common implementation of the Michael and Scott two-lock queue" (§2.2,
//! citing \[9\] = Michael & Scott, PODC'96). This crate holds the two queues
//! a channel can run on, both in shared-memory (offset-based) form, and the
//! handle that selects between them:
//!
//! * [`ShmQueue`] — the M&S two-lock queue inside a
//!   [`ShmArena`](usipc_shm::ShmArena): test-and-set spinlocks, node pool,
//!   fixed capacity with flow control (`enqueue` returns `false` when full,
//!   which is what triggers the paper's `sleep(1)` back-off).
//! * [`ShmRing`] — lock-free bounded ring in the arena (per-slot sequence
//!   numbers, SPSC and MPSC producer modes, crash-robust: a SIGKILLed
//!   producer can never wedge survivors the way an abandoned spinlock
//!   does).
//! * [`AnyShmFifo`] — dispatches between the two at runtime so channels
//!   select their queue kind per configuration; the per-message path runs
//!   on the [`FifoView`] it resolves to, validated once.
//! * [`SpinLock`] — the raw test-and-set lock used inside the arena.
//!
//! Both queues carry the message itself — an [`Elem`], the paper's 24-byte
//! fixed message as three words — in their own nodes and slots: one
//! allocation per message, taken from the queue's own storage (§2.2: the
//! message comes out of a free pool and is linked into the FIFO). Larger
//! payloads travel as an arena *offset* in one of the words, as the paper
//! suggests for variable-sized data ("one of the fields of the fixed sized
//! message \[points\] to a variable sized component in shared memory").

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod dispatch;
mod shm_ring;
mod shm_two_lock;
mod spinlock;

pub use dispatch::{AnyShmFifo, EnqueueFlow, FifoFsck, FifoView, QueueKind};
pub use shm_ring::{RingFsck, RingMode, RingPush, RingReclaim, RingView, ShmRing};
pub use shm_two_lock::{HeadLockBusy, ShmQueue, TailLockBusy, TwoLockFsck, POOL_SLACK};
pub use spinlock::SpinLock;

use core::sync::atomic::{AtomicU64, Ordering};

/// One FIFO element: three 64-bit words, the paper's 24-byte message.
pub type Elem = [u64; 3];

/// The in-segment form of an [`Elem`]. Stores and loads are `Relaxed`: a
/// cell is written only by the producer that owns its node or slot and
/// read only by the consumer that claimed it, and the queue's own
/// publish/claim edge (Release/Acquire) orders the two.
#[repr(C)]
#[derive(Debug, Default)]
pub(crate) struct ElemCell([AtomicU64; 3]);

impl ElemCell {
    #[inline]
    pub(crate) fn store(&self, e: Elem) {
        for (w, v) in self.0.iter().zip(e) {
            w.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn load(&self) -> Elem {
        [0, 1, 2].map(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// The one bounded-lock yield budget every fault-path acquisition of an
/// in-segment spinlock shares: `enqueue_bounded`/`dequeue_bounded` here,
/// and the channel layer's tail-lock and abandoned-lock drains above.
///
/// Rationale (pinned by `tests::lock_budget_rationale`): a *live* holder's
/// critical section is a handful of loads and stores — it completes within
/// one or two scheduler yields even on a uniprocessor, so a budget of 100
/// yields (each preceded by ~100 pause-spins) is two orders of magnitude
/// above what contention can consume, making a budget exhaustion the
/// unambiguous signature of an *abandoned* lock (a SIGKILLed holder).
/// At the same time 100 yields is microseconds of wall clock, so the
/// give-up is prompt enough for deadline-based fault paths to stay
/// responsive. One constant, not several: the two budgets this unifies
/// were independently chosen magic numbers with identical reasoning, and
/// keeping them equal means every bounded acquisition in the stack gives
/// up on the same evidence.
pub const LOCK_BUDGET: u32 = 100;

/// Three-word test elements shared by the queue suites.
#[cfg(test)]
pub(crate) mod testing {
    use super::Elem;

    /// Test element for `i`: three words that only belong together, so a
    /// torn or mixed-up element fails [`unw`].
    pub(crate) fn w(i: u64) -> Elem {
        [i, !i, i.rotate_left(17)]
    }

    /// The `i` of an element, checked to be exactly `w(i)`.
    pub(crate) fn unw(e: Elem) -> u64 {
        assert_eq!(e, w(e[0]), "torn element");
        e[0]
    }
}

#[cfg(test)]
mod tests {
    use super::testing::w;
    use super::*;
    use std::sync::Arc;

    /// The rationale test for [`LOCK_BUDGET`]: under *live* contention the
    /// budget is never exhausted (no spurious abandoned-lock verdicts),
    /// while a genuinely abandoned lock is detected promptly (bounded
    /// wall-clock give-up, not a wedge).
    #[test]
    fn lock_budget_rationale() {
        let arena = Arc::new(usipc_shm::ShmArena::new(1 << 20).unwrap());
        let q = ShmQueue::create(&arena, 8).unwrap();

        // Live contention: a peer hammering both locks must never make a
        // bounded op report LockBusy — a live critical section always
        // completes well inside the budget.
        let a2 = Arc::clone(&arena);
        let peer = std::thread::spawn(move || {
            for i in 0..20_000u64 {
                let _ = q.enqueue(&a2, w(i));
                let _ = q.dequeue(&a2);
            }
        });
        for i in 0..20_000u64 {
            assert!(
                q.enqueue_bounded(&arena, w(i), LOCK_BUDGET).is_ok(),
                "live contention exhausted the budget"
            );
            assert!(
                q.dequeue_bounded(&arena, LOCK_BUDGET).is_ok(),
                "live contention exhausted the budget"
            );
        }
        peer.join().unwrap();

        // Abandonment: with the tail lock held by a "corpse", the bounded
        // enqueue gives up — and does so promptly (the budget is yields,
        // not seconds).
        while q.dequeue(&arena).is_some() {}
        assert!(q.enqueue_abandoned_at(&arena, w(666), 2)); // dies holding tail lock
        let start = std::time::Instant::now();
        assert_eq!(
            q.enqueue_bounded(&arena, w(1), LOCK_BUDGET),
            Err(TailLockBusy),
            "abandoned lock must be detected"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "give-up must be prompt"
        );
    }
}
