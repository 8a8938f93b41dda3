//! A user-level barrier in shared memory.
//!
//! The paper's clients "connect to the server, barrier, and then enter a
//! tight loop" (§2.2). On the simulator the kernel barrier is available;
//! the native backend uses this sense-reversing barrier so that the same
//! workload code runs on both.

use crate::platform::OsServices;
use crate::protocol::PollLoop;
use core::sync::atomic::{AtomicU32, Ordering};
use usipc_shm::{ShmArena, ShmError, ShmPtr, ShmSafe};

/// Sense-reversing barrier state.
#[repr(C)]
#[derive(Debug)]
pub struct ShmBarrier {
    arrived: AtomicU32,
    generation: AtomicU32,
    parties: u32,
}

unsafe impl ShmSafe for ShmBarrier {}

/// Handle to a barrier in an arena.
#[derive(Debug, Clone, Copy)]
pub struct BarrierRef(ShmPtr<ShmBarrier>);

impl BarrierRef {
    /// Creates a barrier for `parties` participants.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(arena: &ShmArena, parties: u32) -> Result<Self, ShmError> {
        assert!(parties >= 1);
        Ok(BarrierRef(arena.alloc(ShmBarrier {
            arrived: AtomicU32::new(0),
            generation: AtomicU32::new(0),
            parties,
        })?))
    }

    /// Waits until all parties arrive; reusable across generations.
    pub fn wait<O: OsServices>(&self, arena: &ShmArena, os: &O) {
        let b = arena.get(self.0);
        let gen = b.generation.load(Ordering::Acquire);
        if b.arrived.fetch_add(1, Ordering::AcqRel) + 1 == b.parties {
            // Last arrival: reset and release everyone.
            b.arrived.store(0, Ordering::Relaxed);
            b.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut poll = PollLoop::new(os);
            while b.generation.load(Ordering::Acquire) == gen {
                poll.pause();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeConfig, NativeOs};
    use std::sync::Arc;

    #[test]
    fn single_party_never_waits() {
        let arena = ShmArena::new(4096).unwrap();
        let b = BarrierRef::create(&arena, 1).unwrap();
        let os = NativeOs::new(NativeConfig::for_clients(0));
        b.wait(&arena, &os.task(0));
        b.wait(&arena, &os.task(0)); // reusable
    }

    #[test]
    fn parties_meet_and_reuse() {
        use core::sync::atomic::{AtomicU32, Ordering};
        let arena = Arc::new(ShmArena::new(4096).unwrap());
        let b = BarrierRef::create(&arena, 3).unwrap();
        let os = NativeOs::new(NativeConfig::for_clients(0));
        let phase = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let arena = Arc::clone(&arena);
                let os = Arc::clone(&os);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    let t = os.task(i);
                    for round in 0..10u32 {
                        b.wait(&arena, &t);
                        // After each barrier, every thread observes the same
                        // round: nobody can be a full phase ahead.
                        let seen = phase.load(Ordering::SeqCst);
                        assert!(seen / 3 >= round.saturating_sub(1));
                        phase.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(phase.load(Ordering::SeqCst), 30);
    }
}
