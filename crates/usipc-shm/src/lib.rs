//! # usipc-shm — position-independent shared-memory substrate
//!
//! The IPC facility of Unrau & Krieger (ICPP 1998) places all communication
//! state — FIFO queues, free pools, `awake` flags — in a memory segment
//! mapped into both the client and server address spaces. Because the segment
//! may be mapped at *different virtual addresses* in each process, nothing
//! stored inside it may be an absolute pointer: every reference must be an
//! **offset** from the segment base.
//!
//! This crate provides that substrate:
//!
//! * [`ShmArena`] — a fixed-size, cache-line aligned region with a concurrent
//!   bump allocator. In this reproduction the region is process-private memory
//!   shared between threads (see DESIGN.md, substitution table); swapping the
//!   backing store for a real `mmap`-ed segment requires no change to any
//!   structure stored inside it.
//! * [`ShmPtr`] / [`ShmSlice`] — typed offset pointers resolved against an
//!   arena.
//! * [`TaggedAtomicPtr`] — a `(offset, tag)` pair packed into one `AtomicU64`
//!   for ABA-safe lock-free structures (used by the message pool and the
//!   nonblocking queue in `usipc-queue`).
//! * [`SlotPool`] — a lock-free fixed-slot allocator for message buffers,
//!   implementing the "efficient free-pool management" the paper's fixed-size
//!   message design enables (§2.1).
//! * [`ShmSafe`] — the marker trait gating which types may live in an arena.
//!
//! ## Safety model
//!
//! An object may be placed in an arena only if its type implements the
//! `unsafe` marker trait [`ShmSafe`]: it must be `repr(C)` (stable layout),
//! contain no references or absolute pointers, and tolerate concurrent shared
//! access through `&T` (all mutation via atomics or locks stored inline).
//! Allocation is append-only: an offset handed out by [`ShmArena::alloc`]
//! remains valid for the arena's lifetime, so resolving it can be a safe
//! operation.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod arena;
mod layout;
mod pool;
mod ptr;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys;

pub use arena::{ShmArena, ShmBacking, ShmError, ShmToken};
pub use layout::{CacheAligned, CACHE_LINE};
pub use pool::{PoolAudit, PoolSlot, SlotPool, SlotPoolHeader};
pub use ptr::{RawOffset, ShmPtr, ShmSlice, TaggedAtomicPtr, TaggedPtr, NULL_OFFSET};

/// Marker trait for types that may be stored inside a [`ShmArena`].
///
/// # Safety
///
/// Implementors must guarantee all of the following:
///
/// 1. The type has a stable, position-independent representation: `repr(C)`
///    or a primitive/atomic, containing **no** references, `Box`es, raw
///    pointers into the host address space, or other absolute addresses.
///    (Offsets such as [`ShmPtr`] are fine — that is their purpose.)
/// 2. Shared access through `&T` from many threads is sound; i.e. every field
///    that is mutated after placement is an atomic, or is protected by a lock
///    that itself lives inline.
/// 3. Any bit pattern the type's atomics may hold is valid for the type
///    (no `enum` discriminants mutated through atomics, etc.).
pub unsafe trait ShmSafe: Sized + 'static {}

/// A monotonic timestamp in nanoseconds on the *host-wide* axis every
/// cooperating process shares.
///
/// On Linux the axis is `CLOCK_MONOTONIC`: two processes reading it at the
/// same instant see the same value, which is what makes the arena's
/// [`clock epoch`](ShmArena::clock_epoch) a common time origin for
/// cross-process traces and telemetry. The raw `clock_gettime` syscall is
/// made **once per process**, paired with one [`Instant`]; every later
/// read is that anchor plus `Instant::elapsed`, which the vDSO serves
/// without entering the kernel. `Instant` counts the same clock, so the
/// result stays on the host-wide axis to within the few dozen nanoseconds
/// between the two anchoring reads — and a forked child inherits its
/// parent's anchor, so the two agree exactly. On other targets (where the
/// heap backing is the only one and all readers share one address space)
/// the anchor is zero: a process-local monotonic clock.
///
/// [`Instant`]: std::time::Instant
pub fn monotonic_nanos() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ANCHOR: OnceLock<(u64, Instant)> = OnceLock::new();
    let (raw, at) = ANCHOR.get_or_init(|| {
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        let raw = sys::clock_monotonic_nanos();
        #[cfg(not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )))]
        let raw = 0;
        (raw, Instant::now())
    });
    raw + at.elapsed().as_nanos() as u64
}

macro_rules! impl_shm_safe {
    ($($t:ty),* $(,)?) => { $( unsafe impl ShmSafe for $t {} )* };
}

impl_shm_safe!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    core::sync::atomic::AtomicU8,
    core::sync::atomic::AtomicU16,
    core::sync::atomic::AtomicU32,
    core::sync::atomic::AtomicU64,
    core::sync::atomic::AtomicUsize,
    core::sync::atomic::AtomicI32,
    core::sync::atomic::AtomicI64,
    core::sync::atomic::AtomicBool,
);

unsafe impl<T: ShmSafe, const N: usize> ShmSafe for [T; N] {}
