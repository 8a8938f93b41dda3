//! The shared-memory arena: a fixed region with a concurrent bump allocator.

use crate::ptr::{RawOffset, ShmPtr, ShmSlice, NULL_OFFSET};
use crate::{ShmSafe, CACHE_LINE};
use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::alloc::{alloc_zeroed, dealloc, Layout};

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
use crate::sys;

/// Errors from arena operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmError {
    /// The allocation does not fit in the remaining arena space.
    OutOfMemory {
        /// Bytes requested (including alignment padding).
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// The requested arena capacity is invalid (zero or > 4 GiB).
    BadCapacity(usize),
    /// A kernel call backing the segment failed.
    Sys {
        /// Which syscall failed (`"memfd_create"`, `"mmap"`, ...).
        call: &'static str,
        /// The raw (positive) errno value.
        errno: i32,
    },
    /// The attached segment is not a usipc arena (bad magic or size
    /// mismatch, e.g. a truncated or foreign fd), or a structure in it is
    /// malformed: an offset out of range, a field no constructor writes.
    BadSegment,
}

impl core::fmt::Display for ShmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShmError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "shared arena exhausted: requested {requested} bytes, {available} available"
            ),
            ShmError::BadCapacity(c) => write!(f, "invalid arena capacity {c}"),
            ShmError::Sys { call, errno } => write!(f, "{call} failed with errno {errno}"),
            ShmError::BadSegment => write!(f, "segment is not a well-formed usipc arena"),
        }
    }
}

impl std::error::Error for ShmError {}

/// An opaque bootstrap token naming the arena's *root object*.
///
/// A process that attaches to a real shared segment knows only the base
/// address; everything else must be discoverable from a well-known slot. The
/// creator stores the offset of its top-level structure with
/// [`ShmArena::publish_root`]; attachers retrieve it with
/// [`ShmArena::root`]. The token records the offset so the type resolution
/// stays explicit at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmToken(pub(crate) RawOffset);

/// Which store backs an arena's bytes. See [`ShmArena::backing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmBacking {
    /// An anonymous zeroed heap block: visible to threads of this process
    /// only. The laptop-scale stand-in described in DESIGN.md.
    Heap,
    /// An anonymous `memfd_create` file mapped `MAP_SHARED`: the fd can be
    /// inherited by (or passed to) other processes, which attach with
    /// [`ShmArena::attach_memfd`] and see the same physical pages — usually
    /// at a different base address, which is what the offset-only design
    /// exists to tolerate.
    Memfd,
}

/// `"USIPARENA"` truncated to 32 bits: marks a segment as an initialized
/// usipc arena so [`ShmArena::attach_memfd`] can reject foreign fds.
const MAGIC: u32 = 0x5553_4950; // "USIP"

/// The arena's control block, resident in the segment's reserved first cache
/// line so that *all* allocator and bootstrap state is shared.
///
/// With the original heap backing these fields could have lived in the host
/// `ShmArena` struct (and once did) — but an attaching process must see the
/// creator's bump cursor and root slot, so they belong in the segment itself.
/// Offset 0 holding this header is also what makes [`NULL_OFFSET`] safe: the
/// allocator can never hand out offset 0 for a live object.
#[repr(C)]
struct ArenaHeader {
    /// [`MAGIC`] once initialization is complete (store-Release).
    magic: AtomicU32,
    /// Root-object bootstrap slot (offset of the creator's top-level struct).
    root: AtomicU32,
    /// Total segment size in bytes, for attach-time validation.
    total: AtomicU64,
    /// Bump cursor: offset of the first free byte. 64-bit so the
    /// pad-and-reserve arithmetic in `bump` cannot wrap even when the cursor
    /// sits just below the 4 GiB offset ceiling.
    next: AtomicU64,
    /// Segment-wide time origin: the creator's `CLOCK_MONOTONIC` reading at
    /// initialization. Every process maps the same physical header, so
    /// `monotonic_now - clock_epoch` is the same axis in all of them —
    /// per-process `Instant` epochs are not, which is why merged
    /// cross-process traces used to misorder.
    clock_epoch: AtomicU64,
    /// Auxiliary bootstrap slot (offset), independent of `root`: the
    /// telemetry plane registers itself here so observability can piggyback
    /// on any segment without stealing the application's root object.
    aux: AtomicU32,
    /// Generation epoch: starts at 1 and is bumped by a recovery takeover
    /// (`bump_generation`). Structures inside the segment stamp the epoch
    /// they were (re)validated under; a stamp older than the header's word
    /// marks state that predates the last takeover and must not be trusted
    /// without re-validation. Zero never occurs, so a zeroed stamp always
    /// reads as stale.
    generation: AtomicU32,
}

const _: () = assert!(core::mem::size_of::<ArenaHeader>() <= CACHE_LINE);

/// How the segment's bytes are released on drop.
enum Backing {
    /// `dealloc` with the original layout.
    Heap,
    /// `munmap`, plus `close(fd)` when this handle created the memfd
    /// (attached handles never own the fd — the spawner does).
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    Memfd { fd: i32, owned: bool },
}

/// A fixed-size shared region with a concurrent bump allocator.
///
/// All cross-address-space IPC state lives inside an arena and is addressed
/// by [`ShmPtr`] offsets, never by host pointers, so every structure is
/// position independent. Allocation is append-only: the arena never frees
/// individual objects (recycling is layered on top by
/// [`SlotPool`](crate::SlotPool)), which is what makes offset resolution a
/// safe operation — a published offset can never dangle.
///
/// Two backings exist ([`ShmBacking`]): the anonymous heap block used by the
/// thread-backed experiments, and a real `memfd_create` + `mmap(MAP_SHARED)`
/// segment whose fd forked children inherit and [`attach`](Self::attach_memfd)
/// to. Nothing stored *inside* the arena can tell them apart — that is the
/// "swap of the backing store" DESIGN.md promises.
pub struct ShmArena {
    base: *mut u8,
    cap: usize,
    backing: Backing,
}

// SAFETY (Send): the arena exclusively owns its mapping for the lifetime of
// the value — a heap block from `alloc_zeroed` or a `MAP_SHARED` region this
// handle mapped itself — and `base` stays valid until `drop`, from any
// thread. Drop releases the region with the call matching `backing` (dealloc
// for `Heap`, munmap for `Memfd`): the discriminant is set once at
// construction and never mutated, so a wrong-mode release cannot happen.
unsafe impl Send for ShmArena {}
// SAFETY (Sync): `&self` methods never mutate host-side state; all shared
// mutation goes through atomics in the segment-resident `ArenaHeader` or
// through `&T` objects whose types promised thread-safe shared access via
// `ShmSafe`. This holds for both backings — for `Memfd` the *kernel* also
// aliases the pages into other processes, which is sound for exactly the
// same reason it is sound across threads: every mutable word is an atomic.
unsafe impl Sync for ShmArena {}

impl core::fmt::Debug for ShmArena {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShmArena")
            .field("backing", &self.backing())
            .field("capacity", &self.cap)
            .field("used", &self.used())
            .finish()
    }
}

/// First usable offset: one cache line is reserved for the [`ArenaHeader`]
/// so that offset 0 ([`NULL_OFFSET`]) never names a live object.
const HEADER: usize = CACHE_LINE;

/// Largest permissible segment: every byte must be nameable by a
/// [`RawOffset`], and `bump` reports `end` offsets one past the last byte, so
/// the total size itself must fit in `u32`.
const MAX_TOTAL: usize = u32::MAX as usize;

impl ShmArena {
    /// Rounds a requested capacity up to the allocated total, enforcing the
    /// offset-addressability bound.
    fn total_for(capacity: usize) -> Result<usize, ShmError> {
        let total = capacity
            .checked_add(HEADER)
            .and_then(|t| t.checked_next_multiple_of(CACHE_LINE))
            .ok_or(ShmError::BadCapacity(capacity))?;
        if capacity == 0 || total > MAX_TOTAL {
            return Err(ShmError::BadCapacity(capacity));
        }
        Ok(total)
    }

    /// Resolves the segment-resident control block.
    fn hdr(&self) -> &ArenaHeader {
        // SAFETY: both constructors reserve and initialize the first cache
        // line as an `ArenaHeader` before the value exists; the mapping is at
        // least `HEADER` bytes and cache-line aligned (heap: Layout align;
        // mmap: page aligned).
        unsafe { &*(self.base as *const ArenaHeader) }
    }

    /// Writes a fresh header into a zeroed segment.
    ///
    /// The magic is stored last with Release so an attacher that observes it
    /// (Acquire) also observes `total` and the initial cursor.
    fn init_header(base: *mut u8, total: usize) {
        // SAFETY: `base` points at ≥ HEADER zeroed, aligned bytes owned by
        // the caller; no other thread or process can observe them yet.
        let hdr = unsafe { &*(base as *const ArenaHeader) };
        hdr.root.store(NULL_OFFSET, Ordering::Relaxed);
        hdr.aux.store(NULL_OFFSET, Ordering::Relaxed);
        hdr.total.store(total as u64, Ordering::Relaxed);
        hdr.next.store(HEADER as u64, Ordering::Relaxed);
        hdr.clock_epoch
            .store(crate::monotonic_nanos(), Ordering::Relaxed);
        hdr.generation.store(1, Ordering::Relaxed);
        hdr.magic.store(MAGIC, Ordering::Release);
    }

    /// Creates a heap-backed arena with `capacity` usable bytes (rounded up
    /// to a cache line), zero-filled.
    ///
    /// # Errors
    ///
    /// [`ShmError::BadCapacity`] if `capacity` is zero or the total region
    /// would exceed the 4 GiB addressable by a 32-bit offset.
    pub fn new(capacity: usize) -> Result<Self, ShmError> {
        let total = Self::total_for(capacity)?;
        let layout = Layout::from_size_align(total, CACHE_LINE).expect("arena layout");
        // SAFETY: layout has non-zero size (capacity > 0 checked above).
        let base = unsafe { alloc_zeroed(layout) };
        if base.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Self::init_header(base, total);
        Ok(ShmArena {
            base,
            cap: total,
            backing: Backing::Heap,
        })
    }

    /// Creates an arena backed by an anonymous `memfd_create` segment mapped
    /// `MAP_SHARED`, with `capacity` usable bytes.
    ///
    /// The fd ([`backing_fd`](Self::backing_fd)) is *not* `CLOEXEC`: forked
    /// children inherit it and attach with [`attach_memfd`](Self::attach_memfd),
    /// after which a `FutexSem` resident in the arena parks and wakes across
    /// the address spaces (non-private futexes key on the physical page).
    ///
    /// # Errors
    ///
    /// [`ShmError::BadCapacity`] as for [`new`](Self::new);
    /// [`ShmError::Sys`] when a kernel call fails.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn new_memfd(capacity: usize) -> Result<Self, ShmError> {
        let sys_err = |call| {
            move |e: isize| ShmError::Sys {
                call,
                errno: -e as i32,
            }
        };
        let total = Self::total_for(capacity)?;
        let fd = sys::memfd_create(c"usipc-arena").map_err(sys_err("memfd_create"))?;
        let mapped = sys::ftruncate(fd, total)
            .map_err(sys_err("ftruncate"))
            .and_then(|()| sys::mmap_shared(fd, total).map_err(sys_err("mmap")));
        let base = match mapped {
            Ok(b) => b,
            Err(e) => {
                sys::close(fd);
                return Err(e);
            }
        };
        Self::init_header(base, total);
        Ok(ShmArena {
            base,
            cap: total,
            backing: Backing::Memfd { fd, owned: true },
        })
    }

    /// Attaches to an existing memfd arena through its inherited (or
    /// otherwise received) fd, mapping it `MAP_SHARED` at whatever base the
    /// kernel picks — deliberately *not* the creator's base, which is what
    /// exercises position independence.
    ///
    /// The returned handle does not own `fd`: dropping it unmaps the segment
    /// but leaves the fd open for the caller to close (or leak to `exit`).
    ///
    /// # Errors
    ///
    /// [`ShmError::Sys`] when `fstat`/`mmap` fail; [`ShmError::BadSegment`]
    /// when the segment is too small, was not initialized by
    /// [`new_memfd`](Self::new_memfd), or records a different size than the
    /// fd actually has.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn attach_memfd(fd: i32) -> Result<Self, ShmError> {
        let sys_err = |call| {
            move |e: isize| ShmError::Sys {
                call,
                errno: -e as i32,
            }
        };
        let total = sys::fstat_size(fd).map_err(sys_err("fstat"))?;
        if !(HEADER..=MAX_TOTAL).contains(&total) {
            return Err(ShmError::BadSegment);
        }
        let base = sys::mmap_shared(fd, total).map_err(sys_err("mmap"))?;
        let arena = ShmArena {
            base,
            cap: total,
            backing: Backing::Memfd { fd, owned: false },
        };
        let hdr = arena.hdr();
        if hdr.magic.load(Ordering::Acquire) != MAGIC
            || hdr.total.load(Ordering::Relaxed) != total as u64
        {
            return Err(ShmError::BadSegment); // drop unmaps, fd stays open
        }
        Ok(arena)
    }

    /// Which store backs this arena.
    pub fn backing(&self) -> ShmBacking {
        match self.backing {
            Backing::Heap => ShmBacking::Heap,
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Memfd { .. } => ShmBacking::Memfd,
        }
    }

    /// The memfd file descriptor, for passing to children ([`None`] for the
    /// heap backing).
    pub fn backing_fd(&self) -> Option<i32> {
        match self.backing {
            Backing::Heap => None,
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Memfd { fd, .. } => Some(fd),
        }
    }

    /// Total capacity in bytes, including the reserved header line.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes currently consumed (including the header line and padding).
    pub fn used(&self) -> usize {
        self.hdr().next.load(Ordering::Acquire) as usize
    }

    /// Bytes still available for allocation.
    pub fn available(&self) -> usize {
        self.cap - self.used()
    }

    /// Copies the allocated portion of the segment (`used()` bytes from
    /// the base) into a `Vec` — the evidence a recovery audit compares to
    /// prove that fscking a *clean* segment is a byte-level no-op.
    ///
    /// Only meaningful while the segment is quiescent: the copy is a
    /// plain byte read, so concurrent writers make the result a torn
    /// snapshot (harmless — it is diagnostics, not data).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        // SAFETY: `base..base+used` is owned, mapped, initialized memory
        // for the lifetime of `self` (zeroed at creation, then written by
        // allocations); reading it as raw bytes is always defined here.
        unsafe { core::slice::from_raw_parts(self.base as *const u8, self.used()) }.to_vec()
    }

    /// Reserves `size` bytes at `align` and returns the offset.
    ///
    /// The pad-and-reserve arithmetic runs in `u64`: with the cursor just
    /// below the 4 GiB ceiling, `cur + align - 1` and `aligned + size` both
    /// exceed `RawOffset::MAX` before the bound check rejects them, so doing
    /// the math at offset width would wrap to a small "valid" offset and
    /// corrupt the arena instead of reporting `OutOfMemory`.
    fn bump(&self, size: usize, align: usize) -> Result<RawOffset, ShmError> {
        debug_assert!(align.is_power_of_two());
        let next = &self.hdr().next;
        let mut cur = next.load(Ordering::Relaxed);
        loop {
            let aligned = (cur + align as u64 - 1) & !(align as u64 - 1);
            let end = aligned.checked_add(size as u64);
            match end {
                Some(end) if end <= self.cap as u64 => {
                    match next.compare_exchange_weak(cur, end, Ordering::AcqRel, Ordering::Relaxed)
                    {
                        Ok(_) => return Ok(aligned as RawOffset),
                        Err(actual) => cur = actual,
                    }
                }
                _ => {
                    let requested = end.map(|e| (e - cur) as usize).unwrap_or(usize::MAX);
                    return Err(ShmError::OutOfMemory {
                        requested,
                        available: self.cap.saturating_sub(cur as usize),
                    });
                }
            }
        }
    }

    /// Allocates and initializes a `T`, returning its offset pointer.
    ///
    /// # Errors
    ///
    /// [`ShmError::OutOfMemory`] when the arena is exhausted.
    pub fn alloc<T: ShmSafe>(&self, init: T) -> Result<ShmPtr<T>, ShmError> {
        let off = self.bump(core::mem::size_of::<T>(), core::mem::align_of::<T>())?;
        // SAFETY: `off` is in-bounds, correctly aligned, and exclusively ours
        // until the returned pointer is published by the caller.
        unsafe {
            core::ptr::write(self.base.add(off as usize).cast::<T>(), init);
        }
        Ok(ShmPtr::from_raw(off))
    }

    /// Allocates a `[T; n]` initialized element-wise by `init(i)`.
    ///
    /// # Errors
    ///
    /// [`ShmError::OutOfMemory`] when the arena is exhausted.
    pub fn alloc_slice<T: ShmSafe>(
        &self,
        n: usize,
        mut init: impl FnMut(usize) -> T,
    ) -> Result<ShmSlice<T>, ShmError> {
        let size = core::mem::size_of::<T>()
            .checked_mul(n)
            .ok_or(ShmError::BadCapacity(n))?;
        let off = self.bump(size, core::mem::align_of::<T>())?;
        for i in 0..n {
            // SAFETY: as in `alloc`, each slot is in-bounds and unpublished.
            unsafe {
                core::ptr::write(
                    self.base
                        .add(off as usize + i * core::mem::size_of::<T>())
                        .cast::<T>(),
                    init(i),
                );
            }
        }
        Ok(ShmSlice::from_raw(off, n as u32))
    }

    /// Whether `count` `T`s at `off` lie inside the allocated range, aligned.
    fn check<T>(&self, off: RawOffset, count: usize) -> Result<(), ShmError> {
        let (off, size) = (off as usize, core::mem::size_of::<T>() * count);
        let in_range = off >= HEADER && off + size <= self.used();
        let ok = in_range && off.is_multiple_of(core::mem::align_of::<T>());
        ok.then_some(()).ok_or(ShmError::BadSegment)
    }

    /// Resolves an offset pointer to a reference.
    ///
    /// # Panics
    ///
    /// If the pointer is null, out of the allocated range, or misaligned —
    /// i.e. if it was not produced by this arena's allocator for a `T`.
    pub fn get<T: ShmSafe>(&self, p: ShmPtr<T>) -> &T {
        self.try_get(p)
            .expect("ShmPtr outside allocated range or misaligned")
    }

    /// [`Self::get`] for an offset read out of the segment itself, which a
    /// peer may have written: [`ShmError::BadSegment`] where `get` panics.
    pub fn try_get<T: ShmSafe>(&self, p: ShmPtr<T>) -> Result<&T, ShmError> {
        self.check::<T>(p.raw(), 1)?;
        // SAFETY: bounds and alignment checked; objects are never freed, and
        // `T: ShmSafe` guarantees shared access through `&T` is sound.
        Ok(unsafe { &*self.base.add(p.raw() as usize).cast::<T>() })
    }

    /// Resolves a slice handle to a shared slice.
    ///
    /// # Panics
    ///
    /// Under the same conditions as [`Self::get`].
    pub fn get_slice<T: ShmSafe>(&self, s: ShmSlice<T>) -> &[T] {
        self.try_get_slice(s)
            .expect("ShmSlice outside allocated range or misaligned")
    }

    /// [`Self::get_slice`], refusing as [`Self::try_get`] does.
    pub fn try_get_slice<T: ShmSafe>(&self, s: ShmSlice<T>) -> Result<&[T], ShmError> {
        if s.is_empty() {
            return Ok(&[]);
        }
        self.check::<T>(s.raw(), s.len())?;
        // SAFETY: as in `try_get`, for `len` consecutive elements.
        Ok(unsafe {
            core::slice::from_raw_parts(self.base.add(s.raw() as usize).cast::<T>(), s.len())
        })
    }

    /// Publishes `p` as the arena's root object for attaching peers.
    pub fn publish_root<T: ShmSafe>(&self, p: ShmPtr<T>) -> ShmToken {
        self.hdr().root.store(p.raw(), Ordering::Release);
        ShmToken(p.raw())
    }

    /// Retrieves the root object offset published by the creator, if any.
    pub fn root<T: ShmSafe>(&self) -> Option<ShmPtr<T>> {
        match self.hdr().root.load(Ordering::Acquire) {
            NULL_OFFSET => None,
            off => Some(ShmPtr::from_raw(off)),
        }
    }

    /// Publishes `p` in the auxiliary bootstrap slot — a second well-known
    /// offset, independent of [`publish_root`](Self::publish_root), so an
    /// add-on plane (telemetry, a flight recorder) can make itself
    /// discoverable without displacing the application's root object.
    pub fn publish_aux<T: ShmSafe>(&self, p: ShmPtr<T>) -> ShmToken {
        self.hdr().aux.store(p.raw(), Ordering::Release);
        ShmToken(p.raw())
    }

    /// Retrieves the auxiliary object offset, if one was published.
    pub fn aux<T: ShmSafe>(&self) -> Option<ShmPtr<T>> {
        match self.hdr().aux.load(Ordering::Acquire) {
            NULL_OFFSET => None,
            off => Some(ShmPtr::from_raw(off)),
        }
    }

    /// The segment-wide time origin: the creator's [`monotonic_nanos`]
    /// reading at initialization. `monotonic_nanos() - clock_epoch()` is a
    /// nanosecond timestamp on an axis shared by *every* process attached to
    /// this segment.
    pub fn clock_epoch(&self) -> u64 {
        self.hdr().clock_epoch.load(Ordering::Relaxed)
    }

    /// Nanoseconds elapsed since the segment was created, on the shared
    /// axis — the timestamp source for cross-process traces and telemetry.
    pub fn now_nanos(&self) -> u64 {
        crate::monotonic_nanos().saturating_sub(self.clock_epoch())
    }

    /// The segment's current generation epoch. Starts at 1; each recovery
    /// takeover bumps it. A structure whose stamped generation is older
    /// than this word belongs to a previous incarnation of the segment's
    /// owner and must be re-validated before use.
    pub fn generation(&self) -> u32 {
        self.hdr().generation.load(Ordering::Acquire)
    }

    /// Advances the generation epoch by one and returns the new value.
    ///
    /// Called by a recovery successor *after* fsck repairs complete and
    /// *before* re-stamping the structures it vouches for: everything not
    /// re-stamped is left behind in the old epoch and reads as stale.
    pub fn bump_generation(&self) -> u32 {
        self.hdr().generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

impl Drop for ShmArena {
    fn drop(&mut self) {
        // NOTE: objects inside the arena are `ShmSafe` (plain data + atomics)
        // and never own host resources, so no per-object drop is required.
        // The *release call must match the backing*: handing an mmap base to
        // `dealloc` (or a heap base to `munmap`) is undefined behaviour, so
        // each arm touches only memory its own constructor produced.
        match self.backing {
            Backing::Heap => {
                let layout = Layout::from_size_align(self.cap, CACHE_LINE).expect("arena layout");
                // SAFETY: `base` was allocated with exactly this layout in
                // `new`, the only constructor producing `Backing::Heap`.
                unsafe { dealloc(self.base, layout) };
            }
            #[cfg(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ))]
            Backing::Memfd { fd, owned } => {
                // SAFETY: `base..base+cap` is the single mapping created by
                // the `Memfd` constructors; `&self` references died with the
                // borrow checker's blessing before drop.
                let _ = unsafe { sys::munmap(self.base, self.cap) };
                if owned {
                    sys::close(fd);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn alloc_get_roundtrip() {
        let a = ShmArena::new(4096).unwrap();
        let p = a.alloc(0xabcd_ef01_u32).unwrap();
        assert_eq!(*a.get(p), 0xabcd_ef01);
    }

    #[test]
    fn offsets_start_after_header() {
        let a = ShmArena::new(4096).unwrap();
        let p = a.alloc(1u8).unwrap();
        assert!(p.raw() as usize >= HEADER);
        assert!(!p.is_null());
    }

    #[test]
    fn alignment_respected() {
        let a = ShmArena::new(4096).unwrap();
        let _ = a.alloc(1u8).unwrap();
        let p = a.alloc(crate::CacheAligned::new(7u64)).unwrap();
        assert_eq!(p.raw() as usize % crate::CACHE_LINE, 0);
        assert_eq!(**a.get(p), 7);
    }

    #[test]
    fn slice_roundtrip() {
        let a = ShmArena::new(4096).unwrap();
        let s = a.alloc_slice(8, |i| i as u64 * 3).unwrap();
        let view = a.get_slice(s);
        assert_eq!(view.len(), 8);
        assert_eq!(view[5], 15);
        assert_eq!(*a.get(s.at(5)), 15);
    }

    #[test]
    fn empty_slice_ok() {
        let a = ShmArena::new(4096).unwrap();
        let s = a.alloc_slice(0, |_| 0u64).unwrap();
        assert!(a.get_slice(s).is_empty());
    }

    #[test]
    fn exhaustion_reported() {
        let a = ShmArena::new(256).unwrap();
        let mut last = Ok(());
        for _ in 0..100 {
            last = a.alloc([0u8; 64]).map(|_| ());
            if last.is_err() {
                break;
            }
        }
        match last {
            Err(ShmError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        assert_eq!(ShmArena::new(0).unwrap_err(), ShmError::BadCapacity(0));
    }

    #[test]
    fn over_4gib_capacity_rejected() {
        // Rejected by arithmetic alone — no allocation is attempted.
        let cap = u32::MAX as usize;
        assert_eq!(ShmArena::new(cap).unwrap_err(), ShmError::BadCapacity(cap));
        let cap = usize::MAX - 1;
        assert_eq!(ShmArena::new(cap).unwrap_err(), ShmError::BadCapacity(cap));
    }

    /// The satellite-fix regression test: with the bump cursor parked just
    /// below the 4 GiB offset ceiling, an allocation whose *padding or end*
    /// crosses the ceiling must report `OutOfMemory` — offset-width
    /// arithmetic would wrap `aligned + size` (or `cur + align - 1`) to a
    /// small offset and hand out memory the arena does not have.
    #[test]
    fn bump_at_offset_ceiling_reports_oom() {
        let a = ShmArena::new(4096).unwrap();
        // Park the cursor at the ceiling by hand: allocating 4 GiB for real
        // is not something CI should do.
        a.hdr()
            .next
            .store(u64::from(u32::MAX) - 63, Ordering::Release);
        // end = aligned + 4096 > u32::MAX → must be OOM, not a wrap.
        match a.alloc([0u8; 4096]) {
            Err(ShmError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory at ceiling, got {other:?}"),
        }
        // Padding alone crossing the ceiling must also be caught: next is
        // 1 below a cache-line boundary, so align-up adds 63 then size 64
        // lands past the ceiling.
        match a.alloc(crate::CacheAligned::new(0u8)) {
            Err(ShmError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory from padding, got {other:?}"),
        }
    }

    /// The attach-time forms refuse exactly what `get`/`get_slice` panic
    /// on: the header line, anything past the bump cursor — even inside
    /// the mapping — and a misaligned offset.
    #[test]
    fn try_get_refuses_where_get_panics() {
        let a = ShmArena::new(4096).unwrap();
        let s = a.alloc_slice(4, |i| i as u64).unwrap();
        assert_eq!(a.try_get_slice(s).unwrap(), [0, 1, 2, 3]);
        assert_eq!(a.try_get(s.at(3)), Ok(&3));
        let (first, end) = (s.raw(), a.used() as u32);
        for off in [0, 8, end, end + 64, first + 4, u32::MAX - 7] {
            let p: ShmPtr<u64> = ShmPtr::from_raw(off);
            assert_eq!(a.try_get(p), Err(ShmError::BadSegment), "+{off:#x}");
        }
        for (off, len) in [
            (first, 5),
            (first + 8, 4),
            (first + 4, 2),
            (first, u32::MAX),
        ] {
            let s: ShmSlice<u64> = ShmSlice::from_raw(off, len);
            assert_eq!(
                a.try_get_slice(s),
                Err(ShmError::BadSegment),
                "+{off:#x}; {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside allocated range")]
    fn stale_offset_panics() {
        let a = ShmArena::new(4096).unwrap();
        let bogus: ShmPtr<u64> = ShmPtr::from_raw(1 << 20);
        let _ = a.get(bogus);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_offset_panics() {
        let a = ShmArena::new(4096).unwrap();
        let _ = a.alloc(0u64).unwrap();
        let _ = a.alloc(0u64).unwrap();
        let bogus: ShmPtr<u64> = ShmPtr::from_raw(HEADER as u32 + 1);
        let _ = a.get(bogus);
    }

    #[test]
    fn root_bootstrap() {
        let a = ShmArena::new(4096).unwrap();
        assert!(a.root::<u32>().is_none());
        let p = a.alloc(99u32).unwrap();
        a.publish_root(p);
        let found: ShmPtr<u32> = a.root().unwrap();
        assert_eq!(*a.get(found), 99);
    }

    #[test]
    fn aux_bootstrap_is_independent_of_root() {
        let a = ShmArena::new(4096).unwrap();
        assert!(a.aux::<u32>().is_none());
        let r = a.alloc(1u32).unwrap();
        let x = a.alloc(2u32).unwrap();
        a.publish_root(r);
        a.publish_aux(x);
        assert_eq!(*a.get(a.root::<u32>().unwrap()), 1);
        assert_eq!(*a.get(a.aux::<u32>().unwrap()), 2);
    }

    #[test]
    fn clock_epoch_is_stamped_and_now_advances() {
        let a = ShmArena::new(4096).unwrap();
        // The epoch is a real clock reading taken at creation, so "now on
        // the shared axis" starts near zero and never goes backwards.
        let t0 = a.now_nanos();
        assert!(t0 < 1_000_000_000, "epoch not stamped at creation: {t0}");
        let mut t1 = a.now_nanos();
        for _ in 0..1_000_000 {
            t1 = a.now_nanos();
            if t1 > t0 {
                break;
            }
        }
        assert!(t1 >= t0);
    }

    #[test]
    fn concurrent_bump_is_race_free() {
        let a = Arc::new(ShmArena::new(1 << 20).unwrap());
        let counter = a.alloc(AtomicU64::new(0)).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let mut ptrs = Vec::new();
                    for i in 0..200u64 {
                        ptrs.push(a.alloc(t as u64 * 1000 + i).unwrap());
                    }
                    ptrs
                })
            })
            .collect();
        let mut all: Vec<ShmPtr<u64>> = Vec::new();
        for t in threads {
            all.extend(t.join().unwrap());
        }
        // Every allocation distinct and holding its own value.
        let mut raws: Vec<u32> = all.iter().map(|p| p.raw()).collect();
        raws.sort_unstable();
        raws.dedup();
        assert_eq!(raws.len(), 1600);
        let _ = a.get(counter);
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod memfd {
        use super::super::*;
        use core::sync::atomic::AtomicU64;

        #[test]
        fn memfd_alloc_get_roundtrip() {
            let a = ShmArena::new_memfd(4096).unwrap();
            assert_eq!(a.backing(), ShmBacking::Memfd);
            assert!(a.backing_fd().is_some());
            let p = a.alloc(0x1234_5678_u32).unwrap();
            assert_eq!(*a.get(p), 0x1234_5678);
        }

        /// The core position-independence claim: a second attachment of the
        /// same fd maps at a different base, yet every offset resolves to
        /// the same object — and the bump cursor and root slot are shared
        /// because they live in the segment header.
        #[test]
        fn second_attachment_sees_same_objects() {
            let a = ShmArena::new_memfd(1 << 16).unwrap();
            let cell = a.alloc(AtomicU64::new(41)).unwrap();
            a.publish_root(cell);

            let b = ShmArena::attach_memfd(a.backing_fd().unwrap()).unwrap();
            assert_eq!(b.backing(), ShmBacking::Memfd);
            assert_eq!(b.capacity(), a.capacity());
            assert_eq!(b.used(), a.used(), "bump cursor must be shared");
            assert_eq!(
                b.clock_epoch(),
                a.clock_epoch(),
                "time origin must be shared"
            );
            let seen: ShmPtr<AtomicU64> = b.root().expect("root published");
            assert_eq!(seen, cell);
            b.get(seen).store(42, Ordering::Release);
            assert_eq!(a.get(cell).load(Ordering::Acquire), 42);

            // Allocations interleave through the shared cursor: an alloc on
            // `b` is visible as `used` bytes on `a`, and never overlaps.
            let p_b = b.alloc(7u64).unwrap();
            let p_a = a.alloc(8u64).unwrap();
            assert_ne!(p_a, p_b);
            assert_eq!(*a.get(p_b), 7, "resolve b's allocation through a");
            assert_eq!(*b.get(p_a), 8, "resolve a's allocation through b");
        }

        #[test]
        fn attach_rejects_foreign_fd() {
            // An uninitialized memfd (no arena header) must be refused.
            let fd = crate::sys::memfd_create(c"usipc-foreign").unwrap();
            crate::sys::ftruncate(fd, 4096).unwrap();
            assert_eq!(ShmArena::attach_memfd(fd).err(), Some(ShmError::BadSegment));
            // Too small to even hold a header: also refused.
            let tiny = crate::sys::memfd_create(c"usipc-tiny").unwrap();
            crate::sys::ftruncate(tiny, 16).unwrap();
            assert_eq!(
                ShmArena::attach_memfd(tiny).err(),
                Some(ShmError::BadSegment)
            );
            crate::sys::close(fd);
            crate::sys::close(tiny);
        }

        #[test]
        fn attach_rejects_bad_fd() {
            match ShmArena::attach_memfd(-1) {
                Err(ShmError::Sys { call: "fstat", .. }) => {}
                other => panic!("expected fstat failure, got {other:?}"),
            }
        }
    }
}
