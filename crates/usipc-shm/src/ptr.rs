//! Typed offset pointers into a [`ShmArena`](crate::ShmArena).

use core::marker::PhantomData;
use core::sync::atomic::{AtomicU64, Ordering};

/// Raw byte offset from the arena base.
///
/// 32 bits bound the arena at 4 GiB, which is ample for IPC control state
/// (the paper's messages are 24 bytes) and keeps a `(offset, tag)` pair
/// packable into a single `AtomicU64` for ABA protection.
pub type RawOffset = u32;

/// The reserved "null" offset.
///
/// Offset 0 is occupied by the arena header and never handed out by the
/// allocator, so it can safely denote "no object" in linked structures —
/// the shared-memory analogue of a null pointer.
pub const NULL_OFFSET: RawOffset = 0;

/// A typed, position-independent pointer to a `T` inside an arena.
///
/// `ShmPtr` stores only the byte offset of the object, so the same value is
/// meaningful in every process that maps the segment, regardless of base
/// address. Resolution happens through [`ShmArena::get`](crate::ShmArena::get).
#[repr(transparent)]
pub struct ShmPtr<T> {
    off: RawOffset,
    _marker: PhantomData<fn() -> T>,
}

// Manual impls: derives would bound on `T`.
impl<T> Clone for ShmPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ShmPtr<T> {}
impl<T> PartialEq for ShmPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.off == other.off
    }
}
impl<T> Eq for ShmPtr<T> {}
impl<T> core::hash::Hash for ShmPtr<T> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.off.hash(state);
    }
}
impl<T> core::fmt::Debug for ShmPtr<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShmPtr<{}>(+{:#x})",
            core::any::type_name::<T>(),
            self.off
        )
    }
}

impl<T> ShmPtr<T> {
    /// The null pointer (offset 0, never a valid object).
    pub const NULL: ShmPtr<T> = ShmPtr {
        off: NULL_OFFSET,
        _marker: PhantomData,
    };

    /// Builds a pointer from a raw offset.
    ///
    /// The offset must have been produced by the owning arena's allocator for
    /// an object of type `T` (or be [`NULL_OFFSET`]); resolution checks
    /// bounds and alignment, so a corrupted offset is caught at `get` time
    /// rather than causing undefined behaviour.
    pub const fn from_raw(off: RawOffset) -> Self {
        ShmPtr {
            off,
            _marker: PhantomData,
        }
    }

    /// Returns the raw byte offset.
    pub const fn raw(self) -> RawOffset {
        self.off
    }

    /// Whether this is the null pointer.
    pub const fn is_null(self) -> bool {
        self.off == NULL_OFFSET
    }
}

// Offsets are plain data (no host addresses), so they may themselves be
// stored in shared memory — that is the whole point of the design.
unsafe impl<T: 'static> crate::ShmSafe for ShmPtr<T> {}

/// A typed, position-independent pointer to a `[T]` inside an arena.
#[repr(C)]
pub struct ShmSlice<T> {
    off: RawOffset,
    len: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for ShmSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ShmSlice<T> {}
impl<T> core::fmt::Debug for ShmSlice<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ShmSlice<{}>(+{:#x}; {})",
            core::any::type_name::<T>(),
            self.off,
            self.len
        )
    }
}

unsafe impl<T: 'static> crate::ShmSafe for ShmSlice<T> {}

impl<T> ShmSlice<T> {
    /// Builds a slice handle from a raw offset and element count.
    ///
    /// Same contract as [`ShmPtr::from_raw`].
    pub const fn from_raw(off: RawOffset, len: u32) -> Self {
        ShmSlice {
            off,
            len,
            _marker: PhantomData,
        }
    }

    /// Raw byte offset of the first element.
    pub const fn raw(self) -> RawOffset {
        self.off
    }

    /// Number of elements.
    pub const fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the slice is empty.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Pointer to element `i` (panics if out of bounds).
    ///
    /// The element-offset arithmetic is widened to `u64` and checked: for a
    /// slice sitting near the 4 GiB offset ceiling, `off + i * stride` at
    /// `RawOffset` width would silently wrap in release builds and yield a
    /// small, plausibly in-bounds offset naming the *wrong* object — the
    /// worst failure mode in shared memory. Overflow panics instead, like
    /// the bounds assert.
    pub fn at(self, i: usize) -> ShmPtr<T> {
        assert!(
            i < self.len as usize,
            "ShmSlice index {i} out of {}",
            self.len
        );
        let stride = core::mem::size_of::<T>() as u64;
        let off = (self.off as u64)
            .checked_add(i as u64 * stride)
            .filter(|&o| o <= RawOffset::MAX as u64)
            .unwrap_or_else(|| {
                panic!(
                    "ShmSlice element {i} at +{:#x} stride {stride} overflows RawOffset",
                    self.off
                )
            });
        ShmPtr::from_raw(off as RawOffset)
    }
}

/// An `(offset, tag)` pair, the unit of ABA-protected CAS.
///
/// Lock-free structures in a fixed arena recycle nodes through a free pool;
/// a bare offset compare-and-swap would therefore suffer from the classic
/// ABA problem (node freed and reallocated between read and CAS). Packing a
/// 32-bit modification tag next to the offset — incremented on every
/// successful swing — makes stale CASes fail. This is the standard technique
/// used by Michael & Scott's nonblocking queue, which the paper's queue
/// substrate is drawn from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaggedPtr {
    /// Byte offset of the node ([`NULL_OFFSET`] for none).
    pub off: RawOffset,
    /// Modification counter.
    pub tag: u32,
}

impl TaggedPtr {
    /// Null pointer with tag 0.
    pub const NULL: TaggedPtr = TaggedPtr {
        off: NULL_OFFSET,
        tag: 0,
    };

    /// Creates a tagged pointer.
    pub const fn new(off: RawOffset, tag: u32) -> Self {
        TaggedPtr { off, tag }
    }

    /// Returns this pointer with the tag advanced by one (wrapping).
    pub const fn bumped(self, off: RawOffset) -> Self {
        TaggedPtr {
            off,
            tag: self.tag.wrapping_add(1),
        }
    }

    /// Whether the offset component is null.
    pub const fn is_null(self) -> bool {
        self.off == NULL_OFFSET
    }

    fn pack(self) -> u64 {
        ((self.tag as u64) << 32) | self.off as u64
    }

    fn unpack(bits: u64) -> Self {
        TaggedPtr {
            off: bits as u32,
            tag: (bits >> 32) as u32,
        }
    }
}

/// Atomic cell holding a [`TaggedPtr`].
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct TaggedAtomicPtr(AtomicU64);

unsafe impl crate::ShmSafe for TaggedAtomicPtr {}

impl TaggedAtomicPtr {
    /// Creates a cell holding `p`.
    pub const fn new(p: TaggedPtr) -> Self {
        TaggedAtomicPtr(AtomicU64::new(((p.tag as u64) << 32) | p.off as u64))
    }

    /// Atomically loads the pair.
    pub fn load(&self, order: Ordering) -> TaggedPtr {
        TaggedPtr::unpack(self.0.load(order))
    }

    /// Atomically stores the pair.
    pub fn store(&self, p: TaggedPtr, order: Ordering) {
        self.0.store(p.pack(), order)
    }

    /// Single compare-and-exchange on the full `(offset, tag)` pair.
    ///
    /// Returns `Ok(current)` on success or `Err(actual)` on failure, like
    /// [`AtomicU64::compare_exchange`].
    pub fn compare_exchange(
        &self,
        current: TaggedPtr,
        new: TaggedPtr,
        success: Ordering,
        failure: Ordering,
    ) -> Result<TaggedPtr, TaggedPtr> {
        self.0
            .compare_exchange(current.pack(), new.pack(), success, failure)
            .map(TaggedPtr::unpack)
            .map_err(TaggedPtr::unpack)
    }

    /// Weak variant of [`Self::compare_exchange`], for use in retry loops.
    pub fn compare_exchange_weak(
        &self,
        current: TaggedPtr,
        new: TaggedPtr,
        success: Ordering,
        failure: Ordering,
    ) -> Result<TaggedPtr, TaggedPtr> {
        self.0
            .compare_exchange_weak(current.pack(), new.pack(), success, failure)
            .map(TaggedPtr::unpack)
            .map_err(TaggedPtr::unpack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_roundtrip() {
        let p: ShmPtr<u64> = ShmPtr::NULL;
        assert!(p.is_null());
        assert_eq!(p.raw(), NULL_OFFSET);
        assert_eq!(p, ShmPtr::from_raw(0));
    }

    #[test]
    fn shmptr_is_pointer_sized_or_less() {
        assert_eq!(core::mem::size_of::<ShmPtr<[u8; 1024]>>(), 4);
        assert_eq!(core::mem::size_of::<ShmSlice<u64>>(), 8);
    }

    #[test]
    fn slice_indexing() {
        let s: ShmSlice<u64> = ShmSlice::from_raw(64, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.at(0).raw(), 64);
        assert_eq!(s.at(3).raw(), 64 + 24);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn slice_oob_panics() {
        let s: ShmSlice<u64> = ShmSlice::from_raw(64, 4);
        let _ = s.at(4);
    }

    /// Regression: near the 4 GiB ceiling, `at` must panic rather than wrap
    /// `off + i * stride` to a small bogus offset (u32 arithmetic would).
    #[test]
    #[should_panic(expected = "overflows RawOffset")]
    fn slice_at_offset_ceiling_panics_instead_of_wrapping() {
        let s: ShmSlice<u64> = ShmSlice::from_raw(RawOffset::MAX - 16, 4);
        let _ = s.at(3); // +24 bytes crosses RawOffset::MAX
    }

    #[test]
    fn tagged_pack_unpack() {
        let p = TaggedPtr::new(0xdead_beef, 0x1234_5678);
        let a = TaggedAtomicPtr::new(p);
        assert_eq!(a.load(Ordering::Relaxed), p);
        let q = p.bumped(0x10);
        a.store(q, Ordering::Relaxed);
        let got = a.load(Ordering::Relaxed);
        assert_eq!(got.off, 0x10);
        assert_eq!(got.tag, 0x1234_5679);
    }

    #[test]
    fn tagged_cas_detects_tag_change() {
        let p0 = TaggedPtr::new(8, 0);
        let a = TaggedAtomicPtr::new(p0);
        // Same offset, different tag: CAS against the stale view must fail.
        a.store(TaggedPtr::new(8, 1), Ordering::Relaxed);
        let r = a.compare_exchange(
            p0,
            TaggedPtr::new(16, 1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        assert!(r.is_err());
        assert_eq!(r.unwrap_err(), TaggedPtr::new(8, 1));
    }

    #[test]
    fn tag_wraps() {
        let p = TaggedPtr::new(4, u32::MAX);
        assert_eq!(p.bumped(4).tag, 0);
    }
}
