//! Raw Linux syscalls for the `memfd` arena backing.
//!
//! The workspace is dependency-free by design (DESIGN.md): kernel entry is
//! done with inline-`asm!` wrappers, exactly like the futex stubs in
//! `usipc::sem`. This module carries the handful of calls the shared-segment
//! backing needs — `memfd_create`, `ftruncate`, `mmap`/`munmap`, `fstat`,
//! `close` — on x86_64 and aarch64. Everything is `pub(crate)`: the public
//! surface is [`ShmArena`](crate::ShmArena)'s constructors, not syscalls.
//!
//! Error convention: the kernel returns `-errno` in the result register; the
//! wrappers surface that raw `isize` and the callers map it to
//! [`ShmError`](crate::ShmError).
#![allow(clippy::missing_safety_doc)]

use core::arch::asm;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const CLOSE: usize = 3;
    pub const FSTAT: usize = 5;
    pub const MMAP: usize = 9;
    pub const MUNMAP: usize = 11;
    pub const FTRUNCATE: usize = 77;
    pub const CLOCK_GETTIME: usize = 228;
    pub const MEMFD_CREATE: usize = 319;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const CLOSE: usize = 57;
    pub const FSTAT: usize = 80;
    pub const CLOCK_GETTIME: usize = 113;
    pub const MMAP: usize = 222;
    pub const MUNMAP: usize = 215;
    pub const FTRUNCATE: usize = 46;
    pub const MEMFD_CREATE: usize = 279;
}

/// `CLOCK_MONOTONIC`: the one clock every cooperating process on the host
/// reads identically, which is what lets a segment-wide epoch rebase
/// per-process timestamps onto one axis.
const CLOCK_MONOTONIC: usize = 1;

/// `PROT_READ | PROT_WRITE`.
const PROT_RW: usize = 0x3;
/// `MAP_SHARED`: writes must be visible to every process mapping the fd.
const MAP_SHARED: usize = 0x1;

#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: caller guarantees the syscall's own contract; the asm clobbers
    // only what the Linux syscall ABI specifies (rcx/r11 + the return in rax).
    unsafe {
        asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    // SAFETY: as for x86_64; aarch64 passes the number in x8, args in x0-x5.
    unsafe {
        asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a1 as isize => ret,
            in("x1") a2,
            in("x2") a3,
            in("x3") a4,
            in("x4") a5,
            in("x5") a6,
            options(nostack),
        );
    }
    ret
}

unsafe fn syscall2(n: usize, a1: usize, a2: usize) -> isize {
    // SAFETY: forwarded; unused argument registers are ignored by the kernel.
    unsafe { syscall6(n, a1, a2, 0, 0, 0, 0) }
}

/// `memfd_create(name, 0)`: an anonymous volatile file, fd inheritable by
/// forked children (no `CLOEXEC`, so an exec'd helper could attach too).
pub(crate) fn memfd_create(name: &core::ffi::CStr) -> Result<i32, isize> {
    // SAFETY: `name` is a valid NUL-terminated string for the call's duration.
    let r = unsafe { syscall2(nr::MEMFD_CREATE, name.as_ptr() as usize, 0) };
    if r < 0 {
        Err(r)
    } else {
        Ok(r as i32)
    }
}

/// `ftruncate(fd, len)`: sizes the memfd before mapping.
pub(crate) fn ftruncate(fd: i32, len: usize) -> Result<(), isize> {
    // SAFETY: no pointers involved.
    let r = unsafe { syscall2(nr::FTRUNCATE, fd as usize, len) };
    if r < 0 {
        Err(r)
    } else {
        Ok(())
    }
}

/// `mmap(NULL, len, PROT_READ|PROT_WRITE, MAP_SHARED, fd, 0)`.
///
/// Returns the kernel-chosen base address. A shared mapping of the same fd in
/// two processes lands at *different* bases in general — which is exactly why
/// everything inside the arena is offset-addressed.
pub(crate) fn mmap_shared(fd: i32, len: usize) -> Result<*mut u8, isize> {
    // SAFETY: addr=NULL lets the kernel pick; the fd/len are caller-validated.
    let r = unsafe { syscall6(nr::MMAP, 0, len, PROT_RW, MAP_SHARED, fd as usize, 0) };
    // mmap returns -errno in [-4095, -1]; anything else is a valid address.
    if (-4095..0).contains(&r) {
        Err(r)
    } else {
        Ok(r as *mut u8)
    }
}

/// `munmap(base, len)`.
///
/// # Safety
///
/// `base..base+len` must be exactly one live mapping created by
/// [`mmap_shared`], with no outstanding references into it.
pub(crate) unsafe fn munmap(base: *mut u8, len: usize) -> Result<(), isize> {
    // SAFETY: per the function contract.
    let r = unsafe { syscall2(nr::MUNMAP, base as usize, len) };
    if r < 0 {
        Err(r)
    } else {
        Ok(())
    }
}

/// `close(fd)`.
pub(crate) fn close(fd: i32) {
    // SAFETY: no pointers; a bad fd just returns EBADF, which we ignore —
    // close is only called on fds this crate opened.
    let _ = unsafe { syscall2(nr::CLOSE, fd as usize, 0) };
}

/// `clock_gettime(CLOCK_MONOTONIC)` in nanoseconds.
///
/// Unlike `std::time::Instant` — whose zero point is private to the
/// process — this value is directly comparable across every process on the
/// host, so stamping one reading into a shared segment gives all attachers
/// a common time origin. Returns 0 on failure (a clock that cannot fail on
/// any Linux this crate runs on).
pub(crate) fn clock_monotonic_nanos() -> u64 {
    // `struct timespec` is two 64-bit words (tv_sec, tv_nsec) on both
    // x86_64 and aarch64.
    let mut ts = [0u64; 2];
    // SAFETY: `ts` is a writable 16-byte region living across the call.
    let r = unsafe { syscall2(nr::CLOCK_GETTIME, CLOCK_MONOTONIC, ts.as_mut_ptr() as usize) };
    if r < 0 {
        return 0;
    }
    ts[0].saturating_mul(1_000_000_000).saturating_add(ts[1])
}

/// `fstat(fd)` → `st_size`, for sizing the mapping when attaching to an
/// inherited fd without out-of-band length information.
pub(crate) fn fstat_size(fd: i32) -> Result<usize, isize> {
    // `struct stat` is 144 bytes on both x86_64 and aarch64, with `st_size`
    // an i64 at byte offset 48 on both. A u64 array keeps it aligned.
    let mut buf = [0u64; 18];
    // SAFETY: `buf` is a writable 144-byte region living across the call.
    let r = unsafe { syscall2(nr::FSTAT, fd as usize, buf.as_mut_ptr() as usize) };
    if r < 0 {
        return Err(r);
    }
    Ok(buf[6] as i64 as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfd_lifecycle() {
        let fd = memfd_create(c"usipc-sys-test").expect("memfd_create");
        ftruncate(fd, 8192).expect("ftruncate");
        assert_eq!(fstat_size(fd).expect("fstat"), 8192);
        let base = mmap_shared(fd, 8192).expect("mmap");
        // SAFETY: fresh RW mapping of 8192 bytes.
        unsafe {
            base.write(0xa5);
            assert_eq!(base.read(), 0xa5);
            munmap(base, 8192).expect("munmap");
        }
        close(fd);
    }

    #[test]
    fn two_mappings_share_pages() {
        let fd = memfd_create(c"usipc-sys-alias").expect("memfd_create");
        ftruncate(fd, 4096).expect("ftruncate");
        let a = mmap_shared(fd, 4096).expect("mmap a");
        let b = mmap_shared(fd, 4096).expect("mmap b");
        assert_ne!(a, b, "independent mappings should get distinct bases");
        // SAFETY: both map the same 4096-byte file, both RW.
        unsafe {
            a.add(100).write(0x7e);
            assert_eq!(b.add(100).read(), 0x7e, "write must alias through fd");
            munmap(a, 4096).unwrap();
            munmap(b, 4096).unwrap();
        }
        close(fd);
    }

    #[test]
    fn monotonic_clock_advances() {
        let a = clock_monotonic_nanos();
        assert!(a > 0, "CLOCK_MONOTONIC must be readable");
        let mut b = clock_monotonic_nanos();
        for _ in 0..1_000_000 {
            b = clock_monotonic_nanos();
            if b > a {
                break;
            }
        }
        assert!(b >= a, "monotonic clock went backwards");
    }

    /// `monotonic_nanos` makes this syscall once and serves later reads
    /// from `Instant`: they must stay on the raw clock's axis (not a
    /// process-local one) and never step backwards.
    #[test]
    fn anchored_reads_stay_on_the_raw_axis() {
        let mut last = crate::monotonic_nanos();
        for _ in 0..10_000 {
            let raw = clock_monotonic_nanos();
            let served = crate::monotonic_nanos();
            assert!(served >= last, "anchored clock went backwards");
            assert!(
                raw.abs_diff(served) < 50_000_000,
                "anchored read {served} is off the CLOCK_MONOTONIC axis ({raw})"
            );
            last = served;
        }
    }

    #[test]
    fn errors_are_negative_errno() {
        // EBADF from ftruncate on a closed fd.
        let fd = memfd_create(c"usipc-sys-err").expect("memfd_create");
        close(fd);
        let e = ftruncate(fd, 4096).unwrap_err();
        assert!(e < 0);
    }
}
