//! Real child processes for the cross-process harness: `fork`, `wait4`,
//! pidfd-based death detection, and SIGKILL — via raw syscalls, keeping the
//! workspace dependency-free (see `crate::sem`'s futex module for the
//! pattern).
//!
//! The paper's experiments run *processes* sharing a mapped segment. With
//! the memfd arena backing
//! ([`ShmArena::new_memfd`](usipc_shm::ShmArena::new_memfd)) in place, this
//! module supplies the process half: [`ChildProc::spawn`] forks a child
//! that inherits the segment fd and re-attaches at its own base address,
//! and the parent watches the child through a **pidfd** — `pidfd_open(2)`
//! returns an fd that becomes readable when the process exits, so a
//! monitor can sleep in `ppoll` instead of sampling `kill(pid, 0)`, and a
//! detected death can feed straight into the channel fault layer
//! (`mark_consumer_dead` → sticky poison → `PeerDead` at the survivors).
//!
//! ## Fork discipline
//!
//! `fork` in a multi-threaded parent replicates only the calling thread;
//! locks held by *other* threads (the global allocator's, for instance)
//! stay locked forever in the child. The harness therefore forks **before**
//! spawning any parent-side experiment threads, and children keep heap
//! allocation to a minimum. A child never returns from [`ChildProc::spawn`]:
//! its closure runs under `catch_unwind` and the process leaves via
//! `exit_group`, so a panicking child reports exit code 101 instead of
//! unwinding into the parent's stack frames.

use core::time::Duration;

mod sys {
    //! The syscall stubs. Numbers differ per architecture; the pidfd pair
    //! (`pidfd_open` 434, `pidfd_send_signal` 424) is arch-independent by
    //! design (post-2019 syscalls are allocated in lockstep).

    #[cfg(target_arch = "x86_64")]
    pub mod nr {
        pub const CLONE: usize = 56;
        pub const WAIT4: usize = 61;
        pub const KILL: usize = 62;
        pub const GETPID: usize = 39;
        pub const EXIT_GROUP: usize = 231;
        pub const PPOLL: usize = 271;
        pub const PIDFD_OPEN: usize = 434;
        pub const PIDFD_SEND_SIGNAL: usize = 424;
        pub const CLOSE: usize = 3;
        pub const SCHED_SETAFFINITY: usize = 203;
        pub const SCHED_GETAFFINITY: usize = 204;
        pub const SCHED_SETSCHEDULER: usize = 144;
    }

    #[cfg(target_arch = "aarch64")]
    pub mod nr {
        pub const CLONE: usize = 220;
        pub const WAIT4: usize = 260;
        pub const KILL: usize = 129;
        pub const GETPID: usize = 172;
        pub const EXIT_GROUP: usize = 94;
        pub const PPOLL: usize = 73;
        pub const PIDFD_OPEN: usize = 434;
        pub const PIDFD_SEND_SIGNAL: usize = 424;
        pub const CLOSE: usize = 57;
        pub const SCHED_SETAFFINITY: usize = 122;
        pub const SCHED_GETAFFINITY: usize = 123;
        pub const SCHED_SETSCHEDULER: usize = 119;
    }

    #[cfg(target_arch = "x86_64")]
    pub unsafe fn syscall5(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: caller upholds the individual syscall's contract; the asm
        // clobbers only what the Linux syscall ABI specifies.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    pub unsafe fn syscall5(
        n: usize,
        a1: usize,
        a2: usize,
        a3: usize,
        a4: usize,
        a5: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: as above; aarch64 passes the number in x8, args in x0-x4.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") n,
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x4") a5,
                options(nostack),
            );
        }
        ret
    }

    pub unsafe fn syscall2(n: usize, a1: usize, a2: usize) -> isize {
        // SAFETY: forwarded; the kernel ignores unused argument registers.
        unsafe { syscall5(n, a1, a2, 0, 0, 0) }
    }
}

use sys::{nr, syscall2, syscall5};

/// `SIGCHLD`: passed as the clone termination signal so the child behaves
/// exactly like a classic `fork(2)` child for `wait4`.
const SIGCHLD: usize = 17;
/// `SIGKILL`, for [`ChildProc::kill`].
const SIGKILL: usize = 9;

/// A process-layer failure: which call failed and the raw errno.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcError {
    /// The syscall that failed.
    pub call: &'static str,
    /// The (positive) errno value.
    pub errno: i32,
}

impl core::fmt::Display for ProcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} failed with errno {}", self.call, self.errno)
    }
}

impl std::error::Error for ProcError {}

fn err(call: &'static str, ret: isize) -> ProcError {
    ProcError {
        call,
        errno: -ret as i32,
    }
}

/// How a child process ended, as decoded from the `wait4` status word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Normal exit with this code (the value the child passed to
    /// `exit_group`, truncated to 8 bits by the kernel).
    Exited(i32),
    /// Terminated by this signal — a SIGKILLed child reports
    /// `Signaled(9)`, which the kill-mid-reply test distinguishes from any
    /// orderly shutdown.
    Signaled(i32),
}

impl ExitStatus {
    /// Whether the child exited normally with code 0.
    pub fn success(self) -> bool {
        self == ExitStatus::Exited(0)
    }
}

/// Terminates the calling process (all threads) with `code` — the only
/// correct way out of a forked child, bypassing atexit handlers and
/// libtest's output machinery, both of which belong to the parent.
pub fn exit_group(code: i32) -> ! {
    // SAFETY: no pointers; does not return.
    unsafe {
        syscall2(nr::EXIT_GROUP, code as usize, 0);
        core::hint::unreachable_unchecked()
    }
}

/// Restricts the **calling thread** to one CPU (`sched_setaffinity(2)`
/// with pid 0 and a single-bit mask).
///
/// This is how the harness reproduces the paper's *uniprocessor* regime on
/// a multicore host: pin the server thread and every forked client to the
/// same CPU and the kernel interleaves them exactly like a uniprocessor
/// schedule — each side genuinely blocks before the other runs, which is
/// the regime where BSW's "four system calls per round trip" is exact
/// rather than a ceiling. Affinity is inherited across `fork`, but the
/// harness has each child pin itself anyway, so a pre-pinned parent is
/// not required.
///
/// # Errors
///
/// [`ProcError`] when the syscall fails (e.g. `cpu` ≥ 64 is rejected here,
/// an offline CPU by the kernel).
pub fn pin_to_cpu(cpu: usize) -> Result<(), ProcError> {
    if cpu >= 64 {
        return Err(ProcError {
            call: "sched_setaffinity",
            errno: 22, // EINVAL — a one-u64 mask covers CPUs 0..64
        });
    }
    let mask: u64 = 1u64 << cpu;
    // SAFETY: `mask` is live across the call; pid 0 = calling thread.
    let ret = unsafe {
        syscall5(
            nr::SCHED_SETAFFINITY,
            0,
            core::mem::size_of::<u64>(),
            core::ptr::addr_of!(mask) as usize,
            0,
            0,
        )
    };
    if ret < 0 {
        return Err(err("sched_setaffinity", ret));
    }
    Ok(())
}

/// How many CPUs the **calling thread** may run on: the popcount of its
/// `sched_getaffinity(2)` mask (≈ 0.3 µs), `None` if the kernel refuses
/// the 1024-CPU buffer. Unlike [`std::thread::available_parallelism`]
/// (≈ 12 µs) it ignores the cgroup CPU quota, on purpose: that caps CPU
/// *time*, not placement, and "can my peer run while I spin" is all
/// [`NativeOs`](crate::NativeOs) asks of this number.
pub fn cpus_allowed() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is live and writable for the stated size; pid 0 = self.
    let ret = unsafe {
        syscall5(
            nr::SCHED_GETAFFINITY,
            0,
            core::mem::size_of_val(&mask),
            mask.as_mut_ptr() as usize,
            0,
            0,
        )
    };
    // The raw call returns the number of mask bytes it wrote.
    (ret > 0).then(|| mask.iter().map(|w| w.count_ones() as usize).sum())
}

/// Puts the **calling thread** under `SCHED_BATCH`
/// (`sched_setscheduler(2)`, policy 3, static priority 0).
///
/// Batch tasks are exempt from *wakeup preemption*: waking a batch peer
/// leaves the waker running until it blocks on its own. Combined with
/// [`pin_to_cpu`] on every participant this yields the strict
/// run-until-block alternation of the paper's uniprocessor — without it,
/// the freshly woken side can preempt its waker *between* the wake-up `V`
/// and the waker's own sleep, and both sides then skip a `P`/`V` pair
/// (correct, cheaper, but ruining exact syscall accounting).
///
/// # Errors
///
/// [`ProcError`] when the syscall fails.
pub fn set_sched_batch() -> Result<(), ProcError> {
    const SCHED_BATCH: usize = 3;
    // struct sched_param { int sched_priority; } — must be 0 for batch.
    let param: i32 = 0;
    // SAFETY: `param` is live across the call; pid 0 = calling thread.
    let ret = unsafe {
        syscall5(
            nr::SCHED_SETSCHEDULER,
            0,
            SCHED_BATCH,
            core::ptr::addr_of!(param) as usize,
            0,
            0,
        )
    };
    if ret < 0 {
        return Err(err("sched_setscheduler", ret));
    }
    Ok(())
}

/// The calling process's pid — a raw `getpid(2)`, no libc caching (after
/// a raw `clone` the glibc pid cache would be stale anyway).
pub fn getpid() -> i32 {
    // SAFETY: no arguments, cannot fail.
    unsafe { syscall2(nr::GETPID, 0, 0) as i32 }
}

/// SIGKILLs the **calling process** — the kill-site primitive of the
/// takeover drill: a server child calls this at an instrumented point in
/// its protocol sequence to die exactly as hard as an external `kill -9`
/// (no unwind guard, no tombstone, no flushes), leaving the shared
/// segment in whatever intermediate state that site produces.
///
/// Diverges: if the kernel somehow returns (it does not for SIGKILL to
/// self), fall through to `exit_group` so the signature stays honest.
pub fn raise_sigkill() -> ! {
    // SAFETY: kill(getpid(), SIGKILL) takes no pointers.
    unsafe {
        syscall2(nr::KILL, getpid() as usize, SIGKILL);
    }
    exit_group(137)
}

/// A forked child process, watched through a pidfd.
#[derive(Debug)]
pub struct ChildProc {
    pid: i32,
    pidfd: i32,
}

impl ChildProc {
    /// Forks a child that runs `f` and exits with its return value; panics
    /// inside `f` become exit code 101 (the Rust panic convention), never
    /// an unwind into the parent's frames.
    ///
    /// Returns in the **parent only**, with the child's pid and an opened
    /// pidfd. Call before spawning parent-side threads (see the module
    /// docs on fork discipline).
    ///
    /// # Errors
    ///
    /// [`ProcError`] when `clone` or `pidfd_open` fail; a child that
    /// cannot be watched is killed rather than leaked.
    pub fn spawn(f: impl FnOnce() -> i32) -> Result<ChildProc, ProcError> {
        // clone(SIGCHLD, 0, 0, 0, 0) == fork(): new address space (COW),
        // parent notified via SIGCHLD/wait4. With every pointer argument
        // NULL, the arch-specific argument-order difference (ctid/tls
        // swapped on aarch64) is moot.
        // SAFETY: all pointer arguments are NULL.
        let ret = unsafe { syscall5(nr::CLONE, SIGCHLD, 0, 0, 0, 0) };
        if ret < 0 {
            return Err(err("clone", ret));
        }
        if ret == 0 {
            // Child. Run the payload and leave through exit_group: a panic
            // must not unwind into the cloned copy of the caller's stack.
            let code = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or(101);
            exit_group(code);
        }
        let pid = ret as i32;
        // SAFETY: no pointers (flags = 0).
        let fd = unsafe { syscall2(nr::PIDFD_OPEN, pid as usize, 0) };
        if fd < 0 {
            // Can't watch it: don't leak it. The child is ours and freshly
            // forked, so SIGKILL + reap is safe.
            // SAFETY: kill/wait4 on a pid we just created.
            unsafe {
                syscall2(nr::KILL, pid as usize, SIGKILL);
                let mut status: i32 = 0;
                syscall5(
                    nr::WAIT4,
                    pid as usize,
                    core::ptr::addr_of_mut!(status) as usize,
                    0,
                    0,
                    0,
                );
            }
            return Err(err("pidfd_open", fd));
        }
        Ok(ChildProc {
            pid,
            pidfd: fd as i32,
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> i32 {
        self.pid
    }

    /// Delivers SIGKILL through the pidfd (`pidfd_send_signal(2)`: no pid
    /// reuse race — the fd names *this* process, even after it dies).
    pub fn kill(&self) {
        // SAFETY: info = NULL, flags = 0; the pidfd is owned by self.
        unsafe {
            syscall5(nr::PIDFD_SEND_SIGNAL, self.pidfd as usize, SIGKILL, 0, 0, 0);
        }
    }

    /// Waits up to `timeout` for the child to die, without reaping it:
    /// `ppoll` on the pidfd, which the kernel marks readable at process
    /// exit. `true` means the child is dead (reap it with
    /// [`Self::wait`]); `false` means it was still alive at expiry.
    ///
    /// This is the detection half of the fault story: a monitor thread
    /// parks here instead of burning a core polling `kill(pid, 0)`.
    pub fn dead_within(&self, timeout: Duration) -> bool {
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        const POLLIN: i16 = 1;
        let mut pfd = PollFd {
            fd: self.pidfd,
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: pfd and ts are live across the call; sigmask = NULL.
        let ret = unsafe {
            syscall5(
                nr::PPOLL,
                core::ptr::addr_of_mut!(pfd) as usize,
                1,
                core::ptr::addr_of!(ts) as usize,
                0,
                8, // sigsetsize, ignored with a NULL mask but validated
            )
        };
        ret > 0 && (pfd.revents & POLLIN) != 0
    }

    /// Blocking `wait4`: reaps the child and decodes its status. Consumes
    /// the handle (a reaped pid must not be waited on again) and closes
    /// the pidfd.
    pub fn wait(self) -> Result<ExitStatus, ProcError> {
        let mut status: i32 = 0;
        // SAFETY: `status` is live across the call; rusage = NULL.
        let ret = unsafe {
            syscall5(
                nr::WAIT4,
                self.pid as usize,
                core::ptr::addr_of_mut!(status) as usize,
                0,
                0,
                0,
            )
        };
        // Drop closes the pidfd.
        if ret < 0 {
            return Err(err("wait4", ret));
        }
        // WIFEXITED / WIFSIGNALED decoding, as in <sys/wait.h>.
        if status & 0x7f == 0 {
            Ok(ExitStatus::Exited((status >> 8) & 0xff))
        } else {
            Ok(ExitStatus::Signaled(status & 0x7f))
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        // SAFETY: the pidfd is owned by self and closed exactly once.
        unsafe {
            syscall2(nr::CLOSE, self.pidfd as usize, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_exit_code_roundtrip() {
        let child = ChildProc::spawn(|| 7).unwrap();
        assert_eq!(child.wait().unwrap(), ExitStatus::Exited(7));
    }

    #[test]
    fn killed_child_reports_the_signal() {
        let child = ChildProc::spawn(|| loop {
            std::thread::sleep(Duration::from_millis(50));
        })
        .unwrap();
        assert!(
            !child.dead_within(Duration::from_millis(10)),
            "looping child must still be alive"
        );
        child.kill();
        assert!(
            child.dead_within(Duration::from_secs(5)),
            "pidfd must signal death after SIGKILL"
        );
        assert_eq!(child.wait().unwrap(), ExitStatus::Signaled(9));
    }

    #[test]
    fn panicking_child_exits_101_not_unwinds() {
        let child = ChildProc::spawn(|| panic!("child panic stays in the child")).unwrap();
        assert_eq!(child.wait().unwrap(), ExitStatus::Exited(101));
    }

    #[test]
    fn pin_to_cpu_sticks_in_a_child() {
        // Pin a child to CPU 0 and have it verify via sched_getcpu-free
        // means: a second sched_setaffinity to the same CPU must succeed,
        // and an out-of-range CPU must fail locally.
        let child = ChildProc::spawn(|| {
            if pin_to_cpu(0).is_err() {
                return 1;
            }
            if pin_to_cpu(64).is_ok() {
                return 2;
            }
            0
        })
        .unwrap();
        assert!(child.wait().unwrap().success());
    }

    #[test]
    fn cow_isolation_parent_unaffected() {
        let mut local = 1u64;
        let p = core::ptr::addr_of_mut!(local) as usize;
        let child = ChildProc::spawn(move || {
            // Writes in the child land in its COW copy only.
            unsafe { *(p as *mut u64) = 99 };
            0
        })
        .unwrap();
        assert!(child.wait().unwrap().success());
        assert_eq!(local, 1, "fork must copy-on-write, not share");
    }
}
