//! Counting semaphores for the native backend: the kernel half of the
//! paper's sleep/wake-up machinery.
//!
//! Two implementations share one API and one semantics (SysV `P`/`V` with a
//! SEMVMX-style overflow limit plus high-water diagnostics):
//!
//! * [`FutexSem`] — Linux on x86_64/aarch64. The credit count is a plain
//!   `AtomicU32`; an uncontended `P` or `V` is a single user-space
//!   compare-and-swap with **zero kernel entries**, and the kernel is
//!   involved — via raw `futex(2)` syscalls, no libc — only when a `P`
//!   actually has to sleep or a `V` sees a registered sleeper. A `P` never
//!   spins: one attempt, then `futex_wait` (a waiter that should spin does
//!   so first, on its own data, as [`crate::WaitSet`] does).
//!   This is the "Semaphores Augmented with a Waiting Array" idea the paper
//!   cites, in its modern futex form: the wait queue lives in the kernel,
//!   keyed by the user-space word's address.
//! * [`PortableSem`] — every other platform: `Mutex` + `Condvar`, the
//!   previous implementation, kept so non-Linux hosts still build and so
//!   the futex path always has a reference semantics to diff against.
//!
//! [`CountingSem`] is the platform-selected alias the backend uses.
//!
//! Both report how often they *actually* entered the host kernel
//! ([`kernel-wait`/`kernel-wake` counts](FutexSem::acquire)), which the
//! native backend surfaces as
//! [`ProtoEvent::SemKernelWait`](crate::metrics::ProtoEvent::SemKernelWait) /
//! [`SemKernelWake`](crate::metrics::ProtoEvent::SemKernelWake) — distinct
//! from the protocol-level `SemP`/`SemV` accounting, which deliberately
//! keeps the paper's "four system calls per round trip" currency stable.
//!
//! ## Why a lost wake-up is impossible
//!
//! The sleeping side registers in `waiters` (a SeqCst RMW), *then* re-checks
//! the count, then calls `futex_wait(&count, 0)`; the waking side increments
//! the count (SeqCst RMW), *then* reads `waiters`. By the usual store-buffer
//! argument, if the sleeper's re-check missed the new credit, the waker's
//! read of `waiters` cannot miss the registration — so it issues a
//! `futex_wake`. And if that wake races ahead of the sleep itself, the
//! kernel's atomic re-validation of the futex word (`count == 0`?) fails
//! with `EAGAIN` and the "sleeper" returns immediately. This is the same
//! double-check shape as the Fig. 5 `tas`-guarded wait loop, one layer down.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The platform-selected counting semaphore used by
/// [`NativeOs`](crate::NativeOs): futex-backed where raw futexes are
/// available, portable Mutex/Condvar elsewhere.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub type CountingSem = FutexSem;

/// The platform-selected counting semaphore used by
/// [`NativeOs`](crate::NativeOs): futex-backed where raw futexes are
/// available, portable Mutex/Condvar elsewhere.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub type CountingSem = PortableSem;

/// Raw `futex(2)` wrappers. No libc: the
/// workspace is dependency-free, so the syscalls are issued with inline
/// assembly directly.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod futex {
    use core::sync::atomic::AtomicU32;

    #[cfg(target_arch = "x86_64")]
    const SYS_FUTEX: usize = 202;
    #[cfg(target_arch = "aarch64")]
    const SYS_FUTEX: usize = 98;

    /// `FUTEX_WAIT`.
    const FUTEX_WAIT: usize = 0;
    /// `FUTEX_WAKE`.
    const FUTEX_WAKE: usize = 1;
    /// `FUTEX_PRIVATE_FLAG`: an optimization valid only when every waiter
    /// and waker shares one address space — the kernel keys the wait queue
    /// by (mm, virtual address). *Without* the flag the key is the physical
    /// page, so a futex word resident in a `MAP_SHARED` segment wakes
    /// sleepers in other processes too. That one bit is the entire
    /// difference between thread-mode and process-mode semaphores.
    const FUTEX_PRIVATE_FLAG: usize = 128;

    /// Selects the op encoding for a private (same-process) or shared
    /// (cross-process) futex word.
    fn op(base: usize, shared: bool) -> usize {
        if shared {
            base
        } else {
            base | FUTEX_PRIVATE_FLAG
        }
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        // `syscall` clobbers rcx (return rip) and r11 (rflags).
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall4(nr: usize, a1: usize, a2: usize, a3: usize, a4: usize) -> isize {
        let ret: isize;
        unsafe {
            core::arch::asm!(
                "svc 0",
                inlateout("x0") a1 as isize => ret,
                in("x1") a2,
                in("x2") a3,
                in("x3") a4,
                in("x8") nr,
                options(nostack),
            );
        }
        ret
    }

    /// The kernel's timespec layout for the futex timeout argument.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Sleeps until `word` is woken or the relative `CLOCK_MONOTONIC`
    /// `timeout` (`None` = forever) runs out, provided `*word == expected` at
    /// sleep time (the kernel re-validates atomically; `EAGAIN` otherwise).
    /// May also return early on a signal — callers re-check in a loop.
    pub fn wait(
        word: &AtomicU32,
        expected: u32,
        timeout: Option<core::time::Duration>,
        shared: bool,
    ) {
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        // A NULL timespec blocks indefinitely; the V side guarantees a wake.
        let ts_ptr = ts.as_ref().map_or(0, |ts| core::ptr::from_ref(ts) as usize);
        // SAFETY: `word` and `ts` outlive the call, which only reads them.
        unsafe {
            syscall4(
                SYS_FUTEX,
                word.as_ptr() as usize,
                op(FUTEX_WAIT, shared),
                expected as usize,
                ts_ptr,
            );
        }
    }

    /// Wakes at most `n` sleepers on `word`.
    pub fn wake(word: &AtomicU32, n: u32, shared: bool) {
        unsafe {
            syscall4(
                SYS_FUTEX,
                word.as_ptr() as usize,
                op(FUTEX_WAKE, shared),
                n as usize,
                0,
            );
        }
    }
}

/// A futex-backed counting semaphore with SysV `P`/`V` semantics, a
/// SEMVMX-style overflow limit, and high-water diagnostics.
///
/// The limit is not decoration: unbounded credit accumulation is exactly
/// the failure the authors hit in their first protocol version (§3 — the
/// stray `V`s of Fig. 4 interleavings 2/3 overflowed SEMVMX). See the
/// [module docs](self) for the sleep/wake handshake.
///
/// The struct is one cache line, aligned, so adjacent semaphores in the
/// backend's array (the server's receive sem next to client 0's reply sem)
/// never share a line.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[derive(Debug)]
#[repr(C, align(64))]
pub struct FutexSem {
    /// Credit count; doubles as the futex word sleepers key on.
    count: AtomicU32,
    /// Number of `P` callers past their first attempt (registered
    /// sleepers).
    waiters: AtomicU32,
    /// Highest credit count ever reached (the sim's `max_count` parity).
    max_count: AtomicU32,
    /// SEMVMX-style overflow limit (immutable after construction).
    limit: u32,
    /// `1` when the futex ops omit `FUTEX_PRIVATE_FLAG` so sleepers in
    /// *other processes* mapping this word are woken too (immutable after
    /// construction; `u32` rather than `bool` to keep every field a plain
    /// word for the `ShmSafe` layout contract).
    shared: u32,
    /// Cumulative `futex_wait` entries (diagnostics).
    kernel_waits: AtomicU64,
    /// Cumulative `futex_wake` entries (diagnostics).
    kernel_wakes: AtomicU64,
}

// SAFETY: `repr(C)` with a stable all-word layout; no host pointers — the
// futex syscall takes the *address of the `count` field itself*, recomputed
// per call from `&self`, so it is correct at whatever base each process
// mapped the arena. All post-construction mutation is through atomics
// (`limit`/`shared` are write-once at init), and any bit pattern of those
// atomics is a valid `u32`/`u64`. Construct in-place via
// `ShmArena::alloc(FutexSem::new_shared(..))` so peers observe initialized
// state.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
unsafe impl usipc_shm::ShmSafe for FutexSem {}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl Default for FutexSem {
    fn default() -> Self {
        FutexSem::new(0)
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
impl FutexSem {
    /// Creates a semaphore with an initial credit count and the SysV
    /// default limit ([`usipc_sim::Semaphore::DEFAULT_LIMIT`], SEMVMX).
    pub fn new(initial: u32) -> Self {
        Self::with_limit(initial, usipc_sim::Semaphore::DEFAULT_LIMIT)
    }

    /// Creates a semaphore with an explicit overflow limit (tests use
    /// small limits to provoke the overflow the authors hit).
    pub fn with_limit(initial: u32, limit: u32) -> Self {
        Self::build(initial, limit, false)
    }

    /// [`Self::new`], in **cross-process** mode: futex ops omit
    /// `FUTEX_PRIVATE_FLAG`, so when this semaphore lives in a `MAP_SHARED`
    /// arena segment, `P` in one process is woken by `V` in another. Use
    /// [`Self::new`] for thread-only semaphores — the private flag saves
    /// the kernel a hash of the physical page on every sleep/wake.
    pub fn new_shared(initial: u32) -> Self {
        Self::build(initial, usipc_sim::Semaphore::DEFAULT_LIMIT, true)
    }

    /// [`Self::with_limit`], in cross-process mode (see
    /// [`Self::new_shared`]).
    pub fn with_limit_shared(initial: u32, limit: u32) -> Self {
        Self::build(initial, limit, true)
    }

    fn build(initial: u32, limit: u32, shared: bool) -> Self {
        assert!(initial <= limit, "initial credit exceeds limit");
        FutexSem {
            count: AtomicU32::new(initial),
            waiters: AtomicU32::new(0),
            max_count: AtomicU32::new(initial),
            limit,
            shared: shared as u32,
            kernel_waits: AtomicU64::new(0),
            kernel_wakes: AtomicU64::new(0),
        }
    }

    /// Whether this semaphore was built for cross-process use.
    pub fn is_shared(&self) -> bool {
        self.shared != 0
    }

    /// One user-space attempt to take a credit.
    ///
    /// SeqCst is required, not decoration: the load must not be reorderable
    /// before the `waiters` registration in [`Self::acquire`] (the
    /// store-buffer argument in the module docs).
    fn try_acquire(&self) -> bool {
        let mut c = self.count.load(Ordering::SeqCst);
        while c > 0 {
            match self
                .count
                .compare_exchange_weak(c, c - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => c = now,
            }
        }
        false
    }

    /// `P`: block until a credit is available, then take it.
    pub fn p(&self) {
        self.acquire(None);
    }

    /// `P` with a deadline: block until a credit is available or `timeout`
    /// elapses. Returns `true` iff a credit was taken; `false` means
    /// expiry, and — the contract the fault layer depends on — **no credit
    /// was consumed**: a `V` racing the expiry leaves its credit banked for
    /// the next `P`.
    pub fn p_timeout(&self, timeout: core::time::Duration) -> bool {
        self.acquire(Some(timeout)).0
    }

    /// The one `P` loop behind [`Self::p`] and [`Self::p_timeout`]: one
    /// attempt; then register, re-check and sleep on the count word until
    /// `timeout` (`None`, or a deadline past the clock's range, is
    /// "never"), counted from the start of the slow path. Returns whether a
    /// credit was taken and the `futex_wait` calls made (0: the user-space
    /// fast path). No clock is read without a `timeout`, nor on the fast
    /// path.
    pub fn acquire(&self, timeout: Option<core::time::Duration>) -> (bool, u32) {
        if self.try_acquire() {
            return (true, 0);
        }
        let deadline = timeout.and_then(|t| std::time::Instant::now().checked_add(t));
        let mut entered = 0u32;
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let acquired = loop {
            if self.try_acquire() {
                break true;
            }
            let left = deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                break false;
            }
            entered += 1;
            self.kernel_waits.fetch_add(1, Ordering::Relaxed);
            futex::wait(&self.count, 0, left, self.is_shared());
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        // One final attempt after deregistering: a V that landed in the
        // expiry window posted its credit before our re-check could run
        // again. Taking it here converts the timeout into a success, so
        // the V/timeout race can never strand or lose a credit.
        (acquired || self.try_acquire(), entered)
    }

    /// `V`: add a credit and wake one waiter; `Err(limit)` if the credit
    /// would exceed the limit (the credit is *not* added — SysV `semop`
    /// ERANGE semantics).
    pub fn try_v(&self) -> Result<(), u32> {
        self.try_v_counted().map(|_| ())
    }

    /// [`Self::try_v`], reporting whether the kernel was entered to wake a
    /// sleeper (`Ok(false)` is the uncontended user-space-only path).
    pub fn try_v_counted(&self) -> Result<bool, u32> {
        let mut c = self.count.load(Ordering::SeqCst);
        loop {
            if c >= self.limit {
                return Err(self.limit);
            }
            match self
                .count
                .compare_exchange_weak(c, c + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => c = now,
            }
        }
        // Almost never a new high-water mark: spare the steady state the
        // locked RMW (`fetch_max` still settles two racing raisers).
        if c + 1 > self.max_count.load(Ordering::Relaxed) {
            self.max_count.fetch_max(c + 1, Ordering::Relaxed);
        }
        // Only pay the syscall when someone is (or may be about to be)
        // asleep. A spurious wake — the waiter grabbed the credit between
        // our store and this load — is harmless; a missed one is impossible
        // (module docs).
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.kernel_wakes.fetch_add(1, Ordering::Relaxed);
            futex::wake(&self.count, 1, self.is_shared());
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// `V`: add a credit and wake one waiter.
    ///
    /// # Panics
    ///
    /// On overflow past the limit. A protocol that Vs without the `tas`
    /// guard accumulates stray credits without bound; dying loudly here is
    /// the native equivalent of the sim's `Outcome::SemaphoreOverflow`.
    pub fn v(&self) {
        if let Err(limit) = self.try_v() {
            panic!("semaphore overflow: credit limit {limit} exceeded");
        }
    }

    /// Current credit count (diagnostics; racy by nature).
    pub fn count(&self) -> u32 {
        self.count.load(Ordering::SeqCst)
    }

    /// Highest credit count ever reached. A BSW-family reply queue must
    /// stay ≤ 1; anything above means stray wake-ups are accumulating.
    pub fn max_count(&self) -> u32 {
        self.max_count.load(Ordering::Relaxed)
    }

    /// The overflow limit.
    pub fn limit(&self) -> u32 {
        self.limit
    }

    /// Threads currently registered as sleepers in [`Self::p`]
    /// (diagnostics; racy — a registered thread may still be retrying in
    /// user space rather than blocked in the kernel).
    pub fn waiting(&self) -> usize {
        self.waiters.load(Ordering::SeqCst) as usize
    }

    /// Cumulative number of `futex_wait` kernel entries.
    pub fn kernel_waits(&self) -> u64 {
        self.kernel_waits.load(Ordering::Relaxed)
    }

    /// Cumulative number of `futex_wake` kernel entries.
    pub fn kernel_wakes(&self) -> u64 {
        self.kernel_wakes.load(Ordering::Relaxed)
    }

    /// The sim-parity snapshot of this semaphore's final/current state.
    pub fn final_state(&self) -> usipc_sim::SemFinal {
        usipc_sim::SemFinal {
            count: self.count(),
            max_count: self.max_count(),
            waiting: self.waiting(),
        }
    }
}

/// The portable Mutex/Condvar counting semaphore: same SysV `P`/`V`
/// semantics, overflow limit and diagnostics as [`FutexSem`], used on
/// platforms without raw-futex support (and kept everywhere as the
/// reference implementation the futex path is tested against).
///
/// Cache-line aligned for the same adjacent-semaphore reason as
/// [`FutexSem`].
#[derive(Debug)]
#[repr(align(64))]
pub struct PortableSem {
    inner: std::sync::Mutex<SemState>,
    cv: std::sync::Condvar,
    /// Cumulative condvar waits (the portable stand-in for `futex_wait`).
    kernel_waits: AtomicU64,
    /// Cumulative notifies issued with a sleeper present (stand-in for
    /// `futex_wake`).
    kernel_wakes: AtomicU64,
}

#[derive(Debug)]
struct SemState {
    count: u32,
    limit: u32,
    /// Highest credit count ever reached (the sim's `max_count` parity).
    max_count: u32,
    /// Threads currently blocked in `p`.
    waiting: usize,
}

impl Default for PortableSem {
    fn default() -> Self {
        PortableSem::new(0)
    }
}

impl PortableSem {
    /// Creates a semaphore with an initial credit count and the SysV
    /// default limit ([`usipc_sim::Semaphore::DEFAULT_LIMIT`], SEMVMX).
    pub fn new(initial: u32) -> Self {
        Self::with_limit(initial, usipc_sim::Semaphore::DEFAULT_LIMIT)
    }

    /// Creates a semaphore with an explicit overflow limit.
    pub fn with_limit(initial: u32, limit: u32) -> Self {
        assert!(initial <= limit, "initial credit exceeds limit");
        PortableSem {
            inner: std::sync::Mutex::new(SemState {
                count: initial,
                limit,
                max_count: initial,
                waiting: 0,
            }),
            cv: std::sync::Condvar::new(),
            kernel_waits: AtomicU64::new(0),
            kernel_wakes: AtomicU64::new(0),
        }
    }

    /// `P`: block until a credit is available, then take it.
    pub fn p(&self) {
        self.acquire(None);
    }

    /// `P` with a deadline: block until a credit is available or `timeout`
    /// elapses. Same no-credit-lost contract as [`FutexSem::p_timeout`].
    pub fn p_timeout(&self, timeout: core::time::Duration) -> bool {
        self.acquire(Some(timeout)).0
    }

    /// The one `P` loop, as [`FutexSem::acquire`] (condvar waits stand in
    /// for kernel entries). No clock is read unless the count is 0.
    pub fn acquire(&self, timeout: Option<core::time::Duration>) -> (bool, u32) {
        let mut entered = 0u32;
        let mut s = self.inner.lock().unwrap();
        let deadline = timeout
            .filter(|_| s.count == 0)
            .and_then(|t| std::time::Instant::now().checked_add(t));
        while s.count == 0 {
            let left = deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                // Still holding the lock: the count is provably 0, so
                // returning false consumes nothing, and any racing V is
                // serialized after this release and keeps its credit.
                return (false, entered);
            }
            s.waiting += 1;
            entered += 1;
            self.kernel_waits.fetch_add(1, Ordering::Relaxed);
            s = match left {
                Some(left) => self.cv.wait_timeout(s, left).unwrap().0,
                None => self.cv.wait(s).unwrap(),
            };
            s.waiting -= 1;
        }
        s.count -= 1;
        (true, entered)
    }

    /// `V`: add a credit and wake one waiter; `Err(limit)` if the credit
    /// would exceed the limit (the credit is *not* added — SysV `semop`
    /// ERANGE semantics).
    pub fn try_v(&self) -> Result<(), u32> {
        self.try_v_counted().map(|_| ())
    }

    /// [`Self::try_v`], reporting whether a sleeper was present to wake.
    pub fn try_v_counted(&self) -> Result<bool, u32> {
        // Drop the guard before notifying: a waiter woken while the lock is
        // still held would immediately block on it again (a wasted
        // wake-then-wait bounce on every V with a sleeper present).
        let had_sleeper = {
            let mut s = self.inner.lock().unwrap();
            if s.count >= s.limit {
                return Err(s.limit);
            }
            s.count += 1;
            s.max_count = s.max_count.max(s.count);
            s.waiting > 0
        };
        self.cv.notify_one();
        if had_sleeper {
            self.kernel_wakes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(had_sleeper)
    }

    /// `V`: add a credit and wake one waiter.
    ///
    /// # Panics
    ///
    /// On overflow past the limit (see [`FutexSem::v`]).
    pub fn v(&self) {
        if let Err(limit) = self.try_v() {
            panic!("semaphore overflow: credit limit {limit} exceeded");
        }
    }

    /// Current credit count (diagnostics; racy by nature).
    pub fn count(&self) -> u32 {
        self.inner.lock().unwrap().count
    }

    /// Highest credit count ever reached.
    pub fn max_count(&self) -> u32 {
        self.inner.lock().unwrap().max_count
    }

    /// The overflow limit.
    pub fn limit(&self) -> u32 {
        self.inner.lock().unwrap().limit
    }

    /// Threads currently blocked in [`Self::p`] (diagnostics; racy).
    pub fn waiting(&self) -> usize {
        self.inner.lock().unwrap().waiting
    }

    /// Cumulative condvar waits (see [`FutexSem::kernel_waits`]).
    pub fn kernel_waits(&self) -> u64 {
        self.kernel_waits.load(Ordering::Relaxed)
    }

    /// Cumulative notifies issued with a sleeper present.
    pub fn kernel_wakes(&self) -> u64 {
        self.kernel_wakes.load(Ordering::Relaxed)
    }

    /// The sim-parity snapshot of this semaphore's final/current state.
    pub fn final_state(&self) -> usipc_sim::SemFinal {
        let s = self.inner.lock().unwrap();
        usipc_sim::SemFinal {
            count: s.count,
            max_count: s.max_count,
            waiting: s.waiting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Both implementations must satisfy the same contract; every test here
    // is instantiated against each.
    macro_rules! sem_contract_tests {
        ($modname:ident, $sem:ty) => {
            mod $modname {
                use super::*;

                #[test]
                fn banked_credit() {
                    let s = <$sem>::new(0);
                    s.v();
                    s.v();
                    assert_eq!(s.count(), 2);
                    s.p();
                    s.p();
                    assert_eq!(s.count(), 0);
                }

                #[test]
                fn uncontended_ops_never_enter_the_kernel() {
                    let s = <$sem>::new(0);
                    assert!(!s.try_v_counted().unwrap(), "no sleeper to wake");
                    assert_eq!(s.acquire(None), (true, 0), "banked credit: pure user space");
                    assert_eq!(s.kernel_waits(), 0);
                    assert_eq!(s.kernel_wakes(), 0);
                }

                #[test]
                fn contended_p_blocks_in_the_kernel_and_v_wakes_it() {
                    let s = Arc::new(<$sem>::new(0));
                    let s2 = Arc::clone(&s);
                    let t = std::thread::spawn(move || s2.acquire(None));
                    // Wait until the P caller is registered as a sleeper so
                    // the V below must take the wake path.
                    while s.waiting() == 0 {
                        std::thread::yield_now();
                    }
                    // The sleeper may still be in its EAGAIN window; keep
                    // the credit posted and let it land.
                    s.v();
                    t.join().unwrap();
                    assert_eq!(s.count(), 0);
                    assert_eq!(s.waiting(), 0);
                    assert!(s.kernel_wakes() >= 1, "V saw a registered sleeper");
                }

                #[test]
                fn high_water_and_limit() {
                    let s = <$sem>::with_limit(0, 2);
                    s.v();
                    s.v();
                    assert_eq!(s.try_v(), Err(2));
                    assert_eq!(s.count(), 2, "refused credit not added");
                    s.p();
                    s.p();
                    assert_eq!(s.max_count(), 2, "high-water survives drains");
                }

                #[test]
                #[should_panic(expected = "semaphore overflow")]
                fn v_panics_past_limit() {
                    let s = <$sem>::with_limit(1, 1);
                    s.v();
                }

                #[test]
                fn default_limit_matches_sim() {
                    let s = <$sem>::new(0);
                    assert_eq!(s.limit(), usipc_sim::Semaphore::DEFAULT_LIMIT);
                    assert_eq!(s.waiting(), 0);
                }

                #[test]
                fn p_timeout_expiry_returns_false_without_consuming_a_credit() {
                    use core::time::Duration;
                    let s = <$sem>::new(0);
                    let t0 = std::time::Instant::now();
                    assert!(
                        !s.p_timeout(Duration::from_millis(20)),
                        "no credit: must expire"
                    );
                    assert!(
                        t0.elapsed() >= Duration::from_millis(15),
                        "expiry must actually wait out the deadline"
                    );
                    assert_eq!(s.count(), 0);
                    // A credit posted after the expiry is fully intact: the
                    // timed-out P consumed nothing.
                    s.v();
                    assert_eq!(s.count(), 1);
                    assert!(s.p_timeout(Duration::from_secs(5)), "banked credit");
                    assert_eq!(s.count(), 0);
                }

                #[test]
                fn p_timeout_with_banked_credit_never_waits() {
                    let s = <$sem>::new(1);
                    let t0 = std::time::Instant::now();
                    assert!(s.p_timeout(core::time::Duration::from_secs(60)));
                    assert!(t0.elapsed() < core::time::Duration::from_secs(10));
                    assert_eq!(s.count(), 0);
                }

                #[test]
                fn v_racing_a_timeout_never_loses_a_credit() {
                    // Tiny deadlines against a V landing at a jittered
                    // offset: whichever side wins each round, the single
                    // credit must end up either consumed (waiter returned
                    // true) or still banked (waiter returned false).
                    const ROUNDS: u32 = 300;
                    let s = Arc::new(<$sem>::new(0));
                    let (mut wins, mut expiries) = (0u32, 0u32);
                    for i in 0..ROUNDS {
                        let s2 = Arc::clone(&s);
                        let waiter = std::thread::spawn(move || {
                            s2.p_timeout(core::time::Duration::from_micros(u64::from(i % 97)))
                        });
                        for _ in 0..(i % 128) {
                            core::hint::spin_loop();
                        }
                        s.v();
                        if waiter.join().unwrap() {
                            wins += 1;
                        } else {
                            expiries += 1;
                            assert_eq!(
                                s.count(),
                                1,
                                "round {i}: timed-out P lost the racing V's credit"
                            );
                            s.p(); // drain for the next round
                        }
                    }
                    assert_eq!(s.count(), 0);
                    assert_eq!(wins + expiries, ROUNDS);
                    assert_eq!(s.waiting(), 0);
                }

                #[test]
                fn stress_exact_credit_accounting() {
                    const PRODUCERS: usize = 3;
                    const CONSUMERS: usize = 3;
                    const PER: u32 = 4_000;
                    let total = (PRODUCERS as u32) * PER;
                    let s = Arc::new(<$sem>::with_limit(0, total));
                    let mut handles = Vec::new();
                    for _ in 0..PRODUCERS {
                        let s = Arc::clone(&s);
                        handles.push(std::thread::spawn(move || {
                            for _ in 0..PER {
                                s.v();
                            }
                        }));
                    }
                    for _ in 0..CONSUMERS {
                        let s = Arc::clone(&s);
                        handles.push(std::thread::spawn(move || {
                            for _ in 0..total / CONSUMERS as u32 {
                                s.p();
                            }
                        }));
                    }
                    for h in handles {
                        h.join().unwrap();
                    }
                    // Every V matched by exactly one P: nothing lost,
                    // nothing minted.
                    assert_eq!(s.count(), 0);
                    assert_eq!(s.waiting(), 0);
                    assert!(s.max_count() <= total);
                    assert!(s.max_count() >= 1);
                }
            }
        };
    }

    sem_contract_tests!(futex_or_native, CountingSem);
    sem_contract_tests!(portable, PortableSem);

    /// [`FutexSem`] in cross-process mode, adapted to the contract suite's
    /// constructor names: dropping `FUTEX_PRIVATE_FLAG` must not weaken a
    /// single clause of the single-process contract (same fast paths, same
    /// no-credit-lost timeout semantics, same accounting). The genuinely
    /// cross-address-space checks live in `tests/cross_process.rs`.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    struct SharedSem(FutexSem);

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    impl SharedSem {
        fn new(initial: u32) -> Self {
            SharedSem(FutexSem::new_shared(initial))
        }
        fn with_limit(initial: u32, limit: u32) -> Self {
            SharedSem(FutexSem::with_limit_shared(initial, limit))
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    impl core::ops::Deref for SharedSem {
        type Target = FutexSem;
        fn deref(&self) -> &FutexSem {
            &self.0
        }
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    sem_contract_tests!(futex_shared, SharedSem);

    /// Shared-mode futexes must behave identically *within* a process —
    /// dropping `FUTEX_PRIVATE_FLAG` widens the wake scope, never narrows
    /// it. (The cross-address-space half of the contract is exercised by
    /// the forked tests in `tests/cross_process.rs`.)
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn shared_mode_wakes_within_a_process_too() {
        let s = Arc::new(FutexSem::new_shared(0));
        assert!(s.is_shared());
        assert!(!FutexSem::new(0).is_shared());
        let s2 = Arc::clone(&s);
        let t = std::thread::spawn(move || s2.acquire(None));
        while s.waiting() == 0 {
            std::thread::yield_now();
        }
        s.v();
        t.join().unwrap();
        assert_eq!(s.count(), 0);
        assert!(s.kernel_wakes() >= 1);
    }

    /// A zero-timeout `P`, as `WaitSet::fsck`'s credit-banking loop asks,
    /// fails without consuming or sleeping; a banked credit is still taken
    /// on the first attempt.
    #[test]
    fn a_zero_timeout_p_never_sleeps() {
        let s = CountingSem::new(0);
        let zero = Some(core::time::Duration::ZERO);
        assert_eq!(s.acquire(zero), (false, 0));
        s.v();
        assert_eq!(s.acquire(zero), (true, 0));
        // With time left the sleep follows at once, and expires clean.
        let (taken, entered) = s.acquire(Some(core::time::Duration::from_millis(1)));
        assert!(!taken && entered >= 1, "{entered} waits");
        assert_eq!((s.count(), s.waiting()), (0, 0));
    }

    #[test]
    fn sems_do_not_share_cache_lines() {
        assert_eq!(core::mem::align_of::<CountingSem>(), 64);
        assert_eq!(core::mem::align_of::<PortableSem>(), 64);
        // In `NativeOs` the sems live in a Vec; alignment alone guarantees
        // one starts per line only if the size is also a multiple of it.
        assert_eq!(core::mem::size_of::<CountingSem>() % 64, 0);
        assert_eq!(core::mem::size_of::<PortableSem>() % 64, 0);
        // Exactly one line.
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert_eq!(core::mem::size_of::<FutexSem>(), 64);
    }
}
