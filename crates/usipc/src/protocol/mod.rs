//! The sleep/wake-up protocols, one module per paper figure.
//!
//! | Strategy | Figure | Module |
//! |---|---|---|
//! | [`WaitStrategy::Bss`] | Fig. 1 | [`bss`] |
//! | [`WaitStrategy::Bsw`] | Fig. 5 | [`bsw`] |
//! | [`WaitStrategy::Bswy`] | Fig. 7 | [`bswy`] |
//! | [`WaitStrategy::Bsls`] | Fig. 9 | [`bsls`] |
//! | [`WaitStrategy::HandoffBswy`] | §6 | [`handoff`] |
//!
//! Each module implements the paper's `Send`/`Receive`/`Reply` triple over
//! the [`QueueRef`] primitives — the blocking consumer
//! skeleton — double-checked dequeue around clearing the `awake` flag,
//! with the `tas` fix-ups for the races of Fig. 4 — is shared in
//! `blocking_dequeue` (crate-internal).

pub mod bsls;
pub mod bss;
pub mod bsw;
pub mod bswy;
pub mod handoff;

use crate::channel::{Channel, QueueRef};
use crate::fault::IpcError;
use crate::metrics::ProtoEvent;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::trace::{Span, TracePoint};
use core::cell::Cell;
use core::time::Duration;

/// Which sleep/wake-up protocol an endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitStrategy {
    /// Both Sides Spin (Fig. 1): busy-wait on empty queues.
    Bss,
    /// Both Sides Wait (Fig. 5): semaphores + `awake` flags.
    Bsw,
    /// Both Sides Wait and Yield (Fig. 7): BSW + hand-off hints.
    Bswy,
    /// Both Sides Limited Spin (Fig. 9): poll up to `max_spin` times first.
    Bsls {
        /// Poll attempts before entering the blocking path (`MAX_SPIN`).
        max_spin: u32,
    },
    /// BSWY with the proposed `handoff` syscall in place of plain yields.
    HandoffBswy,
}

impl WaitStrategy {
    /// Client `Send`: enqueue the request, wait for the reply.
    pub fn send<O: OsServices>(self, ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
        match self {
            WaitStrategy::Bss => bss::send(ch, os, client, msg),
            WaitStrategy::Bsw => bsw::send(ch, os, client, msg),
            WaitStrategy::Bswy => bswy::send(ch, os, client, msg),
            WaitStrategy::Bsls { max_spin } => bsls::send(ch, os, client, msg, max_spin),
            WaitStrategy::HandoffBswy => handoff::send(ch, os, client, msg),
        }
    }

    /// Server `Receive`: wait for the next request.
    pub fn receive<O: OsServices>(self, ch: &Channel, os: &O) -> Message {
        match self {
            WaitStrategy::Bss => bss::receive(ch, os),
            WaitStrategy::Bsw => bsw::receive(ch, os),
            WaitStrategy::Bswy => bswy::receive(ch, os),
            WaitStrategy::Bsls { max_spin } => bsls::receive(ch, os, max_spin),
            WaitStrategy::HandoffBswy => handoff::receive(ch, os),
        }
    }

    /// Server `Reply` to client `c`.
    pub fn reply<O: OsServices>(self, ch: &Channel, os: &O, c: u32, msg: Message) {
        match self {
            WaitStrategy::Bss => bss::reply(ch, os, c, msg),
            WaitStrategy::Bsw => bsw::reply(ch, os, c, msg),
            WaitStrategy::Bswy => bswy::reply(ch, os, c, msg),
            WaitStrategy::Bsls { .. } => bsls::reply(ch, os, c, msg),
            WaitStrategy::HandoffBswy => handoff::reply(ch, os, c, msg),
        }
    }

    /// Fallible client `Send`: like [`send`](Self::send) but bounded by
    /// `timeout` and aware of the failure model — a poisoned channel is
    /// rejected without entering the kernel, and expiry returns
    /// [`IpcError::Timeout`] (reply wait) or [`IpcError::QueueFull`]
    /// (request enqueue) with no semaphore credit lost.
    pub fn send_deadline<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        client: u32,
        msg: Message,
        timeout: Duration,
    ) -> Result<Message, IpcError> {
        match self {
            WaitStrategy::Bss => bss::send_deadline(ch, os, client, msg, timeout),
            WaitStrategy::Bsw => bsw::send_deadline(ch, os, client, msg, timeout),
            WaitStrategy::Bswy => bswy::send_deadline(ch, os, client, msg, timeout),
            WaitStrategy::Bsls { max_spin } => {
                bsls::send_deadline(ch, os, client, msg, max_spin, timeout)
            }
            WaitStrategy::HandoffBswy => handoff::send_deadline(ch, os, client, msg, timeout),
        }
    }

    /// Fallible server `Receive`: bounded by `timeout`. Expiry is *normal*
    /// for a server (no client happened to call) and must not poison
    /// anything; resilient server loops use it as their liveness-scan
    /// period.
    pub fn receive_deadline<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        timeout: Duration,
    ) -> Result<Message, IpcError> {
        match self {
            WaitStrategy::Bss => bss::receive_deadline(ch, os, timeout),
            WaitStrategy::Bsw => bsw::receive_deadline(ch, os, timeout),
            WaitStrategy::Bswy => bswy::receive_deadline(ch, os, timeout),
            WaitStrategy::Bsls { max_spin } => bsls::receive_deadline(ch, os, max_spin, timeout),
            WaitStrategy::HandoffBswy => handoff::receive_deadline(ch, os, timeout),
        }
    }

    /// Fallible server `Reply` to client `c`: fails fast on a poisoned
    /// reply queue instead of backing off forever against a client that
    /// will never drain it.
    pub fn reply_deadline<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        c: u32,
        msg: Message,
        timeout: Duration,
    ) -> Result<(), IpcError> {
        match self {
            WaitStrategy::Bss => bss::reply_deadline(ch, os, c, msg, timeout),
            WaitStrategy::Bsw => bsw::reply_deadline(ch, os, c, msg, timeout),
            WaitStrategy::Bswy => bswy::reply_deadline(ch, os, c, msg, timeout),
            WaitStrategy::Bsls { .. } => bsls::reply_deadline(ch, os, c, msg, timeout),
            WaitStrategy::HandoffBswy => handoff::reply_deadline(ch, os, c, msg, timeout),
        }
    }

    /// Short name used in reports and CSV files.
    pub fn name(self) -> String {
        match self {
            WaitStrategy::Bss => "BSS".into(),
            WaitStrategy::Bsw => "BSW".into(),
            WaitStrategy::Bswy => "BSWY".into(),
            WaitStrategy::Bsls { max_spin } => format!("BSLS({max_spin})"),
            WaitStrategy::HandoffBswy => "HANDOFF".into(),
        }
    }
}

/// The pacing of every poll loop: counts the pauses of one wait and hands
/// each index to [`OsServices::poll_pause`], so a backend can pace by how
/// long *this* wait has lasted. A new wait starts a new `PollLoop`.
pub(crate) struct PollLoop<'a, O> {
    os: &'a O,
    attempt: u32,
}

impl<'a, O: OsServices> PollLoop<'a, O> {
    pub(crate) fn new(os: &'a O) -> Self {
        PollLoop { os, attempt: 0 }
    }

    /// One pacing step between two checks of the awaited condition.
    pub(crate) fn pause(&mut self) {
        self.os.poll_pause(self.attempt);
        self.attempt = self.attempt.saturating_add(1);
    }

    /// At most `max` pauses while `waiting` holds (budget checked first).
    pub(crate) fn pause_while(mut self, max: u32, mut waiting: impl FnMut() -> bool) {
        while self.attempt < max && waiting() {
            self.pause();
        }
    }
}

/// The blocking consumer skeleton shared by BSW, BSWY and BSLS (the wait
/// loops of Figs. 5/7/9):
///
/// ```text
/// while (!dequeue(Q, msg)) {
///     pre_block();                  // nothing (BSW) / busy_wait (BSWY, BSLS send side)
///     Q->awake = 0;
///     if (!dequeue(Q, msg)) {       // the re-check that closes Fig. 4's interleaving 4
///         P(Q->sem);                // sleep
///         Q->awake = 1;
///     } else {                      // reply arrived between check and sleep
///         if (tas(&Q->awake)) P(Q->sem);   // consume the stray wake-up (interleaving 3)
///         break;
///     }
/// }
/// ```
pub(crate) fn blocking_dequeue<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    mut pre_block: impl FnMut(),
) -> Message {
    loop {
        if let Some(m) = q.try_dequeue(os) {
            return m;
        }
        pre_block();
        q.clear_awake(os);
        match q.try_dequeue(os) {
            None => {
                os.record(ProtoEvent::BlockEntered);
                os.trace(TracePoint::Begin(Span::Block));
                os.sem_p(q.sem());
                q.set_awake(os);
                os.trace(TracePoint::End(Span::Block));
                // Loop: a wake-up promises work, but under multiple
                // producers another consumer iteration may be needed.
            }
            Some(m) => {
                // The producer may have seen awake == 0 and posted a V we
                // will never sleep for; absorb it so credits cannot
                // accumulate and overflow the semaphore (the bug the
                // authors hit).
                if q.tas_awake(os) {
                    os.record(ProtoEvent::StrayWakeupAbsorbed);
                    os.sem_p(q.sem());
                }
                return m;
            }
        }
    }
}

/// Producer-side enqueue with the paper's queue-full back-off:
/// `while (!enqueue(Q, msg)) sleep(1);`.
pub(crate) fn enqueue_or_sleep<O: OsServices>(q: &QueueRef<'_>, os: &O, msg: Message) {
    while !q.try_enqueue(os, msg) {
        os.sleep_full();
    }
}

/// A deadline anchored at its *first slow-path check*: creating one reads
/// no clock, so a bounded call that succeeds on its fast path (request
/// enqueued, reply already waiting) never pays for a timestamp. The first
/// [`Self::remaining`] call — made only once the caller is about to back
/// off or block — captures the start, and the timeout counts from there;
/// the fast-path work before it (a few queue operations) is the only time
/// the bound does not cover.
///
/// Arithmetic runs on [`OsServices::now_nanos`] — host time on native,
/// *virtual* time on the simulator — so simulated timeouts expire in
/// simulated time. On a backend without a clock the anchor stays `None`
/// and [`Self::remaining`] never expires; the per-wait `sem_p_deadline`
/// timeout is then the only bound.
pub(crate) struct Deadline {
    start: Cell<Option<u64>>,
    timeout: Duration,
}

impl Deadline {
    pub(crate) fn new(timeout: Duration) -> Self {
        Deadline {
            start: Cell::new(None),
            timeout,
        }
    }

    /// Time left before expiry; `None` once expired.
    pub(crate) fn remaining<O: OsServices>(&self, os: &O) -> Option<Duration> {
        let Some(now) = os.now_nanos() else {
            return Some(self.timeout);
        };
        let start = self.start.get().unwrap_or_else(|| {
            self.start.set(Some(now));
            now
        });
        self.timeout
            .checked_sub(Duration::from_nanos(now.saturating_sub(start)))
    }
}

/// The deadline-aware variant of [`blocking_dequeue`]: the same Fig. 5/7/9
/// skeleton, with three additions that all live off the fast path —
///
/// * the sticky poison flag is checked before committing to sleep (and on
///   every empty re-check), so a poisoned consumer can never block forever
///   waiting on a peer that is gone;
/// * the sleep itself is [`OsServices::sem_p_deadline`], which returns
///   `false` on expiry **without consuming a credit**; and
/// * on expiry the consumer restores its `awake` flag with a `tas` and, if
///   the flag was already raised by a racing producer (whose `V` is then
///   committed), absorbs the credit exactly like the stray-wake-up path of
///   the infallible skeleton — so a `V` racing a timeout never leaks a
///   credit into the semaphore.
pub(crate) fn blocking_dequeue_deadline<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    deadline: &Deadline,
    mut pre_block: impl FnMut(),
) -> Result<Message, IpcError> {
    loop {
        if let Some(m) = q.try_dequeue(os) {
            return Ok(m);
        }
        if q.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        pre_block();
        q.clear_awake(os);
        match q.try_dequeue(os) {
            None => {
                if q.is_poisoned() {
                    // Poisoning raised `awake` and posted its broadcast V
                    // *before* our clear; restore the flag and bail rather
                    // than sleeping on a channel nobody will ever V again.
                    restore_awake_absorbing_stray(q, os);
                    return Err(IpcError::Poisoned);
                }
                let Some(left) = deadline.remaining(os) else {
                    restore_awake_absorbing_stray(q, os);
                    return Err(IpcError::Timeout);
                };
                os.record(ProtoEvent::BlockEntered);
                os.trace(TracePoint::Begin(Span::Block));
                let taken = os.sem_p_deadline(q.sem(), left);
                if taken {
                    q.set_awake(os);
                    os.trace(TracePoint::End(Span::Block));
                    // Loop: the wake-up may be work, or the poison
                    // broadcast — the next iteration tells them apart.
                } else {
                    restore_awake_absorbing_stray(q, os);
                    os.trace(TracePoint::End(Span::Block));
                    return Err(if q.is_poisoned() {
                        IpcError::Poisoned
                    } else {
                        IpcError::Timeout
                    });
                }
            }
            Some(m) => {
                if q.tas_awake(os) {
                    os.record(ProtoEvent::StrayWakeupAbsorbed);
                    os.sem_p(q.sem());
                }
                return Ok(m);
            }
        }
    }
}

/// Exit path of a timed-out (or poison-interrupted) consumer whose `awake`
/// flag is still clear: `tas` it back up; if a producer beat us to the
/// flag its `V` is committed (the producer-side `wake_consumer` only posts
/// after winning the `tas`), so consume that credit with a `P` that can
/// only block momentarily. Net effect: timeout paths leave the semaphore
/// with exactly the credits of the infallible protocol.
fn restore_awake_absorbing_stray<O: OsServices>(q: &QueueRef<'_>, os: &O) {
    if q.tas_awake(os) {
        os.record(ProtoEvent::StrayWakeupAbsorbed);
        os.sem_p(q.sem());
    }
}

/// Deadline-aware producer enqueue: fails fast with
/// [`IpcError::Poisoned`] — a plain shared-memory load, no kernel entry —
/// and bounds the retries, `backoff` apart, by the deadline
/// ([`IpcError::QueueFull`]; nothing is in flight, so it is safe to
/// retry).
pub(crate) fn enqueue_deadline<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
    mut backoff: impl FnMut(),
) -> Result<(), IpcError> {
    loop {
        if q.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        if q.try_enqueue(os, msg) {
            return Ok(());
        }
        if deadline.remaining(os).is_none() {
            return Err(IpcError::QueueFull);
        }
        backoff();
    }
}

/// [`enqueue_deadline`] with the paper's queue-full back-off, `sleep(1)`.
pub(crate) fn enqueue_or_sleep_deadline<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
) -> Result<(), IpcError> {
    enqueue_deadline(q, os, msg, deadline, || os.sleep_full())
}

/// BSS-side deadline dequeue: the Fig. 1 spin loop with poison and expiry
/// checks folded into each iteration.
pub(crate) fn spin_dequeue_deadline<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let mut poll = PollLoop::new(os);
    loop {
        if let Some(m) = q.try_dequeue(os) {
            return Ok(m);
        }
        if q.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        if deadline.remaining(os).is_none() {
            return Err(IpcError::Timeout);
        }
        poll.pause();
    }
}
