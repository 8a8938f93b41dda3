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
//! Each module implements the paper's `Send`/`Receive`/`Reply` triple
//! **once**, over the [`QueueRef`] primitives and a [`Deadline`]. The
//! blocking consumer skeleton — double-checked dequeue around clearing the
//! `awake` flag, with the `tas` fix-ups for the races of Fig. 4 — is the
//! one `blocking_dequeue` (crate-internal) below.
//!
//! ## Infallible = no deadline
//!
//! The paper's calls never fail; a production caller wants a bound. Both
//! are the same code: [`WaitStrategy::send`] is
//! [`WaitStrategy::send_deadline`] under [`Deadline::never`], which reads
//! no clock and sleeps with the plain `P`. What the unbounded form does
//! with the one error it can still meet is stated here, once:
//!
//! * it sees poison **on the slow path only** — a consumer after a failed
//!   dequeue, a producer before each enqueue attempt; one load of the
//!   queue's read-mostly fault line, no clock, no `sem_p_deadline`;
//! * `send`/`receive` (and `call`, which fronts them) then **panic**,
//!   naming the [`IpcError`], instead of sleeping forever on a channel
//!   that was declared dead;
//! * `reply` **drops and counts** the message
//!   ([`ProtoEvent::ReplyDropped`]): the client it was for is gone.

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
    ///
    /// # Panics
    ///
    /// If the channel is poisoned under the call (module docs).
    pub fn send<O: OsServices>(self, ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
        self.send_by(ch, os, client, msg, &Deadline::never())
            .unwrap_or_else(|e| dead_channel("Send", e))
    }

    /// Server `Receive`: wait for the next request.
    ///
    /// # Panics
    ///
    /// If the receive queue is poisoned under the call (module docs).
    pub fn receive<O: OsServices>(self, ch: &Channel, os: &O) -> Message {
        self.receive_by(ch, os, &Deadline::never())
            .unwrap_or_else(|e| dead_channel("Receive", e))
    }

    /// Server `Reply` to client `c`. A reply queue poisoned under the call
    /// drops the message and counts it (module docs).
    pub fn reply<O: OsServices>(self, ch: &Channel, os: &O, c: u32, msg: Message) {
        let sent = self.reply_by(&ch.reply_queue(c), os, msg, &Deadline::never());
        if sent.is_err() {
            os.record(ProtoEvent::ReplyDropped);
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
        self.send_by(ch, os, client, msg, &Deadline::new(timeout))
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
        self.receive_by(ch, os, &Deadline::new(timeout))
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
        self.reply_by(&ch.reply_queue(c), os, msg, &Deadline::new(timeout))
    }

    /// `Send` under `deadline`: the body of both fronts above.
    pub(crate) fn send_by<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        client: u32,
        msg: Message,
        deadline: &Deadline,
    ) -> Result<Message, IpcError> {
        match self {
            WaitStrategy::Bss => bss::send(ch, os, client, msg, deadline),
            WaitStrategy::Bsw => bsw::send(ch, os, client, msg, deadline),
            WaitStrategy::Bswy => bswy::send(ch, os, client, msg, deadline),
            WaitStrategy::Bsls { max_spin } => bsls::send(ch, os, client, msg, max_spin, deadline),
            WaitStrategy::HandoffBswy => handoff::send(ch, os, client, msg, deadline),
        }
    }

    /// `Receive` under `deadline`.
    pub(crate) fn receive_by<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        deadline: &Deadline,
    ) -> Result<Message, IpcError> {
        match self {
            WaitStrategy::Bss => bss::receive(ch, os, deadline),
            WaitStrategy::Bsw => bsw::receive(ch, os, deadline),
            WaitStrategy::Bswy => bswy::receive(ch, os, deadline),
            WaitStrategy::Bsls { max_spin } => bsls::receive(ch, os, max_spin, deadline),
            WaitStrategy::HandoffBswy => handoff::receive(ch, os, deadline),
        }
    }

    /// `Reply` on the client's reply queue `rq` under `deadline`. Every
    /// blocking protocol replies the way BSW does; only BSS, which never
    /// wakes anyone, differs.
    pub(crate) fn reply_by<O: OsServices>(
        self,
        rq: &QueueRef<'_>,
        os: &O,
        msg: Message,
        deadline: &Deadline,
    ) -> Result<(), IpcError> {
        match self {
            WaitStrategy::Bss => bss::reply(rq, os, msg, deadline),
            WaitStrategy::Bsw
            | WaitStrategy::Bswy
            | WaitStrategy::Bsls { .. }
            | WaitStrategy::HandoffBswy => bsw::reply(rq, os, msg, deadline),
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

/// Where an unbounded `Send`/`Receive`/`call` ends when its channel is
/// declared dead under it (module docs): nothing can expire, so `e` is
/// [`IpcError::Poisoned`] or its root cause [`IpcError::PeerDead`].
pub(crate) fn dead_channel(op: &str, e: IpcError) -> ! {
    panic!("{op} without a deadline on a dead channel: {e}")
}

/// One client round trip: runs `f` inside a [`Span::RoundTrip`] trace span
/// and, when the backend collects metrics, times one call in
/// [`OsServices::latency_sample_period`] — a sink's first, then every
/// period-th — feeding the duration of a timed call that succeeds to the
/// endpoint's latency histogram (host time on native, virtual time on the
/// simulator, whose period is 1). An untimed call reads no clock.
pub(crate) fn round_trip<O: OsServices>(
    os: &O,
    f: impl FnOnce() -> Result<Message, IpcError>,
) -> Result<Message, IpcError> {
    let sink = os
        .metrics()
        .filter(|m| m.latency_sample_due(os.latency_sample_period()));
    let start = sink.and_then(|_| os.now_nanos());
    os.trace(TracePoint::Begin(Span::RoundTrip));
    let out = f();
    os.trace(TracePoint::End(Span::RoundTrip));
    if let (Ok(_), Some(t0), Some(m)) = (&out, start, sink) {
        if let Some(t1) = os.now_nanos() {
            m.record_latency_nanos(t1.saturating_sub(t0));
        }
    }
    out
}

/// The verdict of a client call whose reply wait failed with `e` while
/// its request was (or may have been) in flight — one classification for
/// every client front. `srv` is the queue the server consumes, `rq` the
/// caller's own reply queue.
///
/// * [`IpcError::Timeout`]: the reply never came. The liveness word tells
///   a dead server from a slow one; then what is now indeterminate is
///   poisoned — the caller's reply queue (a late reply would desynchronize
///   it; `poison_on_timeout` lets a retrying caller keep it), and the
///   shared receive queue too when the server is gone, so every client
///   fails fast.
/// * [`IpcError::Poisoned`]: poison raced in mid-call; if it stems from a
///   marked death, report the root cause.
pub(crate) fn call_failed<O: OsServices>(
    os: &O,
    srv: &QueueRef<'_>,
    rq: &QueueRef<'_>,
    e: IpcError,
    poison_on_timeout: bool,
) -> IpcError {
    match e {
        IpcError::Timeout | IpcError::Poisoned if !srv.consumer_alive() => {
            os.record(ProtoEvent::PeerDeathDetected);
            if e == IpcError::Timeout {
                rq.poison(os);
                srv.poison(os);
            }
            IpcError::PeerDead
        }
        IpcError::Timeout if poison_on_timeout => {
            rq.poison(os);
            e
        }
        e => e,
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

    /// One pacing step between two checks of the awaited condition, which
    /// it watches (uncharged) as `ready`.
    pub(crate) fn pause(&mut self, ready: impl FnMut() -> bool) {
        self.os.poll_pause(self.attempt, ready);
        self.attempt = self.attempt.saturating_add(1);
    }
}

/// How long a wait may last: a timeout, or no bound at all
/// ([`Deadline::never`] — the paper's infallible calls).
///
/// A bounded deadline is anchored at its *first slow-path check*: creating
/// one reads no clock, so a bounded call that succeeds on its fast path
/// (request enqueued, reply already waiting) never pays for a timestamp.
/// The first `remaining` check — made only once the caller is about
/// to back off or block — captures the start, and the timeout counts from
/// there; the fast-path work before it (a few queue operations) is the
/// only time the bound does not cover.
///
/// Arithmetic runs on [`OsServices::now_nanos`] — host time on native,
/// *virtual* time on the simulator — so simulated timeouts expire in
/// simulated time. On a backend without a clock the anchor stays `None`
/// and the deadline never expires; the per-wait `sem_p_deadline`
/// timeout is then the only bound. An unbounded deadline reads no clock
/// at all, ever.
#[derive(Debug)]
pub struct Deadline {
    start: Cell<Option<u64>>,
    timeout: Option<Duration>,
}

impl Deadline {
    /// Expires `timeout` after the wait's first slow-path check.
    pub fn new(timeout: Duration) -> Self {
        Self::within(Some(timeout))
    }

    /// Never expires.
    pub fn never() -> Self {
        Self::within(None)
    }

    /// [`Self::new`] for `Some`, [`Self::never`] for `None` — the form a
    /// server loop with an optional heartbeat holds.
    pub fn within(timeout: Option<Duration>) -> Self {
        Deadline {
            start: Cell::new(None),
            timeout,
        }
    }

    /// What is left before expiry; `None` once expired.
    pub(crate) fn remaining<O: OsServices>(&self, os: &O) -> Option<Left> {
        let Some(timeout) = self.timeout else {
            return Some(Left(None));
        };
        let Some(now) = os.now_nanos() else {
            return Some(Left(Some(timeout)));
        };
        let start = self.start.get().unwrap_or_else(|| {
            self.start.set(Some(now));
            now
        });
        timeout
            .checked_sub(Duration::from_nanos(now.saturating_sub(start)))
            .map(|left| Left(Some(left)))
    }
}

/// What [`Deadline::remaining`] leaves for the next sleep: a duration, or
/// (`None`) no bound.
pub(crate) struct Left(Option<Duration>);

impl Left {
    /// `P(sem)` for at most this long. `false` means the wait expired and
    /// — the [`OsServices::sem_p_deadline`] contract — **consumed no
    /// credit**. With no bound this is the plain [`OsServices::sem_p`],
    /// never a `sem_p_deadline` with a huge timeout: every backend sees
    /// exactly the call the paper's figure makes.
    pub(crate) fn sem_p<O: OsServices>(self, os: &O, sem: u32) -> bool {
        match self.0 {
            Some(left) => os.sem_p_deadline(sem, left),
            None => {
                os.sem_p(sem);
                true
            }
        }
    }
}

/// Fig. 5's `if (tas(awake)) P` for every wait loop, channel and WaitSet,
/// once the waiter that cleared its flag will not sleep on it: `tas` is
/// the old value its `tas` of the flag returned. A raised flag means a
/// committed `V`: take its credit, waiting at most what is left of
/// `deadline` (not at all once it expired, without bound under
/// [`Deadline::never`]). Returns whether a
/// credit was taken; one given up on (its producer slow, or killed between
/// its `tas` and its `V`) stays banked, *stale*: the next `P` returns at
/// once.
pub(crate) fn take_back<O: OsServices>(os: &O, tas: bool, sem: u32, deadline: &Deadline) -> bool {
    tas && match deadline.remaining(os) {
        Some(left) => left.sem_p(os, sem),
        None => os.sem_p_deadline(sem, Duration::ZERO),
    }
}

/// The blocking consumer skeleton shared by BSW, BSWY and BSLS (the wait
/// loops of Figs. 5/7/9) — the only copy of it:
///
/// ```text
/// while (!dequeue(Q, msg)) {
///     pre_block();                  // nothing (BSW) / busy_wait watching Q (BSWY, BSLS send side)
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
///
/// The failure model adds three things, all off the fast path (a dequeue
/// that succeeds at once touches none of them) —
///
/// * the sticky poison flag is checked before committing to sleep (and on
///   every empty re-check), so a poisoned consumer can never block forever
///   waiting on a peer that is gone;
/// * the sleep is bounded by what is left of `deadline` ([`Left::sem_p`]),
///   and an expired sleep has consumed no credit; and
/// * on expiry the consumer restores its `awake` flag with a `tas` and, if
///   a racing producer raised it first (its `V` is then committed), absorbs
///   the credit like a stray wake-up, within the deadline ([`take_back`]) —
///   so a `V` racing a timeout never leaks a credit into the semaphore.
pub(crate) fn blocking_dequeue<O: OsServices>(
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
                    restore_awake(q, os, deadline);
                    return Err(IpcError::Poisoned);
                }
                let Some(left) = deadline.remaining(os) else {
                    restore_awake(q, os, deadline);
                    return Err(IpcError::Timeout);
                };
                os.record(ProtoEvent::BlockEntered);
                os.trace(TracePoint::Begin(Span::Block));
                let taken = left.sem_p(os, q.sem());
                if taken {
                    q.set_awake(os);
                    os.trace(TracePoint::End(Span::Block));
                    // Loop: the wake-up may be work — under multiple
                    // producers another iteration may be needed — or the
                    // poison broadcast; the next iteration tells them apart.
                } else {
                    restore_awake(q, os, deadline);
                    os.trace(TracePoint::End(Span::Block));
                    return Err(if q.is_poisoned() {
                        IpcError::Poisoned
                    } else {
                        IpcError::Timeout
                    });
                }
            }
            Some(m) => {
                // The producer may have seen awake == 0 and posted a V we
                // will never sleep for; absorb it so credits cannot
                // accumulate and overflow the semaphore (the bug the
                // authors hit).
                restore_awake(q, os, deadline);
                return Ok(m);
            }
        }
    }
}

/// Exit path of a consumer whose `awake` flag is still clear: `tas` it
/// back up and, if a producer beat us to the flag (`wake_consumer` posts
/// only after winning the `tas`), absorb its credit ([`take_back`]).
fn restore_awake<O: OsServices>(q: &QueueRef<'_>, os: &O, deadline: &Deadline) {
    if take_back(os, q.tas_awake(os), q.sem(), deadline) {
        os.record(ProtoEvent::StrayWakeupAbsorbed);
    }
}

/// Producer-side enqueue: fails fast with [`IpcError::Poisoned`] — a plain
/// shared-memory load, no kernel entry — and bounds the retries, `backoff`
/// apart, by the deadline ([`IpcError::QueueFull`]; nothing is in flight,
/// so it is safe to retry).
pub(crate) fn enqueue<O: OsServices>(
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

/// [`enqueue`] with the paper's queue-full back-off:
/// `while (!enqueue(Q, msg)) sleep(1);`.
pub(crate) fn enqueue_or_sleep<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
) -> Result<(), IpcError> {
    enqueue(q, os, msg, deadline, || os.sleep_full())
}
