//! The failure model: errors the fallible protocol surface can return,
//! and the fault-injection plan both backends honor.
//!
//! The paper's protocols assume both peers live forever; this module is
//! the repository's robustness layer on top of them. Three fault classes
//! are tolerated (see DESIGN.md, "Failure model"):
//!
//! * **deadline expiry** — a peer is merely slow; the `*_deadline` calls
//!   return [`IpcError::Timeout`] without consuming a semaphore credit,
//! * **peer death** — a task dies mid-protocol; the survivor detects it
//!   (liveness word in the queue's fault header) and *poisons* the
//!   channel, and
//! * **poisoning** — a sticky, one-way flag; every later fallible call on
//!   a poisoned queue fails fast with [`IpcError::Poisoned`] without
//!   entering the kernel.
//!
//! [`FaultPlan`] is the injection side: a deterministic description of
//! which task dies (or is delayed, or loses a wakeup) at which protocol
//! operation, honored by the simulator's scenario tasks and by the native
//! fault harness alike, so the explorer can *prove* over a bounded
//! interleaving space that every kill point ends in `PeerDead`/`Timeout`
//! — never a deadlock.

use crate::channel::QueueRef;
use crate::platform::OsServices;
use core::sync::atomic::{AtomicU64, Ordering};

/// Arms a queue's consumer-liveness word against the owning thread dying
/// by panic: construct one at the top of the consumer's body, and if the
/// thread unwinds (a native kill is injected as a panic) the guard's
/// `Drop` marks the consumer dead and poisons the queue on the way out —
/// the shared-memory tombstone survivors detect. A normal return disarms
/// nothing: the guard only acts when [`std::thread::panicking`].
pub struct DeathWatch<'a, O: OsServices> {
    q: QueueRef<'a>,
    os: &'a O,
}

impl<'a, O: OsServices> DeathWatch<'a, O> {
    /// Watches `q`'s consumer (the calling thread) for death-by-unwind.
    pub fn arm(q: QueueRef<'a>, os: &'a O) -> Self {
        DeathWatch { q, os }
    }
}

impl<O: OsServices> Drop for DeathWatch<'_, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.q.mark_consumer_dead(self.os);
        }
    }
}

/// The server-side counterpart of [`DeathWatch`]: arms a whole
/// [`Channel`](crate::Channel) against the server thread dying by panic.
/// On unwind it runs
/// [`Channel::tombstone_server`](crate::Channel::tombstone_server) —
/// marking the server dead and poisoning every queue — so all clients
/// fail fast rather than each having to ride out a deadline.
pub struct ServerDeathWatch<'a, O: OsServices> {
    ch: &'a crate::Channel,
    os: &'a O,
}

impl<'a, O: OsServices> ServerDeathWatch<'a, O> {
    /// Watches `ch`'s server (the calling thread) for death-by-unwind.
    pub fn arm(ch: &'a crate::Channel, os: &'a O) -> Self {
        ServerDeathWatch { ch, os }
    }
}

impl<O: OsServices> Drop for ServerDeathWatch<'_, O> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ch.tombstone_server(self.os);
        }
    }
}

/// Why a fallible IPC operation failed.
///
/// The `*_deadline` calls return these. The classic surface (`call`,
/// `receive`, `reply`, …) is the same code with no deadline: it can only
/// meet [`IpcError::Poisoned`] / [`IpcError::PeerDead`], and panics with
/// it or drops the reply (see [`protocol`](crate::protocol)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcError {
    /// The deadline expired before the operation completed. No semaphore
    /// credit was consumed and no message was lost: the call may simply
    /// be retried.
    Timeout,
    /// The peer on the other end of the channel was detected dead (its
    /// liveness word went stale or its death was marked explicitly). The
    /// channel has been poisoned.
    PeerDead,
    /// The channel was already poisoned by an earlier fault. Rejected
    /// immediately, without entering the kernel.
    Poisoned,
    /// The bounded queue was full and the deadline expired before space
    /// appeared.
    QueueFull,
    /// The segment's generation epoch has moved past this channel's stamp:
    /// the server died and a successor took the arena over (or the channel
    /// was abandoned during recovery). The endpoint's view of the segment
    /// is from a previous incarnation — re-attach and re-validate instead
    /// of operating on reincarnated state.
    StaleGeneration,
    /// `call_retry` exhausted its attempt budget: every attempt timed out
    /// and the backoff schedule ran dry. The reply queue has been poisoned
    /// (a late reply can no longer be matched to a live attempt).
    RetriesExhausted,
}

impl core::fmt::Display for IpcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            IpcError::Timeout => "deadline expired",
            IpcError::PeerDead => "peer died mid-protocol",
            IpcError::Poisoned => "channel is poisoned",
            IpcError::QueueFull => "queue full past deadline",
            IpcError::StaleGeneration => "segment generation moved past this endpoint",
            IpcError::RetriesExhausted => "retry budget exhausted",
        })
    }
}

impl std::error::Error for IpcError {}

/// What a [`FaultPlan`] does to its victim when the trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The victim task dies (returns/unwinds) at the trigger point.
    Kill,
    /// The victim stalls for the given number of nanoseconds (virtual on
    /// the simulator, wall-clock on native) at the trigger point, then
    /// continues — long enough to trip a peer's deadline.
    DelayNanos(u64),
    /// The victim's next wakeup `V` is swallowed at the trigger point
    /// (models a lost wakeup; only survivable because poisoning
    /// broadcasts).
    DropWakeup,
}

/// A deterministic fault-injection plan: *task `victim` suffers `action`
/// at its `at_op`-th counted protocol operation*.
///
/// The plan itself is passive — protocol code never consults it. Harness
/// task bodies (simulated scenarios and the native fault harness) call
/// [`FaultPlan::fire`] at their counted fault points and act on the
/// decision, which keeps the fast path of the protocols completely
/// untouched by injection.
///
/// The op counter is shared (one `AtomicU64` per plan), so a plan is
/// cheaply cloneable across the threads of one experiment.
#[derive(Debug)]
pub struct FaultPlan {
    /// Platform task number of the victim.
    pub victim: u32,
    /// Fire at the victim's `at_op`-th fault point (0-based).
    pub at_op: u64,
    /// What happens at the trigger.
    pub action: FaultAction,
    ops: AtomicU64,
}

impl FaultPlan {
    /// A plan that kills `victim` at its `at_op`-th fault point.
    pub fn kill(victim: u32, at_op: u64) -> Self {
        FaultPlan::new(victim, at_op, FaultAction::Kill)
    }

    /// A plan with an arbitrary action.
    pub fn new(victim: u32, at_op: u64, action: FaultAction) -> Self {
        FaultPlan {
            victim,
            at_op,
            action,
            ops: AtomicU64::new(0),
        }
    }

    /// Counted fault point: task `task` asks whether the fault fires
    /// *here*. Returns `Some(action)` exactly once — at the victim's
    /// `at_op`-th call — and `None` everywhere else.
    pub fn fire(&self, task: u32) -> Option<FaultAction> {
        if task != self.victim {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        (n == self.at_op).then_some(self.action)
    }

    /// How many fault points the victim has passed so far (used by
    /// sweeps to size the kill-op space: run once fault-free, read the
    /// count, then sweep `at_op` over `0..count`).
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_fires_exactly_once_at_the_chosen_op() {
        let plan = FaultPlan::kill(3, 2);
        assert_eq!(plan.fire(1), None); // wrong task: not even counted
        assert_eq!(plan.fire(3), None); // op 0
        assert_eq!(plan.fire(3), None); // op 1
        assert_eq!(plan.fire(3), Some(FaultAction::Kill)); // op 2
        assert_eq!(plan.fire(3), None); // past it: never again
        assert_eq!(plan.ops_seen(), 4);
    }

    #[test]
    fn ipc_error_displays_are_distinct() {
        let all = [
            IpcError::Timeout,
            IpcError::PeerDead,
            IpcError::Poisoned,
            IpcError::QueueFull,
            IpcError::StaleGeneration,
            IpcError::RetriesExhausted,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.to_string(), b.to_string());
            }
        }
    }
}
