//! `usipc::recover` — segment-level arena fsck and generational server
//! takeover.
//!
//! The failure model so far (DESIGN.md §9) let *survivors* fail fast when
//! a peer died: sticky poison, bounded lock acquisitions, drains that
//! count what they strand. This module adds the other half — a
//! **successor** that inherits a crashed server's shared segment, audits
//! and repairs every structure in it, and resumes service under a new
//! *generation* of the segment:
//!
//! 1. [`ArenaFsck`] walks one channel's worth of segment state — receive
//!    queue, every reply queue, the `awake` flags, the semaphore
//!    credits — and repairs what a SIGKILL left torn, producing
//!    a typed [`FsckReport`] with a message-conservation [`Ledger`]:
//!    committed (published) requests and replies survive in place,
//!    uncommitted ones are reclaimed with exact counts, and every client
//!    parked mid-call receives exactly one verdict (served later, reply
//!    ready, or a [`DROPPED`](crate::msg::opcode::DROPPED) notice).
//! 2. [`take_over`] wraps the fsck in the generational protocol: bump the
//!    segment generation *first* (fencing every stale handle into
//!    [`IpcError::StaleGeneration`](crate::fault::IpcError::StaleGeneration)
//!    before any repair becomes observable), revalidate the successor's
//!    own handle, then repair.
//! 3. [`take_over_and_serve`] re-arms a
//!    [`ServerDeathWatch`](crate::fault::ServerDeathWatch) and resumes
//!    [`run_resilient_server`](crate::run_resilient_server) on the
//!    repaired channel.
//!
//! ## The quiescence contract
//!
//! Fsck is **not** concurrent with the structures it repairs. It must run
//! only when the dead incarnation's server is gone and every surviving
//! client is either parked in the kernel awaiting a reply, or failing
//! fast on poison/staleness — i.e. nobody else mutates the segment while
//! the successor audits it. This is the same precondition a filesystem
//! fsck has (unmounted disk), and the takeover harness enforces it: the
//! kill happens while clients are blocked, and the generation bump fences
//! fallible callers before any lock is broken.
//!
//! ## Commit semantics
//!
//! A message is **committed** once it is reachable by the consumer
//! without any cooperation from its (possibly dead) producer: linked into
//! the two-lock chain (even if the tail pointer or count was never
//! updated), or published in the ring (sequence stamped), including
//! values stranded under a dead consumer's half-finished dequeue.
//! Everything else — a two-lock node allocated but never linked, a ring
//! ticket claimed but never published (with or without its words already
//! in the slot) — is **uncommitted** and is reclaimed, never invented.
//! A message lives in its queue's own node or slot, so these two are the
//! only allocations a message can strand: the queue-level fsck accounts
//! for all of them (`nodes_reclaimed`, `holes_retired`) and there is no
//! separate message store to audit. Committed messages are left *in place*: the
//! successor serves them through the ordinary receive path, which is what
//! keeps the paper's four-semaphore-ops-per-round-trip BSW accounting
//! intact across a takeover.
//!
//! ## Why repairs are conditional
//!
//! Every repair tests before it writes (compare-and-swap on lock words,
//! load-before-store everywhere else), so fscking a clean segment is a
//! *byte-level no-op* — provable by comparing
//! [`ShmArena::snapshot_bytes`](usipc_shm::ShmArena::snapshot_bytes)
//! before and after, which the idempotence tests do. That is what makes
//! it safe to run fsck defensively: a pass over a healthy segment costs
//! reads, not risk.

use crate::channel::Channel;
use crate::fault::ServerDeathWatch;
use crate::metrics::ProtoEvent;
use crate::msg::{opcode, Message};
use crate::platform::OsServices;
use crate::protocol::WaitStrategy;
use crate::server::{run_resilient_server, ServerRun};
use core::time::Duration;
use usipc_queue::FifoFsck;

/// Per-queue slice of a [`FsckReport`].
///
/// `structural_repairs` is the underlying FIFO fsck's own repair count
/// (broken locks, re-aimed tail, retired holes, reclaimed nodes, …);
/// `holes_retired` and `nodes_reclaimed` break out the two classes the
/// ledger and telemetry track individually.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueReport {
    /// Committed messages that survived, left queued for the successor.
    pub committed: u32,
    /// Repairs performed by the FIFO-level fsck
    /// ([`FifoView::fsck`](usipc_queue::FifoView::fsck)).
    pub structural_repairs: u32,
    /// Ring slots retired out of dead producers'/consumers' stranded
    /// tickets (a subset of `structural_repairs`).
    pub holes_retired: u32,
    /// Two-lock nodes reclaimed because a producer died before linking
    /// them (a subset of `structural_repairs`).
    pub nodes_reclaimed: u32,
    /// The `awake` flag was down (consumer died between announcing sleep
    /// and its `P`) and was restored.
    pub awake_restored: bool,
    /// The fault words (sticky poison, liveness) were reset for the new
    /// incarnation.
    pub fault_reset: bool,
    /// Stray semaphore credits absorbed from this queue's semaphore.
    pub credits_absorbed: u32,
    /// A committed reply's wake-up was re-delivered (the server died
    /// between enqueueing the reply and posting the `V`).
    pub rewoken: bool,
}

impl QueueReport {
    /// Individual repairs on this queue, **excluding** absorbed credits
    /// (counted separately — they are kernel wake state, not segment
    /// structure).
    pub fn repairs(&self) -> u32 {
        self.structural_repairs
            + u32::from(self.awake_restored)
            + u32::from(self.fault_reset)
            + u32::from(self.rewoken)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"committed\":{},\"structural_repairs\":{},\"holes_retired\":{},\
             \"nodes_reclaimed\":{},\"awake_restored\":{},\"fault_reset\":{},\
             \"credits_absorbed\":{},\"rewoken\":{}}}",
            self.committed,
            self.structural_repairs,
            self.holes_retired,
            self.nodes_reclaimed,
            self.awake_restored,
            self.fault_reset,
            self.credits_absorbed,
            self.rewoken
        )
    }
}

fn queue_report(f: &FifoFsck) -> QueueReport {
    QueueReport {
        committed: f.values.len() as u32,
        structural_repairs: f.repairs,
        holes_retired: f.holes_retired,
        nodes_reclaimed: f.nodes_reclaimed,
        ..QueueReport::default()
    }
}

/// The message-conservation ledger: every client the crash caught
/// mid-call is accounted for with exactly one verdict, and every
/// reclaimed allocation is counted. [`Ledger::balanced`] is the takeover
/// drill's acceptance check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Clients found parked mid-call (reply-queue `awake` flag down).
    pub in_flight: u32,
    /// In-flight clients whose request survived in the receive queue —
    /// the successor will serve them normally.
    pub served_by_request: u32,
    /// In-flight clients whose reply was already committed — the wake-up
    /// was re-delivered and they complete without the successor's help.
    pub served_by_reply: u32,
    /// In-flight clients with *no* surviving message: their request died
    /// uncommitted, and a [`DROPPED`](crate::msg::opcode::DROPPED) notice
    /// was delivered so they unblock with a definite verdict.
    pub drop_notices: u32,
    /// In-flight clients left without a verdict (notice enqueue failed,
    /// or notices were disabled). Non-zero means NOT balanced.
    pub unresolved: u32,
    /// Committed requests surviving in the receive queue (any client).
    pub requests_committed: u32,
    /// Committed replies surviving in reply queues (any client).
    pub replies_committed: u32,
    /// Uncommitted two-lock queue nodes reclaimed across all queues (the
    /// ring's uncommitted tickets are [`FsckReport::holes_retired`]).
    pub nodes_reclaimed: u32,
}

impl Ledger {
    /// Conservation holds: committed messages plus counted drops cover
    /// every in-flight client, with nobody left in limbo.
    pub fn balanced(&self) -> bool {
        self.unresolved == 0
            && self.in_flight == self.served_by_request + self.served_by_reply + self.drop_notices
    }

    fn to_json(self) -> String {
        format!(
            "{{\"in_flight\":{},\"served_by_request\":{},\"served_by_reply\":{},\
             \"drop_notices\":{},\"unresolved\":{},\"requests_committed\":{},\
             \"replies_committed\":{},\"nodes_reclaimed\":{},\"balanced\":{}}}",
            self.in_flight,
            self.served_by_request,
            self.served_by_reply,
            self.drop_notices,
            self.unresolved,
            self.requests_committed,
            self.replies_committed,
            self.nodes_reclaimed,
            self.balanced()
        )
    }
}

/// What one [`ArenaFsck::run`] found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Segment generation the repairs ran under (post-bump when invoked
    /// via [`take_over`]).
    pub generation: u32,
    /// The server receive queue's slice.
    pub receive: QueueReport,
    /// One slice per reply queue, indexed by client id.
    pub replies: Vec<QueueReport>,
    /// The conservation ledger.
    pub ledger: Ledger,
}

impl FsckReport {
    /// Total individual repairs (segment structure only; absorbed credits
    /// are reported by [`Self::credits_absorbed`]).
    pub fn repairs(&self) -> u32 {
        self.receive.repairs() + self.replies.iter().map(QueueReport::repairs).sum::<u32>()
    }

    /// Stray semaphore credits absorbed across every queue.
    pub fn credits_absorbed(&self) -> u32 {
        self.receive.credits_absorbed + self.replies.iter().map(|r| r.credits_absorbed).sum::<u32>()
    }

    /// Ring holes retired across every queue.
    pub fn holes_retired(&self) -> u32 {
        self.receive.holes_retired + self.replies.iter().map(|r| r.holes_retired).sum::<u32>()
    }

    /// A clean pass: nothing repaired, nothing absorbed, nobody dropped.
    pub fn is_clean(&self) -> bool {
        self.repairs() == 0
            && self.credits_absorbed() == 0
            && self.ledger.drop_notices == 0
            && self.ledger.unresolved == 0
    }

    /// Serializes the report as one JSON object (no external crates; the
    /// chaos harness embeds this in its results file and CI validates it).
    pub fn to_json(&self) -> String {
        let replies: Vec<String> = self.replies.iter().map(QueueReport::to_json).collect();
        format!(
            "{{\"generation\":{},\"repairs\":{},\"credits_absorbed\":{},\
             \"holes_retired\":{},\"clean\":{},\"receive\":{},\"replies\":[{}],\
             \"ledger\":{}}}",
            self.generation,
            self.repairs(),
            self.credits_absorbed(),
            self.holes_retired(),
            self.is_clean(),
            self.receive.to_json(),
            replies.join(","),
            self.ledger.to_json()
        )
    }
}

/// The segment auditor: configure, then [`run`](Self::run).
///
/// Defaults break provably-abandoned locks and issue drop notices; both
/// can be disabled (a diagnostics pass over a segment whose owner might
/// still be alive should do neither).
pub struct ArenaFsck<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    break_locks: bool,
    drop_notices: bool,
}

impl<'a, O: OsServices> ArenaFsck<'a, O> {
    /// An auditor over `ch`'s segment with default policy (break
    /// abandoned locks, issue drop notices).
    pub fn new(ch: &'a Channel, os: &'a O) -> Self {
        ArenaFsck {
            ch,
            os,
            break_locks: true,
            drop_notices: true,
        }
    }

    /// Whether to break spinlocks held by provably-dead owners. Only
    /// sound under the quiescence contract (a lock's holder being dead is
    /// exactly what quiescence guarantees for any held in-segment lock).
    #[must_use]
    pub fn break_locks(mut self, yes: bool) -> Self {
        self.break_locks = yes;
        self
    }

    /// Whether to deliver [`DROPPED`](crate::msg::opcode::DROPPED)
    /// notices to clients whose in-flight request did not survive.
    /// Disabled, such clients are counted as [`Ledger::unresolved`].
    #[must_use]
    pub fn drop_notices(mut self, yes: bool) -> Self {
        self.drop_notices = yes;
        self
    }

    /// Audits and repairs the channel's segment state. See the module
    /// docs for the quiescence contract and commit semantics.
    pub fn run(&self) -> FsckReport {
        let (ch, os) = (self.ch, self.os);
        let arena = ch.arena();
        let n = ch.n_clients();
        let mut report = FsckReport {
            generation: arena.generation(),
            ..FsckReport::default()
        };

        // 1. Receive queue: structural fsck. Committed requests stay
        //    queued; remember which clients they belong to.
        let rcv = ch.receive_queue();
        let rf = rcv.fsck_fifo(self.break_locks);
        let mut has_request = vec![false; n as usize];
        for &words in &rf.values {
            // A client wrote `channel`: out of range is nobody's request.
            if let Some(slot) = has_request.get_mut(Message::from_words(words).channel as usize) {
                *slot = true;
            }
        }
        let mut rcv_rep = queue_report(&rf);
        report.ledger.requests_committed = rcv_rep.committed;
        report.ledger.nodes_reclaimed += rcv_rep.nodes_reclaimed;

        // 2. Reply queues: structural fsck. Committed replies stay queued.
        let mut reply_reps = Vec::with_capacity(n as usize);
        for c in 0..n {
            let qr = queue_report(&ch.reply_queue(c).fsck_fifo(self.break_locks));
            report.ledger.replies_committed += qr.committed;
            report.ledger.nodes_reclaimed += qr.nodes_reclaimed;
            reply_reps.push(qr);
        }

        // 3. Receive-side wake state: with its consumer dead, every
        //    banked credit on the server semaphore is a stray (absorbing
        //    them cannot deadlock the successor: the receive loop drains
        //    a non-empty queue *before* it ever blocks on a `P`). Then
        //    raise `awake` back to the created state and reincarnate the
        //    fault words.
        while os.sem_p_deadline(rcv.sem(), Duration::ZERO) {
            rcv_rep.credits_absorbed += 1;
            os.record(ProtoEvent::CreditAbsorbed);
        }
        rcv_rep.awake_restored = rcv.restore_awake();
        rcv_rep.fault_reset = rcv.reset_fault_state();
        report.receive = rcv_rep;

        // 4. Per-client verdicts and reply-side wake state. A client with
        //    its `awake` flag down is parked mid-call; conservation means
        //    it gets exactly one verdict.
        for c in 0..n {
            let rq = ch.reply_queue(c);
            let qr = &mut reply_reps[c as usize];
            qr.fault_reset = rq.reset_fault_state();
            if rq.awake_down() {
                report.ledger.in_flight += 1;
                if qr.committed > 0 {
                    // The reply is committed but the server may have died
                    // between the enqueue and the wake-up `V`: re-deliver
                    // it. At worst this banks one stray credit, which the
                    // client's tas-guarded `P` absorbs (the same Fig. 4
                    // interleaving-3 machinery as a live run).
                    rq.wake_consumer(os);
                    qr.rewoken = true;
                    report.ledger.served_by_reply += 1;
                } else if has_request[c as usize] {
                    // Request survived; the successor serves it normally.
                    report.ledger.served_by_request += 1;
                } else if self.drop_notices {
                    let notice = Message {
                        opcode: opcode::DROPPED,
                        channel: c,
                        value: report.generation as f64,
                        aux: 1,
                    };
                    if rq.try_enqueue(os, notice) {
                        rq.wake_consumer(os);
                        report.ledger.drop_notices += 1;
                    } else {
                        report.ledger.unresolved += 1;
                    }
                } else {
                    report.ledger.unresolved += 1;
                }
            } else if qr.committed == 0 {
                // Idle client: any banked credit is a stray (e.g. the old
                // incarnation's poison broadcast posted an unconditional
                // `V` nobody consumed).
                while os.sem_p_deadline(rq.sem(), Duration::ZERO) {
                    qr.credits_absorbed += 1;
                    os.record(ProtoEvent::CreditAbsorbed);
                }
            }
            // A client that is awake *with* a committed reply is mid-
            // consume; leave its semaphore strictly alone.
        }
        report.replies = reply_reps;

        for _ in 0..report.holes_retired() {
            os.record(ProtoEvent::HoleRetired);
        }
        for _ in 0..report.repairs() {
            os.record(ProtoEvent::FsckRepair);
        }
        report
    }
}

/// Result of a [`take_over`]: the generations on both sides of the bump
/// plus the repair report.
#[derive(Debug, Clone, PartialEq)]
pub struct Takeover {
    /// Generation the crashed incarnation ran under.
    pub old_generation: u32,
    /// Generation the successor serves under.
    pub generation: u32,
    /// What the fsck found and repaired.
    pub report: FsckReport,
}

/// Generational takeover of a crashed server's channel: bump the segment
/// generation (fencing every handle stamped under the old incarnation
/// into `StaleGeneration` *before* any repair becomes observable),
/// revalidate `ch` itself, then run [`ArenaFsck`] with default policy.
///
/// The caller — typically a successor process that attached the
/// inherited memfd — then re-registers itself and resumes serving; or use
/// [`take_over_and_serve`], which does both.
pub fn take_over<O: OsServices>(ch: &Channel, os: &O) -> Takeover {
    let old_generation = ch.arena().generation();
    let generation = ch.arena().bump_generation();
    ch.revalidate();
    let report = ArenaFsck::new(ch, os).run();
    Takeover {
        old_generation,
        generation,
        report,
    }
}

/// [`take_over`], then resume service: re-arms a [`ServerDeathWatch`] for
/// the new incarnation and runs
/// [`run_resilient_server`](crate::run_resilient_server) to completion.
/// Committed requests from before the crash are served first (they are
/// already queued), clients whose replies were committed finish on their
/// own, and dropped clients have already been notified.
pub fn take_over_and_serve<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: Duration,
    handler: impl FnMut(Message) -> Message,
) -> (Takeover, ServerRun) {
    let takeover = take_over(ch, os);
    let _watch = ServerDeathWatch::arm(ch, os);
    let run = run_resilient_server(ch, os, strategy, heartbeat, handler);
    (takeover, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;
    use crate::native::{NativeConfig, NativeOs};
    use crate::platform::{client_sem, server_sem};
    use usipc_queue::QueueKind;

    fn os_for(n_clients: usize) -> std::sync::Arc<NativeOs> {
        NativeOs::new(NativeConfig::for_clients(n_clients))
    }

    /// Fsck of a clean, quiescent segment is a strict no-op — down to the
    /// bytes — on both queue kinds.
    #[test]
    fn fsck_on_clean_segment_is_a_byte_level_noop() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let ch = Channel::create(&ChannelConfig::new(2).with_queue_kind(kind)).unwrap();
            let os = os_for(2).task(0);
            // Put real (committed) traffic in place: a queued request and
            // a queued reply must survive untouched.
            assert!(ch.receive_queue().try_enqueue(&os, Message::echo(0, 1.0)));
            assert!(ch.reply_queue(1).try_enqueue(&os, Message::echo(1, 2.0)));

            let before = ch.arena().snapshot_bytes();
            let report = ArenaFsck::new(&ch, &os).run();
            let after = ch.arena().snapshot_bytes();

            assert!(report.is_clean(), "{kind:?}: {report:?}");
            assert_eq!(report.ledger.requests_committed, 1, "{kind:?}");
            assert_eq!(report.ledger.replies_committed, 1, "{kind:?}");
            assert!(report.ledger.balanced(), "{kind:?}");
            assert_eq!(before, after, "{kind:?}: clean fsck must not write");
        }
    }

    /// The three per-client verdicts — served-by-request, served-by-reply
    /// (with a re-delivered wake), dropped-with-notice — partition the
    /// in-flight set, and the ledger balances.
    #[test]
    fn ledger_gives_every_in_flight_client_one_verdict() {
        let ch = Channel::create(&ChannelConfig::new(3)).unwrap();
        let os = os_for(3).task(0);

        // Client 0: request committed, client parked.
        assert!(ch.receive_queue().try_enqueue(&os, Message::echo(0, 10.0)));
        ch.reply_queue(0).clear_awake(&os);
        // Client 1: reply committed (server died before the wake-up V),
        // client parked.
        assert!(ch.reply_queue(1).try_enqueue(&os, Message::echo(1, 11.0)));
        ch.reply_queue(1).clear_awake(&os);
        // Client 2: nothing survived, client parked → drop notice.
        ch.reply_queue(2).clear_awake(&os);

        let report = ArenaFsck::new(&ch, &os).run();
        assert_eq!(report.ledger.in_flight, 3);
        assert_eq!(report.ledger.served_by_request, 1);
        assert_eq!(report.ledger.served_by_reply, 1);
        assert_eq!(report.ledger.drop_notices, 1);
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert!(report.replies[1].rewoken, "committed reply must be rewoken");

        // Client 1 was rewoken: a credit is banked and the reply is
        // consumable.
        let reply = ch.reply_queue(1).try_dequeue(&os).expect("reply survives");
        assert_eq!(reply.value, 11.0);
        assert!(os.sem_p_deadline(client_sem(1), Duration::ZERO), "rewake V");
        // Client 2's verdict is a DROPPED notice carrying the generation.
        let notice = ch.reply_queue(2).try_dequeue(&os).expect("notice queued");
        assert_eq!(notice.opcode, opcode::DROPPED);
        assert_eq!(notice.value, report.generation as f64);
        assert!(os.sem_p_deadline(client_sem(2), Duration::ZERO), "notice V");

        // Idempotence: with the verdicts consumed (replies dequeued and
        // their wake-up credits taken, as the real clients' `P` would),
        // a second pass finds a clean segment.
        ch.reply_queue(0).set_awake(&os); // "client 0 woke up"
        let rq0 = ch
            .receive_queue()
            .try_dequeue(&os)
            .expect("request survives");
        assert_eq!(rq0.value, 10.0);
        let second = ArenaFsck::new(&ch, &os).run();
        assert!(second.is_clean(), "{second:?}");
    }

    /// Stray semaphore credits — the receive sem of a dead server, the
    /// poison broadcast's unconditional V on an idle client — are
    /// absorbed and counted; legitimate wake state is rebuilt.
    #[test]
    fn credit_audit_absorbs_strays_and_restores_awake() {
        let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
        let os = os_for(1).task(0);
        // Dead server: three banked credits, awake flag down (it died
        // between clear_awake and P).
        os.sem_v(server_sem());
        os.sem_v(server_sem());
        os.sem_v(server_sem());
        ch.receive_queue().clear_awake(&os);
        // Idle client with one stray credit.
        os.sem_v(client_sem(0));

        let report = ArenaFsck::new(&ch, &os).run();
        assert_eq!(report.receive.credits_absorbed, 3);
        assert!(report.receive.awake_restored);
        assert_eq!(report.replies[0].credits_absorbed, 1);
        assert_eq!(report.credits_absorbed(), 4);
        assert!(!report.is_clean());

        // All strays gone: a zero-deadline P on either sem now fails.
        assert!(!os.sem_p_deadline(server_sem(), Duration::ZERO));
        assert!(!os.sem_p_deadline(client_sem(0), Duration::ZERO));
        // And the second pass is clean.
        assert!(ArenaFsck::new(&ch, &os).run().is_clean());
    }

    /// A poisoned old incarnation is reincarnated: fault words reset,
    /// fsck counts the resets, and the takeover fences stale handles.
    #[test]
    fn take_over_reincarnates_a_poisoned_channel() {
        let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
        let os = os_for(1).task(0);
        // The old incarnation died hard: tombstone poisons everything.
        ch.tombstone_server(&os);
        assert!(ch.receive_queue().is_poisoned());

        let stale = ch.clone();
        let takeover = take_over(&ch, &os);
        assert_eq!(takeover.generation, takeover.old_generation + 1);
        assert!(takeover.report.repairs() > 0);
        assert!(!ch.receive_queue().is_poisoned(), "reincarnated");
        assert!(ch.receive_queue().consumer_alive());

        // `ch` was revalidated in place; a handle that *missed* the
        // takeover (fresh stamp from before the bump) would be stale.
        assert!(!ch.is_stale());
        let _ = stale; // stale shares ch's stamp: revalidated together
        let report_json = takeover.report.to_json();
        assert!(report_json.contains("\"generation\":2"), "{report_json}");
        assert!(report_json.contains("\"ledger\""), "{report_json}");
    }

    /// Sequential smoke test for the full composition: the old
    /// incarnation accepted a disconnect it never processed, then was
    /// SIGKILLed — which, unlike a panicking server's tombstone (whose
    /// poison-drain deliberately frees queued messages), leaves the
    /// committed backlog in the segment untouched. The successor fscks,
    /// bumps, serves the committed disconnect, and terminates cleanly.
    #[test]
    fn take_over_and_serve_drains_committed_backlog() {
        let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
        let os = os_for(1).task(0);
        assert!(ch.receive_queue().try_enqueue(&os, Message::disconnect(0)));
        // The server vanishes here: no unwind guard ran, no marks left.

        let (takeover, run) = take_over_and_serve(
            &ch,
            &os,
            WaitStrategy::Bsw,
            Duration::from_millis(10),
            |m| m,
        );
        assert_eq!(takeover.generation, takeover.old_generation + 1);
        assert_eq!(takeover.report.ledger.requests_committed, 1);
        assert!(takeover.report.ledger.balanced());
        assert_eq!(run.disconnects, 1);
        assert_eq!(run.processed, 1);
    }

    /// End-to-end in-process takeover with a genuinely parked client: its
    /// request was committed before the crash, it is blocked in the
    /// paper's wait loop, and the successor's takeover serves it without
    /// the client ever observing the crash. A fresh client then completes
    /// a normal round trip against the new incarnation.
    #[test]
    fn takeover_serves_committed_request_to_a_parked_client() {
        let ch = Channel::create(&ChannelConfig::new(2)).unwrap();
        let os = os_for(2);

        // Client 0's request is committed; the client parks in the real
        // BSW wait loop on its reply queue. (This thread plays client 0
        // under its own task id: task 1 belongs to the parked thread, and
        // a metrics sink has exactly one writer thread.)
        let t0 = os.task(3);
        assert!(ch.receive_queue().try_enqueue(&t0, Message::echo(0, 5.0)));
        ch.receive_queue().wake_consumer(&t0);
        let parked = {
            let ch = ch.clone();
            let os = std::sync::Arc::clone(&os);
            std::thread::spawn(move || {
                let t = os.task(1);
                let never = crate::protocol::Deadline::never();
                crate::protocol::blocking_dequeue(&ch.reply_queue(0), &t, &never, || {})
            })
        };
        // Quiescence: wait until the client has committed to sleeping
        // (its awake flag is down) before the successor fscks.
        while !ch.reply_queue(0).awake_down() {
            std::thread::yield_now();
        }

        let server = {
            let ch = ch.clone();
            let os = std::sync::Arc::clone(&os);
            std::thread::spawn(move || {
                let t = os.task(0);
                take_over_and_serve(&ch, &t, WaitStrategy::Bsw, Duration::from_millis(20), |m| m)
            })
        };

        // The parked client's reply arrives through the successor — this
        // join also proves the takeover completed, gating the fresh
        // client's traffic behind the fsck.
        let reply = parked.join().unwrap().expect("reply queue stays live");
        assert_eq!(reply.value, 5.0, "committed request survived the crash");

        let t2 = os.task(2);
        let c1 = ch.client(&t2, 1, WaitStrategy::Bsw);
        assert_eq!(c1.echo(7.0), 7.0, "fresh post-takeover round trip");
        c1.disconnect();
        let c0 = ch.client(&t0, 0, WaitStrategy::Bsw);
        c0.disconnect();

        let (takeover, run) = server.join().unwrap();
        assert_eq!(takeover.report.ledger.in_flight, 1);
        assert_eq!(takeover.report.ledger.served_by_request, 1);
        assert!(takeover.report.ledger.balanced());
        assert_eq!(run.disconnects, 2);
        assert!(
            run.processed >= 3,
            "pre-crash echo + fresh echo + disconnects"
        );
    }

    /// The kill sites the in-slot message opens on the ring, at channel
    /// level. A client dies between storing its request's words and
    /// publishing them: fsck retires exactly one hole — the only repair,
    /// nothing else was allocated that could leak — the parked client gets
    /// its drop notice, and the committed requests on both sides of the
    /// hole keep all three words. A server dies between claiming the head
    /// request and finishing the dequeue: fsck hands the whole message
    /// back, at the head of the queue, and its client is served from it.
    #[test]
    fn ring_crash_inside_an_enqueue_or_dequeue_costs_no_storage() {
        let req = |c: u32, v: f64, aux: u64| Message {
            opcode: opcode::ECHO,
            channel: c,
            value: v,
            aux,
        };
        let (m0, m2) = (req(0, 1.5, u64::MAX), req(0, -2.5, 0xA5A5));

        // Producer killed between payload store and publish.
        let ch = Channel::create(&ChannelConfig::new(2).with_queue_kind(QueueKind::Ring)).unwrap();
        let os = os_for(2).task(0);
        let rcv = ch.receive_queue();
        let ring = *rcv.fifo().as_ring(ch.arena()).expect("ring kind");
        assert!(rcv.try_enqueue(&os, m0));
        let pos = ring.step_enqueue_claim(ch.arena()).expect("room");
        ring.step_enqueue_store(ch.arena(), pos, req(1, 6.66, 7).to_words());
        ch.reply_queue(1).clear_awake(&os); // client 1 was parked mid-call
        assert!(rcv.try_enqueue(&os, m2));

        let report = ArenaFsck::new(&ch, &os).run();
        assert_eq!(report.holes_retired(), 1);
        assert_eq!(report.repairs(), 1, "the hole is the only repair");
        assert_eq!(report.ledger.nodes_reclaimed, 0);
        assert_eq!(report.ledger.requests_committed, 2);
        assert_eq!(
            (report.ledger.in_flight, report.ledger.drop_notices),
            (1, 1)
        );
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert_eq!(rcv.try_dequeue(&os), Some(m0));
        assert_eq!(rcv.try_dequeue(&os), Some(m2));
        assert_eq!(
            rcv.try_dequeue(&os),
            None,
            "the corpse's words never surface"
        );

        // Consumer killed between claim and finish.
        let ch = Channel::create(&ChannelConfig::new(1).with_queue_kind(QueueKind::Ring)).unwrap();
        let rcv = ch.receive_queue();
        let ring = *rcv.fifo().as_ring(ch.arena()).expect("ring kind");
        assert!(rcv.try_enqueue(&os, m0));
        assert!(rcv.try_enqueue(&os, m2));
        ch.reply_queue(0).clear_awake(&os);
        ring.step_dequeue_claim(ch.arena())
            .expect("head is published");
        assert_eq!(rcv.try_dequeue(&os), Some(m2), "the cursor moved past m0");
        assert!(rcv.try_enqueue(&os, m2));

        let report = ArenaFsck::new(&ch, &os).run();
        assert_eq!(report.repairs(), 1, "one stranded claim recovered");
        assert_eq!(report.ledger.requests_committed, 2);
        assert_eq!(
            (report.ledger.in_flight, report.ledger.served_by_request),
            (1, 1)
        );
        assert!(report.ledger.balanced(), "{:?}", report.ledger);
        assert_eq!(rcv.try_dequeue(&os), Some(m0), "whole, and first again");
        assert_eq!(rcv.try_dequeue(&os), Some(m2));
    }

    /// The convergence property, swept over random crash states: seed a
    /// segment with an arbitrary mix of committed requests, committed
    /// replies (wakes delivered or lost), dropped windows, stray credits
    /// on both sides and a randomly-dead receive `awake` flag — i.e. the
    /// states a SIGKILL at a random protocol point can leave behind.
    /// The first fsck must balance its ledger with exactly the predicted
    /// in-flight and drop counts; after the "clients" play out their
    /// verdicts, a second pass must be clean; and a third pass must be a
    /// byte-level no-op. One pass repairs, the fixpoint is immediate.
    #[test]
    fn fsck_converges_from_random_crash_states() {
        // xorshift64*: deterministic, seeded — no process entropy.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
        };

        for round in 0..16u32 {
            let n = 1 + rng(3) as usize;
            let kind = if rng(2) == 0 {
                QueueKind::TwoLock
            } else {
                QueueKind::Ring
            };
            let ch = Channel::create(&ChannelConfig::new(n).with_queue_kind(kind)).unwrap();
            let os = os_for(n).task(0);
            let tag = format!("round {round}: {kind:?}, {n} clients");

            // Per-client crash state. `leave_alone` marks clients whose
            // reply wake was already delivered: the fsck must not touch
            // them (they are mid-consume, not in flight).
            let mut expect_in_flight = 0u32;
            let mut expect_drops = 0u32;
            let mut leave_alone = vec![false; n];
            for c in 0..n as u32 {
                match rng(5) {
                    // Idle, possibly with a stray credit (poison
                    // broadcast residue).
                    0 => {
                        if rng(2) == 0 {
                            os.sem_v(client_sem(c));
                        }
                    }
                    // Parked with a committed request.
                    1 => {
                        assert!(ch
                            .receive_queue()
                            .try_enqueue(&os, Message::echo(c, f64::from(c))));
                        ch.receive_queue().wake_consumer(&os);
                        ch.reply_queue(c).clear_awake(&os);
                        expect_in_flight += 1;
                    }
                    // Committed reply, wake-up V lost with the server.
                    2 => {
                        assert!(ch
                            .reply_queue(c)
                            .try_enqueue(&os, Message::echo(c, 100.0 + f64::from(c))));
                        ch.reply_queue(c).clear_awake(&os);
                        expect_in_flight += 1;
                    }
                    // Committed reply, wake already delivered: the client
                    // is awake and owns the dequeue — strictly off-limits.
                    3 => {
                        assert!(ch
                            .reply_queue(c)
                            .try_enqueue(&os, Message::echo(c, 200.0 + f64::from(c))));
                        os.sem_v(client_sem(c));
                        leave_alone[c as usize] = true;
                    }
                    // The dropped window: parked, nothing committed.
                    _ => {
                        ch.reply_queue(c).clear_awake(&os);
                        expect_in_flight += 1;
                        expect_drops += 1;
                    }
                }
            }
            // Dead-server residue on the receive side.
            for _ in 0..rng(3) {
                os.sem_v(server_sem());
            }
            if rng(2) == 0 {
                ch.receive_queue().clear_awake(&os);
            }

            // Pass 1: repair. The ledger must balance and match the
            // seeded state exactly.
            let report = ArenaFsck::new(&ch, &os).run();
            assert!(report.ledger.balanced(), "{tag}: {:?}", report.ledger);
            assert_eq!(report.ledger.in_flight, expect_in_flight, "{tag}");
            assert_eq!(report.ledger.drop_notices, expect_drops, "{tag}");
            assert_eq!(report.ledger.unresolved, 0, "{tag}");

            // Play the clients: consume every verdict the fsck issued —
            // dequeue replies/notices, take the banked wake credits, wake
            // up — and drain the receive backlog as a successor would.
            for c in 0..n as u32 {
                while ch.reply_queue(c).try_dequeue(&os).is_some() {}
                while os.sem_p_deadline(client_sem(c), Duration::ZERO) {}
                ch.reply_queue(c).set_awake(&os);
            }
            while ch.receive_queue().try_dequeue(&os).is_some() {}
            while os.sem_p_deadline(server_sem(), Duration::ZERO) {}
            drop(leave_alone);

            // Pass 2: nothing left to repair.
            let second = ArenaFsck::new(&ch, &os).run();
            assert!(second.is_clean(), "{tag}: second pass dirty: {second:?}");

            // Pass 3: the fixpoint, down to the bytes.
            let before = ch.arena().snapshot_bytes();
            let third = ArenaFsck::new(&ch, &os).run();
            assert!(third.is_clean(), "{tag}: {third:?}");
            assert_eq!(
                before,
                ch.arena().snapshot_bytes(),
                "{tag}: idempotent fsck must not write"
            );
        }
    }
}
