//! WaitSet multiplexing: one waiter, many sources, a single doorbell.
//!
//! The paper's protocols pair every queue with its own semaphore, so a
//! server sleeping for *any* of N clients would need N blocked tasks (the
//! §2.1 thread-per-client server) or N sequential `P`s. A production
//! server multiplexes thousands of clients; this module adds the missing
//! primitive, shaped after the seraph `ipc/waitset` design (SNIPPETS.md)
//! and the "Semaphores Augmented with a Waiting Array" idea of one
//! semaphore serving many waiters without thundering herds:
//!
//! * [`WaitSetRoot`] — an arena-resident aggregation object: one
//!   `AtomicU64` **ready bitmap word per 64 sources** (bit `s % 64` of word
//!   `s / 64` is source `s`) plus a shared **pending latch**, all plain
//!   atomics so the structure works across address spaces exactly like the
//!   queues it multiplexes.
//! * A single **doorbell** — a platform semaphore index (a
//!   [`FutexSem`](crate::sem::FutexSem)-backed
//!   [`CountingSem`](crate::CountingSem) on the native Linux backend) the
//!   waiter blocks on.
//!
//! ## The doorbell budget
//!
//! A naive design Vs the doorbell on every enqueue: N ready sources
//! would bank N credits and the waiter would spin through N-1 empty
//! wake-ups — the same credit-accumulation bug the paper's authors hit
//! with their first BSW version, at fan-in scale. Instead a producer's
//! [`notify`](WaitSet::notify) is **edge-triggered twice over**:
//!
//! 1. one `fetch_or` of its bit into its ready word — only a notify that
//!    finds the *whole word* zero (the word's 0→non-zero edge) proceeds;
//!    a bit already set, or any neighbour bit set, is free, and
//! 2. `swap(1)` on the shared `pending` latch — only the first edge of a
//!    wake cycle actually Vs the doorbell.
//!
//! The waiter clears `pending` immediately after its `P` completes and
//! then drains ready bits round-robin, so however many sources became
//! ready while it slept, the cycle cost exactly one `V` and one `P`. The
//! invariant is machine-checked (`doorbells_rung ≤ waitset_wakes + 1`,
//! the `+1` being the last credit still banked at shutdown) by
//! `tests/waitset_mux.rs`.
//!
//! ## Why no wake-up is lost
//!
//! [`poll`](WaitSet::poll) *loads* each word and claims a single bit with
//! `fetch_and`, so a scan that finds nothing writes nothing: a miss costs
//! one load per 64 sources (plus one: the word under the cursor is read
//! again, in full, when the scan wraps around). Every access named here
//! is `SeqCst`, so all of them fall in one total order. Two facts carry
//! the argument (DESIGN.md §8 has it step by step):
//!
//! * **A scan that returns `None` last saw every word entirely zero.**
//!   That is why the wrap-around re-reads the cursor's word unmasked
//!   instead of looking only at the bits below the cursor.
//! * **Only `notify` sets bits.** The waiter's claims only clear them.
//!   ([`fsck`](WaitSet::fsck) does both, but runs only once the waiter is
//!   dead.)
//!
//! A bit set before the waiter's final scan loaded its word was either
//! seen or claimed, and whoever claimed it drains that source. After that
//! load the *first* `fetch_or` on the word finds it zero, so its notifier
//! goes on to the latch — which the waiter cleared before the scan began —
//! and the earliest latch swap after that clear reads 0 and posts the `V`
//! the committed `P` consumes. The rescan then finds every bit set
//! meanwhile, including those of notifiers that saw a non-zero word and
//! stayed silent. This is the Fig. 5 argument (set ready, then test the
//! latch; clear the latch, then scan) applied per word.
//!
//! On top of the primitive, [`ShardedServer`] routes clients to K shards
//! (multiplicative hash) and runs one worker per shard: the Receive/Reply
//! loop of [`run_resilient_server`](crate::run_resilient_server) itself
//! (heartbeat scans, peer-death reaping, sticky poisoning, the
//! first-death post-mortem), fed by the shard's WaitSet instead of one
//! shared receive queue.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::channel::{Channel, ChannelConfig, QueueRef};
use crate::fault::IpcError;
use crate::metrics::ProtoEvent;
use crate::msg::Message;
use crate::platform::{Cost, OsServices};
use crate::protocol::{
    blocking_dequeue, call_failed, dead_channel, enqueue_or_sleep, round_trip, Deadline,
    WaitStrategy,
};
use crate::server::{serve, Next, ServerObservability, ServerRun, Source};
use crate::trace::{Span, TracePoint};
use usipc_queue::QueueKind;
use usipc_shm::{monotonic_nanos, CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// Arena-resident state of one WaitSet: the aggregation object N
/// producers notify and one waiter sleeps on.
///
/// Lives in shared memory (all fields are offsets or atomics), so the
/// producers may be in other address spaces; the doorbell itself is a
/// *platform semaphore index*, which on the native backend can point
/// into a process-shared [`FutexSem`](crate::sem::FutexSem) table.
#[repr(C)]
#[derive(Debug)]
pub struct WaitSetRoot {
    /// The wake-cycle latch: 1 while a doorbell credit is (about to be)
    /// outstanding. Producers `swap(1)` and only the winner Vs; the
    /// waiter clears it right after its `P` completes.
    pending: CacheAligned<AtomicU32>,
    /// The ready bitmap: bit `s % 64` of word `s / 64` is set while
    /// source `s` has notified and not yet been claimed. Words are packed
    /// (eight to a cache line): a saturated waiter wants one line to scan,
    /// and producers of one word already serialize on it by design.
    ready: ShmSlice<AtomicU64>,
    /// Platform semaphore index of the doorbell.
    doorbell_sem: u32,
    /// Number of sources.
    n_sources: u32,
}

unsafe impl ShmSafe for WaitSetRoot {}

/// Sources per ready word.
const WORD_BITS: usize = u64::BITS as usize;

impl WaitSetRoot {
    /// Allocates a WaitSet for `n_sources` sources inside `arena`, with
    /// `doorbell_sem` as the waiter's semaphore. The caller owns the
    /// bootstrap story (embed the returned pointer in whatever root it
    /// publishes), exactly like [`Channel::create_in`].
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion; budget with [`Self::bytes_needed`].
    pub fn create_in(
        arena: &ShmArena,
        n_sources: usize,
        doorbell_sem: u32,
    ) -> Result<ShmPtr<WaitSetRoot>, ShmError> {
        assert!(n_sources >= 1, "a waitset needs at least one source");
        assert!(n_sources <= u32::MAX as usize, "waitset too large");
        let ready = arena.alloc_slice(n_sources.div_ceil(WORD_BITS), |_| AtomicU64::new(0))?;
        arena.alloc(WaitSetRoot {
            pending: CacheAligned::new(AtomicU32::new(0)),
            ready,
            doorbell_sem,
            n_sources: n_sources as u32,
        })
    }

    /// Arena bytes [`Self::create_in`] needs for `n_sources` sources
    /// (worst-case alignment slack included).
    pub fn bytes_needed(n_sources: usize) -> usize {
        n_sources.div_ceil(WORD_BITS) * core::mem::size_of::<AtomicU64>()
            + core::mem::align_of::<AtomicU64>()
            + core::mem::size_of::<WaitSetRoot>()
            + core::mem::align_of::<WaitSetRoot>()
    }
}

/// A resolved view of a [`WaitSetRoot`]: the handle producers notify and
/// the waiter waits on. A `Copy` borrow validated once, at [`Self::attach`],
/// with its own copies of the source count and the doorbell index.
#[derive(Debug, Clone, Copy)]
pub struct WaitSet<'a> {
    root: &'a WaitSetRoot,
    /// The ready bitmap, resolved (and bounds-checked) once at attach.
    words: &'a [AtomicU64],
    n_sources: usize,
    doorbell_sem: u32,
}

impl<'a> WaitSet<'a> {
    /// Resolves `root` inside `arena` (the attach side of
    /// [`WaitSetRoot::create_in`]; the arena validates bounds and
    /// alignment of the root and of its bitmap here, once).
    ///
    /// # Panics
    ///
    /// If the root is not a well-formed WaitSet: no sources, or more
    /// sources than its bitmap has bits.
    pub fn attach(arena: &'a ShmArena, root: ShmPtr<WaitSetRoot>) -> WaitSet<'a> {
        let root = arena.get(root);
        let words = arena.get_slice(root.ready);
        // `n_sources` was read out of shared memory: check it against the
        // bitmap now rather than index past the slice later.
        let n_words = (root.n_sources as usize).div_ceil(WORD_BITS);
        assert!(
            (1..=words.len()).contains(&n_words),
            "waitset root names {} sources but has {} ready words",
            root.n_sources,
            words.len()
        );
        WaitSet {
            root,
            words: &words[..n_words],
            n_sources: root.n_sources as usize,
            doorbell_sem: root.doorbell_sem,
        }
    }

    /// Number of sources.
    #[inline]
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// The doorbell's platform semaphore index.
    pub fn doorbell_sem(&self) -> u32 {
        self.doorbell_sem
    }

    /// The ready word holding `source`'s bit, and that bit's mask.
    fn ready_bit(&self, source: usize) -> (&'a AtomicU64, u64) {
        (&self.words[source / WORD_BITS], 1 << (source % WORD_BITS))
    }

    /// Producer side: marks `source` ready and rings the doorbell **only
    /// on the quiescent→ready edge of an idle wake cycle** — at most one
    /// semaphore `V` per server wake regardless of how many sources (or
    /// how many messages per source) become ready. Call *after* the
    /// message is enqueued, exactly like `wake_consumer` in the
    /// single-queue protocols.
    ///
    /// One `fetch_or`; the shared latch is touched only when that found
    /// the source's whole word zero (module docs: why the skip is safe).
    ///
    /// # Panics
    ///
    /// If `source` is out of range.
    pub fn notify<O: OsServices>(&self, os: &O, source: usize) {
        assert!(
            source < self.n_sources(),
            "source {source} out of range for waitset of {}",
            self.n_sources()
        );
        os.charge(Cost::Tas);
        let (word, bit) = self.ready_bit(source);
        if word.fetch_or(bit, Ordering::SeqCst) == 0 {
            os.charge(Cost::Tas);
            if self.root.pending.swap(1, Ordering::SeqCst) == 0 {
                os.record(ProtoEvent::DoorbellRung);
                os.sem_v(self.doorbell_sem);
                return;
            }
        }
        os.record(ProtoEvent::DoorbellCoalesced);
    }

    /// Waiter side, non-blocking: claims and returns the next ready
    /// source at-or-after `*cursor` in round-robin order, advancing the
    /// cursor past it — so a chatty low-numbered source cannot starve the
    /// rest. Returns `None` when no source is ready.
    ///
    /// The scan only *loads* words (one per 64 sources; a miss writes
    /// nothing) and claims exactly one bit with `fetch_and`: the caller
    /// owns that source's backlog and must drain it (a message enqueued
    /// *after* the claim re-raises the bit via its own `notify`, so
    /// nothing is lost).
    #[inline]
    pub fn poll(&self, cursor: &mut usize) -> Option<usize> {
        let n = self.n_sources();
        let start = if *cursor < n { *cursor } else { 0 };
        let (first, offset) = (start / WORD_BITS, start % WORD_BITS);
        let n_words = self.words.len();
        // Round-robin from `start`: the start word's bits at-or-after the
        // cursor, every other word in order, then the start word again —
        // *unmasked*, so that a scan which finds nothing has seen every
        // word entirely zero on its last look (the no-lost-wake-up
        // argument in the module docs rests on exactly that).
        let mut w = first;
        for step in 0..=n_words {
            let mask = if step == 0 { !0u64 << offset } else { !0 };
            let word = &self.words[w];
            let mut seen = word.load(Ordering::SeqCst) & mask;
            while seen != 0 {
                let bit = seen & seen.wrapping_neg();
                // The claim holds only if the bit was still set.
                if word.fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
                    let source = w * WORD_BITS + bit.trailing_zeros() as usize;
                    *cursor = if source + 1 == n { 0 } else { source + 1 };
                    return Some(source);
                }
                seen &= !bit;
            }
            w = if w + 1 == n_words { 0 } else { w + 1 };
        }
        None
    }

    /// Recovery-time rebuild of the waitset's wake state (the WaitSet leg
    /// of [`recover`](crate::recover)): re-derives every ready bit from
    /// the *actual* backlog of its source, then re-establishes the
    /// latch/credit invariant — any source ready ⇒ pending latch held and
    /// exactly one doorbell credit banked; none ⇒ latch clear, zero
    /// credits.
    ///
    /// The caller supplies `backlog` (does source `s` have undrained
    /// messages?) because the waitset does not know what its sources are.
    /// Must only run under the recovery quiescence contract: the waiter is
    /// dead and no producer is concurrently notifying. A consistent
    /// waitset is left untouched and reports all-zero (the banked credit
    /// of a ready cycle is absorbed and re-posted, which nets out in both
    /// the report and the semaphore words).
    pub fn fsck<O: OsServices>(
        &self,
        os: &O,
        mut backlog: impl FnMut(usize) -> bool,
    ) -> WaitSetFsck {
        let mut r = WaitSetFsck::default();
        // Bank every outstanding doorbell credit: with the waiter dead,
        // each is either the live cycle's single credit (re-posted below)
        // or a stray that would cost the successor a spurious wake.
        let mut banked = 0u32;
        while os.sem_p_deadline(self.doorbell_sem, Duration::ZERO) {
            banked += 1;
        }
        let mut any_ready = false;
        for s in 0..self.n_sources() {
            let want = backlog(s);
            any_ready |= want;
            let (word, bit) = self.ready_bit(s);
            let have = word.load(Ordering::SeqCst) & bit != 0;
            if want && !have {
                // The dead waiter claimed the bit but never drained the
                // source: re-raise it or the backlog is invisible forever.
                word.fetch_or(bit, Ordering::SeqCst);
                r.ready_raised += 1;
            } else if !want && have {
                // Stale bit over a source the dead waiter had already
                // drained: clear, so the successor does not burn a claim.
                word.fetch_and(!bit, Ordering::SeqCst);
                r.ready_cleared += 1;
            }
        }
        let want_latch = any_ready;
        if (self.root.pending.load(Ordering::SeqCst) != 0) != want_latch {
            self.root.pending.store(want_latch as u32, Ordering::SeqCst);
            r.latch_repaired = true;
        }
        let needed = u32::from(any_ready);
        for _ in 0..needed.saturating_sub(banked) {
            r.doorbell_rung = true; // a wake cycle had no credit banked
        }
        if needed > 0 {
            os.sem_v(self.doorbell_sem);
        }
        r.credits_absorbed = banked.saturating_sub(needed);
        for _ in 0..r.credits_absorbed {
            os.record(ProtoEvent::CreditAbsorbed);
        }
        if r.repairs() > 0 {
            os.record(ProtoEvent::FsckRepair);
        }
        r
    }

    /// Waiter side, blocking — the only doorbell wait: polls, and if
    /// nothing is ready sleeps on the doorbell for at most `timeout`; each
    /// completed `P` opens a new wake cycle (clears the pending latch) and
    /// rescans. Returns the claimed source. Expiry returns
    /// [`IpcError::Timeout`] without consuming a doorbell credit (the
    /// [`sem_p_deadline`](OsServices::sem_p_deadline) no-credit-lost
    /// contract) and without touching the pending latch, so a `V` racing
    /// the expiry is found by the caller's next poll.
    ///
    /// # Errors
    ///
    /// [`IpcError::Timeout`] when the deadline expires with no source
    /// ready.
    pub fn wait_deadline<O: OsServices>(
        &self,
        os: &O,
        cursor: &mut usize,
        timeout: Duration,
    ) -> Result<usize, IpcError> {
        let deadline = Deadline::new(timeout);
        loop {
            if let Some(s) = self.poll(cursor) {
                return Ok(s);
            }
            let Some(left) = deadline.remaining(os) else {
                return Err(IpcError::Timeout);
            };
            os.record(ProtoEvent::BlockEntered);
            os.trace(TracePoint::Begin(Span::Block));
            let taken = left.sem_p(os, self.doorbell_sem);
            os.trace(TracePoint::End(Span::Block));
            if taken {
                os.record(ProtoEvent::WaitSetWake);
                self.root.pending.store(0, Ordering::SeqCst);
            } else {
                os.record(ProtoEvent::TimedOut);
                return Err(IpcError::Timeout);
            }
        }
    }
}

/// Report of one [`WaitSet::fsck`] pass. Every repair is conditional, so
/// a consistent waitset reports the `Default` (all-zero) value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitSetFsck {
    /// Ready bits re-raised: the dead waiter had claimed the source but
    /// never drained its backlog.
    pub ready_raised: u32,
    /// Ready bits cleared: stale bits over sources with no backlog.
    pub ready_cleared: u32,
    /// Stray doorbell credits absorbed (beyond the single credit a ready
    /// cycle is entitled to).
    pub credits_absorbed: u32,
    /// The pending latch disagreed with the rebuilt ready state.
    pub latch_repaired: bool,
    /// A wake cycle was owed a doorbell credit that was not banked (the
    /// waiter died between the latch swap and the `V`, or consumed the
    /// credit without draining).
    pub doorbell_rung: bool,
}

impl WaitSetFsck {
    /// Number of individual repairs performed.
    pub fn repairs(&self) -> u32 {
        self.ready_raised
            + self.ready_cleared
            + self.credits_absorbed
            + u32::from(self.latch_repaired)
            + u32::from(self.doorbell_rung)
    }

    /// Whether the pass changed anything (a consistent waitset: `false`).
    pub fn repaired_anything(&self) -> bool {
        self.repairs() > 0
    }
}

/// Sizing and policy knobs for a [`ShardedServer`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Total clients across all shards.
    pub n_clients: usize,
    /// Number of shards (each gets one worker task and one WaitSet).
    pub n_shards: usize,
    /// Per-queue capacity of each client channel.
    pub queue_capacity: usize,
    /// Bound on every worker wait and reply: each expiry runs the
    /// per-source liveness scan (reaping dead clients, exactly like
    /// [`run_resilient_server`](crate::run_resilient_server)).
    pub heartbeat: Duration,
    /// Queue representation for every member channel (see
    /// [`ChannelConfig::queue_kind`]). [`QueueKind::Ring`] makes the
    /// shard data path lock-free: a client SIGKILLed mid-enqueue can no
    /// longer wedge its shard's worker on an abandoned tail lock.
    pub queue_kind: QueueKind,
}

impl ShardedConfig {
    /// Defaults: 64-deep queues, 25 ms heartbeat.
    pub fn new(n_clients: usize, n_shards: usize) -> Self {
        ShardedConfig {
            n_clients,
            n_shards,
            queue_capacity: 64,
            heartbeat: Duration::from_millis(25),
            queue_kind: QueueKind::default(),
        }
    }

    /// Platform semaphores the topology needs: one doorbell per shard,
    /// then a 2-sem block per client channel (`K + 2c` is channel `c`'s
    /// [`sem_base`](ChannelConfig::sem_base)). Size
    /// [`NativeConfig::n_sems`](crate::NativeConfig::n_sems) with this.
    pub fn n_sems(&self) -> usize {
        self.n_shards + 2 * self.n_clients
    }
}

/// Fibonacci-style multiplicative hash routing a client id to a shard —
/// cheap, stateless, and resistant to the stride patterns sequential ids
/// would put through a plain modulus.
fn shard_of(client: u32, n_shards: usize) -> usize {
    (client.wrapping_mul(2_654_435_761) >> 16) as usize % n_shards
}

/// K shards of hash-routed clients, each shard a WaitSet-multiplexed
/// worker: the scale-out topology on top of [`WaitSet`].
///
/// Every client gets its own single-client [`Channel`] (private request
/// and reply queues, semaphores placed at a disjoint
/// [`sem_base`](ChannelConfig::sem_base)); a client's request path is
/// enqueue + [`WaitSet::notify`] on its shard, and its reply path is the
/// unchanged Fig. 5 discipline on its private reply queue. Workers run
/// [`ShardedServer::run_worker`]:
/// [`run_resilient_server`](crate::run_resilient_server)'s loop over the
/// shard's WaitSet.
#[derive(Debug)]
pub struct ShardedServer {
    cfg: ShardedConfig,
    /// Control arena holding the [`WaitSetRoot`]s, kept mapped for `waitsets`.
    _control: Arc<ShmArena>,
    /// Each shard's WaitSet, attached once. `'static` stands for "while
    /// `_control` is mapped": see [`Self::create`].
    waitsets: Vec<WaitSet<'static>>,
    /// One single-client channel per client.
    channels: Vec<Channel>,
    /// Shard → member client ids (slot order = WaitSet source order).
    members: Vec<Vec<u32>>,
    /// Client → (shard, slot within the shard's WaitSet).
    route: Vec<(u32, u32)>,
}

impl ShardedServer {
    /// Builds the full topology: K WaitSets in a control arena plus one
    /// channel per client.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion from any allocation.
    ///
    /// # Panics
    ///
    /// If `cfg` has zero clients or zero shards.
    pub fn create(cfg: ShardedConfig) -> Result<ShardedServer, ShmError> {
        assert!(cfg.n_clients >= 1, "sharded server needs clients");
        assert!(cfg.n_shards >= 1, "sharded server needs shards");
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_shards];
        let mut route = Vec::with_capacity(cfg.n_clients);
        for c in 0..cfg.n_clients as u32 {
            let s = shard_of(c, cfg.n_shards);
            route.push((s as u32, members[s].len() as u32));
            members[s].push(c);
        }
        let control_bytes: usize = members
            .iter()
            .map(|m| WaitSetRoot::bytes_needed(m.len().max(1)))
            .sum();
        let control = Arc::new(ShmArena::new(control_bytes)?);
        // SAFETY: the one lifetime erasure behind `waitsets`, as in
        // `Channel::from_root`: the `_control` field keeps the `ShmArena`
        // in the `Arc` allocation alive (segment mapped, base fixed) while
        // this `ShardedServer` exists; what is resolved through it is stored
        // only in `waitsets` and leaves only at `&self`'s lifetime.
        let mapped: &'static ShmArena = unsafe { &*Arc::as_ptr(&control) };
        let waitsets = (members.iter().enumerate())
            .map(|(s, m)| WaitSetRoot::create_in(mapped, m.len().max(1), s as u32))
            .map(|root| root.map(|r| WaitSet::attach(mapped, r)))
            .collect::<Result<Vec<_>, _>>()?;
        let channels = (0..cfg.n_clients)
            .map(|c| {
                Channel::create(&ChannelConfig {
                    queue_capacity: cfg.queue_capacity,
                    sem_base: (cfg.n_shards + 2 * c) as u32,
                    queue_kind: cfg.queue_kind,
                    ..ChannelConfig::new(1)
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedServer {
            cfg,
            _control: control,
            waitsets,
            channels,
            members,
            route,
        })
    }

    /// The configuration the topology was built from.
    pub fn config(&self) -> &ShardedConfig {
        &self.cfg
    }

    /// Shard `s`'s WaitSet.
    ///
    /// # Panics
    ///
    /// If `s` is out of range.
    #[inline]
    pub fn waitset(&self, s: usize) -> WaitSet<'_> {
        self.waitsets[s]
    }

    /// Client `c`'s private channel (diagnostics / custom protocols).
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    #[inline]
    pub fn channel(&self, c: u32) -> &Channel {
        &self.channels[c as usize]
    }

    /// The shard client `c` is routed to.
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    pub fn shard_for(&self, c: u32) -> usize {
        self.route[c as usize].0 as usize
    }

    /// Client ids routed to shard `s` (slot order).
    ///
    /// # Panics
    ///
    /// If `s` is out of range.
    pub fn shard_members(&self, s: usize) -> &[u32] {
        &self.members[s]
    }

    /// Builds the client-side handle for client `c`.
    ///
    /// # Panics
    ///
    /// If `c` is out of range.
    pub fn client<'a, O: OsServices>(&'a self, os: &'a O, c: u32) -> MuxClient<'a, O> {
        assert!((c as usize) < self.cfg.n_clients, "client id out of range");
        MuxClient { srv: self, os, c }
    }

    /// Runs shard `s`'s worker until every member has disconnected or been
    /// reaped: the Receive/Reply loop of
    /// [`run_resilient_server`](crate::run_resilient_server), its requests
    /// drawn from the shard's WaitSet — drain the claimed source, then wait
    /// on the doorbell for at most a heartbeat — and each expiry a liveness
    /// scan over the members. One worker per shard: the WaitSet has a
    /// single-waiter contract.
    pub fn run_worker<O: OsServices>(
        &self,
        os: &O,
        s: usize,
        handler: impl FnMut(Message) -> Message,
    ) -> ServerRun {
        self.run_worker_observed(os, s, ServerObservability::none(), handler)
            .0
    }

    /// [`Self::run_worker`] with the observability plane attached, exactly
    /// as [`run_resilient_server_observed`](crate::run_resilient_server_observed)
    /// attaches it ([`ServerObservability`]; `queue_depth` is the shard's
    /// queued backlog, `waiters` its live members), returning the
    /// flight-recorder post-mortem cut at the first member death.
    pub fn run_worker_observed<O: OsServices>(
        &self,
        os: &O,
        s: usize,
        obs: ServerObservability<'_>,
        mut handler: impl FnMut(Message) -> Message,
    ) -> (ServerRun, Option<String>) {
        // The loop's client `c` is the shard's WaitSet slot `c`, served
        // over that member's private single-client channel.
        let members = &self.members[s];
        let n_clients = members.len() as u32;
        let channel = |slot: u32| &self.channels[members[slot as usize] as usize];
        for slot in 0..n_clients {
            channel(slot).register_server_task(os.task_id());
        }
        let heartbeat = self.cfg.heartbeat;
        let ws = self.waitset(s);
        let mut cursor = 0usize;
        // The claimed slot and its request queue: drained until empty
        // before the next wait, as a claim obliges ([`WaitSet::poll`]).
        let mut claimed: Option<(u32, QueueRef<'_>)> = None;
        let next = move || loop {
            if let Some((slot, requests)) = &claimed {
                match requests.try_dequeue(os) {
                    // `m.channel` crossed the trust boundary; within a
                    // private single-client channel only 0 is well-formed.
                    Some(m) if m.channel == 0 => return Next::Request(*slot, m),
                    Some(_) => return Next::Malformed,
                    None => claimed = None,
                }
            }
            match ws.wait_deadline(os, &mut cursor, heartbeat) {
                Ok(slot) => claimed = Some((slot as u32, channel(slot as u32).receive_queue())),
                // Expiry, the wait's only error: show every member's
                // watcher a waiting worker, not a wedged one.
                Err(_) => {
                    for slot in 0..n_clients {
                        channel(slot).receive_queue().beat();
                    }
                    return Next::Idle;
                }
            }
        };
        let src = Source {
            n_clients,
            strategy: WaitStrategy::Bsw,
            heartbeat: Some(heartbeat),
            route: |slot| (channel(slot), 0),
            next,
        };
        // `aux` is the mux layer's correlation tag: it crosses the channel
        // verbatim so a retrying client can match a reply to the attempt
        // that asked for it — handlers answer in `opcode`/`value`.
        serve(os, src, obs, move |m| Message {
            aux: m.aux,
            ..handler(m)
        })
    }
}

/// Client-side handle into a [`ShardedServer`]: the multiplexed
/// counterpart of [`ClientEndpoint`](crate::ClientEndpoint). Requests go
/// enqueue → [`WaitSet::notify`]; replies follow the unchanged Fig. 5
/// blocking discipline on the client's private reply queue.
pub struct MuxClient<'a, O: OsServices> {
    srv: &'a ShardedServer,
    os: &'a O,
    c: u32,
}

impl<O: OsServices> MuxClient<'_, O> {
    /// This client's id.
    pub fn id(&self) -> u32 {
        self.c
    }

    /// Synchronous `Send` through the client's shard:
    /// [`Self::call_deadline`]'s body with no deadline, so it panics (naming
    /// the [`IpcError`]) if the channel is poisoned under it, like
    /// [`ClientEndpoint::call`](crate::ClientEndpoint::call).
    pub fn call(&self, mut msg: Message) -> Message {
        msg.channel = 0;
        self.attempt(msg, &Deadline::never(), None, true)
            .unwrap_or_else(|e| dead_channel("call", e))
    }

    /// Fallible synchronous `Send`, bounded by `timeout`, with the same
    /// failure semantics as
    /// [`ClientEndpoint::call_deadline`](crate::ClientEndpoint::call_deadline):
    /// poisoned channels fail fast, expiry before the request is in
    /// flight is retryable, expiry afterwards poisons the client's reply
    /// queue (and detects a dead server via the liveness word).
    ///
    /// # Errors
    ///
    /// [`IpcError::Poisoned`], [`IpcError::QueueFull`],
    /// [`IpcError::Timeout`], or [`IpcError::PeerDead`] as above.
    pub fn call_deadline(&self, mut msg: Message, timeout: Duration) -> Result<Message, IpcError> {
        msg.channel = 0;
        self.srv.channels[self.c as usize].admit(0)?;
        self.attempt(msg, &Deadline::new(timeout), None, true)
    }

    /// One call attempt under `deadline` — the shared body of
    /// [`Self::call`], [`Self::call_deadline`] (which poisons on expiry,
    /// keeping its documented semantics) and [`Self::call_retry`] (whose
    /// inner attempts must NOT poison: the queue has to stay usable for
    /// the next attempt). Feeds the round-trip latency histogram when the
    /// backend collects metrics.
    ///
    /// `want_aux` filters replies by correlation tag: a reply carrying a
    /// different tag is a late answer to an earlier, timed-out attempt —
    /// recognizably stale, silently discarded, and the wait continues on
    /// the same deadline.
    fn attempt(
        &self,
        msg: Message,
        deadline: &Deadline,
        want_aux: Option<u64>,
        poison_on_timeout: bool,
    ) -> Result<Message, IpcError> {
        let ch = &self.srv.channels[self.c as usize];
        let (shard, slot) = self.srv.route[self.c as usize];
        let srv_q = ch.receive_queue();
        let rq = ch.reply_queue(0);
        round_trip(self.os, || {
            // An enqueue that fails left nothing in flight: nothing to
            // poison, no death to look for.
            enqueue_or_sleep(&srv_q, self.os, msg, deadline)?;
            self.srv
                .waitset(shard as usize)
                .notify(self.os, slot as usize);
            loop {
                let reply = blocking_dequeue(&rq, self.os, deadline, || {})
                    .map_err(|e| call_failed(self.os, &srv_q, &rq, e, poison_on_timeout))?;
                if want_aux.is_none_or(|w| reply.aux == w) {
                    return Ok(reply);
                }
            }
        })
    }

    /// [`Self::call_deadline`] with bounded, jittered-exponential-backoff
    /// retries — the pattern every caller of a fallible IPC path was
    /// re-implementing by hand, now with the failure taxonomy enforced:
    ///
    /// * **Retried**: [`IpcError::Timeout`] only — the one verdict that
    ///   means "the server may merely be slow". Inner attempts do *not*
    ///   poison the reply queue (unlike a bare `call_deadline`), so the
    ///   channel stays usable between attempts.
    /// * **Fail fast**: [`IpcError::PeerDead`], [`IpcError::Poisoned`],
    ///   [`IpcError::StaleGeneration`] (a takeover happened under this
    ///   handle — retrying cannot help; revalidate instead), and
    ///   [`IpcError::QueueFull`] propagate on first occurrence.
    /// * **Exhaustion**: after `attempts` timeouts the reply queue is
    ///   poisoned (now the caller *has* given up) and
    ///   [`IpcError::RetriesExhausted`] is returned.
    ///
    /// Each attempt is stamped with a fresh correlation tag in `aux` (the
    /// caller's `aux` is not preserved); the mux server echoes the tag,
    /// so a late reply to a timed-out attempt is discarded instead of
    /// being mistaken for the current attempt's answer — re-sends cannot
    /// pair the wrong reply with the wrong request.
    ///
    /// Pacing: attempt `i` is preceded by a sleep drawn uniformly from
    /// `[T·2ⁱ⁻¹/16, T·2ⁱ⁻¹/8)` (capped at `T`, where `T` is
    /// `attempt_timeout`) — exponential so persistent overload sheds
    /// load, jittered (xorshift seeded from the shared monotonic clock)
    /// so a cohort of clients that timed out together does not re-send in
    /// lockstep. The sleep is host time even on simulated backends; only
    /// pacing depends on it, never correctness. Retries are observable as
    /// [`ProtoEvent::RetryAttempted`] / [`ProtoEvent::RetryExhausted`].
    ///
    /// # Errors
    ///
    /// As classified above.
    ///
    /// # Panics
    ///
    /// If `attempts` is zero.
    pub fn call_retry(
        &self,
        mut msg: Message,
        attempt_timeout: Duration,
        attempts: u32,
    ) -> Result<Message, IpcError> {
        assert!(attempts >= 1, "call_retry needs at least one attempt");
        msg.channel = 0;
        let mut rng = monotonic_nanos() | 1;
        let mut next_rand = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for i in 0..attempts {
            if i > 0 {
                self.os.record(ProtoEvent::RetryAttempted);
                let full = attempt_timeout
                    .saturating_mul(1u32 << (i - 1).min(3))
                    .min(attempt_timeout.saturating_mul(8))
                    / 8;
                let nanos = full.min(attempt_timeout).as_nanos().max(2) as u64;
                std::thread::sleep(Duration::from_nanos(nanos / 2 + next_rand() % (nanos / 2)));
            }
            msg.aux = next_rand();
            self.srv.channels[self.c as usize].admit(0)?;
            match self.attempt(msg, &Deadline::new(attempt_timeout), Some(msg.aux), false) {
                Err(IpcError::Timeout) => continue,
                verdict => return verdict,
            }
        }
        // Only final exhaustion poisons: the server must stop burning
        // work on a caller that has, as of now, definitively given up.
        self.srv.channels[self.c as usize]
            .reply_queue(0)
            .poison(self.os);
        self.os.record(ProtoEvent::RetryExhausted);
        Err(IpcError::RetriesExhausted)
    }

    /// Convenience: ECHO round trip, returning the echoed value.
    pub fn echo(&self, value: f64) -> f64 {
        self.call(Message::echo(0, value)).value
    }

    /// Sends the disconnect message and waits for the final reply.
    pub fn disconnect(&self) {
        let _ = self.call(Message::disconnect(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NativeConfig, NativeOs};

    /// Bound for waits the test expects to be served at once.
    const SOON: Duration = Duration::from_secs(5);

    fn native(n_sems: usize) -> Arc<NativeOs> {
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = n_sems;
        cfg.n_msgqs = 0;
        NativeOs::new(cfg)
    }

    #[test]
    fn notify_is_edge_triggered_and_coalesces() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(4)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 4, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);

        // First edge rings; every further notify — same source (level
        // held) or new source (latch held) — coalesces.
        ws.notify(&os, 1);
        ws.notify(&os, 1);
        ws.notify(&os, 2);
        ws.notify(&os, 3);
        let m = os.metrics().unwrap().snapshot();
        assert_eq!(m.doorbells_rung, 1);
        assert_eq!(m.doorbells_coalesced, 3);

        // One pass drains all three ready sources round-robin; the wait
        // polls before sleeping, so no kernel trip is needed at all.
        let mut cursor = 0;
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(1));
        assert_eq!(ws.poll(&mut cursor), Some(2));
        assert_eq!(ws.poll(&mut cursor), Some(3));
        assert_eq!(ws.poll(&mut cursor), None);
        assert_eq!(os.metrics().unwrap().snapshot().waitset_wakes, 0);

        // The ring's credit is still banked and the latch still held: a
        // bounded wait absorbs it as one spurious wake (closing the
        // cycle), then expires empty.
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_millis(50)),
            Err(IpcError::Timeout)
        );
        let m = os.metrics().unwrap().snapshot();
        assert_eq!(m.waitset_wakes, 1);
        assert!(m.doorbells_rung <= m.waitset_wakes + 1);

        // The cycle closed: the next edge rings again and is found.
        ws.notify(&os, 0);
        assert_eq!(os.metrics().unwrap().snapshot().doorbells_rung, 2);
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(0));
    }

    #[test]
    fn poll_is_round_robin_fair() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(3)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 3, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);

        // All ready; the cursor must rotate 0, 1, 2 — not re-pick 0.
        for s in 0..3 {
            ws.notify(&os, s);
        }
        let mut cursor = 0;
        assert_eq!(ws.poll(&mut cursor), Some(0));
        for s in 0..3 {
            ws.notify(&os, s);
        }
        assert_eq!(ws.poll(&mut cursor), Some(1));
        assert_eq!(ws.poll(&mut cursor), Some(2));
        assert_eq!(ws.poll(&mut cursor), Some(0));
    }

    #[test]
    fn wait_deadline_times_out_clean() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(2)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 2, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);
        let mut cursor = 0;
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, Duration::from_millis(5)),
            Err(IpcError::Timeout)
        );
        // The expiry consumed nothing: a subsequent notify still rings
        // and is still found.
        ws.notify(&os, 1);
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(1));
    }

    #[test]
    fn waitset_fsck_rebuilds_wake_state() {
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(3)).unwrap();
        let root = WaitSetRoot::create_in(&arena, 3, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);
        // Fully closes a claimed wake cycle the way a live waiter loop
        // does across its next block: the `P` takes the banked credit and
        // the post-wake store clears the latch. (The wait polls first, so
        // a claim of an already-ready source leaves both in place.)
        let close = |expect_credit: bool| {
            assert_eq!(
                os.sem_p_deadline(ws.doorbell_sem(), Duration::ZERO),
                expect_credit
            );
            ws.root.pending.store(0, Ordering::SeqCst);
        };

        // Consistent idle waitset: strict no-op.
        assert_eq!(ws.fsck(&os, |_| false), WaitSetFsck::default());

        // Consistent *ready* cycle (edge raised, latch held, one credit
        // banked): also a no-op — the banked credit is absorbed and
        // re-posted, netting to zero — and the cycle still works.
        ws.notify(&os, 2);
        assert_eq!(ws.fsck(&os, |s| s == 2), WaitSetFsck::default());
        let mut cursor = 0;
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(2));
        close(true);

        // A waiter that died between claiming the edge (its wake `P` had
        // consumed the credit and reopened the cycle) and draining the
        // source: ready word down, latch clear, no credit — yet the
        // backlog is real. fsck must resurrect the whole cycle.
        ws.notify(&os, 1);
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(1));
        close(true); // ...and the waiter "dies" here, backlog undrained
        let r = ws.fsck(&os, |s| s == 1);
        assert_eq!(
            r,
            WaitSetFsck {
                ready_raised: 1,
                latch_repaired: true,
                doorbell_rung: true,
                ..WaitSetFsck::default()
            }
        );
        assert_eq!(
            ws.wait_deadline(&os, &mut cursor, SOON),
            Ok(1),
            "resurrected cycle must wake a successor"
        );
        close(true);

        // A stale edge over a drained source plus its banked credit: both
        // absorbed, latch released.
        ws.notify(&os, 0);
        let r = ws.fsck(&os, |_| false);
        assert_eq!(
            r,
            WaitSetFsck {
                ready_cleared: 1,
                credits_absorbed: 1,
                latch_repaired: true,
                ..WaitSetFsck::default()
            }
        );
        // Second pass on the now-consistent state: idempotent, and no
        // credit survived the absorption.
        assert_eq!(ws.fsck(&os, |_| false), WaitSetFsck::default());
        close(false);
    }

    /// The same rebuild on a three-word set: repairs land on the right
    /// bit of the right word (first word, a word boundary, the partial
    /// last word), neighbours in a repaired word are left alone, and the
    /// rebuilt cycle hands the sources out in round-robin order.
    #[test]
    fn waitset_fsck_rebuilds_a_multi_word_set() {
        const N: usize = 130;
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(N)).unwrap();
        let root = WaitSetRoot::create_in(&arena, N, 0).unwrap();
        let ws = WaitSet::attach(&arena, root);
        let os = native(1).task(0);

        // Stale bits over drained sources 3, 64 and 129; source 65 is
        // ready and really backlogged; sources 63 and 128 are backlogged
        // but their bits were claimed by the dead waiter.
        for s in [3, 64, 65, 129] {
            ws.notify(&os, s);
        }
        let backlog = |s: usize| [63, 65, 128].contains(&s);
        let r = ws.fsck(&os, backlog);
        assert_eq!(
            r,
            WaitSetFsck {
                ready_raised: 2,
                ready_cleared: 3,
                ..WaitSetFsck::default()
            },
            "latch held and one credit banked: only the bits were wrong"
        );
        assert_eq!(ws.fsck(&os, backlog), WaitSetFsck::default(), "idempotent");

        let mut cursor = 64;
        assert_eq!(ws.wait_deadline(&os, &mut cursor, SOON), Ok(65));
        assert_eq!(ws.poll(&mut cursor), Some(128));
        assert_eq!(ws.poll(&mut cursor), Some(63));
        assert_eq!(ws.poll(&mut cursor), None);
    }

    fn native_for(srv: &ShardedServer) -> Arc<NativeOs> {
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = srv.config().n_sems();
        cfg.n_msgqs = 0;
        NativeOs::new(cfg)
    }

    #[test]
    fn call_retry_first_attempt_success_needs_no_retries() {
        let cfg = ShardedConfig {
            heartbeat: Duration::from_millis(5),
            ..ShardedConfig::new(2, 1)
        };
        let srv = Arc::new(ShardedServer::create(cfg).unwrap());
        let os = native_for(&srv);
        let worker = {
            let srv = Arc::clone(&srv);
            let os = os.task(0);
            std::thread::spawn(move || srv.run_worker(&os, 0, |m| m))
        };

        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);
        let reply = c0
            .call_retry(Message::echo(0, 9.0), Duration::from_secs(5), 3)
            .expect("healthy server answers on the first attempt");
        assert_eq!(reply.value, 9.0);
        c0.disconnect();
        srv.client(&t1, 1).disconnect();
        worker.join().unwrap();

        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 0);
        assert_eq!(m.retries_exhausted, 0);
    }

    /// The mux worker's half of "no silent reply loss": a client that
    /// never drains its two-deep reply queue costs the worker one
    /// heartbeat per further reply, and every one is counted.
    #[test]
    fn worker_counts_the_replies_it_could_not_deliver() {
        let cfg = ShardedConfig {
            queue_capacity: 2,
            heartbeat: Duration::from_millis(1),
            ..ShardedConfig::new(1, 1)
        };
        let srv = Arc::new(ShardedServer::create(cfg).unwrap());
        let os = native_for(&srv);
        let worker = {
            let srv = Arc::clone(&srv);
            let os = os.task(0);
            std::thread::spawn(move || srv.run_worker(&os, 0, |m| m))
        };
        let t1 = os.task(1);
        let ch = srv.channel(0);
        let post = |m: Message| {
            assert!(ch.receive_queue().try_enqueue(&t1, m));
            srv.waitset(0).notify(&t1, 0);
        };
        post(Message::echo(0, 1.0));
        post(Message::echo(0, 2.0));
        while ch.reply_queue(0).queued_len() < 2 {
            std::thread::yield_now();
        }
        post(Message::echo(0, 3.0));
        post(Message::disconnect(0));
        let run = worker.join().unwrap();
        assert_eq!((run.processed, run.disconnects), (4, 1));
        assert_eq!(run.replies_dropped, 2, "the third echo and the farewell");
        assert_eq!(run.metrics.replies_dropped, 2);
    }

    #[test]
    fn call_retry_exhausts_then_poisons_against_a_silent_server() {
        // No worker at all: every attempt times out (the server is
        // "wedged", not provably dead — its liveness word still reads
        // alive), so the taxonomy says retry, retry, then give up.
        let srv = Arc::new(ShardedServer::create(ShardedConfig::new(1, 1)).unwrap());
        let os = native_for(&srv);
        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);

        let err = c0
            .call_retry(Message::echo(0, 1.0), Duration::from_millis(2), 3)
            .unwrap_err();
        assert_eq!(err, IpcError::RetriesExhausted);
        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 2, "attempts 2 and 3 are retries");
        assert_eq!(m.retries_exhausted, 1);

        // Inner attempts did not poison — only the final exhaustion did,
        // and from here on the failure is fail-fast, not retried.
        assert!(srv.channel(0).reply_queue(0).is_poisoned());
        assert_eq!(
            c0.call_retry(Message::echo(0, 2.0), Duration::from_millis(2), 3)
                .unwrap_err(),
            IpcError::Poisoned
        );
        assert_eq!(
            os.metrics().unwrap().task_snapshot(1).retries_attempted,
            2,
            "fail-fast verdicts must not burn retry attempts"
        );
    }

    #[test]
    fn call_retry_fails_fast_on_stale_generation() {
        let srv = Arc::new(ShardedServer::create(ShardedConfig::new(1, 1)).unwrap());
        let os = native_for(&srv);
        let t1 = os.task(1);
        let c0 = srv.client(&t1, 0);

        // A takeover happened under this handle: retrying cannot help,
        // the caller must revalidate, so not one attempt is spent.
        srv.channel(0).arena().bump_generation();
        assert_eq!(
            c0.call_retry(Message::echo(0, 3.0), Duration::from_secs(1), 5)
                .unwrap_err(),
            IpcError::StaleGeneration
        );
        let m = os.metrics().unwrap().task_snapshot(1);
        assert_eq!(m.retries_attempted, 0);
        assert_eq!(m.retries_exhausted, 0);

        // Revalidation adopts the new incarnation and the queue was
        // never poisoned by the stale refusals.
        srv.channel(0).revalidate();
        assert!(!srv.channel(0).reply_queue(0).is_poisoned());
    }

    #[test]
    fn hash_routing_covers_all_shards() {
        let srv =
            ShardedServer::create(ShardedConfig::new(64, 4)).expect("create sharded topology");
        // Every client routed, every shard populated, slots consistent.
        for c in 0..64u32 {
            let s = srv.shard_for(c);
            assert!(srv.shard_members(s).contains(&c));
        }
        for s in 0..4 {
            assert!(
                !srv.shard_members(s).is_empty(),
                "hash left shard {s} empty"
            );
        }
        let total: usize = (0..4).map(|s| srv.shard_members(s).len()).sum();
        assert_eq!(total, 64);
    }
}
