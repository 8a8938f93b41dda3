//! The shared-memory channel: server receive queue, per-client reply
//! queues, and the `awake` flags of the sleep/wake-up protocols. A message
//! rides *in* its queue (the three words of [`Message::to_words`] are the
//! FIFO element), so the channel owns no message storage of its own.
//!
//! §2.1: "The implementation ... uses two queues: a receive queue at the
//! server for incoming messages, and a reply queue for responses back to
//! the client. If multiple clients want to connect to the server, the
//! single receive queue is still adequate but a reply queue per client is
//! required. In this case, each client request should include the number of
//! the reply queue to be used for the response." That is exactly the layout
//! of [`ChannelRoot`].

use crate::fault::IpcError;
use crate::metrics::ProtoEvent;
use crate::msg::Message;
use crate::platform::{client_sem, server_sem, Cost, OsServices};
use crate::protocol::{call_failed, dead_channel, round_trip, Deadline, WaitStrategy};
use core::sync::atomic::{AtomicU32, Ordering};
use core::time::Duration;
use std::sync::Arc;
use usipc_queue::{
    AnyShmFifo, EnqueueFlow, FifoView, QueueKind, RingMode, RingReclaim, LOCK_BUDGET,
};
use usipc_shm::{CacheAligned, ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// A FIFO queue plus the sleep/wake-up state of its single consumer: the
/// `awake` flag the protocols test-and-set. The counting semaphore the
/// consumer sleeps on is kernel state, named by the position-derived
/// convention of [`platform`](crate::platform) rather than stored here.
///
/// The `awake` flag gets its own cache line: every producer `tas`es it on
/// every wake-up check while the consumer hammers the adjacent queue
/// handle and, in the reply-queue array, the next client's state starts
/// right after — without the padding each `tas` would ping-pong a line that
/// innocent bystanders are reading. (`CacheAligned` also makes the struct
/// 64-aligned, so consecutive elements of the reply `ShmSlice` never share
/// a line either.)
#[repr(C)]
#[derive(Debug)]
pub struct WaitableQueue {
    queue: AnyShmFifo,
    awake: CacheAligned<AtomicU32>,
    fault: CacheAligned<FaultHeader>,
}

/// The failure-model words of one queue (see DESIGN.md, "Failure model").
/// They live on their own cache line so that fault bookkeeping — touched
/// only on slow paths and by heartbeats — never contends with the `awake`
/// flag the fast path test-and-sets.
#[repr(C)]
#[derive(Debug)]
pub struct FaultHeader {
    /// Sticky poison flag: once set it is never cleared, so a fallible
    /// caller that observes it can trust the channel is dead for good.
    poison: AtomicU32,
    /// Consumer liveness: `1` while the consumer is considered alive,
    /// `0` once its death has been marked (by its own unwind guard on
    /// native, or by a fault plan in the simulator).
    consumer_live: AtomicU32,
    /// Consumer heartbeat epoch: bumped by the consumer each time it
    /// passes through its receive loop. A survivor that watches this word
    /// across a deadline period can bound detection latency even when
    /// death was never marked explicitly.
    heartbeat: AtomicU32,
}

unsafe impl ShmSafe for WaitableQueue {}

impl WaitableQueue {
    /// Creates a queue (with its `awake` flag initially set) in `arena`.
    /// `kind` selects the implementation; `mode` is the ring's producer
    /// topology (ignored for the two-lock kind): the shared receive queue
    /// is multi-producer, a reply queue has one producer (the server, or
    /// the one worker of the client's shard).
    pub(crate) fn create(
        arena: &ShmArena,
        capacity: usize,
        kind: QueueKind,
        mode: RingMode,
    ) -> Result<Self, ShmError> {
        Ok(WaitableQueue {
            queue: AnyShmFifo::create(arena, capacity, kind, mode)?,
            awake: CacheAligned::new(AtomicU32::new(1)),
            fault: CacheAligned::new(FaultHeader {
                poison: AtomicU32::new(0),
                consumer_live: AtomicU32::new(1),
                heartbeat: AtomicU32::new(0),
            }),
        })
    }
}

/// Root structure of one client/server channel, published in the arena so
/// that every attaching party finds the same queues.
#[repr(C)]
#[derive(Debug)]
pub struct ChannelRoot {
    /// The server's receive queue.
    receive: WaitableQueue,
    /// One reply queue per client.
    reply: ShmSlice<WaitableQueue>,
    n_clients: u32,
    /// First platform semaphore index this channel uses (see
    /// [`ChannelConfig::with_sem_base`]); `server_sem()`/`client_sem(c)`
    /// are offsets from it.
    sem_base: u32,
    /// Platform task number of the server (hand-off target), `u32::MAX`
    /// until the server registers.
    server_task: AtomicU32,
}

unsafe impl ShmSafe for ChannelRoot {}

/// Sizing parameters for a channel.
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Number of clients (and hence reply queues).
    pub n_clients: usize,
    /// Capacity of each queue (requests outstanding before flow control).
    pub queue_capacity: usize,
    /// Additional arena bytes reserved for structures the application
    /// co-locates with the channel (e.g. a [`BulkPool`](crate::BulkPool),
    /// sized via [`BulkPool::bytes_needed`](crate::BulkPool::bytes_needed)).
    /// The channel's own allocations are sized exactly, so co-located data
    /// must be declared here rather than borrowed from slack.
    pub extra_bytes: usize,
    /// First platform semaphore index the channel's queues use: the
    /// server's receive semaphore is `sem_base + server_sem()` and client
    /// `c`'s reply semaphore is `sem_base + client_sem(c)`. Defaults to 0
    /// (a single channel owning the whole semaphore table, the historical
    /// layout); multiple channels sharing one platform — the WaitSet
    /// multiplexing topology — give each channel a disjoint block so
    /// their semaphores never alias.
    pub sem_base: u32,
    /// Which queue implementation every queue of this channel uses:
    /// [`QueueKind::Ring`] (the default: lock-free — a SIGKILLed producer
    /// can never wedge survivors on an abandoned lock) or
    /// [`QueueKind::TwoLock`] (the paper's queue, kept as its baseline).
    /// The same protocol code runs on both; flow-control signals are
    /// identical.
    pub queue_kind: QueueKind,
    /// Two-lock kind only: worst-case number of *concurrent dequeuers per
    /// queue* the deployment can produce. The default of 2 covers every
    /// shipped topology: a queue's single consumer plus one concurrent
    /// fault-path drainer (a poisoner).
    /// [`Channel::create`] rejects values above
    /// [`usipc_queue::POOL_SLACK`], because the two-lock queue's "full
    /// means full" exactness contract only holds while
    /// dequeuers-in-flight cannot exhaust the node pool's slack. The ring
    /// has no node pool, and ignores this.
    pub max_dequeuers: usize,
}

impl ChannelConfig {
    /// A channel for `n_clients` clients with the default queue depth.
    pub fn new(n_clients: usize) -> Self {
        ChannelConfig {
            n_clients,
            queue_capacity: 64,
            extra_bytes: 0,
            sem_base: 0,
            queue_kind: QueueKind::default(),
            max_dequeuers: 2,
        }
    }

    /// Reserves `bytes` of arena space for co-located application data.
    #[must_use]
    pub fn with_extra_bytes(mut self, bytes: usize) -> Self {
        self.extra_bytes = bytes;
        self
    }

    /// Places the channel's semaphores at `base` in the platform's
    /// semaphore table (see [`ChannelConfig::sem_base`]).
    #[must_use]
    pub fn with_sem_base(mut self, base: u32) -> Self {
        self.sem_base = base;
        self
    }

    /// Selects the queue implementation (see [`ChannelConfig::queue_kind`]).
    #[must_use]
    pub fn with_queue_kind(mut self, kind: QueueKind) -> Self {
        self.queue_kind = kind;
        self
    }

    /// Arena bytes this channel needs — the exact sizing
    /// [`Channel::create`] uses, exposed so a caller building its *own*
    /// arena (e.g. a memfd segment that also holds the semaphore table and
    /// a bootstrap root) can budget for a [`Channel::create_in`].
    ///
    /// Derived from the actual types, allocation by allocation (each
    /// helper already includes its own worst-case alignment slack): one
    /// queue of the configured kind per client plus the receive queue —
    /// each holding its own messages — the reply-queue array, and the
    /// root. No magic constants — a large config neither exhausts the
    /// arena nor over-allocates.
    pub fn bytes_needed(&self) -> usize {
        (self.n_clients + 1) * AnyShmFifo::bytes_needed(self.queue_capacity, self.queue_kind)
            + self.n_clients * core::mem::size_of::<WaitableQueue>()
            + core::mem::align_of::<WaitableQueue>()
            + core::mem::size_of::<ChannelRoot>()
            + core::mem::align_of::<ChannelRoot>()
            + self.extra_bytes
    }
}

/// Host-side handle to a channel (owns the arena; clone freely).
///
/// Besides the arena and root offset, the handle carries a process-local
/// *generation stamp*: the segment generation
/// ([`ShmArena::generation`]) observed when this handle was built. A
/// successor server that takes over a crashed segment bumps the segment
/// generation after repairing it (see [`recover`](crate::recover)), which
/// makes every handle stamped under the old incarnation *stale*: its
/// fallible calls fail fast with
/// [`IpcError::StaleGeneration`](crate::fault::IpcError::StaleGeneration)
/// instead of operating on state that was audited — and possibly
/// repaired — out from under them. A stale holder opts back in explicitly
/// with [`Channel::revalidate`]. Clones share one stamp, so revalidating
/// any clone revalidates them all.
///
/// Building a handle ([`Self::from_root`]) is the **trust boundary**: every
/// queue is resolved and validated there, once, into a table of
/// [`QueueRef`]s the clones share; no operation re-reads an offset.
#[derive(Clone)]
pub struct Channel {
    arena: Arc<ShmArena>,
    root: ShmPtr<ChannelRoot>,
    local: Arc<Local>,
}

/// What a handle and its clones share in the process (*not* segment state).
struct Local {
    /// Segment generation the handles consider current.
    stamp: AtomicU32,
    /// `[0]` is the receive queue, `[1 + c]` client `c`'s reply queue;
    /// `'static` stands for "while `arena` is mapped" ([`Channel::from_root`]).
    queues: Vec<QueueRef<'static>>,
}

impl core::fmt::Debug for Channel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Channel({:?}, {:?})", self.arena, self.root)
    }
}

impl Channel {
    /// Creates the arena and channel structures for `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion (the arena is sized from the config, so
    /// this only fires for absurd configurations).
    pub fn create(cfg: &ChannelConfig) -> Result<Channel, ShmError> {
        let arena = Arc::new(ShmArena::new(cfg.bytes_needed())?);
        let ch = Self::create_in(arena, cfg)?;
        ch.arena.publish_root(ch.root);
        Ok(ch)
    }

    /// Builds the channel structures inside a caller-provided arena — the
    /// entry point for a process-shared segment that co-locates more than
    /// one top-level object (semaphore table, bootstrap root, ...).
    ///
    /// Unlike [`Self::create`], the channel root is **not** published as
    /// the arena root: the caller owns the bootstrap story, embedding
    /// [`Self::root_ptr`] in whatever structure it publishes, and peers
    /// rebuild a handle with [`Self::from_root`]. Budget the arena with
    /// [`ChannelConfig::bytes_needed`].
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create_in(arena: Arc<ShmArena>, cfg: &ChannelConfig) -> Result<Channel, ShmError> {
        assert!(cfg.n_clients >= 1, "channel needs at least one client");
        assert!(cfg.queue_capacity >= 2, "queues need capacity >= 2");
        // The POOL_SLACK exactness contract (see ChannelConfig::max_dequeuers)
        // is the two-lock node pool's: enforced here, at the only point
        // that knows the deployment's concurrency, so "enqueue said full"
        // always means full.
        assert!(
            cfg.queue_kind != QueueKind::TwoLock
                || (1..=usipc_queue::POOL_SLACK).contains(&cfg.max_dequeuers),
            "max_dequeuers {} outside 1..={}: more concurrent dequeuers than \
             POOL_SLACK could exhaust the node pool and fake a full queue",
            cfg.max_dequeuers,
            usipc_queue::POOL_SLACK
        );
        let receive =
            WaitableQueue::create(&arena, cfg.queue_capacity, cfg.queue_kind, RingMode::Mpsc)?;
        let reply = arena.alloc_slice(cfg.n_clients, |_| {
            WaitableQueue::create(&arena, cfg.queue_capacity, cfg.queue_kind, RingMode::Spsc)
                .expect("arena sized for queues")
        })?;
        let root = arena.alloc(ChannelRoot {
            receive,
            reply,
            n_clients: cfg.n_clients as u32,
            sem_base: cfg.sem_base,
            server_task: AtomicU32::new(u32::MAX),
        })?;
        Self::from_root(arena, root)
    }

    /// Rebuilds a handle from an explicit root pointer — the attaching
    /// side of [`Self::create_in`], for channels whose root was embedded
    /// in a larger bootstrap structure instead of published as the arena
    /// root. Everything the handle will rely on is validated here: the
    /// root and the reply array (in the allocated range, aligned),
    /// `n_clients` against the array's length, every queue
    /// ([`AnyShmFifo::view`]) — [`ShmError::BadSegment`] when any of it is
    /// malformed, never a later operation's panic.
    pub fn from_root(arena: Arc<ShmArena>, root: ShmPtr<ChannelRoot>) -> Result<Channel, ShmError> {
        // SAFETY: the one lifetime erasure behind the queue table. The
        // reference is to the `ShmArena` inside the `Arc` allocation, which
        // the `arena` field keeps alive (segment mapped, base fixed) while
        // the `Channel` or any clone exists; what is resolved through it is
        // stored only in `local`, beside that `Arc`, and handed out only at
        // `&self`'s lifetime (`receive_queue`, `try_reply_queue`).
        let mapped: &'static ShmArena = unsafe { &*Arc::as_ptr(&arena) };
        let r = mapped.try_get(root)?;
        let reply = mapped.try_get_slice(r.reply)?;
        if r.n_clients == 0 || r.n_clients as usize != reply.len() {
            return Err(ShmError::BadSegment);
        }
        let mut queues = Vec::with_capacity(1 + reply.len());
        let sems = core::iter::once(server_sem()).chain((0..).map(client_sem));
        for (wq, sem) in core::iter::once(&r.receive).chain(reply).zip(sems) {
            queues.push(QueueRef::new(mapped, wq, r.sem_base.wrapping_add(sem))?);
        }
        let stamp = AtomicU32::new(arena.generation());
        let local = Arc::new(Local { stamp, queues });
        Ok(Channel { arena, root, local })
    }

    /// This channel's root offset, for embedding in a caller-owned
    /// bootstrap structure (see [`Self::create_in`]).
    pub fn root_ptr(&self) -> ShmPtr<ChannelRoot> {
        self.root
    }

    /// Attaches to a channel previously created in `arena` (the peer's
    /// bootstrap path: a process that maps the shared segment knows only
    /// the base address and finds everything else through the published
    /// root offset).
    ///
    /// [`ShmError::BadSegment`] if no channel root was published in this
    /// arena, or what was published is malformed ([`Self::from_root`]).
    pub fn attach(arena: Arc<ShmArena>) -> Result<Channel, ShmError> {
        let root = arena.root().ok_or(ShmError::BadSegment)?;
        Self::from_root(arena, root)
    }

    fn root(&self) -> &ChannelRoot {
        self.arena.get(self.root)
    }

    /// The shared arena (for applications that co-locate bulk data).
    pub fn arena(&self) -> &Arc<ShmArena> {
        &self.arena
    }

    /// Number of clients the channel was created for.
    #[inline]
    pub fn n_clients(&self) -> u32 {
        self.local.queues.len() as u32 - 1
    }

    /// Which queue implementation this channel's queues run on.
    pub fn queue_kind(&self) -> QueueKind {
        self.root().receive.queue.kind()
    }

    /// Registers the server's platform task number as the hand-off target.
    pub fn register_server_task(&self, task: u32) {
        self.root().server_task.store(task, Ordering::Release);
    }

    /// The server's platform task number (`u32::MAX` if unregistered).
    pub fn server_task(&self) -> u32 {
        self.root().server_task.load(Ordering::Acquire)
    }

    /// The segment generation this handle was validated against (see the
    /// type-level docs on staleness).
    pub fn generation(&self) -> u32 {
        self.local.stamp.load(Ordering::Acquire)
    }

    /// The segment's *current* generation — what
    /// [`ShmArena::generation`] reports right now. Differs from
    /// [`Self::generation`] exactly when a takeover reincarnated the
    /// segment after this handle was built.
    pub fn segment_generation(&self) -> u32 {
        self.arena.generation()
    }

    /// Whether a takeover has moved the segment past this handle's
    /// incarnation. One shared-memory load plus a process-local load — no
    /// kernel entry — so fallible call paths check it on entry.
    pub fn is_stale(&self) -> bool {
        self.local.stamp.load(Ordering::Acquire) != self.arena.generation()
    }

    /// The fail-fast entry checks of a bounded call by client `c`: a stale
    /// handle, then a poisoned channel — loads only, no kernel entry, no
    /// queue traffic. Generation first: after a takeover the old
    /// incarnation's poison flags have been audited away, so a stale handle
    /// must not read (or, worse, trust) any per-queue state.
    pub(crate) fn admit(&self, c: u32) -> Result<(), IpcError> {
        if self.is_stale() {
            return Err(IpcError::StaleGeneration);
        }
        if self.receive_queue().is_poisoned() || self.reply_queue(c).is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        Ok(())
    }

    /// Accepts the segment's current incarnation: re-stamps this handle
    /// (and every clone sharing its stamp) with the live segment
    /// generation. Called by a successor after it bumps the generation,
    /// and by any stale client that has re-synchronized with the new
    /// server and wants back in. Returns the generation adopted.
    pub fn revalidate(&self) -> u32 {
        let g = self.arena.generation();
        self.local.stamp.store(g, Ordering::Release);
        g
    }

    /// View of the server receive queue.
    ///
    /// Raw access is public so that applications can build custom protocols
    /// over the same substrate (one of the paper's §1 motivations for
    /// user-level IPC); the shipped protocols in [`protocol`](crate::protocol)
    /// are all written against this interface.
    // Inlined into the (caller-instantiated) server loop: returned through
    // memory and copied into the loop's state, the view cost `mux_sat` a
    // store-forwarding stall per message.
    #[inline]
    pub fn receive_queue(&self) -> QueueRef<'_> {
        self.local.queues[0]
    }

    /// View of client `c`'s reply queue (see [`Self::receive_queue`] on raw
    /// access).
    ///
    /// # Panics
    ///
    /// If `c` is out of range. Server paths handling a *client-supplied*
    /// channel number must use [`Self::try_reply_queue`] instead: the field
    /// crosses the shared-memory trust boundary, and a hostile or corrupted
    /// value must not take the server down.
    #[inline]
    pub fn reply_queue(&self, c: u32) -> QueueRef<'_> {
        self.try_reply_queue(c)
            .unwrap_or_else(|| panic!("client {c} out of range"))
    }

    /// Fallible view of client `c`'s reply queue: `None` when `c` names no
    /// queue. This is the only safe way to resolve a channel number read
    /// out of a request message.
    #[inline]
    pub fn try_reply_queue(&self, c: u32) -> Option<QueueRef<'_>> {
        self.local.queues[1..].get(c as usize).copied()
    }

    /// The server's death rites: marks the receive queue's consumer (the
    /// server) dead and poisons **every** queue of the channel, so each
    /// client — whether mid-enqueue, blocked on its reply semaphore, or
    /// yet to call — fails fast with
    /// [`IpcError::PeerDead`](crate::fault::IpcError::PeerDead) instead of
    /// waiting on a server that is gone. Called from the server's
    /// [`ServerDeathWatch`](crate::fault::ServerDeathWatch) unwind guard
    /// on native and from kill-injection points in the simulator.
    pub fn tombstone_server<O: OsServices>(&self, os: &O) {
        self.receive_queue().mark_consumer_dead(os);
        for c in 0..self.n_clients() {
            self.reply_queue(c).poison(os);
        }
    }

    /// Builds a client endpoint.
    pub fn client<'a, O: OsServices>(
        &'a self,
        os: &'a O,
        id: u32,
        strategy: WaitStrategy,
    ) -> ClientEndpoint<'a, O> {
        assert!(id < self.n_clients(), "client id out of range");
        ClientEndpoint {
            ch: self,
            os,
            id,
            strategy,
        }
    }

    /// Builds the server endpoint.
    pub fn server<'a, O: OsServices>(
        &'a self,
        os: &'a O,
        strategy: WaitStrategy,
    ) -> ServerEndpoint<'a, O> {
        ServerEndpoint {
            ch: self,
            os,
            strategy,
        }
    }
}

/// A resolved view of one waitable queue: the primitive layer the protocol
/// figures are written in terms of (`enqueue`, `dequeue`, `empty`, `awake`,
/// `tas`, and the consumer's semaphore), its FIFO resolved and validated.
#[derive(Clone, Copy)]
pub struct QueueRef<'a> {
    fifo: FifoView<'a>,
    wq: &'a WaitableQueue,
    sem: u32,
}

impl<'a> QueueRef<'a> {
    /// Resolves `wq`'s FIFO in `arena` ([`AnyShmFifo::view`]).
    pub(crate) fn new(
        arena: &'a ShmArena,
        wq: &'a WaitableQueue,
        sem: u32,
    ) -> Result<Self, ShmError> {
        let fifo = wq.queue.view(arena)?;
        Ok(QueueRef { fifo, wq, sem })
    }
}

impl QueueRef<'_> {
    /// `enqueue(Q, msg)`: `false` means the queue is full (flow control).
    ///
    /// On the two-lock queue the tail-lock acquisition is *bounded*: if a
    /// producer was SIGKILLed inside its critical section, each attempt
    /// gives up after the yield budget and reports "full", degrading to
    /// the protocols' ordinary back-off loop — each retry is individually
    /// bounded, so the old unbounded wedge cannot recur, and the fallible
    /// paths' deadline/poison machinery eventually declares the peer dead.
    /// The ring has no locks; a poison-drain racing this enqueue may eat
    /// the claimed slot (`Dropped`), which counts as enqueued-then-drained
    /// (dead-peer semantics), so the caller still sees `true`.
    pub fn try_enqueue<O: OsServices>(&self, os: &O, m: Message) -> bool {
        os.charge(Cost::QueueOp);
        let flow = self.fifo.try_enqueue_elem(m.to_words(), LOCK_BUDGET);
        let accepted = matches!(flow, EnqueueFlow::Queued | EnqueueFlow::Dropped);
        if accepted {
            os.record(ProtoEvent::Enqueue);
        }
        accepted
    }

    /// `dequeue(Q, msg)`: `None` means the queue is empty. The words come
    /// out of the queue's own slot and are decoded, not followed: nothing a
    /// peer wrote is used as an offset.
    pub fn try_dequeue<O: OsServices>(&self, os: &O) -> Option<Message> {
        os.charge(Cost::QueueOp);
        let m = Message::from_words(self.fifo.dequeue_elem()?);
        os.record(ProtoEvent::Dequeue);
        Some(m)
    }

    /// `empty(Q)`: the cheap poll of the BSLS spin loop.
    pub fn is_empty<O: OsServices>(&self, os: &O) -> bool {
        os.charge(Cost::Poll);
        self.fifo.is_empty()
    }

    /// `Q->awake = 0` (consumer announcing it may sleep).
    pub fn clear_awake<O: OsServices>(&self, os: &O) {
        os.charge(Cost::Tas);
        self.wq.awake.store(0, Ordering::SeqCst);
    }

    /// `Q->awake = 1` (plain store after waking).
    pub fn set_awake<O: OsServices>(&self, os: &O) {
        os.charge(Cost::Tas);
        self.wq.awake.store(1, Ordering::SeqCst);
    }

    /// `tas(&Q->awake)`: sets the flag, returns whether it was already set.
    pub fn tas_awake<O: OsServices>(&self, os: &O) -> bool {
        os.charge(Cost::Tas);
        self.wq.awake.swap(1, Ordering::SeqCst) != 0
    }

    /// The consumer's semaphore index.
    #[inline]
    pub fn sem(&self) -> u32 {
        self.sem
    }

    /// Producer-side wake-up: `if (!tas(&Q->awake)) V(Q->sem)` — only the
    /// first producer to find the flag clear posts the wake-up (the fix for
    /// Execution Interleaving 2 of Fig. 4).
    pub fn wake_consumer<O: OsServices>(&self, os: &O) {
        if !self.tas_awake(os) {
            os.sem_v(self.sem);
        }
    }

    /// Current queue length (diagnostics; the overload check of the
    /// throttled server reads this).
    pub fn queued_len(&self) -> usize {
        self.fifo.len()
    }

    // --- failure model (DESIGN.md, "Failure model") -----------------------
    //
    // None of these cost a kernel entry or a virtual-time charge: poison
    // is one load at bounded-call entry, before each enqueue attempt and
    // after a failed dequeue, so the BSW four-sem-ops-per-round-trip
    // accounting is untouched.

    /// Whether the channel has been poisoned. A plain shared-memory load —
    /// no kernel entry, no virtual-time charge.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.wq.fault.poison.load(Ordering::Acquire) != 0
    }

    /// Poisons the queue: sets the sticky flag, force-wakes the consumer
    /// (awake flag raised *and* an unconditional `V`, so a consumer
    /// committed to blocking cannot sleep through its peer's death), and
    /// drains the in-flight messages so no queue capacity stays occupied.
    /// Idempotent; only the first call records
    /// [`ProtoEvent::ChannelPoisoned`] and pays the broadcast.
    pub fn poison<O: OsServices>(&self, os: &O) {
        if self.wq.fault.poison.swap(1, Ordering::AcqRel) != 0 {
            return;
        }
        os.record(ProtoEvent::ChannelPoisoned);
        // Broadcast wake-up: raise `awake` so no future clear-and-recheck
        // commits to sleep, then post a credit for any waiter already in
        // the kernel. The possible stray credit is absorbed by the
        // protocols' tas/recheck path.
        self.wq.awake.store(1, Ordering::SeqCst);
        os.sem_v(self.sem);
        self.drain(os);
    }

    /// Discards every queued message (poisoned-channel cleanup; the
    /// messages are lost, which is exactly the semantics of a dead peer).
    ///
    /// Best-effort: the drain is usually run *on behalf of a dead
    /// consumer* ([`Self::mark_consumer_dead`]), and a consumer that was
    /// SIGKILLed inside its dequeue critical section left the two-lock
    /// queue's head lock held in the segment forever. Each dequeue
    /// therefore bounds its lock acquisition and the drain stops at an
    /// abandoned lock, stranding the messages still queued behind it
    /// rather than livelocking the poisoner — the channel is already
    /// poisoned, so that capacity was unreachable either way. Every
    /// message stranded this way is *counted* ([`ProtoEvent::SlotLeaked`],
    /// surfaced as a telemetry gauge and a `usipc-top` column) so segment
    /// attrition is visible instead of silent. On the ring kind nothing
    /// can strand: the drain also retires holes left by producers that
    /// died between claim and publish ([`ProtoEvent::HoleRetired`]) — the
    /// slot goes back into service and only the corpse's own message is
    /// lost.
    pub fn drain<O: OsServices>(&self, os: &O) {
        let fifo = self.fifo;
        loop {
            os.charge(Cost::QueueOp);
            match fifo.dequeue_bounded(LOCK_BUDGET) {
                Ok(Some(_)) => os.record(ProtoEvent::Dequeue),
                Ok(None) => match fifo.reclaim_stuck() {
                    // The "dead" producer published in the race window:
                    // the message is real, consumed like a dequeue.
                    RingReclaim::Recovered(_) => os.record(ProtoEvent::Dequeue),
                    RingReclaim::Leaked => os.record(ProtoEvent::HoleRetired),
                    RingReclaim::Clean => return,
                },
                Err(usipc_queue::HeadLockBusy) => {
                    // Two-lock only: everything still queued is stranded
                    // behind the abandoned head lock. Count it, then stop.
                    for _ in 0..fifo.len() {
                        os.record(ProtoEvent::SlotLeaked);
                    }
                    return;
                }
            }
        }
    }

    /// Marks this queue's consumer dead (called from the dying task's
    /// unwind guard on native, or by a fault scenario in the simulator)
    /// and poisons the queue on its behalf so survivors fail fast.
    pub fn mark_consumer_dead<O: OsServices>(&self, os: &O) {
        self.wq.fault.consumer_live.store(0, Ordering::Release);
        self.poison(os);
    }

    /// Whether the consumer of this queue is still considered alive.
    #[inline]
    pub fn consumer_alive(&self) -> bool {
        self.wq.fault.consumer_live.load(Ordering::Acquire) != 0
    }

    /// Consumer heartbeat: bump the epoch word (called once per receive
    /// pass; a relaxed store on an otherwise-private line).
    #[inline]
    pub fn beat(&self) {
        self.wq.fault.heartbeat.fetch_add(1, Ordering::Relaxed);
    }

    /// Current heartbeat epoch (watch across a deadline period to detect
    /// a wedged-but-unmarked peer).
    pub fn heartbeat(&self) -> u32 {
        self.wq.fault.heartbeat.load(Ordering::Acquire)
    }

    // --- recovery hooks ([`recover`](crate::recover)) ---------------------
    //
    // Everything below runs only under fsck's quiescence contract: the dead
    // incarnation's server is gone, and every surviving client is either
    // blocked in the kernel or failing fast on poison/staleness — nobody
    // else is mutating this queue. All repairs are conditional so that
    // recovery of a clean segment is a byte-level no-op.

    /// Structural fsck of the underlying FIFO: break provably-abandoned
    /// locks (two-lock), retire stranded ring slots, reclaim uncommitted
    /// nodes, and return the committed messages' words in order
    /// ([`Message::from_words`] decodes them; they stay queued).
    pub(crate) fn fsck_fifo(&self, break_locks: bool) -> usipc_queue::FifoFsck {
        self.fifo.fsck(break_locks)
    }

    /// Whether the consumer announced intent to sleep (`awake == 0`): the
    /// recovery-time signature of a client parked mid-call. A raw load —
    /// no cost charge, because fsck runs outside any protocol.
    pub fn awake_down(&self) -> bool {
        self.wq.awake.load(Ordering::Acquire) == 0
    }

    /// Restores the `awake` flag to its created state (`1`). Returns
    /// whether it was actually down — a consumer that died between
    /// `clear_awake` and its semaphore `P`.
    pub(crate) fn restore_awake(&self) -> bool {
        if self.wq.awake.load(Ordering::Acquire) == 0 {
            self.wq.awake.store(1, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Clears the fault words back to live-and-unpoisoned — the one
    /// deliberate exception to the "poison is sticky" contract. It is
    /// sound only because the caller bumps the segment generation in the
    /// same recovery: handles stamped under the old incarnation are fenced
    /// off by the generation check *before* they can observe (and wrongly
    /// trust) the cleared poison. Returns whether anything was reset.
    pub(crate) fn reset_fault_state(&self) -> bool {
        let mut did = false;
        if self.wq.fault.poison.load(Ordering::Acquire) != 0 {
            self.wq.fault.poison.store(0, Ordering::SeqCst);
            did = true;
        }
        if self.wq.fault.consumer_live.load(Ordering::Acquire) == 0 {
            self.wq.fault.consumer_live.store(1, Ordering::SeqCst);
            did = true;
        }
        did
    }

    /// The underlying FIFO handle, for drills that must stop a producer or
    /// consumer *inside* a queue operation (the ring's stepped ops) or
    /// write words no well-behaved client would.
    #[doc(hidden)]
    pub fn fifo(&self) -> AnyShmFifo {
        self.wq.queue
    }
}

/// Client-side endpoint: synchronous `Send` (and the asynchronous
/// extension via [`AsyncClient`](crate::AsyncClient)).
pub struct ClientEndpoint<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    id: u32,
    strategy: WaitStrategy,
}

impl<O: OsServices> ClientEndpoint<'_, O> {
    /// This client's reply-queue index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Synchronous `Send`: enqueue the request and wait for the reply under
    /// the endpoint's wait strategy — [`Self::call_deadline`]'s body with
    /// no deadline (see [`protocol`](crate::protocol), "Infallible = no
    /// deadline").
    ///
    /// When the backend collects metrics, calls feed the endpoint's
    /// round-trip latency histogram: every call in virtual time on the
    /// simulator, one in [`OsServices::latency_sample_period`] in host
    /// time on native.
    ///
    /// # Panics
    ///
    /// If the channel is poisoned under the call: the server died, or this
    /// client's reply queue was given up on. The message names the
    /// [`IpcError`].
    pub fn call(&self, msg: Message) -> Message {
        self.call_by(msg, &Deadline::never())
            .unwrap_or_else(|e| dead_channel("call", e))
    }

    /// Fallible synchronous `Send`, bounded by `timeout` and aware of the
    /// failure model (DESIGN.md, "Failure model"):
    ///
    /// * a handle stamped under a superseded segment incarnation — a
    ///   successor took over and bumped the generation — is rejected
    ///   immediately with [`IpcError::StaleGeneration`];
    ///   re-opt-in via [`Channel::revalidate`];
    /// * a poisoned channel is rejected **immediately** — one shared-memory
    ///   load, no kernel entry, no queue traffic ([`IpcError::Poisoned`]);
    /// * expiry while the request is still queued-or-unqueued returns
    ///   [`IpcError::QueueFull`] — nothing is in flight, retry freely;
    /// * expiry while waiting for the reply means the request *may* be in
    ///   flight: a late reply would desynchronize the queue, so the client
    ///   poisons its own reply channel (sticky) and returns
    ///   [`IpcError::Timeout`] — or [`IpcError::PeerDead`] when the
    ///   server's liveness word shows it died, in which case the shared
    ///   receive queue is poisoned too so every client fails fast.
    pub fn call_deadline(&self, msg: Message, timeout: Duration) -> Result<Message, IpcError> {
        self.ch.admit(self.id)?;
        self.call_by(msg, &Deadline::new(timeout))
    }

    /// One round trip under `deadline`: the body of [`Self::call`] and
    /// [`Self::call_deadline`].
    fn call_by(&self, mut msg: Message, deadline: &Deadline) -> Result<Message, IpcError> {
        msg.channel = self.id;
        round_trip(self.os, || {
            self.strategy
                .send_by(self.ch, self.os, self.id, msg, deadline)
        })
        .map_err(|e| {
            let (srv, rq) = (self.ch.receive_queue(), self.ch.reply_queue(self.id));
            call_failed(self.os, &srv, &rq, e, true)
        })
    }

    /// Convenience: ECHO round trip, returning the echoed value.
    pub fn echo(&self, value: f64) -> f64 {
        self.call(Message::echo(self.id, value)).value
    }

    /// Convenience: a request with `opcode` and `value`.
    pub fn rpc(&self, opcode: u32, value: f64) -> Message {
        self.call(Message {
            opcode,
            channel: self.id,
            value,
            aux: 0,
        })
    }

    /// Sends the disconnect message and waits for the final reply.
    pub fn disconnect(&self) {
        let _ = self.call(Message::disconnect(self.id));
    }
}

/// Server-side endpoint: `Receive` and `Reply`.
pub struct ServerEndpoint<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    strategy: WaitStrategy,
}

impl<O: OsServices> ServerEndpoint<'_, O> {
    /// Blocking `Receive` under the endpoint's wait strategy.
    ///
    /// # Panics
    ///
    /// If the receive queue is poisoned under the wait (see
    /// [`protocol`](crate::protocol), "Infallible = no deadline").
    pub fn receive(&self) -> Message {
        self.receive_within(None)
            .unwrap_or_else(|e| dead_channel("receive", e))
    }

    /// `Reply` to client `c`. A reply that cannot be delivered — `c` names
    /// no reply queue (a malformed client-supplied channel number), or the
    /// client is dead or poisoned — is dropped and counted
    /// ([`ProtoEvent::ReplyDropped`]) instead of panicking the server.
    pub fn reply(&self, c: u32, msg: Message) {
        let _ = self.reply_within(c, msg, None);
    }

    /// `Receive` bounded by `heartbeat`, or unbounded. Expiry is *normal* —
    /// no client happened to call — and poisons nothing; the server loop
    /// uses the period to scan client liveness. Only a server that has a
    /// heartbeat publishes one (so watchers can tell a waiting server from a
    /// wedged one): the epoch word shares its cache line with the poison
    /// flag every producer reads.
    pub(crate) fn receive_within(&self, heartbeat: Option<Duration>) -> Result<Message, IpcError> {
        if heartbeat.is_some() {
            self.ch.receive_queue().beat();
        }
        self.strategy
            .receive_by(self.ch, self.os, &Deadline::within(heartbeat))
    }

    /// `Reply` to client `c` bounded by `heartbeat`, or unbounded: the one
    /// reply path of every server loop, and so the one place a reply that
    /// was not delivered is counted. It fails fast instead of backing off
    /// forever against a reply queue whose client died; detecting a dead
    /// client here poisons (only) that client's reply queue.
    pub(crate) fn reply_within(
        &self,
        c: u32,
        msg: Message,
        heartbeat: Option<Duration>,
    ) -> Result<(), IpcError> {
        // By reference: binding `rq` by value copies the view out of the
        // `Option`, a 16-byte load across two 8-byte stores on every reply.
        let sent = match &self.ch.try_reply_queue(c) {
            None => {
                self.os.record(ProtoEvent::MalformedRequest);
                Err(IpcError::QueueFull)
            }
            Some(rq) if !rq.consumer_alive() => {
                self.os.record(ProtoEvent::PeerDeathDetected);
                rq.poison(self.os);
                Err(IpcError::PeerDead)
            }
            Some(rq) if rq.is_poisoned() => Err(IpcError::Poisoned),
            Some(rq) => {
                let deadline = Deadline::within(heartbeat);
                self.strategy.reply_by(rq, self.os, msg, &deadline)
            }
        };
        if sent.is_err() {
            self.os.record(ProtoEvent::ReplyDropped);
        }
        sent
    }

    /// The channel this endpoint serves.
    pub fn channel(&self) -> &Channel {
        self.ch
    }

    /// The OS services handle (for charging request work in handlers).
    pub fn os(&self) -> &O {
        self.os
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeConfig, NativeOs};
    use usipc_shm::CACHE_LINE;

    #[test]
    fn awake_flag_owns_its_cache_line() {
        assert_eq!(core::mem::align_of::<WaitableQueue>(), CACHE_LINE);
        assert_eq!(
            core::mem::offset_of!(WaitableQueue, awake) % CACHE_LINE,
            0,
            "awake must start a fresh line"
        );
        // Reply-array neighbours must not share the awake line either.
        assert_eq!(core::mem::size_of::<WaitableQueue>() % CACHE_LINE, 0);
    }

    #[test]
    fn arena_sizing_survives_worst_case_occupancy() {
        // 64 clients × 256-deep queues: every queue simultaneously full is
        // the worst case the sizing must cover — on both queue kinds.
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let cfg = ChannelConfig {
                queue_capacity: 256,
                queue_kind: kind,
                ..ChannelConfig::new(64)
            };
            let ch = Channel::create(&cfg).expect("arena sized for large configs");
            assert_eq!(ch.queue_kind(), kind);
            let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
            let mut queues = vec![ch.receive_queue()];
            for c in 0..cfg.n_clients as u32 {
                queues.push(ch.reply_queue(c));
            }
            for q in &queues {
                for i in 0..cfg.queue_capacity {
                    assert!(
                        q.try_enqueue(&os, Message::echo(0, i as f64)),
                        "{kind:?}: queue refused message {i} with the arena supposedly sized"
                    );
                }
            }
            for q in &queues {
                assert_eq!(q.queued_len(), cfg.queue_capacity);
            }
        }
    }

    #[test]
    fn arena_sizing_is_not_a_gross_overestimate() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            for cfg in [
                ChannelConfig::new(1).with_queue_kind(kind),
                ChannelConfig::new(6).with_queue_kind(kind),
                ChannelConfig {
                    queue_capacity: 256,
                    queue_kind: kind,
                    ..ChannelConfig::new(64)
                },
            ] {
                let ch = Channel::create(&cfg).expect("create");
                let (capacity, used) = (ch.arena().capacity(), ch.arena().used());
                assert!(
                    capacity <= 2 * used,
                    "{kind:?}: {} clients × {}: arena {capacity} B but only {used} B used",
                    cfg.n_clients,
                    cfg.queue_capacity
                );
            }
        }
    }

    /// Regression for the POOL_SLACK exactness contract: a two-lock
    /// config that admits more concurrent dequeuers than the node pool's
    /// slack could make `enqueue` report a spurious "full", so creation
    /// must refuse it loudly instead of letting the deployment discover it
    /// under load.
    #[test]
    #[should_panic(expected = "max_dequeuers")]
    fn create_rejects_more_dequeuers_than_pool_slack() {
        let cfg = ChannelConfig {
            max_dequeuers: usipc_queue::POOL_SLACK + 1,
            queue_kind: QueueKind::TwoLock,
            ..ChannelConfig::new(1)
        };
        let _ = Channel::create(&cfg);
    }

    /// The full boundary stays exact at the configured limit — and the
    /// ring, which has no node pool to exhaust, has no limit to check.
    #[test]
    fn create_accepts_dequeuers_up_to_pool_slack() {
        let cfg = ChannelConfig {
            max_dequeuers: usipc_queue::POOL_SLACK,
            queue_kind: QueueKind::TwoLock,
            ..ChannelConfig::new(1)
        };
        Channel::create(&cfg).expect("POOL_SLACK dequeuers are within contract");
        let cfg = ChannelConfig {
            max_dequeuers: usipc_queue::POOL_SLACK + 1,
            queue_kind: QueueKind::Ring,
            ..ChannelConfig::new(1)
        };
        Channel::create(&cfg).expect("the contract is the two-lock node pool's");
    }

    /// Generation fencing: bumping the segment generation strands every
    /// handle stamped before it — fallible calls fail fast with
    /// `StaleGeneration` and put **nothing** on the queues — while
    /// `revalidate` on any clone opts the whole process-local handle
    /// family back in.
    #[test]
    fn stale_generation_fails_fast_and_revalidates() {
        use crate::fault::IpcError;
        let ch = Channel::create(&ChannelConfig::new(1)).expect("create");
        let clone = ch.clone();
        assert!(!ch.is_stale());
        assert_eq!(ch.generation(), ch.segment_generation());

        ch.arena().bump_generation();
        assert!(ch.is_stale(), "bump must strand the old stamp");
        assert!(clone.is_stale(), "clones share the stamp");

        let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
        let client = ch.client(&os, 0, WaitStrategy::Bsw);
        assert_eq!(
            client.call_deadline(Message::echo(0, 1.0), core::time::Duration::from_millis(5)),
            Err(IpcError::StaleGeneration),
            "stale handle must fail fast, not time out"
        );
        assert_eq!(
            ch.receive_queue().queued_len(),
            0,
            "a stale call must leave no request behind"
        );

        assert_eq!(clone.revalidate(), ch.segment_generation());
        assert!(!ch.is_stale(), "revalidating one clone revalidates all");
    }

    /// Both queue kinds run the same round trip through a QueueRef —
    /// enqueue, wake bookkeeping, dequeue — and agree on flow control.
    #[test]
    fn queue_ref_roundtrip_on_both_kinds() {
        for kind in [QueueKind::TwoLock, QueueKind::Ring] {
            let cfg = ChannelConfig {
                queue_capacity: 4,
                queue_kind: kind,
                ..ChannelConfig::new(1)
            };
            let ch = Channel::create(&cfg).expect("create");
            let os = NativeOs::new(NativeConfig::for_clients(1)).task(0);
            let q = ch.receive_queue();
            // The ring rounds capacity up to a power of two; both kinds
            // must accept at least the configured depth and refuse beyond
            // their real one.
            for i in 0..4 {
                assert!(q.try_enqueue(&os, Message::echo(0, i as f64)), "{kind:?}");
            }
            let real_cap = match kind {
                QueueKind::TwoLock => 4,
                QueueKind::Ring => 4, // 4 is already a power of two
            };
            assert_eq!(q.queued_len(), real_cap, "{kind:?}");
            assert!(!q.try_enqueue(&os, Message::echo(0, 9.0)), "{kind:?}: full");
            for i in 0..4 {
                let m = q.try_dequeue(&os).expect("queued message");
                assert_eq!(m.value, i as f64, "{kind:?}: FIFO");
            }
            assert!(q.try_dequeue(&os).is_none(), "{kind:?}");
            assert!(q.is_empty(&os), "{kind:?}");
        }
    }
}
