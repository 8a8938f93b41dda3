//! The alternative server architecture of §2.1: a server thread per client.
//!
//! "An alternative architecture might be to have a server thread per
//! client, but that would require two queues per client to implement the
//! full-duplex virtual connection." The paper's evaluation keeps the
//! single-threaded server; this module implements the alternative so the
//! `threaded` ablation can quantify the trade — on a multiprocessor the
//! per-client threads lift the single-server saturation ceiling of
//! Fig. 11, at the cost of two queues and one kernel semaphore pair per
//! client.
//!
//! Semaphore convention (distinct from the single-server layout): the
//! server thread for client `c` sleeps on `2c`, client `c` on `2c + 1`.

use crate::channel::{QueueRef, WaitableQueue};
use crate::fault::IpcError;
use crate::metrics::ProtoEvent;
use crate::msg::{opcode, Message};
use crate::platform::{Cost, OsServices};
use crate::protocol::{
    blocking_dequeue, bsw, call_failed, dead_channel, enqueue_or_sleep, Deadline, PollLoop,
};
use core::time::Duration;
use std::sync::Arc;
use usipc_queue::{AnyShmFifo, QueueKind, RingMode};
use usipc_shm::{ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice};

/// Semaphore index of the server thread serving client `c`.
pub fn duplex_server_sem(c: u32) -> u32 {
    2 * c
}

/// Semaphore index of duplex client `c`.
pub fn duplex_client_sem(c: u32) -> u32 {
    2 * c + 1
}

/// One full-duplex connection: a request queue and a reply queue.
#[repr(C)]
#[derive(Debug)]
pub struct DuplexPair {
    request: WaitableQueue,
    reply: WaitableQueue,
}

unsafe impl ShmSafe for DuplexPair {}

/// Root structure of a duplex channel.
#[repr(C)]
#[derive(Debug)]
pub struct DuplexRoot {
    pairs: ShmSlice<DuplexPair>,
    n_clients: u32,
}

unsafe impl ShmSafe for DuplexRoot {}

/// Host-side handle to a duplex channel.
#[derive(Debug, Clone)]
pub struct DuplexChannel {
    arena: Arc<ShmArena>,
    root: ShmPtr<DuplexRoot>,
}

impl DuplexChannel {
    /// Creates a duplex channel for `n_clients` connections.
    ///
    /// # Errors
    ///
    /// Propagates arena exhaustion.
    pub fn create(n_clients: usize, queue_capacity: usize) -> Result<Self, ShmError> {
        assert!(n_clients >= 1);
        assert!(queue_capacity >= 2);
        // One server thread per connection: both directions are SPSC. The
        // duplex ablation stays on the two-lock baseline queue.
        const KIND: QueueKind = QueueKind::TwoLock;
        // Allocation by allocation, as `ChannelConfig::bytes_needed` does.
        let bytes = 2 * n_clients * AnyShmFifo::bytes_needed(queue_capacity, KIND)
            + n_clients * core::mem::size_of::<DuplexPair>()
            + core::mem::align_of::<DuplexPair>()
            + core::mem::size_of::<DuplexRoot>()
            + core::mem::align_of::<DuplexRoot>();
        let arena = Arc::new(ShmArena::new(bytes)?);
        let queue = || {
            WaitableQueue::create(&arena, queue_capacity, KIND, RingMode::Spsc)
                .expect("arena sized")
        };
        let pairs = arena.alloc_slice(n_clients, |_| DuplexPair {
            request: queue(),
            reply: queue(),
        })?;
        let root = arena.alloc(DuplexRoot {
            pairs,
            n_clients: n_clients as u32,
        })?;
        arena.publish_root(root);
        Ok(DuplexChannel { arena, root })
    }

    /// Attaches to a duplex channel previously created in `arena` (the
    /// peer's bootstrap path; see [`Channel::attach`](crate::Channel::attach)).
    pub fn attach(arena: Arc<ShmArena>) -> Option<DuplexChannel> {
        let root: ShmPtr<DuplexRoot> = arena.root()?;
        Some(DuplexChannel { arena, root })
    }

    fn root(&self) -> &DuplexRoot {
        self.arena.get(self.root)
    }

    /// Number of connections.
    pub fn n_clients(&self) -> u32 {
        self.root().n_clients
    }

    /// Connection `c`'s request and reply queues, resolved per call.
    fn queues(&self, c: u32) -> (QueueRef<'_>, QueueRef<'_>) {
        let root = self.root();
        assert!(c < root.n_clients);
        let pair = self.arena.get(root.pairs.at(c as usize));
        let view = |wq, sem| QueueRef::new(&self.arena, wq, sem).expect("duplex queue handle");
        (
            view(&pair.request, duplex_server_sem(c)),
            view(&pair.reply, duplex_client_sem(c)),
        )
    }

    /// Synchronous client call on connection `c` (BSW discipline with an
    /// optional limited-spin prologue, as in BSLS):
    /// [`Self::call_deadline`]'s body with no deadline, so it panics
    /// (naming the [`IpcError`]) if the connection is poisoned under it.
    pub fn call<O: OsServices>(&self, os: &O, c: u32, msg: Message, max_spin: u32) -> Message {
        self.call_by(os, c, msg, max_spin, &Deadline::never())
            .unwrap_or_else(|e| dead_channel("call", e))
    }

    /// Fallible synchronous call on connection `c`, bounded by `timeout`
    /// (same failure model as
    /// [`ClientEndpoint::call_deadline`](crate::ClientEndpoint::call_deadline):
    /// a poisoned connection is rejected without entering the kernel;
    /// a reply that never comes poisons this connection's reply queue —
    /// and both queues when the serving thread's death was marked).
    pub fn call_deadline<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        msg: Message,
        max_spin: u32,
        timeout: Duration,
    ) -> Result<Message, IpcError> {
        let (rq, reply) = self.queues(c);
        if rq.is_poisoned() || reply.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        self.call_by(os, c, msg, max_spin, &Deadline::new(timeout))
    }

    /// One round trip on connection `c` under `deadline`.
    fn call_by<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        mut msg: Message,
        max_spin: u32,
        deadline: &Deadline,
    ) -> Result<Message, IpcError> {
        msg.channel = c;
        let (rq, reply) = self.queues(c);
        enqueue_or_sleep(&rq, os, msg, deadline)?;
        rq.wake_consumer(os);
        PollLoop::new(os).pause_while(max_spin, || reply.is_empty(os));
        blocking_dequeue(&reply, os, deadline, || {})
            .map_err(|e| call_failed(os, &rq, &reply, e, true))
    }

    /// Convenience: ECHO round trip on connection `c`.
    pub fn echo<O: OsServices>(&self, os: &O, c: u32, value: f64, max_spin: u32) -> f64 {
        self.call(os, c, Message::echo(c, value), max_spin).value
    }

    /// Sends the disconnect request on connection `c`.
    pub fn disconnect<O: OsServices>(&self, os: &O, c: u32, max_spin: u32) {
        let _ = self.call(os, c, Message::disconnect(c), max_spin);
    }

    /// One server thread's loop: serve connection `c` until its client
    /// disconnects. Returns messages processed (including the disconnect).
    /// [`Self::serve_connection_resilient`]'s loop with no heartbeat: it
    /// never wakes to check on its client, but it does end — with the
    /// count so far — when the connection is poisoned under it.
    pub fn serve_connection<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        max_spin: u32,
        handler: impl FnMut(Message) -> Message,
    ) -> u64 {
        self.serve(os, c, max_spin, None, handler).0
    }

    /// A server thread's loop that **survives its client dying**: every
    /// wait is bounded by `heartbeat`, and each expiry checks the
    /// client's liveness word. A detected death poisons both queues of
    /// the connection (freeing their slots) and returns
    /// [`IpcError::PeerDead`] — the thread exits instead of blocking
    /// forever on a request that will never come.
    pub fn serve_connection_resilient<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        max_spin: u32,
        heartbeat: Duration,
        handler: impl FnMut(Message) -> Message,
    ) -> Result<u64, IpcError> {
        let (processed, end) = self.serve(os, c, max_spin, Some(heartbeat), handler);
        end.map(|()| processed)
    }

    /// The one per-connection Receive/Reply loop: messages processed, and
    /// how it ended (`Ok` = the client disconnected). With no `heartbeat`
    /// every wait is unbounded and no heartbeat word is published.
    fn serve<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        max_spin: u32,
        heartbeat: Option<Duration>,
        mut handler: impl FnMut(Message) -> Message,
    ) -> (u64, Result<(), IpcError>) {
        let (rq, reply) = self.queues(c);
        let mut processed = 0;
        loop {
            if heartbeat.is_some() {
                rq.beat();
            }
            PollLoop::new(os).pause_while(max_spin, || rq.is_empty(os));
            let m = match blocking_dequeue(&rq, os, &Deadline::within(heartbeat), || {}) {
                Ok(m) => m,
                Err(IpcError::Timeout) => {
                    if !reply.consumer_alive() {
                        os.record(ProtoEvent::PeerDeathDetected);
                        reply.poison(os);
                        rq.poison(os);
                        return (processed, Err(IpcError::PeerDead));
                    }
                    continue; // idle heartbeat: client alive, keep waiting
                }
                Err(e) => return (processed, Err(e)),
            };
            os.charge(Cost::Request);
            processed += 1;
            if m.opcode == opcode::DISCONNECT {
                // The farewell echo is not bounded: the client is waiting
                // for exactly this message.
                if bsw::reply(&reply, os, m, &Deadline::never()).is_err() {
                    os.record(ProtoEvent::ReplyDropped);
                }
                return (processed, Ok(()));
            }
            let mut ans = handler(m);
            ans.channel = c;
            if bsw::reply(&reply, os, ans, &Deadline::within(heartbeat)).is_err() {
                // Reply queue poisoned or wedged full past the deadline:
                // the client is gone or unrecoverable.
                os.record(ProtoEvent::ReplyDropped);
                if !reply.consumer_alive() {
                    os.record(ProtoEvent::PeerDeathDetected);
                }
                reply.poison(os);
                rq.poison(os);
                return (processed, Err(IpcError::PeerDead));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{NativeConfig, NativeOs};

    fn native_os(n_clients: usize) -> std::sync::Arc<NativeOs> {
        NativeOs::new(NativeConfig {
            n_sems: 2 * n_clients,
            n_msgqs: 0,
            msgq_capacity: 1,
            multiprocessor: false,
            full_backoff: std::time::Duration::from_millis(1),
            collect_metrics: false,
            trace_capacity: None,
        })
    }

    #[test]
    fn duplex_echo_per_connection() {
        const CLIENTS: usize = 2;
        let ch = DuplexChannel::create(CLIENTS, 8).unwrap();
        let os = native_os(CLIENTS);
        assert_eq!(ch.n_clients(), 2);
        let servers: Vec<_> = (0..CLIENTS as u32)
            .map(|c| {
                let ch = ch.clone();
                let os = os.task(c);
                std::thread::spawn(move || ch.serve_connection(&os, c, 2, |m| m))
            })
            .collect();
        let clients: Vec<_> = (0..CLIENTS as u32)
            .map(|c| {
                let ch = ch.clone();
                let os = os.task(100 + c);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let v = ch.echo(&os, c, i as f64 + c as f64, 2);
                        assert_eq!(v, i as f64 + c as f64);
                    }
                    ch.disconnect(&os, c, 2);
                })
            })
            .collect();
        for t in clients {
            t.join().unwrap();
        }
        for (c, t) in servers.into_iter().enumerate() {
            assert_eq!(t.join().unwrap(), 51, "server thread {c}");
        }
    }

    /// The arena is sized allocation by allocation: every queue of every
    /// connection full at once fits, and little is left over.
    #[test]
    fn arena_sizing_covers_every_queue_full_without_gross_slack() {
        for (n, capacity) in [(1usize, 2usize), (6, 64), (16, 256)] {
            let ch = DuplexChannel::create(n, capacity).expect("arena sized");
            let os = native_os(n);
            let t = os.task(0);
            for c in 0..n as u32 {
                let (rq, reply) = ch.queues(c);
                for q in [rq, reply] {
                    for i in 0..capacity {
                        assert!(
                            q.try_enqueue(&t, Message::echo(c, i as f64)),
                            "{n}x{capacity}"
                        );
                    }
                    assert_eq!(q.queued_len(), capacity);
                }
            }
            let (total, used) = (ch.arena.capacity(), ch.arena.used());
            assert!(total <= 2 * used, "{n}x{capacity}: {total} B for {used} B");
        }
    }

    #[test]
    fn sem_conventions_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for c in 0..8 {
            assert!(seen.insert(duplex_server_sem(c)));
            assert!(seen.insert(duplex_client_sem(c)));
        }
        assert_eq!(seen.len(), 16);
    }
}
