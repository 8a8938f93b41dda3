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
use crate::msg::{opcode, Message, MsgSlot};
use crate::platform::{Cost, OsServices};
use crate::protocol::{
    blocking_dequeue, blocking_dequeue_deadline, enqueue_or_sleep, enqueue_or_sleep_deadline,
    Deadline, PollLoop,
};
use std::sync::Arc;
use usipc_queue::{QueueKind, RingMode};
use usipc_shm::{ShmArena, ShmError, ShmPtr, ShmSafe, ShmSlice, SlotPool};

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
    pool: SlotPool<MsgSlot>,
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
        let bytes = 64 * 1024 + n_clients * queue_capacity * 400;
        let arena = Arc::new(ShmArena::new(bytes)?);
        let pool = SlotPool::create(&arena, 2 * n_clients * queue_capacity + 8, |_| {
            MsgSlot::default()
        })?;
        // One server thread per connection: both directions are SPSC. The
        // duplex ablation stays on the two-lock baseline queue.
        let pairs = arena.alloc_slice(n_clients, |_| DuplexPair {
            request: WaitableQueue::create(
                &arena,
                queue_capacity,
                QueueKind::TwoLock,
                RingMode::Spsc,
            )
            .expect("arena sized"),
            reply: WaitableQueue::create(
                &arena,
                queue_capacity,
                QueueKind::TwoLock,
                RingMode::Spsc,
            )
            .expect("arena sized"),
        })?;
        let root = arena.alloc(DuplexRoot {
            pairs,
            pool,
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

    fn request_queue(&self, c: u32) -> QueueRef<'_> {
        let root = self.root();
        assert!(c < root.n_clients);
        let pair = self.arena.get(root.pairs.at(c as usize));
        QueueRef::new(&self.arena, &pair.request, root.pool, duplex_server_sem(c))
    }

    fn reply_queue(&self, c: u32) -> QueueRef<'_> {
        let root = self.root();
        assert!(c < root.n_clients);
        let pair = self.arena.get(root.pairs.at(c as usize));
        QueueRef::new(&self.arena, &pair.reply, root.pool, duplex_client_sem(c))
    }

    /// Synchronous client call on connection `c` (BSW discipline with an
    /// optional limited-spin prologue, as in BSLS).
    pub fn call<O: OsServices>(&self, os: &O, c: u32, mut msg: Message, max_spin: u32) -> Message {
        msg.channel = c;
        let rq = self.request_queue(c);
        enqueue_or_sleep(&rq, os, msg);
        rq.wake_consumer(os);
        let reply = self.reply_queue(c);
        PollLoop::new(os).pause_while(max_spin, || reply.is_empty(os));
        blocking_dequeue(&reply, os, || {})
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
        mut msg: Message,
        max_spin: u32,
        timeout: core::time::Duration,
    ) -> Result<Message, IpcError> {
        msg.channel = c;
        let rq = self.request_queue(c);
        let reply = self.reply_queue(c);
        if rq.is_poisoned() || reply.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        let deadline = Deadline::new(timeout);
        enqueue_or_sleep_deadline(&rq, os, msg, &deadline)?;
        rq.wake_consumer(os);
        PollLoop::new(os).pause_while(max_spin, || reply.is_empty(os));
        match blocking_dequeue_deadline(&reply, os, &deadline, || {}) {
            Ok(m) => Ok(m),
            Err(IpcError::Timeout) => {
                if !rq.consumer_alive() {
                    os.record(crate::metrics::ProtoEvent::PeerDeathDetected);
                    reply.poison(os);
                    rq.poison(os);
                    Err(IpcError::PeerDead)
                } else {
                    reply.poison(os);
                    Err(IpcError::Timeout)
                }
            }
            Err(IpcError::Poisoned) if !rq.consumer_alive() => Err(IpcError::PeerDead),
            Err(e) => Err(e),
        }
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
    pub fn serve_connection<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        max_spin: u32,
        mut handler: impl FnMut(Message) -> Message,
    ) -> u64 {
        let rq = self.request_queue(c);
        let reply = self.reply_queue(c);
        let mut processed = 0;
        loop {
            PollLoop::new(os).pause_while(max_spin, || rq.is_empty(os));
            let m = blocking_dequeue(&rq, os, || {});
            os.charge(Cost::Request);
            processed += 1;
            if m.opcode == opcode::DISCONNECT {
                enqueue_or_sleep(&reply, os, m);
                reply.wake_consumer(os);
                return processed;
            }
            let mut ans = handler(m);
            ans.channel = c;
            enqueue_or_sleep(&reply, os, ans);
            reply.wake_consumer(os);
        }
    }

    /// A server thread's loop that **survives its client dying**: every
    /// wait is bounded by `heartbeat`, and each expiry checks the
    /// client's liveness word. A detected death poisons both queues of
    /// the connection (freeing their slots) and returns
    /// [`IpcError::PeerDead`] with the count of messages served so far in
    /// tow via `Err` — the thread exits instead of blocking forever on a
    /// request that will never come.
    pub fn serve_connection_resilient<O: OsServices>(
        &self,
        os: &O,
        c: u32,
        max_spin: u32,
        heartbeat: core::time::Duration,
        mut handler: impl FnMut(Message) -> Message,
    ) -> Result<u64, IpcError> {
        let rq = self.request_queue(c);
        let reply = self.reply_queue(c);
        let mut processed = 0;
        loop {
            rq.beat();
            PollLoop::new(os).pause_while(max_spin, || rq.is_empty(os));
            let deadline = Deadline::new(heartbeat);
            let m = match blocking_dequeue_deadline(&rq, os, &deadline, || {}) {
                Ok(m) => m,
                Err(IpcError::Timeout) => {
                    if !reply.consumer_alive() {
                        os.record(crate::metrics::ProtoEvent::PeerDeathDetected);
                        reply.poison(os);
                        rq.poison(os);
                        return Err(IpcError::PeerDead);
                    }
                    continue; // idle heartbeat: client alive, keep waiting
                }
                Err(e) => return Err(e),
            };
            os.charge(Cost::Request);
            processed += 1;
            if m.opcode == opcode::DISCONNECT {
                enqueue_or_sleep(&reply, os, m);
                reply.wake_consumer(os);
                return Ok(processed);
            }
            let mut ans = handler(m);
            ans.channel = c;
            let reply_deadline = Deadline::new(heartbeat);
            match enqueue_or_sleep_deadline(&reply, os, ans, &reply_deadline) {
                Ok(()) => reply.wake_consumer(os),
                Err(_) => {
                    // Reply queue poisoned or wedged full past the
                    // deadline: the client is gone or unrecoverable.
                    if !reply.consumer_alive() {
                        os.record(crate::metrics::ProtoEvent::PeerDeathDetected);
                    }
                    reply.poison(os);
                    rq.poison(os);
                    return Err(IpcError::PeerDead);
                }
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
