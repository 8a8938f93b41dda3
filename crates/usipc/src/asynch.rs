//! Asynchronous sends: the extension the paper motivates but defers.
//!
//! §1: "a client process can enqueue multiple asynchronous messages on to a
//! shared queue without blocking waiting for a response. Similarly, when
//! the server gets the opportunity to run, it can handle requests and
//! respond without invoking kernel services until all pending requests are
//! processed." [`AsyncClient`] implements that batching: `post` enqueues
//! without waiting (waking the server at most once per batch), `collect`
//! retrieves replies with the BSW blocking discipline. Replies on a
//! client's private queue arrive in request order, which `collect` verifies
//! through the sequence number carried in the message's spare word.

use crate::channel::Channel;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, dead_channel, Deadline};

/// Client-side batching endpoint.
pub struct AsyncClient<'a, O: OsServices> {
    ch: &'a Channel,
    os: &'a O,
    id: u32,
    next_seq: u64,
    next_collect: u64,
}

impl<'a, O: OsServices> AsyncClient<'a, O> {
    /// Wraps client `id` of `ch` for asynchronous use.
    pub fn new(ch: &'a Channel, os: &'a O, id: u32) -> Self {
        assert!(id < ch.n_clients(), "client id out of range");
        AsyncClient {
            ch,
            os,
            id,
            next_seq: 0,
            next_collect: 0,
        }
    }

    /// Posts a request without waiting for its reply.
    ///
    /// Returns `false` when the request queue is full — the caller should
    /// [`collect`](Self::collect) outstanding replies (the natural flow
    /// control for a batching client) and retry.
    pub fn post(&mut self, mut msg: Message) -> bool {
        msg.channel = self.id;
        msg.aux = self.next_seq;
        let srv = self.ch.receive_queue();
        if !srv.try_enqueue(self.os, msg) {
            return false;
        }
        self.next_seq += 1;
        srv.wake_consumer(self.os);
        true
    }

    /// Number of replies not yet collected.
    pub fn outstanding(&self) -> u64 {
        self.next_seq - self.next_collect
    }

    /// Blocks for the next reply (in posting order).
    ///
    /// # Panics
    ///
    /// If nothing is outstanding, if replies arrive out of order (which
    /// would indicate a queue FIFO violation — the property the integration
    /// tests lean on), or if the reply queue is poisoned under the wait.
    pub fn collect(&mut self) -> Message {
        assert!(self.outstanding() > 0, "collect without outstanding posts");
        let rq = self.ch.reply_queue(self.id);
        let m = blocking_dequeue(&rq, self.os, &Deadline::never(), || {})
            .unwrap_or_else(|e| dead_channel("collect", e));
        assert_eq!(
            m.aux, self.next_collect,
            "reply out of order: got seq {}, expected {}",
            m.aux, self.next_collect
        );
        self.next_collect += 1;
        m
    }

    /// Collects every outstanding reply.
    pub fn collect_all(&mut self) -> Vec<Message> {
        let mut out = Vec::with_capacity(self.outstanding() as usize);
        while self.outstanding() > 0 {
            out.push(self.collect());
        }
        out
    }
}
