//! **Both Sides Spin** (Fig. 1): the busy-wait baseline.
//!
//! No sleep/wake-up at all: an empty (or full) queue is retried after a
//! `busy_wait()` — a `yield()` system call on a uniprocessor, a short spin
//! delay on a multiprocessor. BSS is the upper bound the blocking protocols
//! are measured against ("it is important to understand the performance of
//! the base algorithm, since it represents an upper bound", §2.2), and the
//! lower bound on civility: it burns every cycle the scheduler gives it.

use crate::channel::Channel;
use crate::msg::Message;
use crate::platform::OsServices;

/// Synchronous `Send`: enqueue the request, spin for the reply.
pub fn send<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
    let srv = ch.receive_queue();
    while !srv.try_enqueue(os, msg) {
        os.busy_wait(); // queue full
    }
    let rq = ch.reply_queue(client);
    loop {
        if let Some(ans) = rq.try_dequeue(os) {
            return ans;
        }
        os.busy_wait(); // reply not ready
    }
}

/// `Receive`: spin until a request arrives.
pub fn receive<O: OsServices>(ch: &Channel, os: &O) -> Message {
    let srv = ch.receive_queue();
    loop {
        if let Some(m) = srv.try_dequeue(os) {
            return m;
        }
        os.busy_wait(); // no requests
    }
}

/// `Reply`: enqueue the response, spinning on a full queue.
pub fn reply<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) {
    let rq = ch.reply_queue(client);
    while !rq.try_enqueue(os, msg) {
        os.busy_wait(); // queue full
    }
}

use crate::fault::IpcError;
use crate::protocol::{spin_dequeue_deadline, spin_enqueue_deadline, Deadline};
use core::time::Duration;

/// Fallible `Send`: the Fig. 1 spin loops bounded by `timeout`, failing
/// fast on a poisoned channel.
pub fn send_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(timeout);
    let srv = ch.receive_queue();
    spin_enqueue_deadline(&srv, os, msg, &deadline)?;
    let rq = ch.reply_queue(client);
    spin_dequeue_deadline(&rq, os, &deadline)
}

/// Fallible `Receive`: spin until a request arrives or `timeout` expires.
pub fn receive_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(timeout);
    let srv = ch.receive_queue();
    spin_dequeue_deadline(&srv, os, &deadline)
}

/// Fallible `Reply`: spin on a full reply queue at most until `timeout`.
pub fn reply_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    timeout: Duration,
) -> Result<(), IpcError> {
    let deadline = Deadline::new(timeout);
    let rq = ch.reply_queue(client);
    spin_enqueue_deadline(&rq, os, msg, &deadline)
}
