//! **Both Sides Spin** (Fig. 1): the busy-wait baseline.
//!
//! No sleep/wake-up at all: an empty (or full) queue is retried after one
//! `PollLoop` step — a `yield()` system call on a uniprocessor, a spin
//! delay on a multiprocessor. BSS is the upper bound the blocking protocols
//! are measured against ("it is important to understand the performance of
//! the base algorithm, since it represents an upper bound", §2.2), and the
//! lower bound on civility: it burns every cycle the scheduler gives it.

use crate::channel::{Channel, QueueRef};
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::PollLoop;

/// Spins until `q` accepts `msg`.
fn spin_enqueue<O: OsServices>(q: &QueueRef<'_>, os: &O, msg: Message) {
    let mut poll = PollLoop::new(os);
    while !q.try_enqueue(os, msg) {
        poll.pause(); // queue full
    }
}

/// Spins until `q` yields a message.
fn spin_dequeue<O: OsServices>(q: &QueueRef<'_>, os: &O) -> Message {
    let mut poll = PollLoop::new(os);
    loop {
        if let Some(m) = q.try_dequeue(os) {
            return m;
        }
        poll.pause(); // nothing yet
    }
}

/// Synchronous `Send`: enqueue the request, spin for the reply.
pub fn send<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
    spin_enqueue(&ch.receive_queue(), os, msg);
    spin_dequeue(&ch.reply_queue(client), os)
}

/// `Receive`: spin until a request arrives.
pub fn receive<O: OsServices>(ch: &Channel, os: &O) -> Message {
    spin_dequeue(&ch.receive_queue(), os)
}

/// `Reply`: enqueue the response, spinning on a full queue.
pub fn reply<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) {
    spin_enqueue(&ch.reply_queue(client), os, msg);
}

use crate::fault::IpcError;
use crate::protocol::{enqueue_deadline, spin_dequeue_deadline, Deadline};
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
    let mut poll = PollLoop::new(os);
    enqueue_deadline(&srv, os, msg, &deadline, || poll.pause())?;
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
    let mut poll = PollLoop::new(os);
    enqueue_deadline(&rq, os, msg, &deadline, || poll.pause())
}
