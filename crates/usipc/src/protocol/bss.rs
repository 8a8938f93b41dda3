//! **Both Sides Spin** (Fig. 1): the busy-wait baseline.
//!
//! No sleep/wake-up at all: an empty (or full) queue is retried after one
//! `PollLoop` step — a `yield()` system call on a uniprocessor, a spin
//! delay on a multiprocessor. BSS is the upper bound the blocking protocols
//! are measured against ("it is important to understand the performance of
//! the base algorithm, since it represents an upper bound", §2.2), and the
//! lower bound on civility: it burns every cycle the scheduler gives it.

use crate::channel::{Channel, QueueRef};
use crate::fault::IpcError;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{enqueue, Deadline, PollLoop};

/// Spins until `q` accepts `msg`.
fn spin_enqueue<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
) -> Result<(), IpcError> {
    let mut poll = PollLoop::new(os);
    // Queue full. Nothing cheap says a slot came free (`FifoView` has no
    // room check), so this pause watches nothing and runs its length.
    enqueue(q, os, msg, deadline, || poll.pause(|| false))
}

/// Spins until `q` yields a message: the Fig. 1 loop, with the poison and
/// expiry checks made only after a dequeue found nothing.
fn spin_dequeue<O: OsServices>(
    q: &QueueRef<'_>,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let mut poll = PollLoop::new(os);
    loop {
        if let Some(m) = q.try_dequeue(os) {
            return Ok(m);
        }
        if q.is_poisoned() {
            return Err(IpcError::Poisoned);
        }
        if deadline.remaining(os).is_none() {
            return Err(IpcError::Timeout);
        }
        poll.pause(|| q.has_message()); // nothing yet
    }
}

/// Synchronous `Send`: enqueue the request, spin for the reply.
pub fn send<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    spin_enqueue(&ch.receive_queue(), os, msg, deadline)?;
    spin_dequeue(&ch.reply_queue(client), os, deadline)
}

/// `Receive`: spin until a request arrives.
pub fn receive<O: OsServices>(
    ch: &Channel,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    spin_dequeue(&ch.receive_queue(), os, deadline)
}

/// `Reply` on the client's reply queue `rq`: enqueue the response,
/// spinning on a full queue.
pub fn reply<O: OsServices>(
    rq: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
) -> Result<(), IpcError> {
    spin_enqueue(rq, os, msg, deadline)
}
