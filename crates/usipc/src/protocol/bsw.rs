//! **Both Sides Wait** (Fig. 5): the basic blocking protocol.
//!
//! Consumers that find their queue empty clear their `awake` flag,
//! double-check the queue (closing interleaving 4 of Fig. 4), and sleep on
//! a counting semaphore. Producers wake the consumer only if they are the
//! first to test-and-set the flag (closing interleaving 2), and consumers
//! absorb stray wake-ups with a `tas`-guarded `P` (closing interleaving 3).
//!
//! Performance (Fig. 6): without scheduling help this costs four system
//! calls per round trip — "there is no advantage to the shared memory
//! solution at all" — which is what motivates BSWY and BSLS.

use crate::channel::Channel;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep};

/// Synchronous `Send`: enqueue, wake the server if sleeping, block for the
/// reply.
pub fn send<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg);
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    blocking_dequeue(&rq, os, || {})
}

/// `Receive`: block until a request arrives.
pub fn receive<O: OsServices>(ch: &Channel, os: &O) -> Message {
    let srv = ch.receive_queue();
    blocking_dequeue(&srv, os, || {})
}

/// `Reply`: enqueue the response and wake the client if sleeping.
pub fn reply<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) {
    let rq = ch.reply_queue(client);
    enqueue_or_sleep(&rq, os, msg);
    rq.wake_consumer(os);
}

use crate::fault::IpcError;
use crate::protocol::{blocking_dequeue_deadline, enqueue_or_sleep_deadline, Deadline};
use core::time::Duration;

/// Fallible `Send`: the Fig. 5 protocol bounded by `timeout`, failing fast
/// on a poisoned channel and never losing a semaphore credit on expiry.
pub fn send_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(timeout);
    let srv = ch.receive_queue();
    enqueue_or_sleep_deadline(&srv, os, msg, &deadline)?;
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    blocking_dequeue_deadline(&rq, os, &deadline, || {})
}

/// Fallible `Receive`: block for at most `timeout`.
pub fn receive_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(timeout);
    let srv = ch.receive_queue();
    blocking_dequeue_deadline(&srv, os, &deadline, || {})
}

/// Fallible `Reply`: enqueue bounded by `timeout`, then wake the client.
pub fn reply_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    timeout: Duration,
) -> Result<(), IpcError> {
    let deadline = Deadline::new(timeout);
    let rq = ch.reply_queue(client);
    enqueue_or_sleep_deadline(&rq, os, msg, &deadline)?;
    rq.wake_consumer(os);
    Ok(())
}
