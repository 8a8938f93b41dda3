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

use crate::channel::{Channel, QueueRef};
use crate::fault::IpcError;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep, Deadline};

/// Synchronous `Send`: enqueue, wake the server if sleeping, block for the
/// reply. Expiry and poison never cost a semaphore credit.
pub fn send<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg, deadline)?;
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    blocking_dequeue(&rq, os, deadline, || {})
}

/// `Receive`: block until a request arrives.
pub fn receive<O: OsServices>(
    ch: &Channel,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    blocking_dequeue(&srv, os, deadline, || {})
}

/// `Reply` on the client's reply queue `rq`: enqueue the response and wake
/// the client if sleeping. BSWY, BSLS and the hand-off variant reply
/// exactly like this — the mux worker through them, its members'
/// endpoints being BSW — and so does the duplex server thread, which
/// resolves the queue itself.
pub fn reply<O: OsServices>(
    rq: &QueueRef<'_>,
    os: &O,
    msg: Message,
    deadline: &Deadline,
) -> Result<(), IpcError> {
    enqueue_or_sleep(rq, os, msg, deadline)?;
    rq.wake_consumer(os);
    Ok(())
}
