//! **Both Sides Wait and Yield** (Fig. 7): BSW plus hand-off hints.
//!
//! The client, after waking the server, immediately `busy_wait`s "and
//! let\[s\] it run"; before committing to sleep it busy-waits once more to
//! give the server a last chance to prepare the reply. The server yields
//! once on an empty queue so clients can process replies and enqueue their
//! next requests. When the scheduler honours the hints (fixed priority, or
//! the paper's modified Linux `sched_yield`), the four system calls of BSW
//! collapse to two.

use crate::channel::Channel;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep};

/// Synchronous `Send` with hand-off hints around the blocking wait.
pub fn send<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) -> Message {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg);
    if !srv.tas_awake(os) {
        os.sem_v(srv.sem()); // wake-up server
        os.busy_wait(); // and let it run
    }
    let rq = ch.reply_queue(client);
    blocking_dequeue(&rq, os, || os.busy_wait() /* try to hand off */)
}

/// `Receive`: one yield on first failure ("let clients run"), then the BSW
/// blocking path.
pub fn receive<O: OsServices>(ch: &Channel, os: &O) -> Message {
    let srv = ch.receive_queue();
    if let Some(m) = srv.try_dequeue(os) {
        return m;
    }
    os.yield_now(); // let clients run
    blocking_dequeue(&srv, os, || {})
}

/// `Reply`: identical to BSW.
pub fn reply<O: OsServices>(ch: &Channel, os: &O, client: u32, msg: Message) {
    let rq = ch.reply_queue(client);
    enqueue_or_sleep(&rq, os, msg);
    rq.wake_consumer(os);
}

use crate::fault::IpcError;
use crate::protocol::{blocking_dequeue_deadline, enqueue_or_sleep_deadline, Deadline};
use core::time::Duration;

/// Fallible `Send`: the Fig. 7 protocol (hand-off hints intact) bounded by
/// `timeout`.
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
    if !srv.tas_awake(os) {
        os.sem_v(srv.sem()); // wake-up server
        os.busy_wait(); // and let it run
    }
    let rq = ch.reply_queue(client);
    blocking_dequeue_deadline(&rq, os, &deadline, || os.busy_wait())
}

/// Fallible `Receive`: one yield on first failure, then the bounded
/// blocking path.
pub fn receive_deadline<O: OsServices>(
    ch: &Channel,
    os: &O,
    timeout: Duration,
) -> Result<Message, IpcError> {
    let deadline = Deadline::new(timeout);
    let srv = ch.receive_queue();
    if let Some(m) = srv.try_dequeue(os) {
        return Ok(m);
    }
    os.yield_now(); // let clients run
    blocking_dequeue_deadline(&srv, os, &deadline, || {})
}

/// Fallible `Reply`: identical to BSW's.
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
