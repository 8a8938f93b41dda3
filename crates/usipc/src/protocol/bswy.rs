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
use crate::fault::IpcError;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep, Deadline};

/// Synchronous `Send` with hand-off hints around the blocking wait.
pub fn send<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg, deadline)?;
    if !srv.tas_awake(os) {
        os.sem_v(srv.sem()); // wake-up server
        os.busy_wait(); // and let it run
    }
    let rq = ch.reply_queue(client);
    // Before each commit to sleep: try to hand off.
    blocking_dequeue(&rq, os, deadline, || os.busy_wait())
}

/// `Receive`: one yield on first failure ("let clients run"), then the BSW
/// blocking path.
pub fn receive<O: OsServices>(
    ch: &Channel,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    if let Some(m) = srv.try_dequeue(os) {
        return Ok(m);
    }
    os.yield_now(); // let clients run
    blocking_dequeue(&srv, os, deadline, || {})
}
