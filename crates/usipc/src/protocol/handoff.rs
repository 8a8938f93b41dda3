//! BSWY over the proposed `handoff` system call (§6).
//!
//! The client's hints name the server directly (`handoff(server_pid)`:
//! "hand-off to the specified pid"), and the server's yield becomes
//! `handoff(PID_ANY)` ("block the calling process and allow the highest
//! priority ready process to run, even if it has a lower priority than the
//! caller"). On the simulator the kernel honours these; on hosts without
//! the call it degrades to plain yields, i.e. to BSWY — exactly the
//! portability story of the paper's proposal.

use crate::channel::Channel;
use crate::fault::IpcError;
use crate::msg::Message;
use crate::platform::{HandoffHint, OsServices};
use crate::protocol::{blocking_dequeue, enqueue_or_sleep, Deadline};

fn handoff_to_server<O: OsServices>(ch: &Channel, os: &O) {
    let target = ch.server_task();
    if target == u32::MAX {
        os.yield_now(); // server not registered yet
    } else {
        os.handoff(HandoffHint::Peer(target));
    }
}

/// Synchronous `Send` with directed hand-offs to the server.
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
        handoff_to_server(ch, os); // and run it, now
    }
    let rq = ch.reply_queue(client);
    blocking_dequeue(&rq, os, deadline, || handoff_to_server(ch, os))
}

/// `Receive`: `handoff(PID_ANY)` on first failure, then the blocking path.
pub fn receive<O: OsServices>(
    ch: &Channel,
    os: &O,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    if let Some(m) = srv.try_dequeue(os) {
        return Ok(m);
    }
    os.handoff(HandoffHint::Any); // let clients run
    blocking_dequeue(&srv, os, deadline, || {})
}
