//! The kernel-mediated baseline: System V message queues.
//!
//! "As a kernel mediated IPC mechanism, SYSV message queues represent a
//! lower-bound on acceptable user-level IPC performance" (§2.2). Four
//! system calls per round trip: the client's `msgsnd`/`msgrcv` pair and the
//! server's `msgrcv`/`msgsnd` pair. Queue indices follow the conventions of
//! [`platform`](usipc::platform): queue 0 carries requests, queue `1 + c`
//! carries client `c`'s replies.

use usipc::metrics::ProtoEvent;
use usipc::platform::{sysv_reply_q, sysv_request_q, Cost, OsServices};
use usipc::{opcode, Message};

/// Synchronous client call over the kernel queues.
pub fn sysv_call<O: OsServices>(os: &O, client: u32, mut msg: Message) -> Message {
    msg.channel = client;
    os.msgsnd(sysv_request_q(), msg.to_kmsg());
    Message::from_kmsg(os.msgrcv(sysv_reply_q(client)))
}

/// Statistics from one SysV server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SysvRun {
    /// Requests processed, including DISCONNECTs.
    pub processed: u64,
    /// Requests dropped for an out-of-range `channel` (no such reply queue).
    pub malformed: u64,
}

/// Runs the kernel-queue server until all `n_clients` disconnect.
pub fn run_sysv_server<O: OsServices>(
    os: &O,
    n_clients: u32,
    mut handler: impl FnMut(Message) -> Message,
) -> SysvRun {
    let mut live = n_clients;
    let mut run = SysvRun::default();
    while live > 0 {
        let m = Message::from_kmsg(os.msgrcv(sysv_request_q()));
        // Same trust boundary as the user-level servers: an out-of-range
        // `channel` names no reply queue, so drop and count it.
        if m.channel >= n_clients {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        let ans = if m.opcode == opcode::DISCONNECT {
            live -= 1;
            m
        } else {
            let mut a = handler(m);
            a.channel = m.channel;
            a
        };
        os.msgsnd(sysv_reply_q(m.channel), ans.to_kmsg());
    }
    run
}
