//! **Both Sides Limited Spin** (Fig. 9): poll before blocking.
//!
//! Both sides poll the queue up to `MAX_SPIN` times (an `empty` check per
//! [`OsServices::poll_pause`]: a yield on uniprocessors, §5's 25 µs on the
//! multiprocessor — native ramps up to it and ends a pause one hint after
//! the polled queue turns non-empty) and only then enter the BSW path.
//! Fig. 10 shows the uniprocessor sensitivity to `MAX_SPIN` — at 20, a
//! single client blocks only 3 % of the time — and Fig. 11 shows the
//! multiprocessor cliff: once one client out-spins its budget, waking it
//! loads the server, pushing more clients over their budgets.

use crate::channel::{Channel, QueueRef};
use crate::fault::IpcError;
use crate::msg::Message;
use crate::platform::OsServices;
use crate::protocol::{blocking_dequeue, enqueue_or_sleep, Deadline, PollLoop};
use crate::trace::{Span, TracePoint};

/// The limited-spin prologue of Fig. 9: `while (empty(Q) && spincnt++ <
/// MAX_SPIN) poll_queue(Q);`.
fn limited_spin<O: OsServices>(q: &QueueRef<'_>, os: &O, max_spin: u32) {
    os.trace(TracePoint::Begin(Span::Spin));
    let mut poll = PollLoop::new(os);
    while q.is_empty(os) && poll.attempt < max_spin {
        poll.pause(|| q.has_message());
    }
    os.trace(TracePoint::End(Span::Spin));
}

/// Synchronous `Send`: enqueue, wake, spin up to `max_spin`, then block
/// for what is left of `deadline`.
pub fn send<O: OsServices>(
    ch: &Channel,
    os: &O,
    client: u32,
    msg: Message,
    max_spin: u32,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    enqueue_or_sleep(&srv, os, msg, deadline)?;
    srv.wake_consumer(os);
    let rq = ch.reply_queue(client);
    limited_spin(&rq, os, max_spin);
    // Before each commit to sleep: try to hand off.
    blocking_dequeue(&rq, os, deadline, || os.busy_wait(|| rq.has_message()))
}

/// `Receive`: spin up to `max_spin`, then block.
pub fn receive<O: OsServices>(
    ch: &Channel,
    os: &O,
    max_spin: u32,
    deadline: &Deadline,
) -> Result<Message, IpcError> {
    let srv = ch.receive_queue();
    limited_spin(&srv, os, max_spin);
    blocking_dequeue(&srv, os, deadline, || {})
}
