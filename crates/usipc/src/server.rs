//! The single-threaded server runtime.
//!
//! §2.2: "The server is placed in a tight Receive/Reply loop that accepts
//! connections and processes requests, where the processing per request is
//! simply to echo the argument back to the client. ... the server does not
//! know in advance how many messages it must process", so clients signal
//! completion with a DISCONNECT request, and the server runs until the last
//! client disconnects.

use crate::channel::Channel;
use crate::metrics::{MetricsSnapshot, ProtoEvent};
use crate::msg::{opcode, Message};
use crate::platform::{Cost, OsServices};
use crate::protocol::WaitStrategy;
use crate::telemetry::{FlightRecorder, TelemetryWriter};

/// Statistics from one server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerRun {
    /// Requests processed, including the final DISCONNECTs.
    pub processed: u64,
    /// DISCONNECTs observed (equals the client count on a clean run).
    pub disconnects: u32,
    /// Requests dropped because their client-supplied `channel` named no
    /// reply queue (see [`ProtoEvent::MalformedRequest`]).
    pub malformed: u64,
    /// Clients reaped after dying mid-session instead of disconnecting: a
    /// server with a heartbeat finds them by its liveness scan, one without
    /// only when a reply to them fails.
    pub reaped: u32,
    /// Replies computed and not delivered ([`ProtoEvent::ReplyDropped`]):
    /// the reply queue stayed full past the heartbeat, or its client was
    /// dead or poisoned. `processed` minus this is what clients can have
    /// received.
    pub replies_dropped: u64,
    /// Protocol events recorded by the server task during this run (all
    /// zero when the backend does not collect metrics).
    pub metrics: MetricsSnapshot,
}

impl ServerRun {
    /// Accounts one reply that was computed and could not be delivered, for
    /// the loops that enqueue replies themselves (channel servers count
    /// the event in `ServerEndpoint::reply_within`).
    pub(crate) fn reply_dropped<O: OsServices>(&mut self, os: &O) {
        os.record(ProtoEvent::ReplyDropped);
        self.replies_dropped += 1;
    }
}

/// Snapshot of the calling task's counters, or zeros when collection is
/// off — so `end.diff(&start)` windows a run either way.
fn task_snapshot<O: OsServices>(os: &O) -> MetricsSnapshot {
    os.metrics().map(|m| m.snapshot()).unwrap_or_default()
}

/// Runs a request/reply server until every client has disconnected.
///
/// `handler` maps each non-DISCONNECT request to its reply; DISCONNECT is
/// handled internally (echoed back so the client's synchronous `Send`
/// completes, then counted towards termination). The handler's cost is
/// charged as [`Cost::Request`].
///
/// This is [`run_resilient_server`]'s loop with no heartbeat: it never
/// wakes to scan for dead clients, but it does end — like the resilient
/// server — when the receive queue is poisoned under it, and it drops and
/// counts a reply whose client is dead or poisoned.
pub fn run_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    handler: impl FnMut(Message) -> Message,
) -> ServerRun {
    serve(ch, os, strategy, None, ServerObservability::none(), handler).0
}

/// Runs a request/reply server that **survives client death** (DESIGN.md,
/// "Failure model").
///
/// Identical to [`run_server`] on the happy path, but every wait is
/// bounded by `heartbeat`: each expiry the server scans the per-client
/// liveness words and *reaps* dead clients — records
/// [`ProtoEvent::PeerDeathDetected`], poisons **only that client's reply
/// queue** (sticky; its in-flight messages are drained), and stops
/// counting the client towards termination. Replies go out via the
/// fallible path, so a client that dies with the server mid-`Reply` is
/// reaped there instead of wedging the enqueue back-off. The loop ends
/// when every client has either disconnected or been reaped, or when the
/// shared receive queue itself is poisoned (the whole channel declared
/// dead under the server).
///
/// Worst-case detection latency is one `heartbeat` period plus the wait
/// strategy's own slack; shorten the period for faster failover at the
/// cost of more spurious server wake-ups.
pub fn run_resilient_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: core::time::Duration,
    handler: impl FnMut(Message) -> Message,
) -> ServerRun {
    run_resilient_server_observed(
        ch,
        os,
        strategy,
        heartbeat,
        ServerObservability::none(),
        handler,
    )
    .0
}

/// Observability hooks for [`run_resilient_server_observed`]: both are
/// optional, and both cost nothing when absent.
#[derive(Default)]
pub struct ServerObservability<'a> {
    /// Telemetry slot the server publishes into — each heartbeat expiry
    /// and every 64th request, so an external `usipc-top` sees advancing
    /// counters and gauges whether the server is idle or saturated.
    pub telemetry: Option<&'a TelemetryWriter>,
    /// Flight recorder to dump when the first peer death is detected.
    pub flight: Option<&'a FlightRecorder>,
    /// Task names for the flight dump's Perfetto metadata.
    pub task_names: Vec<(u32, String)>,
}

impl ServerObservability<'_> {
    /// No hooks: behaves exactly like [`run_resilient_server`].
    pub fn none() -> Self {
        Self::default()
    }
}

/// [`run_resilient_server`] with the observability plane attached; see
/// [`ServerObservability`]. Returns the run plus the **flight-recorder
/// postmortem**: the first time a peer death is detected (by liveness scan
/// or by a failed reply), the last events of *every* task — including the
/// victim's, read out of shared memory where they survived the death — are
/// serialized as Perfetto/Chrome JSON.
pub fn run_resilient_server_observed<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: core::time::Duration,
    obs: ServerObservability<'_>,
    handler: impl FnMut(Message) -> Message,
) -> (ServerRun, Option<String>) {
    serve(ch, os, strategy, Some(heartbeat), obs, handler)
}

/// The one Receive/Reply loop behind [`run_server`] (no `heartbeat`: every
/// wait is unbounded, no heartbeat word is published, no liveness scan
/// runs) and the resilient servers (every wait bounded by `heartbeat`,
/// each expiry a liveness scan).
fn serve<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
    heartbeat: Option<core::time::Duration>,
    obs: ServerObservability<'_>,
    mut handler: impl FnMut(Message) -> Message,
) -> (ServerRun, Option<String>) {
    use crate::fault::IpcError;
    ch.register_server_task(os.task_id());
    let n = ch.n_clients();
    // A client is "gone" once disconnected *or* reaped; each decrements
    // `live` exactly once, whichever order deaths and scans land in.
    let mut gone = vec![false; n as usize];
    let mut live = n;
    let mut run = ServerRun::default();
    let mut postmortem: Option<String> = None;
    let start = task_snapshot(os);
    let server = ch.server(os, strategy);
    let reap = |c: u32, gone: &mut [bool], live: &mut u32, run: &mut ServerRun| {
        if !gone[c as usize] {
            gone[c as usize] = true;
            *live -= 1;
            run.reaped += 1;
        }
    };
    // The postmortem is cut at the *first* death: that is the instant the
    // victim's final events are freshest in its shared-memory ring, before
    // the survivors' continuing traffic overwrites context around them.
    let dump = |slot: &mut Option<String>| {
        if slot.is_none() {
            if let Some(f) = obs.flight {
                *slot = Some(f.collect(&obs.task_names).to_chrome_json());
            }
        }
    };
    let publish = |run: &ServerRun, live: u32| {
        if let Some(w) = obs.telemetry {
            let snap = task_snapshot(os).diff(&start);
            w.set_queue_depth(ch.receive_queue().queued_len() as u64);
            w.set_waiters(live as u64);
            w.set_progress(run.processed);
            w.set_slots_leaked(snap.slots_leaked);
            w.publish(&snap);
        }
    };
    publish(&run, live);
    while live > 0 {
        let m = match server.receive_within(heartbeat) {
            Ok(m) => m,
            Err(IpcError::Timeout) => {
                // Liveness scan: reap clients whose death was marked (or
                // whose queue someone already poisoned) since last pass.
                for c in 0..n {
                    if gone[c as usize] {
                        continue;
                    }
                    let rq = ch.reply_queue(c);
                    if !rq.consumer_alive() {
                        os.record(ProtoEvent::PeerDeathDetected);
                        dump(&mut postmortem);
                        rq.poison(os);
                        reap(c, &mut gone, &mut live, &mut run);
                    } else if rq.is_poisoned() {
                        reap(c, &mut gone, &mut live, &mut run);
                    }
                }
                publish(&run, live);
                continue;
            }
            // The receive queue itself was poisoned: the channel as a
            // whole is dead under us — stop serving.
            Err(_) => break,
        };
        if m.channel >= n {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        if run.processed % 64 == 0 {
            publish(&run, live);
        }
        if m.opcode == opcode::DISCONNECT {
            run.disconnects += 1;
            if !gone[m.channel as usize] {
                gone[m.channel as usize] = true;
                live -= 1;
            }
            if server.reply_within(m.channel, m, heartbeat).is_err() {
                run.replies_dropped += 1;
            }
        } else {
            let mut ans = handler(m);
            ans.channel = m.channel;
            if let Err(e) = server.reply_within(m.channel, ans, heartbeat) {
                // Dropped (`reply_within` counted the event). QueueFull or
                // Timeout: the client's own deadline machinery recovers.
                run.replies_dropped += 1;
                if matches!(e, IpcError::PeerDead | IpcError::Poisoned) {
                    dump(&mut postmortem);
                    reap(m.channel, &mut gone, &mut live, &mut run);
                }
            }
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    publish(&run, live);
    (run, postmortem)
}

/// The paper's benchmark server: echoes the argument back.
pub fn run_echo_server<O: OsServices>(ch: &Channel, os: &O, strategy: WaitStrategy) -> ServerRun {
    run_server(ch, os, strategy, |m| m)
}

/// The paper's future work (§5), implemented: an overload-aware BSLS
/// server that *throttles wake-ups*.
///
/// "We could break the positive feedback in the BSLS algorithm by having
/// the server recognize the fact that it is overloaded, and limit the
/// number of clients it wakes up at any given time. The challenge is
/// constraining the concurrency in this fashion while guaranteeing that
/// starvation doesn't occur. We leave this for future work."
///
/// Replies are enqueued immediately (so spinning clients proceed without
/// any kernel help), but the wake-up `V` for clients that may have gone to
/// sleep is deferred onto a FIFO list, and the list is drained **only
/// while the receive queue shows no backlog**: at most `wake_batch`
/// entries per receive iteration while one request is still queued, the
/// *whole* list once the queue is empty. That is the admission control:
/// while already-awake clients keep the server saturated, sleepers stay
/// asleep instead of joining the spin contest; as the backlog clears,
/// wake-ups flow again, a batch at a time while there is still work to
/// interleave them with.
///
/// Starvation-freedom: the server never blocks with a wake-up still
/// deferred. An empty receive queue means the server is about to sleep in
/// `receive`, and nothing but a client can wake it — so before it does,
/// it flushes every deferred entry, not just a batch. (A batch is not
/// enough: `wake_consumer` on a client that already collected its reply
/// by spinning is a no-op, so a list headed by such stale entries would
/// spend the whole batch waking nobody while the one real sleeper behind
/// them — possibly the only client left — waits forever.) The batch bound
/// therefore only paces wake-ups while requests keep arriving; the
/// BSW-family wait loop tolerates late or unnecessary wake-ups by
/// construction — the `tas`-guarded `P` absorbs stray credits. The
/// Fig. 11 ablation (`figures throttle`) shows this removes the BSLS
/// cliff at `wake_batch = 2` and shrinks it at 1, where the flush on an
/// empty queue lets sleepers re-enter together (EXPERIMENTS.md).
pub fn run_throttled_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    max_spin: u32,
    wake_batch: usize,
) -> ServerRun {
    use crate::protocol::{bsls, enqueue_or_sleep, Deadline};
    use std::collections::VecDeque;
    assert!(
        wake_batch >= 1,
        "wake_batch must be at least 1 for liveness"
    );
    ch.register_server_task(os.task_id());
    let mut live = ch.n_clients();
    let mut run = ServerRun::default();
    let start = task_snapshot(os);
    let mut pending_wakes: VecDeque<u32> = VecDeque::new();
    let never = Deadline::never();
    while live > 0 || !pending_wakes.is_empty() {
        // Admission control: while the receive queue shows backlog, the
        // awake clients already keep the server saturated — leave the
        // sleepers asleep. With one request left, drain the deferred
        // wake-ups oldest-first, a batch per cycle. With none, the next
        // `receive` may block, so every deferred wake-up goes out first:
        // stale entries ahead of a real sleeper must not use up the cycle.
        let backlog = if live > 0 {
            ch.receive_queue().queued_len()
        } else {
            0
        };
        let budget = match backlog {
            0 => pending_wakes.len(),
            1 => wake_batch.min(pending_wakes.len()),
            _ => 0,
        };
        for c in pending_wakes.drain(..budget) {
            ch.reply_queue(c).wake_consumer(os);
        }
        if live == 0 {
            continue;
        }
        // No heartbeat: like `run_server`, the loop ends only with its
        // clients — or with the channel, when the receive queue is
        // poisoned under it.
        let Ok(m) = bsls::receive(ch, os, max_spin, &never) else {
            break;
        };
        if m.channel >= ch.n_clients() {
            os.record(ProtoEvent::MalformedRequest);
            run.malformed += 1;
            continue;
        }
        os.charge(Cost::Request);
        run.processed += 1;
        let rq = ch.reply_queue(m.channel);
        if enqueue_or_sleep(&rq, os, m, &never).is_err() {
            run.reply_dropped(os);
        }
        if m.opcode == opcode::DISCONNECT {
            run.disconnects += 1;
            live -= 1;
            // Disconnects are woken eagerly: the client is definitely
            // waiting, and the session is ending anyway.
            rq.wake_consumer(os);
        } else {
            // Defer the wake-up; a spinning (BSLS) client will usually
            // collect the reply before this V is ever needed.
            pending_wakes.push_back(m.channel);
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    run
}

/// A calculator server used by the examples: a per-client accumulator
/// driven by ADD/MUL/READ requests.
pub fn run_calculator_server<O: OsServices>(
    ch: &Channel,
    os: &O,
    strategy: WaitStrategy,
) -> ServerRun {
    let mut accum = vec![0.0f64; ch.n_clients() as usize];
    run_server(ch, os, strategy, move |m| {
        let a = &mut accum[m.channel as usize];
        let value = match m.opcode {
            opcode::ADD => {
                *a += m.value;
                *a
            }
            opcode::MUL => {
                *a *= m.value;
                *a
            }
            opcode::READ => *a,
            _ => f64::NAN, // unknown opcode: NaN reply, like an EINVAL
        };
        Message {
            opcode: m.opcode,
            channel: m.channel,
            value,
            aux: 0,
        }
    })
}
