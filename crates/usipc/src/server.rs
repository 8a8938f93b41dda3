//! The single-threaded server runtime.
//!
//! §2.2: "The server is placed in a tight Receive/Reply loop that accepts
//! connections and processes requests, where the processing per request is
//! simply to echo the argument back to the client. ... the server does not
//! know in advance how many messages it must process", so clients signal
//! completion with a DISCONNECT request, and the server runs until the last
//! client disconnects.

use crate::channel::Channel;
use crate::fault::IpcError;
use crate::metrics::{MetricsSnapshot, ProtoEvent};
use crate::msg::{opcode, Message};
use crate::platform::{Cost, OsServices};
use crate::protocol::WaitStrategy;
use crate::telemetry::TelemetryWriter;
use crate::trace::FlightRecorder;
use core::time::Duration;

/// Statistics from one server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerRun {
    /// Requests processed, including the final DISCONNECTs.
    pub processed: u64,
    /// Clients that disconnected, each counted once however many
    /// DISCONNECTs it sent (equals the client count on a clean run).
    /// `disconnects + reaped` is the number of clients gone at exit.
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
    let src = channel_source(ch, os, strategy, None);
    serve(os, src, ServerObservability::none(), handler).0
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
    heartbeat: Duration,
    handler: impl FnMut(Message) -> Message,
) -> ServerRun {
    let src = channel_source(ch, os, strategy, Some(heartbeat));
    serve(os, src, ServerObservability::none(), handler).0
}

/// Observability hooks for [`run_resilient_server_observed`] and
/// [`ShardedServer::run_worker_observed`](crate::ShardedServer::run_worker_observed):
/// both are optional, and both cost nothing when absent.
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
    heartbeat: Duration,
    obs: ServerObservability<'_>,
    handler: impl FnMut(Message) -> Message,
) -> (ServerRun, Option<String>) {
    let src = channel_source(ch, os, strategy, Some(heartbeat));
    serve(os, src, obs, handler)
}

/// What a [`Source`] hands the loop next.
pub(crate) enum Next {
    /// A well-formed request and the client (`0..n_clients`) it came from.
    Request(u32, Message),
    /// A message whose client-supplied `channel` names no reply queue:
    /// dropped and counted, never followed.
    Malformed,
    /// The heartbeat expired with nothing to serve.
    Idle,
    /// The source as a whole is dead (poisoned under the server).
    Closed,
}

/// Where [`serve`] gets its requests: one channel's shared receive queue
/// ([`channel_source`]), or a shard's WaitSet over its members' private
/// channels ([`ShardedServer::run_worker`](crate::ShardedServer::run_worker)).
/// The source owns how the server *waits*; the loop owns everything that
/// happens to a request once it has one.
pub(crate) struct Source<R, N> {
    /// Clients served, numbered `0..n_clients`.
    pub n_clients: u32,
    /// The protocol replies go out under.
    pub strategy: WaitStrategy,
    /// Bound on every wait and reply. `None`: unbounded, `next` never
    /// returns [`Next::Idle`], so no liveness scan runs.
    pub heartbeat: Option<Duration>,
    /// Client → the channel it is served on and its reply-queue index
    /// there (telemetry counts each channel's receive queue once, through
    /// the client at index 0).
    pub route: R,
    /// The next request, waiting at most one heartbeat for it and
    /// publishing the heartbeat words meanwhile.
    pub next: N,
}

/// A channel as a [`Source`]: `Receive` on the shared queue, where the
/// request's own `channel` field names its client. Registers the calling
/// task as the channel's server.
pub(crate) fn channel_source<'a, O: OsServices>(
    ch: &'a Channel,
    os: &'a O,
    strategy: WaitStrategy,
    heartbeat: Option<Duration>,
) -> Source<impl Fn(u32) -> (&'a Channel, u32), impl FnMut() -> Next + 'a> {
    ch.register_server_task(os.task_id());
    let (server, n_clients) = (ch.server(os, strategy), ch.n_clients());
    Source {
        n_clients,
        strategy,
        heartbeat,
        route: move |c| (ch, c),
        next: move || match server.receive_within(heartbeat) {
            Ok(m) if m.channel < n_clients => Next::Request(m.channel, m),
            Ok(_) => Next::Malformed,
            Err(IpcError::Timeout) => Next::Idle,
            // The receive queue itself was poisoned: the channel as a
            // whole is dead under us.
            Err(_) => Next::Closed,
        },
    }
}

/// The one Receive/Reply loop: behind [`run_server`], the resilient
/// servers and the mux worker alike. It runs until every client of `src`
/// has disconnected or been reaped, or the source closes.
pub(crate) fn serve<'a, O: OsServices>(
    os: &O,
    mut src: Source<impl Fn(u32) -> (&'a Channel, u32), impl FnMut() -> Next>,
    obs: ServerObservability<'_>,
    mut handler: impl FnMut(Message) -> Message,
) -> (ServerRun, Option<String>) {
    let n = src.n_clients;
    // A client is "gone" once disconnected *or* reaped, and counts towards
    // exactly one of the two — whichever the server saw first, however many
    // farewells, deaths and scans follow — so `disconnects + reaped` is the
    // number gone. `leave` is `true` the first time `c` does.
    let mut gone = vec![false; n as usize];
    let leave = |c: u32, gone: &mut [bool]| !core::mem::replace(&mut gone[c as usize], true);
    let mut run = ServerRun::default();
    let mut postmortem: Option<String> = None;
    let start = task_snapshot(os);
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
    let publish = |run: &ServerRun| {
        if let Some(w) = obs.telemetry {
            let snap = task_snapshot(os).diff(&start);
            let channels = (0..n).map(&src.route).filter(|(_, i)| *i == 0);
            w.set_queue_depth(
                channels
                    .map(|(ch, _)| ch.receive_queue().queued_len() as u64)
                    .sum(),
            );
            w.set_waiters(u64::from(n - run.disconnects - run.reaped));
            w.set_progress(run.processed);
            w.set_slots_leaked(snap.slots_leaked);
            w.publish(&snap);
        }
    };
    publish(&run);
    while run.disconnects + run.reaped < n {
        let (c, m) = match (src.next)() {
            Next::Request(c, m) => (c, m),
            Next::Malformed => {
                os.record(ProtoEvent::MalformedRequest);
                run.malformed += 1;
                continue;
            }
            Next::Idle => {
                // Liveness scan: reap clients whose death was marked (or
                // whose queue someone already poisoned) since last pass.
                for c in 0..n {
                    if gone[c as usize] {
                        continue;
                    }
                    let (ch, i) = (src.route)(c);
                    let replies = ch.reply_queue(i);
                    let dead = !replies.consumer_alive();
                    if dead {
                        os.record(ProtoEvent::PeerDeathDetected);
                        dump(&mut postmortem);
                        replies.poison(os);
                    }
                    if dead || replies.is_poisoned() || ch.receive_queue().is_poisoned() {
                        gone[c as usize] = true;
                        run.reaped += 1;
                    }
                }
                publish(&run);
                continue;
            }
            Next::Closed => break,
        };
        os.charge(Cost::Request);
        run.processed += 1;
        if run.processed % 64 == 0 {
            publish(&run);
        }
        let ans = if m.opcode == opcode::DISCONNECT {
            // Echoed back so the client's synchronous `Send` completes.
            run.disconnects += u32::from(leave(c, &mut gone));
            m
        } else {
            let mut ans = handler(m);
            ans.channel = m.channel;
            ans
        };
        let (ch, i) = (src.route)(c);
        if let Err(e) = ch
            .server(os, src.strategy)
            .reply_within(i, ans, src.heartbeat)
        {
            // Dropped (`reply_within` counted the event). QueueFull or
            // Timeout: the client's own deadline machinery recovers.
            run.replies_dropped += 1;
            if matches!(e, IpcError::PeerDead | IpcError::Poisoned) {
                dump(&mut postmortem);
                run.reaped += u32::from(leave(c, &mut gone));
            }
        }
    }
    run.metrics = task_snapshot(os).diff(&start);
    publish(&run);
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
            os.record(ProtoEvent::ReplyDropped);
            run.replies_dropped += 1;
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
