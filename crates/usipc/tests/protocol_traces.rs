//! Structural tests: each protocol must make exactly the kernel calls its
//! paper figure prescribes, in the prescribed order. A scripted mock
//! `OsServices` records every call and can inject a message or a WaitSet
//! notify at a chosen trigger point (standing in for the peer process).

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;
use usipc::{
    Channel, ChannelConfig, Cost, EndpointMetrics, HandoffHint, IpcError, Message, OsServices,
    WaitSet, WaitSetRoot, WaitStrategy,
};
use usipc_shm::{ShmArena, ShmPtr};

#[derive(Debug, Clone, PartialEq)]
enum Call {
    Yield,
    BusyWait,
    /// One paced poll step, with the attempt index the protocol handed over.
    PollPause(u32),
    SemP(u32),
    SemV(u32),
    SleepFull,
    Handoff(HandoffHint),
}

/// When the mock should run the scripted peer action.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Before the protocol runs (reply already waiting).
    Immediately,
    /// On the n-th `busy_wait` (1-based).
    OnBusyWait(u32),
    /// On the n-th `poll_pause` (1-based).
    OnPollPause(u32),
    /// On the n-th `sem_p` (1-based) — i.e. while "blocked".
    OnSemP(u32),
    /// On the n-th `yield_now` (1-based).
    OnYield(u32),
}

/// A scripted peer action and the trigger point it runs at.
type Script = (Trigger, Box<dyn FnOnce(&MockOs)>);

struct MockOs {
    calls: RefCell<Vec<Call>>,
    counters: RefCell<(u32, u32, u32, u32)>, // busy_waits, polls, sem_ps, yields
    script: RefCell<Option<Script>>,
    /// `now_nanos` calls: what a deadline costs on its slow path.
    clock_reads: Cell<u32>,
    /// `sem_p_deadline` calls (each also logged, and served, as a `SemP`).
    timed_ps: Cell<u32>,
    /// Metrics sink and latency sample period (`None`: collection off).
    sink: Option<(EndpointMetrics, u32)>,
}

impl MockOs {
    fn new() -> Self {
        MockOs {
            calls: RefCell::new(Vec::new()),
            counters: RefCell::new((0, 0, 0, 0)),
            script: RefCell::new(None),
            clock_reads: Cell::new(0),
            timed_ps: Cell::new(0),
            sink: None,
        }
    }

    /// A mock that collects metrics and times one round trip in `period`.
    fn sampling(period: u32) -> Self {
        MockOs {
            sink: Some((EndpointMetrics::new(), period)),
            ..Self::new()
        }
    }

    /// Deliver `msg` to queue `dest` (u32::MAX = server receive queue) when
    /// `trigger` fires; `wake` additionally performs the producer's
    /// wake-up step (`tas` + V as in the paper's Reply).
    fn deliver(&self, trigger: Trigger, ch: &Channel, dest: u32, msg: Message, wake: bool) {
        let ch = ch.clone();
        self.on(trigger, move |os| {
            let q = if dest == u32::MAX {
                ch.receive_queue()
            } else {
                ch.reply_queue(dest)
            };
            assert!(q.try_enqueue(os, msg), "mock delivery queue full");
            if wake {
                q.wake_consumer(os);
            }
        });
    }

    /// Run `action` as the peer when `trigger` fires.
    fn on(&self, trigger: Trigger, action: impl FnOnce(&MockOs) + 'static) {
        *self.script.borrow_mut() = Some((trigger, Box::new(action)));
        if trigger == Trigger::Immediately {
            self.fire();
        }
    }

    fn fire(&self) {
        let taken = self.script.borrow_mut().take();
        if let Some((_, action)) = taken {
            action(self);
        }
    }

    fn maybe_fire(&self, current: Trigger) {
        let hit = matches!(*self.script.borrow(), Some((t, ..)) if t == current);
        if hit {
            self.fire();
        }
    }

    fn log(&self, c: Call) {
        let mut calls = self.calls.borrow_mut();
        calls.push(c);
        assert!(
            calls.len() < 10_000,
            "protocol spun without progress; recent calls: {:?}",
            &calls[calls.len() - 10..]
        );
    }

    fn calls(&self) -> Vec<Call> {
        self.calls.borrow().clone()
    }

    fn count_of(&self, pred: impl Fn(&Call) -> bool) -> usize {
        self.calls.borrow().iter().filter(|c| pred(c)).count()
    }
}

impl OsServices for MockOs {
    fn yield_now(&self) {
        self.log(Call::Yield);
        let n = {
            let mut c = self.counters.borrow_mut();
            c.3 += 1;
            c.3
        };
        self.maybe_fire(Trigger::OnYield(n));
    }
    fn busy_wait(&self) {
        self.log(Call::BusyWait);
        let n = {
            let mut c = self.counters.borrow_mut();
            c.0 += 1;
            c.0
        };
        self.maybe_fire(Trigger::OnBusyWait(n));
    }
    fn poll_pause(&self, attempt: u32) {
        self.log(Call::PollPause(attempt));
        std::thread::yield_now(); // lets a real peer thread run on one CPU
        let n = {
            let mut c = self.counters.borrow_mut();
            c.1 += 1;
            c.1
        };
        self.maybe_fire(Trigger::OnPollPause(n));
    }
    fn sem_p(&self, sem: u32) {
        self.log(Call::SemP(sem));
        let n = {
            let mut c = self.counters.borrow_mut();
            c.2 += 1;
            c.2
        };
        self.maybe_fire(Trigger::OnSemP(n));
    }
    fn sem_v(&self, sem: u32) {
        self.log(Call::SemV(sem));
    }
    fn sleep_full(&self) {
        self.log(Call::SleepFull);
    }
    fn charge(&self, _c: Cost) {}
    fn handoff(&self, h: HandoffHint) {
        self.log(Call::Handoff(h));
    }
    fn msgsnd(&self, _q: u32, _m: [u64; 4]) {
        unreachable!("user-level protocols never use kernel message queues");
    }
    fn msgrcv(&self, _q: u32) -> [u64; 4] {
        unreachable!("user-level protocols never use kernel message queues");
    }
    fn task_id(&self) -> u32 {
        99
    }
    fn now_nanos(&self) -> Option<u64> {
        self.clock_reads.set(self.clock_reads.get() + 1);
        Some(u64::from(self.clock_reads.get())) // a nanosecond per read
    }
    fn sem_p_deadline(&self, sem: u32, _timeout: Duration) -> bool {
        self.timed_ps.set(self.timed_ps.get() + 1);
        self.sem_p(sem);
        true
    }
    fn metrics(&self) -> Option<&EndpointMetrics> {
        self.sink.as_ref().map(|(m, _)| m)
    }
    fn latency_sample_period(&self) -> u32 {
        self.sink.as_ref().map_or(1, |&(_, period)| period)
    }
}

fn channel() -> Channel {
    Channel::create(&ChannelConfig::new(2)).unwrap()
}

// ---- BSS (Fig. 1) ----------------------------------------------------

#[test]
fn bss_makes_no_kernel_calls_when_reply_is_ready() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(Trigger::Immediately, &ch, 0, Message::echo(0, 5.0), false);
    let ans = WaitStrategy::Bss.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 5.0);
    assert!(
        os.calls().is_empty(),
        "the ideal user-level IPC path: zero system calls, got {:?}",
        os.calls()
    );
    // The request really was enqueued for the server.
    assert_eq!(ch.receive_queue().try_dequeue(&os).unwrap().value, 1.0);
}

#[test]
fn bss_busy_waits_until_reply_arrives() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::OnPollPause(3),
        &ch,
        0,
        Message::echo(0, 9.0),
        false,
    );
    let ans = WaitStrategy::Bss.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 9.0);
    // The enqueue succeeded at once (zero pauses); the reply wait is its
    // own wait, so its attempts start at 0 and count up by one.
    assert_eq!(
        os.calls(),
        vec![Call::PollPause(0), Call::PollPause(1), Call::PollPause(2)]
    );
}

#[test]
fn bss_receive_spins_never_blocks() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::OnPollPause(2),
        &ch,
        u32::MAX,
        Message::echo(1, 3.0),
        false,
    );
    let m = WaitStrategy::Bss.receive(&ch, &os);
    assert_eq!(m.value, 3.0);
    assert_eq!(os.calls(), vec![Call::PollPause(0), Call::PollPause(1)]);
    // The next wait restarts the schedule, and a waiting request costs
    // zero pauses.
    os.deliver(
        Trigger::OnPollPause(3),
        &ch,
        u32::MAX,
        Message::echo(1, 4.0),
        false,
    );
    assert_eq!(WaitStrategy::Bss.receive(&ch, &os).value, 4.0);
    assert_eq!(os.calls()[2..], [Call::PollPause(0)]);
    os.deliver(
        Trigger::Immediately,
        &ch,
        u32::MAX,
        Message::echo(1, 5.0),
        false,
    );
    assert_eq!(WaitStrategy::Bss.receive(&ch, &os).value, 5.0);
    assert_eq!(os.calls().len(), 3, "non-empty queue: no pause");
}

// ---- BSW (Fig. 5) ----------------------------------------------------

#[test]
fn bsw_send_wakes_sleeping_server_exactly_once() {
    let ch = channel();
    let os = MockOs::new();
    // Server announced it may sleep.
    ch.receive_queue().clear_awake(&os);
    // Reply appears while we "block".
    os.deliver(Trigger::OnSemP(1), &ch, 0, Message::echo(0, 2.0), true);
    let ans = WaitStrategy::Bsw.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 2.0);
    let calls = os.calls();
    // First call: V(server sem = 0) — the wake-up.
    assert_eq!(calls[0], Call::SemV(0), "{calls:?}");
    // Exactly one wake-up, despite the enqueue path running once more
    // conceptually (the tas guard, Fig. 4 interleaving 2).
    assert_eq!(os.count_of(|c| matches!(c, Call::SemV(0))), 1);
    // And the client slept on its own semaphore (1 + client 0 = 1).
    assert!(calls.contains(&Call::SemP(1)), "{calls:?}");
    assert_eq!(
        os.count_of(|c| matches!(c, Call::BusyWait)),
        0,
        "BSW never busy-waits"
    );
    assert_eq!(
        os.count_of(|c| matches!(c, Call::Yield)),
        0,
        "BSW never yields"
    );
}

#[test]
fn bsw_send_skips_wakeup_when_server_awake() {
    let ch = channel();
    let os = MockOs::new();
    // Server awake flag is set (it is running): no V may be posted.
    os.deliver(Trigger::Immediately, &ch, 0, Message::echo(0, 2.0), false);
    let _ = WaitStrategy::Bsw.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(
        os.count_of(|c| matches!(c, Call::SemV(_))),
        0,
        "no wake-up for an awake consumer: {:?}",
        os.calls()
    );
}

#[test]
fn bsw_absorbs_stray_wakeup_with_guarded_p() {
    // Fig. 4 interleaving 3: the reply (and its V) lands between the
    // consumer's awake=0 and the double-check dequeue. The consumer must
    // perform one absorbing P and terminate with the flag set.
    let ch = channel();
    let os = MockOs::new();
    // The double-check happens after the first failed dequeue; deliver on
    // "blocked" is too late, so script on busy-wait... BSW has none, so we
    // emulate the producer racing the *first* dequeue: deliver immediately
    // but with the wake-up of a producer that saw awake == 0.
    ch.reply_queue(0).clear_awake(&os);
    os.deliver(Trigger::Immediately, &ch, 0, Message::echo(0, 8.0), true);
    // The producer's tas set the flag; its V is pending.
    let ans = WaitStrategy::Bsw.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 8.0);
    // The pending V was posted by the producer...
    assert_eq!(os.count_of(|c| matches!(c, Call::SemV(1))), 1);
    // ...and the consumer path completed without sleeping forever (the
    // dequeue succeeded on the fast path since the reply was present).
}

// ---- BSWY (Fig. 7) ---------------------------------------------------

#[test]
fn bswy_send_busy_waits_right_after_the_wakeup() {
    let ch = channel();
    let os = MockOs::new();
    ch.receive_queue().clear_awake(&os); // server sleeping
    os.deliver(Trigger::OnBusyWait(1), &ch, 0, Message::echo(0, 4.0), false);
    let ans = WaitStrategy::Bswy.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 4.0);
    let calls = os.calls();
    // Fig. 7: V(srv) immediately followed by busy_wait "and let it run".
    assert_eq!(&calls[0..2], &[Call::SemV(0), Call::BusyWait], "{calls:?}");
    // Reply was ready after that hand-off: no block.
    assert_eq!(os.count_of(|c| matches!(c, Call::SemP(_))), 0);
}

#[test]
fn bswy_send_skips_the_handoff_when_server_awake() {
    let ch = channel();
    let os = MockOs::new();
    // Server awake: Fig. 7 posts neither V nor the first busy_wait; the
    // wait loop then busy-waits once per iteration.
    os.deliver(Trigger::OnBusyWait(1), &ch, 0, Message::echo(0, 4.0), false);
    let _ = WaitStrategy::Bswy.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(os.count_of(|c| matches!(c, Call::SemV(_))), 0);
}

#[test]
fn bswy_receive_yields_once_to_let_clients_run() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::OnSemP(1),
        &ch,
        u32::MAX,
        Message::echo(0, 6.0),
        true,
    );
    let m = WaitStrategy::Bswy.receive(&ch, &os);
    assert_eq!(m.value, 6.0);
    let calls = os.calls();
    // Fig. 7 Receive: dequeue fails -> yield() -> blocking path.
    assert_eq!(calls[0], Call::Yield, "{calls:?}");
    assert_eq!(os.count_of(|c| matches!(c, Call::Yield)), 1);
}

#[test]
fn bswy_receive_returns_immediately_when_work_is_queued() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::Immediately,
        &ch,
        u32::MAX,
        Message::echo(1, 2.5),
        false,
    );
    let m = WaitStrategy::Bswy.receive(&ch, &os);
    assert_eq!(m.value, 2.5);
    assert!(os.calls().is_empty(), "{:?}", os.calls());
}

// ---- the mux worker's doorbell wait: BSWY's Receive over a WaitSet ----

const DOORBELL: u32 = 3;

/// A wait bound no test reaches.
const LONG: Duration = Duration::from_secs(60);

/// A two-source WaitSet ringing `DOORBELL`, in an arena a scripted
/// notifier can own.
fn waitset() -> (Arc<ShmArena>, ShmPtr<WaitSetRoot>) {
    let arena = Arc::new(ShmArena::new(WaitSetRoot::bytes_needed(2)).unwrap());
    let root = WaitSetRoot::create_in(&arena, 2, DOORBELL).unwrap();
    (arena, root)
}

/// The peer's half of a request: `notify` of `source`.
fn notifier(
    arena: &Arc<ShmArena>,
    root: ShmPtr<WaitSetRoot>,
    source: usize,
) -> impl FnOnce(&MockOs) {
    let arena = Arc::clone(arena);
    move |os| WaitSet::attach(&arena, root).notify(os, source)
}

#[test]
fn waitset_wait_yields_once_then_sleeps_on_the_doorbell() {
    let (arena, root) = waitset();
    let ws = WaitSet::attach(&arena, root);
    let os = MockOs::new();
    os.on(Trigger::OnSemP(1), notifier(&arena, root, 1));
    assert_eq!(ws.wait_deadline(&os, &mut 0, LONG), Ok(1));
    // Fig. 7 Receive: empty scan -> yield -> empty rescan -> latch clear
    // -> empty final scan -> P(doorbell); the `V` is the notifier's, made
    // while the waiter was "blocked" (the latch was clear).
    assert_eq!(
        os.calls(),
        vec![Call::Yield, Call::SemP(DOORBELL), Call::SemV(DOORBELL)]
    );
}

#[test]
fn waitset_wait_claims_a_notify_made_during_its_yield_without_a_p() {
    let (arena, root) = waitset();
    let ws = WaitSet::attach(&arena, root);
    let os = MockOs::new();
    os.on(Trigger::OnYield(1), notifier(&arena, root, 0));
    assert_eq!(ws.wait_deadline(&os, &mut 0, LONG), Ok(0));
    // The waiter was still awake (latch held): the notifier rang nothing,
    // and the post-yield poll found its source.
    assert_eq!(os.calls(), vec![Call::Yield]);
}

#[test]
fn waitset_wait_on_a_ready_source_costs_no_yield() {
    let (arena, root) = waitset();
    let ws = WaitSet::attach(&arena, root);
    let os = MockOs::new();
    os.on(Trigger::Immediately, notifier(&arena, root, 1));
    let mut cursor = 0;
    assert_eq!(ws.wait_deadline(&os, &mut cursor, LONG), Ok(1));
    assert!(os.calls().is_empty(), "a fresh latch is held: no ring");
    // A zero-length wait with nothing ready: yield, rescan, clear the
    // latch, rescan, one zero-timeout `P` (the mock grants it), rescan,
    // expire.
    assert_eq!(
        ws.wait_deadline(&os, &mut cursor, Duration::ZERO),
        Err(IpcError::Timeout)
    );
    assert_eq!(os.calls(), [Call::Yield, Call::SemP(DOORBELL)]);
}

// ---- BSLS (Fig. 9) ---------------------------------------------------

/// Each wait starts its own `PollLoop`: the backend is handed a fresh
/// attempt index from 0, up by one, so it can pace by how long *this*
/// wait has lasted.
#[test]
fn bsls_polls_up_to_max_spin_then_blocks() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(Trigger::OnSemP(1), &ch, 0, Message::echo(0, 3.0), true);
    let ans = WaitStrategy::Bsls { max_spin: 7 }.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 3.0);
    let polls: Vec<_> = os
        .calls()
        .into_iter()
        .filter(|c| matches!(c, Call::PollPause(_)))
        .collect();
    assert_eq!(
        polls,
        (0..7).map(Call::PollPause).collect::<Vec<_>>(),
        "spin budget honoured exactly, attempts 0..max_spin in order"
    );
    assert!(
        os.count_of(|c| matches!(c, Call::SemP(_))) >= 1,
        "then blocked"
    );
}

#[test]
fn bsls_stops_polling_as_soon_as_the_reply_lands() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::OnPollPause(2),
        &ch,
        0,
        Message::echo(0, 3.5),
        false,
    );
    let ans = WaitStrategy::Bsls { max_spin: 50 }.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(ans.value, 3.5);
    assert_eq!(os.calls(), vec![Call::PollPause(0), Call::PollPause(1)]);
    assert_eq!(
        os.count_of(|c| matches!(c, Call::SemP(_))),
        0,
        "no block needed"
    );
}

#[test]
fn bsls_zero_spin_goes_straight_to_the_blocking_path() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(Trigger::OnSemP(1), &ch, 0, Message::echo(0, 1.5), true);
    let _ = WaitStrategy::Bsls { max_spin: 0 }.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(os.count_of(|c| matches!(c, Call::PollPause(_))), 0);
}

#[test]
fn bsls_receive_pays_no_pause_for_a_waiting_request() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::Immediately,
        &ch,
        u32::MAX,
        Message::echo(0, 2.0),
        false,
    );
    let m = WaitStrategy::Bsls { max_spin: 50 }.receive(&ch, &os);
    assert_eq!(m.value, 2.0);
    assert!(os.calls().is_empty(), "{:?}", os.calls());
}

// ---- handoff (§6) ----------------------------------------------------

#[test]
fn handoff_send_names_the_server() {
    let ch = channel();
    ch.register_server_task(7);
    let os = MockOs::new();
    ch.receive_queue().clear_awake(&os); // server sleeping
                                         // HandoffBswy never busy-waits (it hands off instead), so inject the
                                         // reply at the block point.
    os.deliver(Trigger::OnSemP(1), &ch, 0, Message::echo(0, 4.0), true);
    let _ = WaitStrategy::HandoffBswy.send(&ch, &os, 0, Message::echo(0, 1.0));
    let handoffs: Vec<_> = os
        .calls()
        .into_iter()
        .filter(|c| matches!(c, Call::Handoff(_)))
        .collect();
    assert!(
        handoffs.contains(&Call::Handoff(HandoffHint::Peer(7))),
        "client hands off to the registered server task: {handoffs:?}"
    );
}

#[test]
fn handoff_receive_uses_pid_any() {
    let ch = channel();
    let os = MockOs::new();
    os.deliver(
        Trigger::OnSemP(1),
        &ch,
        u32::MAX,
        Message::echo(0, 6.0),
        true,
    );
    let _ = WaitStrategy::HandoffBswy.receive(&ch, &os);
    assert_eq!(
        os.calls()[0],
        Call::Handoff(HandoffHint::Any),
        "server lets anyone run: {:?}",
        os.calls()
    );
}

#[test]
fn handoff_without_registration_falls_back_to_yield() {
    let ch = channel(); // server never registered
    let os = MockOs::new();
    ch.receive_queue().clear_awake(&os);
    os.deliver(Trigger::OnSemP(1), &ch, 0, Message::echo(0, 4.0), true);
    let _ = WaitStrategy::HandoffBswy.send(&ch, &os, 0, Message::echo(0, 1.0));
    assert_eq!(os.count_of(|c| matches!(c, Call::Handoff(_))), 0);
    assert!(
        os.count_of(|c| matches!(c, Call::Yield)) >= 1,
        "{:?}",
        os.calls()
    );
}

// ---- Reply (common) --------------------------------------------------

#[test]
fn reply_wakes_only_a_sleeping_client() {
    let ch = channel();
    let os = MockOs::new();
    for strategy in [
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 3 },
        WaitStrategy::HandoffBswy,
    ] {
        // Client 1 sleeping: V expected on sem 1 + 1 = 2.
        let os2 = MockOs::new();
        ch.reply_queue(1).clear_awake(&os2);
        strategy.reply(&ch, &os2, 1, Message::echo(1, 0.0));
        assert_eq!(
            os2.count_of(|c| matches!(c, Call::SemV(2))),
            1,
            "{} wakes the sleeping client",
            strategy.name()
        );
        // Drain for the next round; the flag is set again by tas.
        assert!(ch.reply_queue(1).try_dequeue(&os2).is_some());

        // Client awake: no V.
        let os3 = MockOs::new();
        strategy.reply(&ch, &os3, 1, Message::echo(1, 0.0));
        assert_eq!(os3.count_of(|c| matches!(c, Call::SemV(_))), 0);
        assert!(ch.reply_queue(1).try_dequeue(&os3).is_some());
        let _ = os.calls(); // silence unused in release config
    }
}

// ---- Infallible = no deadline ----------------------------------------

/// The tests above pin what each unbounded front asks of the kernel. This
/// one pins what it must *not* ask: under `Deadline::never` no strategy
/// reads the clock or makes a timed `P`, on the slow path either — while
/// the bounded front, the same body, makes the same calls in the same
/// order and pays exactly those two extras.
#[test]
fn unbounded_fronts_read_no_clock_and_make_no_timed_p() {
    const BOUND: Duration = Duration::from_secs(60);
    for strategy in [
        WaitStrategy::Bss,
        WaitStrategy::Bsw,
        WaitStrategy::Bswy,
        WaitStrategy::Bsls { max_spin: 2 },
        WaitStrategy::HandoffBswy,
    ] {
        // The peer's message lands only once the waiter is on its slow
        // path: polling (BSS) or committed to its `P` (everyone else).
        let late = match strategy {
            WaitStrategy::Bss => Trigger::OnPollPause(2),
            _ => Trigger::OnSemP(1),
        };
        // One Send, one Receive, one Reply, each under a fresh mock (its
        // triggers count from the mock's creation); `bounded` picks the
        // fronts. Returns every call made, clock reads, timed `P`s.
        let run = |bounded: bool| {
            let ch = channel();
            let mut seen = (Vec::new(), 0, 0);
            let mut tally = |os: &MockOs| {
                seen.0.extend(os.calls());
                seen.1 += os.clock_reads.get();
                seen.2 += os.timed_ps.get();
            };

            let os = MockOs::new();
            os.deliver(late, &ch, 0, Message::echo(0, 5.0), true);
            let request = Message::echo(0, 1.0);
            let reply = match bounded {
                false => strategy.send(&ch, &os, 0, request),
                true => strategy.send_deadline(&ch, &os, 0, request, BOUND).unwrap(),
            };
            assert_eq!(reply.value, 5.0, "{}", strategy.name());
            assert!(ch.receive_queue().try_dequeue(&os).is_some());
            tally(&os);

            let os = MockOs::new();
            os.deliver(late, &ch, u32::MAX, Message::echo(1, 6.0), true);
            let got = match bounded {
                false => strategy.receive(&ch, &os),
                true => strategy.receive_deadline(&ch, &os, BOUND).unwrap(),
            };
            assert_eq!(got.value, 6.0, "{}", strategy.name());
            tally(&os);

            let os = MockOs::new();
            match bounded {
                false => strategy.reply(&ch, &os, 1, got),
                true => strategy.reply_deadline(&ch, &os, 1, got, BOUND).unwrap(),
            }
            tally(&os);
            seen
        };
        let (unbounded_calls, clock_reads, timed_ps) = run(false);
        assert_eq!(
            (clock_reads, timed_ps),
            (0, 0),
            "{}: an unbounded wait read the clock or made a timed P",
            strategy.name()
        );
        let (bounded_calls, clock_reads, timed_ps) = run(true);
        assert_eq!(bounded_calls, unbounded_calls, "{}", strategy.name());
        let blocks = unbounded_calls
            .iter()
            .filter(|c| matches!(c, Call::SemP(_)))
            .count() as u32;
        assert_eq!(timed_ps, blocks, "{}", strategy.name());
        assert!(clock_reads >= 2, "{}: one per slow path", strategy.name());
    }
}

// ---- the round-trip clock (`ClientEndpoint::call`) -------------------------

/// One call with its reply already waiting; returns the clock reads it made.
fn clock_reads_of_a_call(ch: &Channel, os: &MockOs, v: f64) -> u32 {
    let before = os.clock_reads.get();
    os.deliver(Trigger::Immediately, ch, 0, Message::echo(0, v), false);
    let reply = ch
        .client(os, 0, WaitStrategy::Bsw)
        .call(Message::echo(0, v));
    assert_eq!(reply.value, v);
    assert!(ch.receive_queue().try_dequeue(os).is_some());
    os.clock_reads.get() - before
}

#[test]
fn a_call_reads_the_clock_only_when_it_is_the_sampled_one() {
    let ch = channel();
    // Collection off: no sink, so no call is ever timed.
    let os = MockOs::new();
    for i in 0..5 {
        assert_eq!(clock_reads_of_a_call(&ch, &os, i as f64), 0);
    }
    // Collection on, one in four: the first call and every fourth after it
    // pay a clock pair, the others none.
    let os = MockOs::sampling(4);
    for i in 0..9 {
        let reads = clock_reads_of_a_call(&ch, &os, i as f64);
        assert_eq!(reads, if i % 4 == 0 { 2 } else { 0 }, "call {i}");
    }
    assert_eq!(os.metrics().unwrap().latency_snapshot().count, 3);
}
