//! Named, explorer-ready scenarios for the Fig. 4 sleep/wake-up races.
//!
//! `tests/race_regressions.rs` pins each race with one hand-scripted
//! schedule (precise `work()` gaps). This module expresses the same
//! protagonists — a blocking consumer and one or more producers on a shared
//! [`WaitableQueue`](crate::WaitableQueue) — as *scenarios* for the
//! schedule-space explorer ([`usipc_sim::Explorer`]): the explorer, not the
//! test author, chooses where every preemption lands, so the assertions
//! hold over **all** schedules at the bounded depth rather than one.
//!
//! Every protocol step of interest drops a zero-cost [`Sys::mark`]
//! (codes in [`marks`]), and [`Interleaving::exhibited`] reads the mark
//! history of a finished run to decide which of the four Fig. 4
//! interleavings that schedule actually performed. Tests then assert both
//! directions: each interleaving *occurs* somewhere in the explored space
//! (the scenario really exercises the race), and no schedule violates the
//! invariants (the protocol really closes it).
//!
//! Mutants ([`ConsumerKind::NoRecheck`], [`ProducerKind::UnguardedV`])
//! reintroduce the historical bugs — the missing re-check of interleaving 4
//! and the unguarded `V` whose credits "can accumulate — eventually causing
//! an overflow of the semaphore value (this happened in our first version
//! of the algorithm!)" (§3) — and must produce counterexamples; so must
//! [`waitset_late_clear_scenario`], a WaitSet waiter that clears its
//! doorbell latch after its final scan instead of before.
//!
//! [`Sys::mark`]: usipc_sim::Sys::mark

use crate::channel::{Channel, ChannelConfig};
use crate::fault::{FaultAction, FaultPlan, IpcError};
use crate::metrics::{MetricsRegistry, ProtoEvent};
use crate::msg::Message;
use crate::platform::{Cost, OsServices};
use crate::protocol::{blocking_dequeue, Deadline, WaitStrategy};
use crate::server::{
    channel_source, run_echo_server, run_throttled_server, serve, Next, ServerObservability, Source,
};
use crate::simulated::{SimCosts, SimIds, SimOs};
use crate::waitset::{ShardedConfig, ShardedServer, WaitSet, WaitSetRoot};
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usipc_sim::{MachineModel, ScenarioCheck, SimBuilder, SimReport};

/// Mark codes recorded by the scenario tasks (consumer 1–7, producer
/// 10–12). Marks are cost-free, so instrumentation never perturbs the
/// schedule space being explored.
pub mod marks {
    /// Consumer: first `dequeue` of a wait round found the queue empty.
    pub const EMPTY1: u64 = 1;
    /// Consumer: `awake` cleared (the "I may sleep" announcement).
    pub const CLEARED: u64 = 2;
    /// Consumer: re-check also empty — committing to `P`.
    pub const BLOCK_COMMIT: u64 = 3;
    /// Consumer: returned from the committed `P` and re-set `awake`.
    pub const WOKE: u64 = 4;
    /// Consumer: the re-check found a message (the Fig. 5 `else` branch).
    pub const RECHECK_GOT: u64 = 5;
    /// Consumer: `tas` saw a producer's wake-up; absorbed it with an extra
    /// `P` (interleaving 3's fix firing).
    pub const ABSORBED: u64 = 6;
    /// Consumer: the committed `P` returned *without blocking* — it
    /// consumed a credit banked before the sleep (interleaving 1's fix:
    /// counting semaphores remember early wake-ups).
    pub const PENDING_CREDIT: u64 = 7;
    /// Producer: message enqueued.
    pub const ENQUEUED: u64 = 10;
    /// Producer: `tas` found `awake == 0` — posted the wake-up `V`.
    pub const V_POSTED: u64 = 11;
    /// Producer: `tas` found `awake == 1` — wake-up suppressed.
    pub const V_SUPPRESSED: u64 = 12;
}

/// Which consumer runs in a [`Fig4Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumerKind {
    /// The Fig. 5 wait loop: clear, re-check, `tas`-guarded stray-credit
    /// absorption.
    Correct,
    /// Mutant: clears `awake` and sleeps with **no re-check** — reopens
    /// interleaving 4 (a producer that saw `awake == 1` posts no `V`, and
    /// the consumer sleeps forever on a non-empty queue).
    NoRecheck,
}

/// Which producers run in a [`Fig4Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProducerKind {
    /// The Fig. 5 producer: `if (!tas(&Q->awake)) V(Q->sem)`.
    Guarded,
    /// Mutant: `V` on every enqueue, no `tas` guard — reopens
    /// interleavings 2/3 (stray credits accumulate without bound, the §3
    /// overflow).
    UnguardedV,
}

/// One consumer and `producers` producers racing on a shared waitable
/// queue — the exact cast of Fig. 4 — parameterized by protocol variant so
/// the same scenario proves the stock protocol correct and the mutants
/// broken.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Scenario {
    /// Number of producer tasks (Fig. 4's interleaving 2 needs ≥ 2).
    pub producers: u32,
    /// Messages each producer enqueues.
    pub msgs_per_producer: u32,
    /// Consumer variant.
    pub consumer: ConsumerKind,
    /// Producer variant.
    pub producer: ProducerKind,
}

impl Fig4Scenario {
    /// The stock BSW cast: correct consumer, guarded producers.
    pub fn stock(producers: u32, msgs_per_producer: u32) -> Self {
        Fig4Scenario {
            producers,
            msgs_per_producer,
            consumer: ConsumerKind::Correct,
            producer: ProducerKind::Guarded,
        }
    }

    /// A scenario closure for [`usipc_sim::Explorer::run`]: builds a fresh
    /// channel per run, spawns the cast, and checks that the consumer
    /// consumed every message exactly once.
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        move |b: &mut SimBuilder| {
            let mut ids = SimIds::default();
            ids.sems.push(b.add_sem(0)); // server_sem(): the consumer's
            let ids = Arc::new(ids);
            let costs = SimCosts::from_machine(&MachineModel::explore());
            let channel = Channel::create(&ChannelConfig::new(1)).unwrap();
            let total = u64::from(self.producers * self.msgs_per_producer);
            let consumed = Arc::new(AtomicU64::new(0));

            let (ch, ids2, count) = (channel.clone(), Arc::clone(&ids), Arc::clone(&consumed));
            let consumer = self.consumer;
            b.spawn("consumer", move |sys| {
                let os = SimOs::new(sys, ids2, costs, false, 0);
                let q = ch.receive_queue();
                let mut got = 0u64;
                while got < total {
                    if q.try_dequeue(&os).is_some() {
                        got += 1;
                        count.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    sys.mark(marks::EMPTY1);
                    q.clear_awake(&os);
                    sys.mark(marks::CLEARED);
                    match consumer {
                        ConsumerKind::Correct => match q.try_dequeue(&os) {
                            None => {
                                let before = sys.rusage().blocks;
                                sys.mark(marks::BLOCK_COMMIT);
                                os.sem_p(q.sem());
                                if sys.rusage().blocks == before {
                                    sys.mark(marks::PENDING_CREDIT);
                                }
                                q.set_awake(&os);
                                sys.mark(marks::WOKE);
                            }
                            Some(_) => {
                                sys.mark(marks::RECHECK_GOT);
                                if q.tas_awake(&os) {
                                    sys.mark(marks::ABSORBED);
                                    os.sem_p(q.sem());
                                }
                                got += 1;
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        ConsumerKind::NoRecheck => {
                            // BUG under test: sleep with no re-check.
                            sys.mark(marks::BLOCK_COMMIT);
                            os.sem_p(q.sem());
                            q.set_awake(&os);
                            sys.mark(marks::WOKE);
                        }
                    }
                }
            });

            for p in 0..self.producers {
                let (ch, ids2) = (channel.clone(), Arc::clone(&ids));
                let (producer, msgs) = (self.producer, self.msgs_per_producer);
                b.spawn(format!("producer{p}"), move |sys| {
                    let os = SimOs::new(sys, ids2, costs, false, 1 + p);
                    let q = ch.receive_queue();
                    for i in 0..msgs {
                        assert!(q.try_enqueue(&os, Message::echo(0, f64::from(i))));
                        sys.mark(marks::ENQUEUED);
                        match producer {
                            ProducerKind::Guarded => {
                                if q.tas_awake(&os) {
                                    sys.mark(marks::V_SUPPRESSED);
                                } else {
                                    sys.mark(marks::V_POSTED);
                                    os.sem_v(q.sem());
                                }
                            }
                            ProducerKind::UnguardedV => {
                                // BUG under test: V without the tas guard.
                                sys.mark(marks::V_POSTED);
                                os.sem_v(q.sem());
                            }
                        }
                    }
                });
            }

            Box::new(move |_r: &SimReport| {
                let got = consumed.load(Ordering::Relaxed);
                if got == total {
                    Ok(())
                } else {
                    Err(format!("consumed {got} of {total} messages"))
                }
            })
        }
    }
}

/// The four execution interleavings of Fig. 4, detectable from a finished
/// run's mark history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interleaving {
    /// 1 — the producer's `V` lands between the consumer's failed re-check
    /// and its `P`; the counting semaphore banks the credit and the `P`
    /// returns without blocking.
    WakeupBeforeSleep,
    /// 2 — a second producer's wake-up is suppressed by the `tas` because
    /// another producer already posted one (without the guard, credits
    /// accumulate).
    MultipleWakeups,
    /// 3 — a wake-up was posted but the consumer's re-check already got the
    /// message; the `tas`-guarded extra `P` absorbs the stray credit.
    WakeupWithoutSleep,
    /// 4 — the producer checked `awake` *before* the consumer cleared it
    /// (no `V` posted); only the re-check saves the consumer from sleeping
    /// on a non-empty queue.
    SleepAfterCheck,
}

/// All four, for iteration.
pub const ALL_INTERLEAVINGS: [Interleaving; 4] = [
    Interleaving::WakeupBeforeSleep,
    Interleaving::MultipleWakeups,
    Interleaving::WakeupWithoutSleep,
    Interleaving::SleepAfterCheck,
];

impl Interleaving {
    /// The paper's name for the interleaving.
    pub fn name(self) -> &'static str {
        match self {
            Interleaving::WakeupBeforeSleep => "wake-up before sleep",
            Interleaving::MultipleWakeups => "multiple wake-ups",
            Interleaving::WakeupWithoutSleep => "wake-up without sleep",
            Interleaving::SleepAfterCheck => "sleep after check",
        }
    }

    /// Whether this interleaving occurred in `r`'s schedule, judged from
    /// the [`marks`] history of a [`Fig4Scenario`] run.
    pub fn exhibited(self, r: &SimReport) -> bool {
        let ms = &r.marks; // sorted by (time, pid)
        match self {
            // The committed P consumed a banked credit instead of blocking.
            Interleaving::WakeupBeforeSleep => ms.iter().any(|m| m.code == marks::PENDING_CREDIT),
            // A producer's V was suppressed while the flag was set by a
            // *different producer's* posted V — no consumer re-set of
            // `awake` (WOKE / RECHECK_GOT) in between.
            Interleaving::MultipleWakeups => ms.iter().enumerate().any(|(i, sup)| {
                sup.code == marks::V_SUPPRESSED
                    && ms[..i]
                        .iter()
                        .rev()
                        .take_while(|m| m.code != marks::WOKE && m.code != marks::RECHECK_GOT)
                        .any(|m| m.code == marks::V_POSTED && m.pid != sup.pid)
            }),
            // The tas-guarded absorption fired.
            Interleaving::WakeupWithoutSleep => ms.iter().any(|m| m.code == marks::ABSORBED),
            // A producer was suppressed between the consumer's failed first
            // dequeue and its clear — and that wait round was saved by the
            // re-check.
            Interleaving::SleepAfterCheck => {
                ms.iter().enumerate().any(|(i, e1)| {
                    if e1.code != marks::EMPTY1 {
                        return false;
                    }
                    let mut suppressed = false;
                    for m in &ms[i + 1..] {
                        match m.code {
                            marks::V_SUPPRESSED => suppressed = true,
                            marks::CLEARED => {
                                // Round outcome: the next consumer wait mark.
                                return suppressed
                                    && ms.iter().skip(i + 1).find_map(|n| match n.code {
                                        marks::RECHECK_GOT => Some(true),
                                        marks::BLOCK_COMMIT => Some(false),
                                        _ => None,
                                    }) == Some(true);
                            }
                            _ => {}
                        }
                    }
                    false
                })
            }
        }
    }
}

/// The cast of every full-protocol scenario: one server task (platform
/// task 0) and `n_clients` client tasks (task `1 + c`) over `n_sems` fresh
/// semaphores, each on its own [`SimOs`] recording into the returned
/// registry (metrics never move the simulated schedule).
fn spawn_cast(
    b: &mut SimBuilder,
    n_sems: usize,
    n_clients: u32,
    multiprocessor: bool,
    server: impl FnOnce(&SimOs<'_>) + Send + 'static,
    client: impl Fn(&SimOs<'_>, u32) + Clone + Send + 'static,
) -> Arc<MetricsRegistry> {
    let ids = Arc::new(SimIds {
        sems: (0..n_sems).map(|_| b.add_sem(0)).collect(),
        ..SimIds::default()
    });
    let costs = SimCosts::from_machine(&MachineModel::explore());
    let metrics = Arc::new(MetricsRegistry::new());
    let (ids2, sink) = (Arc::clone(&ids), metrics.for_task(0));
    b.spawn("server", move |sys| {
        server(&SimOs::new(sys, ids2, costs, multiprocessor, 0).with_metrics(sink))
    });
    for c in 0..n_clients {
        let (ids2, sink, client) = (Arc::clone(&ids), metrics.for_task(1 + c), client.clone());
        b.spawn(format!("client{c}"), move |sys| {
            let os = SimOs::new(sys, ids2, costs, multiprocessor, 1 + c).with_metrics(sink);
            client(&os, c)
        });
    }
    metrics
}

/// Client `c`'s session through `call`: `msgs` echoes — each must return
/// its argument, each counted in `answered` — then the farewell.
fn echo_session(answered: &AtomicU64, msgs: u32, c: u32, call: impl Fn(Message) -> Message) {
    for i in 0..msgs {
        let v = f64::from(c * 100 + i);
        let reply = call(Message::echo(c, v));
        assert_eq!(reply.value, v, "echo must return the argument");
        answered.fetch_add(1, Ordering::Relaxed);
    }
    call(Message::disconnect(c));
}

fn answered_all(answered: &AtomicU64, total: u64) -> Result<(), String> {
    match answered.load(Ordering::Relaxed) {
        got if got == total => Ok(()),
        got => Err(format!("answered {got} of {total} requests")),
    }
}

/// A full-protocol scenario: one echo server and `n_clients` synchronous
/// clients under `strategy`, with an answered-exactly-once check (every
/// client call returned, with the right value, `msgs` times per client).
///
/// This is the closure form the explorer wants; unlike [`Fig4Scenario`] it
/// exercises the real [`WaitStrategy`] code paths end to end, reply queues
/// included — the invariant that reply-queue `max_count` stays ≤ 1 across
/// all schedules is checked via [`usipc_sim::Explorer::sem_bound`].
pub fn echo_scenario(
    strategy: WaitStrategy,
    n_clients: u32,
    msgs: u32,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    channel_scenario(strategy, n_clients, msgs, move |ch, os| {
        run_echo_server(ch, os, strategy);
    })
}

/// The §5 overload-aware server under the explorer: `n_clients`
/// BSLS(`max_spin`) clients against
/// [`run_throttled_server`] deferring
/// wake-ups `wake_batch` at a time, with the answered-exactly-once check.
/// The server's liveness claim — it never blocks with a wake-up still
/// deferred — is what a schedule breaking it would show: a client asleep
/// on a deferred `V` while the server sleeps on an empty queue, a deadlock
/// the explorer reports.
pub fn throttle_scenario(
    n_clients: u32,
    msgs: u32,
    max_spin: u32,
    wake_batch: usize,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    let strategy = WaitStrategy::Bsls { max_spin };
    channel_scenario(strategy, n_clients, msgs, move |ch, os| {
        run_throttled_server(ch, os, max_spin, wake_batch);
    })
}

/// `n_clients` synchronous `strategy` clients echoing `msgs` times each
/// through one channel that `server` serves, with the answered-exactly-once
/// check.
fn channel_scenario(
    strategy: WaitStrategy,
    n_clients: u32,
    msgs: u32,
    server: impl Fn(&Channel, &SimOs<'_>) + Clone + Send + 'static,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    move |b: &mut SimBuilder| {
        let ch = Channel::create(&ChannelConfig::new(n_clients as usize)).unwrap();
        let answered = Arc::new(AtomicU64::new(0));
        let (ch2, count, server) = (ch.clone(), Arc::clone(&answered), server.clone());
        spawn_cast(
            b,
            1 + n_clients as usize, // 0: server; 1+c: client c
            n_clients,
            false,
            move |os| server(&ch, os),
            move |os, c| echo_session(&count, msgs, c, |m| ch2.client(os, c, strategy).call(m)),
        );
        Box::new(move |_r: &SimReport| answered_all(&answered, u64::from(n_clients * msgs)))
    }
}

/// The same server loop fed by its other source: one
/// [`ShardedServer`] worker multiplexing `n_clients`
/// [`MuxClient`](crate::MuxClient)s through a single WaitSet. What the
/// explorer interleaves here is the bitmap [`notify`](crate::WaitSet::notify)
/// (set the bit, then test the latch) against the worker's
/// poll-then-sleep (clear the latch, then scan, then `P`). A lost doorbell
/// leaves the worker asleep over a queued request until its heartbeat —
/// 10 ms here, far beyond any fault-free run — expires and the next poll
/// finds the bit, so the check fails any run in which a worker wait timed
/// out; it adds answered-exactly-once and the doorbell budget
/// (`doorbells_rung ≤ waitset_wakes + 1`). Run it under
/// [`usipc_sim::Explorer::sem_bound`]`(1)` and no semaphore — doorbell or
/// reply — may ever bank two credits.
pub fn mux_scenario(n_clients: u32, msgs: u32) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    move |b: &mut SimBuilder| {
        let cfg = ShardedConfig {
            heartbeat: core::time::Duration::from_millis(10),
            ..ShardedConfig::new(n_clients as usize, 1)
        };
        let srv = Arc::new(ShardedServer::create(cfg).unwrap());
        let answered = Arc::new(AtomicU64::new(0));
        let (srv2, srv3, count) = (Arc::clone(&srv), Arc::clone(&srv), Arc::clone(&answered));
        let metrics = spawn_cast(
            b,
            srv.config().n_sems(), // 0: doorbell; then 2 per channel
            n_clients,
            false,
            move |os| {
                srv2.run_worker(os, 0, |m| m);
            },
            move |os, c| echo_session(&count, msgs, c, |m| srv3.client(os, c).call(m)),
        );
        Box::new(move |_r: &SimReport| {
            answered_all(&answered, u64::from(n_clients * msgs))?;
            let worker = metrics.task_snapshot(0);
            if worker.timed_out > 0 {
                return Err("lost doorbell: the worker was rescued by its heartbeat".into());
            }
            let rung = metrics.aggregate(|t| t != 0).doorbells_rung;
            if rung > worker.waitset_wakes + 1 {
                return Err(format!(
                    "doorbell budget: {rung} rung for {} wakes",
                    worker.waitset_wakes
                ));
            }
            Ok(())
        })
    }
}

/// The explorer's mutant of [`WaitSet::wait_deadline`]: a waiter that
/// clears the doorbell latch *after* its final scan. `n_notifiers` tasks
/// each [`notify`](WaitSet::notify) their own source once, and the waiter
/// polls, clears and `P`s — for at most 10 ms of virtual time, beyond any
/// fault-free run — until it has claimed every source. A notify between
/// the scan and the clear finds the latch still held and rings nothing,
/// so the waiter sleeps over its bit until the bound rescues it: a lost
/// doorbell the explorer must find. (The product's wait clears first;
/// [`mux_scenario`] runs it and must stay clean.)
pub fn waitset_late_clear_scenario(
    n_notifiers: u32,
) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
    move |b: &mut SimBuilder| {
        let n = n_notifiers as usize;
        let arena = Arc::new(usipc_shm::ShmArena::new(WaitSetRoot::bytes_needed(n)).unwrap());
        let root = WaitSetRoot::create_in(&arena, n, 0).unwrap();
        let waiter_arena = Arc::clone(&arena);
        let metrics = spawn_cast(
            b,
            1, // the doorbell
            n_notifiers,
            false,
            move |os| {
                let ws = WaitSet::attach(&waiter_arena, root);
                let (mut cursor, mut claimed) = (0, 0);
                while claimed < n {
                    if ws.poll(&mut cursor).is_some() {
                        claimed += 1;
                        continue;
                    }
                    // The mutation: `awake = 0` after the final scan.
                    os.charge(Cost::Tas);
                    ws.latch().store(0, Ordering::SeqCst);
                    os.sem_p_deadline(ws.doorbell_sem(), core::time::Duration::from_millis(10));
                }
            },
            move |os, c| WaitSet::attach(&arena, root).notify(os, c as usize),
        );
        Box::new(
            move |_r: &SimReport| match metrics.task_snapshot(0).timed_out {
                0 => Ok(()),
                _ => Err("lost doorbell: the waiter was rescued by its bound".into()),
            },
        )
    }
}

/// Heartbeat period of the fault scenarios' resilient server (virtual
/// time). Small enough that a kill is detected well inside the explorer's
/// 50 ms virtual time limit, large enough that a fault-free run blocks
/// rather than degenerating into a polling loop.
const FAULT_HEARTBEAT: core::time::Duration = core::time::Duration::from_micros(300);

/// Per-call deadline of the fault scenarios' clients (virtual time).
const FAULT_CALL_DEADLINE: core::time::Duration = core::time::Duration::from_millis(3);

/// Victim value meaning "no fault": the plan never fires and the run must
/// complete every echo — the baseline of a kill-at-op sweep.
pub const NO_VICTIM: u32 = u32::MAX;

/// A kill-at-op fault scenario over the **real fallible protocol paths**:
/// `n_clients` clients call through
/// [`call_deadline`](crate::ClientEndpoint::call_deadline) while the
/// server runs the resilient server's own loop, and the task named
/// `victim` (0 = server, `1 + c` = client `c`) dies at its `at_op`-th
/// kill point. A dying task performs its native death rites — the server
/// [`tombstone`](crate::Channel::tombstone_server)s the channel, a client
/// [marks](crate::QueueRef::mark_consumer_dead) its reply queue — and the
/// explorer then proves, over every schedule at the bounded depth, that
/// all survivors finish with `PeerDead`/`Timeout`/`Poisoned` or success:
/// never a deadlock, never the virtual time limit.
///
/// Kill points sit at protocol-operation boundaries (before each receive
/// commit, in the dequeue→reply window, before each client call); the
/// explorer's preemption decisions move every *other* task across the
/// full interleaving space around the fixed kill site. Sweeping `at_op`
/// past the victim's op count degenerates to fault-free runs, so a sweep
/// over `0..K` is always well-formed.
#[derive(Debug, Clone, Copy)]
pub struct FaultScenario {
    /// Wait strategy under test (all five protocols are explorable).
    pub strategy: WaitStrategy,
    /// Number of clients.
    pub n_clients: u32,
    /// Echo calls per client (before the disconnect).
    pub msgs: u32,
    /// Task to kill: 0 = server, `1 + c` = client `c`, [`NO_VICTIM`] for
    /// the fault-free baseline.
    pub victim: u32,
    /// 0-based kill point index within the victim's own op sequence.
    pub at_op: u64,
}

impl FaultScenario {
    /// The machine to explore this scenario on. Blocking protocols run on
    /// the adversarial uniprocessor; BSS spins unboundedly, which on one
    /// CPU under the explorer's run-to-completion default is starvation
    /// by construction (the paper gives BSS dedicated processors for the
    /// same reason), so BSS gets a second CPU and time-advancing spins.
    pub fn machine(self) -> MachineModel {
        let mut m = MachineModel::explore();
        if matches!(self.strategy, WaitStrategy::Bss) {
            m.cpus = 2;
        }
        m
    }

    /// A scenario closure for [`usipc_sim::Explorer::run`].
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        // On the 2-CPU BSS machine the spinner must burn virtual time
        // (`multiprocessor` spin pacing), or its deadline never expires.
        let mp = matches!(self.strategy, WaitStrategy::Bss);
        move |b: &mut SimBuilder| {
            let ch = Channel::create(&ChannelConfig::new(self.n_clients as usize)).unwrap();
            let answered = Arc::new(AtomicU64::new(0));
            // Fresh plan per run: the explorer re-executes this builder for
            // every schedule, and the op counter must restart each time.
            let plan = Arc::new(match self.victim {
                NO_VICTIM => FaultPlan::kill(0, u64::MAX), // never fires
                victim => FaultPlan::kill(victim, self.at_op),
            });
            let (ch2, plan2, count) = (ch.clone(), Arc::clone(&plan), Arc::clone(&answered));
            spawn_cast(
                b,
                1 + self.n_clients as usize, // 0: server; 1+c: client c
                self.n_clients,
                mp,
                move |os| {
                    // The server's kill points wrap the channel source:
                    // before each receive commit, and in the Fig. 5 window
                    // where a request has been dequeued but not yet
                    // answered. A server killed there performs its death
                    // rites and the source closes, so the real server loop
                    // ends the way a dying server does.
                    let killed = || {
                        let hit = plan.fire(0) == Some(FaultAction::Kill);
                        if hit {
                            os.record(ProtoEvent::FaultInjected);
                            ch.tombstone_server(os);
                        }
                        hit
                    };
                    let src = channel_source(&ch, os, self.strategy, Some(FAULT_HEARTBEAT));
                    let mut receive = src.next;
                    let next = || {
                        if killed() {
                            return Next::Closed;
                        }
                        match receive() {
                            Next::Request(..) if killed() => Next::Closed,
                            next => next,
                        }
                    };
                    let doomed = Source {
                        n_clients: src.n_clients,
                        strategy: src.strategy,
                        heartbeat: src.heartbeat,
                        route: src.route,
                        next,
                    };
                    serve(os, doomed, ServerObservability::none(), |m| m);
                },
                move |os, c| {
                    let ep = ch2.client(os, c, self.strategy);
                    for i in 0..self.msgs {
                        // Kill point: about to issue the next call.
                        if plan2.fire(1 + c) == Some(FaultAction::Kill) {
                            os.record(ProtoEvent::FaultInjected);
                            ch2.reply_queue(c).mark_consumer_dead(os);
                            return;
                        }
                        match ep.call_deadline(Message::echo(c, f64::from(i)), FAULT_CALL_DEADLINE)
                        {
                            Ok(reply) => {
                                assert_eq!(reply.value, f64::from(i), "echo corrupted");
                                count.fetch_add(1, Ordering::Relaxed);
                            }
                            // PeerDead / Timeout / Poisoned: the failure
                            // model spoke; stop calling.
                            Err(_) => return,
                        }
                    }
                    let _ = ep.call_deadline(Message::disconnect(c), FAULT_CALL_DEADLINE);
                },
            );
            let (victim, total) = (self.victim, u64::from(self.n_clients * self.msgs));
            Box::new(move |_r: &SimReport| {
                // Deadlock / time-limit / panic are caught by the
                // explorer's own invariants; the scenario only adds that a
                // fault-free baseline must answer everything.
                if victim == NO_VICTIM {
                    return answered_all(&answered, total).map_err(|e| format!("fault-free: {e}"));
                }
                Ok(())
            })
        }
    }
}

/// The poisoning liveness argument, isolated to its smallest cast — and
/// the mutant that proves the explorer can see it fail.
///
/// One server dequeues a single request and dies before replying. The
/// client waits for the reply in production's own Fig. 5 loop
/// (`blocking_dequeue`) with no deadline at all — its only rescue is the
/// dying server's tombstone, whose sticky flag the loop checks on every
/// wait round and whose broadcast `V` is what lifts it out of a committed
/// `P`; it counts as detected when the loop returns
/// [`IpcError::Poisoned`]. With `poisoning: true`
/// every schedule completes with the death detected. With `poisoning:
/// false` (the mutant: the victim dies silently, the flag is never set,
/// the broadcast never posted) the explorer must produce a **deadlock
/// counterexample** — the client parked forever on its reply semaphore —
/// replayable from its decision string.
#[derive(Debug, Clone, Copy)]
pub struct PeerDeathScenario {
    /// Whether the dying server performs its death rites (`false` = the
    /// broken mutant).
    pub poisoning: bool,
}

impl PeerDeathScenario {
    /// A scenario closure for [`usipc_sim::Explorer::run`].
    pub fn builder(self) -> impl FnMut(&mut SimBuilder) -> ScenarioCheck {
        let poisoning = self.poisoning;
        move |b: &mut SimBuilder| {
            let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
            let detected = Arc::new(AtomicU64::new(0));
            let (ch2, saw) = (ch.clone(), Arc::clone(&detected));
            let server = move |os: &SimOs<'_>| {
                // Blocking receive (infallible BSW path), then die in the
                // dequeue->reply window.
                let _request = WaitStrategy::Bsw.receive(&ch, os);
                if poisoning {
                    ch.tombstone_server(os);
                }
                // MUTANT (poisoning == false): die silently. No flag, no
                // broadcast V — the client must deadlock somewhere in the
                // schedule space.
            };
            let client = move |os: &SimOs<'_>, _c: u32| {
                let srv = ch2.receive_queue();
                assert!(srv.try_enqueue(os, Message::echo(0, 7.0)));
                srv.wake_consumer(os);
                // NO deadline: liveness rests entirely on the tombstone's
                // broadcast V.
                match blocking_dequeue(&ch2.reply_queue(0), os, &Deadline::never(), || {}) {
                    Err(IpcError::Poisoned) => saw.fetch_add(1, Ordering::Relaxed),
                    r => unreachable!("server dies before replying: {r:?}"),
                };
            };
            spawn_cast(b, 2, 1, false, server, client); // sems: server, client 0

            Box::new(move |_r: &SimReport| {
                if poisoning && detected.load(Ordering::Relaxed) != 1 {
                    return Err("death rites performed but client never saw the poison".into());
                }
                Ok(())
            })
        }
    }
}
