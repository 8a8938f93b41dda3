//! The discrete-event simulation engine.
//!
//! Simulated processes run as real host threads, but **exactly one executes
//! at a time**: the engine resumes a process, the process runs its code up
//! to the next [`Sys`](crate::Sys) call, hands the request back, and blocks.
//! Virtual time advances only through the costs the engine attaches to
//! requests, so results are bit-for-bit deterministic regardless of host
//! scheduling (ties in the event queue are broken by a monotone sequence
//! number).
//!
//! The life of a request:
//!
//! 1. a dispatched process sends `Request` and blocks;
//! 2. the engine prices it from the [`MachineModel`] and schedules an
//!    `OpDone` event at `now + cost` (the CPU is busy for that window);
//! 3. at `OpDone` the semantic effect is applied (semaphore credit taken,
//!    message delivered, yield decision made, ...) and the process either
//!    resumes — running its next code segment at exactly that virtual
//!    instant, which is what linearizes shared-memory effects — or leaves
//!    the CPU (ready/blocked/sleeping) and another process is dispatched.

use crate::machine::MachineModel;
use crate::msgq::{KMsgQueue, RecvOutcome, SendOutcome};
use crate::report::{Mark, Outcome, SimReport, TaskReport};
use crate::sched::{Scheduler, YieldDecision};
use crate::sem::{DownResult, Semaphore};
use crate::syscall::{BarrierId, Handoff, MsqId, Pid, Request, ResumeValue, SemId, Sys, TaskStats};
use crate::time::{VDur, VTime};
use crate::trace::{render_request, TraceEvent, TraceWhat};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// What a non-running task will do when next given the CPU.
#[derive(Debug)]
enum Cont {
    /// Resume the host thread, delivering `ResumeValue`, and fetch its next
    /// request.
    Fetch(ResumeValue),
    /// A request is already pending (e.g. preempted mid-`Work`): price and
    /// run it.
    Process(Request),
}

/// Why a task is off the CPU (for deadlock reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockedOn {
    Sem(SemId),
    MsgRcv(MsqId),
    MsgSnd(MsqId),
    Barrier(BarrierId),
}

impl core::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BlockedOn::Sem(s) => write!(f, "P(sem{})", s.0),
            BlockedOn::MsgRcv(q) => write!(f, "msgrcv(q{})", q.0),
            BlockedOn::MsgSnd(q) => write!(f, "msgsnd(q{})", q.0),
            BlockedOn::Barrier(b) => write!(f, "barrier({})", b.0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Ready,
    Dispatching(usize),
    Running(usize),
    Blocked(BlockedOn),
    Sleeping,
    Exited,
}

struct Tcb {
    name: String,
    state: TaskState,
    /// Generation counter: bumped on every state transition so that stale
    /// scheduled events are recognized and dropped.
    gen: u64,
    resume_tx: mpsc::Sender<ResumeValue>,
    join: Option<JoinHandle<()>>,
    cont: Cont,
    /// Request whose `OpDone` is in flight.
    current: Option<Request>,
    /// Cost charged for the in-flight operation (for aging on completion).
    op_cost: VDur,
    /// Virtual completion time of the in-flight operation.
    op_end: VTime,
    /// Remainder of a quantum-sliced `Work` request.
    work_left: VDur,
    /// Set when the task was woken from a blocked/sleeping state; the next
    /// dispatch pays the machine's block-resume penalty and clears it.
    woken_from_block: bool,
    quantum_left: VDur,
    stats: TaskStats,
}

#[derive(Debug, Default, Clone, Copy)]
struct Cpu {
    current: Option<Pid>,
    last: Option<Pid>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    DispatchDone(Pid, u64),
    OpDone(Pid, u64),
    Wake(Pid, u64),
    /// Deadline of a [`Request::SemPTimeout`] that had to block: if the
    /// task is still blocked on that semaphore (generation-checked, so a
    /// `V` that won the race makes this a no-op), the waiter is cancelled
    /// and resumed with `Flag(false)`.
    SemTimeout(Pid, u64, SemId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ev {
    at: VTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Bar {
    parties: u32,
    waiting: Vec<Pid>,
}

type TaskBody = Box<dyn FnOnce(&Sys) + Send + 'static>;

/// Builder for one simulation run.
///
/// ```
/// use usipc_sim::{SimBuilder, MachineModel, PolicyKind, VDur};
///
/// let mut b = SimBuilder::new(MachineModel::sgi_indy(), PolicyKind::FairRr.build());
/// let sem = b.add_sem(0);
/// b.spawn("waker", move |sys| {
///     sys.work(VDur::micros(10));
///     sys.sem_v(sem);
/// });
/// b.spawn("sleeper", move |sys| {
///     sys.sem_p(sem);
/// });
/// let report = b.run();
/// assert!(report.outcome.is_completed());
/// ```
pub struct SimBuilder {
    machine: MachineModel,
    sched: Box<dyn Scheduler>,
    specs: Vec<(String, TaskBody)>,
    sems: Vec<Semaphore>,
    msgqs: Vec<KMsgQueue>,
    barriers: Vec<Bar>,
    time_limit: VDur,
    trace: bool,
}

impl SimBuilder {
    /// Creates a builder for the given machine and scheduling policy.
    pub fn new(machine: MachineModel, sched: Box<dyn Scheduler>) -> Self {
        SimBuilder {
            machine,
            sched,
            specs: Vec::new(),
            sems: Vec::new(),
            msgqs: Vec::new(),
            barriers: Vec::new(),
            time_limit: VDur::seconds(3600),
            trace: false,
        }
    }

    /// Adds a process; pids are assigned in spawn order starting at 0.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&Sys) + Send + 'static,
    ) -> Pid {
        self.specs.push((name.into(), Box::new(body)));
        Pid(self.specs.len() as u32 - 1)
    }

    /// Creates a counting semaphore with an initial credit count.
    pub fn add_sem(&mut self, initial: u32) -> SemId {
        self.sems.push(Semaphore::new(initial));
        SemId(self.sems.len() as u32 - 1)
    }

    /// Creates a counting semaphore with an explicit overflow limit.
    pub fn add_sem_limited(&mut self, initial: u32, limit: u32) -> SemId {
        self.sems.push(Semaphore::with_limit(initial, limit));
        SemId(self.sems.len() as u32 - 1)
    }

    /// Creates a kernel message queue holding at most `capacity` messages.
    pub fn add_msgq(&mut self, capacity: usize) -> MsqId {
        self.msgqs.push(KMsgQueue::new(capacity));
        MsqId(self.msgqs.len() as u32 - 1)
    }

    /// Creates a kernel barrier for `parties` processes.
    pub fn add_barrier(&mut self, parties: u32) -> BarrierId {
        assert!(parties >= 1);
        self.barriers.push(Bar {
            parties,
            waiting: Vec::new(),
        });
        BarrierId(self.barriers.len() as u32 - 1)
    }

    /// Caps the virtual run time (default: one virtual hour).
    pub fn time_limit(&mut self, limit: VDur) -> &mut Self {
        self.time_limit = limit;
        self
    }

    /// Records a full scheduling timeline in the report (the Fig. 4 style
    /// interleaving chart of [`trace`](crate::trace)). Off by default —
    /// long experiments would accumulate millions of records.
    pub fn trace(&mut self, on: bool) -> &mut Self {
        self.trace = on;
        self
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> SimReport {
        Engine::start(self).run()
    }
}

struct Engine {
    machine: MachineModel,
    sched: Box<dyn Scheduler>,
    tasks: Vec<Tcb>,
    cpus: Vec<Cpu>,
    events: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    now: VTime,
    rx: mpsc::Receiver<(Pid, Request)>,
    sems: Vec<Semaphore>,
    msgqs: Vec<KMsgQueue>,
    barriers: Vec<Bar>,
    marks: Vec<Mark>,
    time_limit: VTime,
    live: usize,
    failure: Option<Outcome>,
    trace_on: bool,
    trace: Vec<TraceEvent>,
    /// Big-kernel-lock release time: kernel IPC ops serialize across CPUs.
    klock_free: VTime,
}

/// Task panics are caught and surfaced as [`Outcome::TaskPanicked`] (and the
/// teardown unwind of a deadlocked task is absorbed entirely), so the default
/// panic hook's stderr backtrace is pure noise — and the schedule explorer
/// enumerates thousands of runs where a deadlock is the *expected* result.
/// Suppress the hook for simulated-task threads only; everything else keeps
/// the previous hook.
fn silence_simulated_task_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let sim_task = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("sim-"));
            if !sim_task {
                prev(info);
            }
        }));
    });
}

impl Engine {
    fn start(b: SimBuilder) -> Engine {
        silence_simulated_task_panics();
        let ntasks = b.specs.len();
        assert!(ntasks > 0, "simulation needs at least one task");
        let (tx, rx) = mpsc::channel::<(Pid, Request)>();
        let mut sched = b.sched;
        sched.init(ntasks);
        let mut tasks = Vec::with_capacity(ntasks);
        for (i, (name, body)) in b.specs.into_iter().enumerate() {
            let pid = Pid(i as u32);
            let (rtx, rrx) = mpsc::channel::<ResumeValue>();
            let sys = Sys::new(pid, tx.clone(), rrx);
            let tname = name.clone();
            let join = std::thread::Builder::new()
                .name(format!("sim-{tname}"))
                .spawn(move || {
                    sys.wait_first_dispatch();
                    match catch_unwind(AssertUnwindSafe(|| body(&sys))) {
                        Ok(()) => sys.send_final(Request::Exit),
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".into());
                            sys.send_final(Request::Panicked(msg));
                        }
                    }
                })
                .expect("spawn simulated task thread");
            sched.on_ready(pid);
            tasks.push(Tcb {
                name,
                state: TaskState::Ready,
                gen: 0,
                resume_tx: rtx,
                join: Some(join),
                cont: Cont::Fetch(ResumeValue::Unit),
                current: None,
                op_cost: VDur::ZERO,
                op_end: VTime::ZERO,
                work_left: VDur::ZERO,
                woken_from_block: false,
                quantum_left: VDur::ZERO,
                stats: TaskStats::default(),
            });
        }
        Engine {
            cpus: vec![Cpu::default(); b.machine.cpus],
            machine: b.machine,
            sched,
            tasks,
            events: BinaryHeap::new(),
            seq: 0,
            now: VTime::ZERO,
            rx,
            sems: b.sems,
            msgqs: b.msgqs,
            barriers: b.barriers,
            marks: Vec::new(),
            time_limit: VTime::ZERO + b.time_limit,
            live: ntasks,
            failure: None,
            trace_on: b.trace,
            trace: Vec::new(),
            klock_free: VTime::ZERO,
        }
    }

    fn trace(&mut self, pid: Pid, what: TraceWhat) {
        if self.trace_on {
            self.trace.push(TraceEvent {
                at: self.now,
                pid,
                what,
            });
        }
    }

    fn schedule(&mut self, at: VTime, kind: EvKind) {
        self.seq += 1;
        self.events.push(Reverse(Ev {
            at,
            seq: self.seq,
            kind,
        }));
    }

    fn run(mut self) -> SimReport {
        let mut timed_out = false;
        loop {
            if self.failure.is_some() {
                break;
            }
            // Fill idle CPUs from the ready queue.
            for c in 0..self.cpus.len() {
                if self.cpus[c].current.is_none() {
                    if let Some(pid) = self.sched.pick() {
                        self.dispatch(c, pid);
                    }
                }
            }
            let Some(Reverse(ev)) = self.events.pop() else {
                break;
            };
            if ev.at > self.time_limit {
                // Everyone exited and only a stale `SemTimeout` (a timed `P`
                // satisfied early) lies beyond the limit: that run completed.
                timed_out = self.live != 0;
                break;
            }
            self.now = ev.at;
            match ev.kind {
                EvKind::DispatchDone(pid, gen) => self.on_dispatch_done(pid, gen),
                EvKind::OpDone(pid, gen) => self.on_op_done(pid, gen),
                EvKind::Wake(pid, gen) => {
                    if self.tasks[pid.idx()].gen == gen
                        && self.tasks[pid.idx()].state == TaskState::Sleeping
                    {
                        self.make_ready(pid);
                    }
                }
                EvKind::SemTimeout(pid, gen, s) => {
                    if self.tasks[pid.idx()].gen == gen
                        && self.tasks[pid.idx()].state == TaskState::Blocked(BlockedOn::Sem(s))
                    {
                        let cancelled = self.sems[s.0 as usize].cancel(pid);
                        debug_assert!(cancelled, "timed-out waiter missing from sem queue");
                        self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Flag(false));
                        self.make_ready(pid);
                    }
                }
            }
        }

        let outcome = if let Some(f) = self.failure.take() {
            f
        } else if timed_out {
            Outcome::TimeLimit
        } else if self.live == 0 {
            Outcome::Completed
        } else {
            let stuck: Vec<String> = self
                .tasks
                .iter()
                .filter(|t| t.state != TaskState::Exited)
                .map(|t| match t.state {
                    TaskState::Blocked(on) => format!("{} blocked on {}", t.name, on),
                    other => format!("{} in {:?}", t.name, other),
                })
                .collect();
            Outcome::Deadlock(stuck)
        };

        // Tear down: dropping the resume senders unblocks (panics) any task
        // threads still waiting; their wrappers absorb it.
        let end_time = self.now;
        let mut reports = Vec::with_capacity(self.tasks.len());
        let mut total_switches = 0;
        let mut joins = Vec::new();
        for (i, t) in self.tasks.into_iter().enumerate() {
            total_switches += t.stats.vcsw + t.stats.icsw;
            reports.push(TaskReport {
                pid: Pid(i as u32),
                name: t.name,
                stats: t.stats,
            });
            drop(t.resume_tx);
            joins.push(t.join);
        }
        drop(self.rx);
        for j in joins.into_iter().flatten() {
            let _ = j.join();
        }
        self.marks.sort_by_key(|m| (m.at, m.pid.0));
        let trace = std::mem::take(&mut self.trace);
        let sems = self
            .sems
            .iter()
            .map(|s| crate::report::SemFinal {
                count: s.count(),
                max_count: s.max_count(),
                waiting: s.waiting(),
            })
            .collect();
        SimReport {
            outcome,
            end_time,
            tasks: reports,
            marks: self.marks,
            total_switches,
            sems,
            trace,
        }
    }

    // ---- dispatch path ------------------------------------------------

    fn dispatch(&mut self, cpu: usize, pid: Pid) {
        debug_assert_eq!(self.tasks[pid.idx()].state, TaskState::Ready);
        let mut cost = if self.cpus[cpu].last == Some(pid) {
            VDur::ZERO
        } else {
            self.sched_cost(self.machine.switch_cost(self.sched.ready_count() + 1))
        };
        if std::mem::take(&mut self.tasks[pid.idx()].woken_from_block) {
            // Wake-up path through the kernel plus a fully cold cache.
            cost += self.machine.block_resume_penalty;
        }
        self.cpus[cpu].current = Some(pid);
        let t = &mut self.tasks[pid.idx()];
        t.state = TaskState::Dispatching(cpu);
        t.gen += 1;
        let gen = t.gen;
        self.schedule(self.now + cost, EvKind::DispatchDone(pid, gen));
    }

    fn on_dispatch_done(&mut self, pid: Pid, gen: u64) {
        let t = &mut self.tasks[pid.idx()];
        if t.gen != gen {
            return;
        }
        let TaskState::Dispatching(cpu) = t.state else {
            return;
        };
        t.state = TaskState::Running(cpu);
        t.quantum_left = self.machine.quantum;
        let cont = std::mem::replace(&mut t.cont, Cont::Fetch(ResumeValue::Unit));
        self.cpus[cpu].last = Some(pid);
        self.trace(pid, TraceWhat::Dispatched { cpu });
        match cont {
            Cont::Process(req) => self.process(pid, req),
            Cont::Fetch(v) => self.resume_fetch(pid, v),
        }
    }

    /// Resumes the task's host thread with `v`, absorbs zero-cost
    /// instrumentation requests inline, and prices the next real request.
    fn resume_fetch(&mut self, pid: Pid, v: ResumeValue) {
        let mut value = v;
        loop {
            self.tasks[pid.idx()]
                .resume_tx
                .send(value)
                .expect("resumed task thread vanished");
            let (from, req) = self.rx.recv().expect("task request channel closed");
            assert_eq!(from, pid, "request from a task that is not running");
            match req {
                Request::Now => value = ResumeValue::Time(self.now),
                Request::Rusage => {
                    value = ResumeValue::Usage(Box::new(self.tasks[pid.idx()].stats.clone()))
                }
                Request::Mark(code) => {
                    self.marks.push(Mark {
                        at: self.now,
                        pid,
                        code,
                    });
                    value = ResumeValue::Unit;
                }
                Request::Exit => {
                    self.handle_exit(pid);
                    return;
                }
                Request::Panicked(msg) => {
                    self.failure = Some(Outcome::TaskPanicked {
                        task: self.tasks[pid.idx()].name.clone(),
                        message: msg,
                    });
                    return;
                }
                other => {
                    self.process(pid, other);
                    return;
                }
            }
        }
    }

    /// Scales scheduler-path costs for static-priority policies.
    fn sched_cost(&self, base: VDur) -> VDur {
        if self.sched.static_priorities() {
            VDur::nanos((base.as_nanos() as f64 * self.machine.fixed_sched_discount) as u64)
        } else {
            base
        }
    }

    /// Charges the big kernel lock: IPC ops serialize across CPUs.
    fn kernel_serialized(&mut self, base: VDur) -> VDur {
        let start = self.now.max(self.klock_free);
        let end = start + base;
        self.klock_free = end;
        end - self.now
    }

    /// Prices `req` and schedules its completion; `pid` must be Running.
    fn process(&mut self, pid: Pid, req: Request) {
        // Controllable-scheduler preemption point: a policy may switch the
        // running task out before *any* request is priced. Because every
        // shared-memory effect of a resumed task is linearized at its
        // preceding operation's completion, this single hook sits between
        // every pair of adjacent memory effects and ahead of every kernel
        // op — the windows of the Fig. 4 races the explorer enumerates.
        if self.sched.has_ready() && self.sched.preempt_at_op(pid) {
            self.tasks[pid.idx()].cont = Cont::Process(req);
            self.leave_cpu(pid, TaskState::Ready, false);
            return;
        }
        if matches!(req, Request::Work(_)) {
            // Quantum exhausted with competition: preempt before running
            // this slice.
            let quantum_left = self.tasks[pid.idx()].quantum_left;
            if quantum_left.is_zero() && self.sched.has_ready() {
                self.tasks[pid.idx()].cont = Cont::Process(req);
                self.leave_cpu(pid, TaskState::Ready, false);
                return;
            }
        }
        let ready = self.sched.ready_count();
        let (cost, counted_syscall) = match &req {
            Request::Work(d) => {
                let quantum_left = self.tasks[pid.idx()].quantum_left;
                let slice = (*d).min(quantum_left);
                self.tasks[pid.idx()].work_left = d.saturating_sub(slice);
                (slice, false)
            }
            Request::Yield => (
                self.machine.syscall + self.sched_cost(self.machine.sched_scan(ready)),
                true,
            ),
            Request::SemP(_)
            | Request::SemPTimeout(..)
            | Request::SemV(_)
            | Request::Barrier(_) => (self.kernel_serialized(self.machine.sem_op), true),
            Request::MsgSnd(..) | Request::MsgRcv(_) => {
                (self.kernel_serialized(self.machine.msg_op), true)
            }
            Request::Sleep(_) => (self.machine.syscall, true),
            Request::Handoff(_) => (self.machine.syscall + self.machine.sched_scan(ready), true),
            other => unreachable!("{other:?} is engine-internal"),
        };
        let t = &mut self.tasks[pid.idx()];
        if counted_syscall {
            t.stats.syscalls += 1;
        }
        match &req {
            Request::Yield => t.stats.yields += 1,
            Request::SemP(_) | Request::SemPTimeout(..) => t.stats.sem_p += 1,
            Request::SemV(_) => t.stats.sem_v += 1,
            Request::MsgSnd(..) | Request::MsgRcv(_) => t.stats.msg_ops += 1,
            Request::Handoff(_) => t.stats.handoffs += 1,
            _ => {}
        }
        t.current = Some(req);
        t.op_cost = cost;
        t.op_end = self.now + cost;
        t.gen += 1;
        let gen = t.gen;
        if self.trace_on {
            let op = render_request(self.tasks[pid.idx()].current.as_ref().expect("just set"));
            self.trace(pid, TraceWhat::OpStart { op });
        }
        self.schedule(self.now + cost, EvKind::OpDone(pid, gen));
    }

    fn on_op_done(&mut self, pid: Pid, gen: u64) {
        if self.tasks[pid.idx()].gen != gen {
            return;
        }
        debug_assert!(matches!(self.tasks[pid.idx()].state, TaskState::Running(_)));
        // Aging: all on-CPU time (user work and kernel op time) degrades the
        // dynamic priority — this is what makes the yield loop itself age
        // the caller, producing IRIX's ~2.5 yields per switch.
        let cost = self.tasks[pid.idx()].op_cost;
        self.sched.on_run(pid, cost);
        {
            let t = &mut self.tasks[pid.idx()];
            t.stats.cpu_time += cost;
            t.quantum_left = t.quantum_left.saturating_sub(cost);
        }
        let req = self.tasks[pid.idx()].current.take().expect("op in flight");
        if self.trace_on {
            let op = render_request(&req);
            self.trace(pid, TraceWhat::OpDone { op });
        }
        match req {
            Request::Work(_) => {
                let left = self.tasks[pid.idx()].work_left;
                if !left.is_zero() {
                    // Quantum expired mid-work.
                    if self.sched.has_ready() {
                        self.tasks[pid.idx()].cont = Cont::Process(Request::Work(left));
                        self.leave_cpu(pid, TaskState::Ready, false);
                    } else {
                        // Nothing else to run: renew the quantum in place.
                        self.tasks[pid.idx()].quantum_left = self.machine.quantum;
                        self.process(pid, Request::Work(left));
                    }
                } else if self.sched.should_yield_to_ready(pid) {
                    // Demoted mid-run below a waiter: switch out at this
                    // operation boundary.
                    self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Ready, false);
                } else {
                    self.resume_fetch(pid, ResumeValue::Unit);
                }
            }
            Request::Yield => match self.sched.on_yield(pid) {
                YieldDecision::Continue => {
                    self.trace(pid, TraceWhat::YieldContinue);
                    self.tasks[pid.idx()].stats.yield_noswitch += 1;
                    self.resume_fetch(pid, ResumeValue::Unit);
                }
                YieldDecision::Switch => {
                    self.trace(pid, TraceWhat::YieldSwitch);
                    self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Ready, true);
                }
            },
            Request::SemP(s) => match self.sems[s.0 as usize].down(pid) {
                DownResult::Acquired => self.resume_fetch(pid, ResumeValue::Unit),
                DownResult::MustBlock => {
                    let t = &mut self.tasks[pid.idx()];
                    t.stats.blocks += 1;
                    t.cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Blocked(BlockedOn::Sem(s)), true);
                }
            },
            Request::SemPTimeout(s, d) => match self.sems[s.0 as usize].down(pid) {
                DownResult::Acquired => self.resume_fetch(pid, ResumeValue::Flag(true)),
                DownResult::MustBlock => {
                    let t = &mut self.tasks[pid.idx()];
                    t.stats.blocks += 1;
                    // A V that arrives first resumes the waiter with this
                    // success value; the expiry path replaces it.
                    t.cont = Cont::Fetch(ResumeValue::Flag(true));
                    self.leave_cpu(pid, TaskState::Blocked(BlockedOn::Sem(s)), true);
                    let gen = self.tasks[pid.idx()].gen;
                    self.schedule(self.now + d, EvKind::SemTimeout(pid, gen, s));
                }
            },
            Request::SemV(s) => match self.sems[s.0 as usize].up() {
                Ok(Some(waiter)) => {
                    self.make_ready(waiter);
                    self.resume_fetch(pid, ResumeValue::Unit);
                }
                Ok(None) => self.resume_fetch(pid, ResumeValue::Unit),
                Err(limit) => {
                    self.failure = Some(Outcome::SemaphoreOverflow { sem: s.0, limit });
                }
            },
            Request::MsgSnd(q, msg) => match self.msgqs[q.0 as usize].send(pid, msg) {
                SendOutcome::Delivered(woken) => {
                    if let Some(rcv) = woken {
                        let m = self.msgqs[q.0 as usize]
                            .take_delivery()
                            .expect("direct hand-off message present");
                        self.tasks[rcv.idx()].cont = Cont::Fetch(ResumeValue::Msg(m));
                        self.make_ready(rcv);
                    }
                    self.resume_fetch(pid, ResumeValue::Unit);
                }
                SendOutcome::MustBlock => {
                    let t = &mut self.tasks[pid.idx()];
                    t.stats.blocks += 1;
                    t.cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Blocked(BlockedOn::MsgSnd(q)), true);
                }
            },
            Request::MsgRcv(q) => match self.msgqs[q.0 as usize].recv(pid) {
                RecvOutcome::Got(m, unblocked_sender) => {
                    if let Some(snd) = unblocked_sender {
                        self.make_ready(snd);
                    }
                    self.resume_fetch(pid, ResumeValue::Msg(m));
                }
                RecvOutcome::MustBlock => {
                    let t = &mut self.tasks[pid.idx()];
                    t.stats.blocks += 1;
                    // cont is replaced with the message at delivery time.
                    t.cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Blocked(BlockedOn::MsgRcv(q)), true);
                }
            },
            Request::Sleep(d) => {
                self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                self.leave_cpu(pid, TaskState::Sleeping, true);
                let gen = self.tasks[pid.idx()].gen;
                self.schedule(self.now + d, EvKind::Wake(pid, gen));
            }
            Request::Handoff(target) => match target {
                Handoff::To(t) if t != pid && self.sched.steal(t) => {
                    // Direct hand-off: the caller is requeued and the target
                    // runs immediately on this CPU.
                    let TaskState::Running(cpu) = self.tasks[pid.idx()].state else {
                        unreachable!()
                    };
                    self.tasks[t.idx()].state = TaskState::Ready; // invariant for dispatch
                    self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Ready, true);
                    self.dispatch(cpu, t);
                }
                Handoff::Any => {
                    if self.sched.has_ready() {
                        self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                        self.leave_cpu(pid, TaskState::Ready, true);
                    } else {
                        self.resume_fetch(pid, ResumeValue::Unit);
                    }
                }
                // PID_SELF, an unknown pid, or a non-ready target: plain
                // yield semantics.
                _ => match self.sched.on_yield(pid) {
                    YieldDecision::Continue => self.resume_fetch(pid, ResumeValue::Unit),
                    YieldDecision::Switch => {
                        self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                        self.leave_cpu(pid, TaskState::Ready, true);
                    }
                },
            },
            Request::Barrier(b) => {
                let bar = &mut self.barriers[b.0 as usize];
                if (bar.waiting.len() as u32) + 1 < bar.parties {
                    bar.waiting.push(pid);
                    self.tasks[pid.idx()].cont = Cont::Fetch(ResumeValue::Unit);
                    self.leave_cpu(pid, TaskState::Blocked(BlockedOn::Barrier(b)), true);
                } else {
                    let woken = std::mem::take(&mut self.barriers[b.0 as usize].waiting);
                    for w in woken {
                        self.make_ready(w);
                    }
                    self.resume_fetch(pid, ResumeValue::Unit);
                }
            }
            other => unreachable!("{other:?} never has an OpDone"),
        }
    }

    // ---- state transitions ---------------------------------------------

    fn make_ready(&mut self, pid: Pid) {
        let t = &mut self.tasks[pid.idx()];
        debug_assert!(matches!(
            t.state,
            TaskState::Blocked(_) | TaskState::Sleeping
        ));
        t.woken_from_block = true;
        t.state = TaskState::Ready;
        t.gen += 1;
        self.sched.on_ready(pid);
        self.trace(pid, TraceWhat::Woken);
        self.try_wake_preempt(pid);
    }

    /// Wake-up preemption (policy opt-in): if the freshly woken `pid`
    /// outranks a task currently grinding user-level `Work`, split that
    /// work at the current instant and requeue its remainder. Kernel
    /// operations are never preempted this way.
    fn try_wake_preempt(&mut self, woken: Pid) {
        for c in 0..self.cpus.len() {
            let Some(r) = self.cpus[c].current else {
                continue;
            };
            if !matches!(self.tasks[r.idx()].state, TaskState::Running(_)) {
                continue;
            }
            if !matches!(self.tasks[r.idx()].current, Some(Request::Work(_))) {
                continue;
            }
            if !self.sched.preempts(r, woken) {
                continue;
            }
            let remaining = self.tasks[r.idx()].op_end - self.now;
            let ran = self.tasks[r.idx()].op_cost.saturating_sub(remaining);
            self.sched.on_run(r, ran);
            {
                let t = &mut self.tasks[r.idx()];
                t.stats.cpu_time += ran;
                t.quantum_left = t.quantum_left.saturating_sub(ran);
                let left = remaining + t.work_left;
                t.current = None;
                t.work_left = VDur::ZERO;
                t.cont = Cont::Process(Request::Work(left));
            }
            self.leave_cpu(r, TaskState::Ready, false);
            return; // at most one preemption per wake
        }
    }

    fn leave_cpu(&mut self, pid: Pid, next: TaskState, voluntary: bool) {
        let t = &mut self.tasks[pid.idx()];
        let cpu = match t.state {
            TaskState::Running(c) | TaskState::Dispatching(c) => c,
            other => unreachable!("leave_cpu from {other:?}"),
        };
        self.cpus[cpu].current = None;
        if voluntary {
            t.stats.vcsw += 1;
        } else {
            t.stats.icsw += 1;
        }
        t.gen += 1;
        t.state = next;
        match next {
            TaskState::Ready => self.sched.on_ready(pid),
            _ => self.sched.on_block(pid),
        }
        if self.trace_on {
            let what = match next {
                TaskState::Ready if !voluntary => TraceWhat::Preempted,
                TaskState::Ready => return, // yield path traced separately
                _ => TraceWhat::Blocked,
            };
            self.trace(pid, what);
        }
    }

    fn handle_exit(&mut self, pid: Pid) {
        let t = &mut self.tasks[pid.idx()];
        let cpu = match t.state {
            TaskState::Running(c) | TaskState::Dispatching(c) => c,
            other => unreachable!("exit from {other:?}"),
        };
        t.stats.exited_at = self.now;
        t.state = TaskState::Exited;
        t.gen += 1;
        self.cpus[cpu].current = None;
        self.sched.on_block(pid);
        self.live -= 1;
        self.trace(pid, TraceWhat::Exited);
    }
}
