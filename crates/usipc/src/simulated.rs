//! The simulator backend: protocols running as processes of
//! [`usipc-sim`](usipc_sim), under the scheduler models that regenerate the
//! paper's figures.

use crate::metrics::{EndpointMetrics, ProtoEvent};
use crate::platform::{Cost, HandoffHint, OsServices};
use crate::trace::{TracePoint, TraceRing};
use std::sync::Arc;
use usipc_sim::{Handoff, MsqId, Pid, SemId, Sys, VDur};

/// Cost table charged by the protocols (extracted from a
/// [`MachineModel`](usipc_sim::MachineModel) so the protocol layer does not
/// depend on the whole machine description).
#[derive(Debug, Clone, Copy)]
pub struct SimCosts {
    /// One user-level enqueue or dequeue.
    pub queue_op: VDur,
    /// One test-and-set.
    pub tas_op: VDur,
    /// Per-request server processing.
    pub request_work: VDur,
    /// One `empty(Q)` poll check.
    pub poll_check: VDur,
    /// One multiprocessor `poll_queue`/`busy_wait` delay iteration.
    pub poll_delay: VDur,
}

impl SimCosts {
    /// Extracts the protocol-visible costs from a machine model.
    pub fn from_machine(m: &usipc_sim::MachineModel) -> Self {
        SimCosts {
            queue_op: m.queue_op,
            tas_op: m.tas_op,
            request_work: m.request_work,
            poll_check: VDur::nanos(m.queue_op.as_nanos() / 3),
            poll_delay: m.poll_op,
        }
    }
}

/// Identifier mapping shared by all tasks of one simulated experiment:
/// which simulator objects realize the conventional indices of
/// [`platform`](crate::platform).
#[derive(Debug, Clone, Default)]
pub struct SimIds {
    /// Conventional semaphore index → simulator semaphore.
    pub sems: Vec<SemId>,
    /// Conventional message-queue index → simulator queue.
    pub msgqs: Vec<MsqId>,
    /// Platform task number → simulator pid (for hand-off targeting).
    pub pids: Vec<Pid>,
}

/// One simulated task's implementation of [`OsServices`].
///
/// Holds the task's [`Sys`] handle by reference; construct one inside each
/// task body.
pub struct SimOs<'a> {
    sys: &'a Sys,
    ids: Arc<SimIds>,
    costs: SimCosts,
    multiprocessor: bool,
    task_id: u32,
    metrics: Option<Arc<EndpointMetrics>>,
    trace: Option<Arc<TraceRing>>,
}

impl<'a> SimOs<'a> {
    /// Wraps a task's `Sys` handle.
    ///
    /// `task_id` is the platform task number of this task (its index in
    /// `ids.pids`).
    pub fn new(
        sys: &'a Sys,
        ids: Arc<SimIds>,
        costs: SimCosts,
        multiprocessor: bool,
        task_id: u32,
    ) -> Self {
        SimOs {
            sys,
            ids,
            costs,
            multiprocessor,
            task_id,
            metrics: None,
            trace: None,
        }
    }

    /// Attaches a metrics sink (events recorded in *addition* to the
    /// virtual-time charges, which are unchanged — the simulated schedule
    /// is identical with and without metrics).
    pub fn with_metrics(mut self, sink: Arc<EndpointMetrics>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Attaches an event-trace ring. Records are stamped with *virtual*
    /// time via a zero-cost `Now` request, so the simulated schedule is
    /// identical with and without tracing.
    pub fn with_trace(mut self, ring: Arc<TraceRing>) -> Self {
        self.trace = Some(ring);
        self
    }

    /// The underlying simulator handle (for marks and rusage in harnesses).
    pub fn sys(&self) -> &Sys {
        self.sys
    }
}

impl OsServices for SimOs<'_> {
    fn yield_now(&self) {
        self.record(ProtoEvent::Yield);
        self.sys.yield_now();
    }

    fn busy_wait(&self) {
        self.record(ProtoEvent::SpinIteration);
        if self.multiprocessor {
            self.sys.work(self.costs.poll_delay);
        } else {
            self.sys.yield_now();
        }
    }

    fn sem_p(&self, sem: u32) {
        self.record(ProtoEvent::SemP);
        self.sys.sem_p(self.ids.sems[sem as usize]);
    }

    fn sem_v(&self, sem: u32) {
        self.record(ProtoEvent::SemV);
        self.sys.sem_v(self.ids.sems[sem as usize]);
    }

    fn sem_p_deadline(&self, sem: u32, timeout: core::time::Duration) -> bool {
        self.record(ProtoEvent::SemP);
        let d = VDur::nanos(timeout.as_nanos().min(u128::from(u64::MAX)) as u64);
        let taken = self.sys.sem_p_timeout(self.ids.sems[sem as usize], d);
        if !taken {
            self.record(ProtoEvent::TimedOut);
        }
        taken
    }

    fn sleep_full(&self) {
        self.record(ProtoEvent::QueueFullBackoff);
        self.sys.sleep(VDur::seconds(1));
    }

    fn charge(&self, c: Cost) {
        let (d, e) = match c {
            Cost::QueueOp => (self.costs.queue_op, ProtoEvent::QueueOp),
            Cost::Tas => (self.costs.tas_op, ProtoEvent::TasOp),
            Cost::Request => (self.costs.request_work, ProtoEvent::RequestServed),
            Cost::Poll => (self.costs.poll_check, ProtoEvent::PollCheck),
        };
        self.record(e);
        if !d.is_zero() {
            self.sys.work(d);
        }
    }

    fn handoff(&self, h: HandoffHint) {
        self.record(ProtoEvent::Handoff);
        let target = match h {
            HandoffHint::Peer(t) => match self.ids.pids.get(t as usize) {
                Some(&pid) => Handoff::To(pid),
                None => Handoff::SelfPid,
            },
            HandoffHint::SelfHint => Handoff::SelfPid,
            HandoffHint::Any => Handoff::Any,
        };
        self.sys.handoff(target);
    }

    fn msgsnd(&self, q: u32, m: [u64; 4]) {
        self.sys.msgsnd(self.ids.msgqs[q as usize], m);
    }

    fn msgrcv(&self, q: u32) -> [u64; 4] {
        self.sys.msgrcv(self.ids.msgqs[q as usize])
    }

    fn compute(&self, nanos: u64) {
        if nanos > 0 {
            self.sys.work(VDur::nanos(nanos));
        }
    }

    fn task_id(&self) -> u32 {
        self.task_id
    }

    fn metrics(&self) -> Option<&EndpointMetrics> {
        self.metrics.as_deref()
    }

    fn trace(&self, p: TracePoint) {
        // The clock is read only with a ring attached: a `Now` request is
        // free in virtual time, but it is still a request to the engine.
        if let Some(t) = &self.trace {
            t.record(self.sys.now().as_nanos(), p);
        }
    }

    fn now_nanos(&self) -> Option<u64> {
        // Virtual time: latency histograms on the simulator measure the
        // modeled round trip, deterministically.
        Some(self.sys.now().as_nanos())
    }
}
