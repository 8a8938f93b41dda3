//! # usipc-lab — the laboratory around `usipc`
//!
//! §2.2 of the paper describes the one workload every figure uses: *n*
//! clients connect to a single-threaded echo server, barrier, and then
//! "barrage the server with many thousands of message requests"; the
//! throughput is messages over the real elapsed time from the first request
//! to the last disconnect. This crate is that workload — on the simulator,
//! on real threads and across forked processes — plus the fault drills
//! built on it and the System V baseline it is measured against. None of it
//! is something a user of the library adopts, which is why it is not in
//! `usipc`.
//!
//! ## Three worlds, one cast
//!
//! How participants are spawned, joined and how their results cross back
//! genuinely differs by backend — simulator tasks end with the engine's
//! report, threads are joined under a watchdog, a forked child's heap is a
//! private copy so its counters come home through shared-memory cells — so
//! there is one world per backend (`SimWorld`, `ThreadWorld`, `ForkWorld`)
//! rather than one type branching on backend in every method. What does
//! *not* differ is the cast, and it is written once, here:
//! `Mechanism::serve` selects the server, `Mechanism::connect` the client,
//! `echo_session` is the barrage, `apply_fault` the injected fault. An
//! experiment — [`SimExperiment`], [`NativeExperiment`], `ProcExperiment`,
//! each a builder value — is a cast, a choreography and a result struct.

#![warn(missing_docs)]

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod fork;
mod sim;
pub mod sysv;
mod threads;
mod watchdog;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use fork::{
    ProcExperiment, ProcExperimentResult, ProcKillResult, ProcRelayResult, ProcStormResult,
    ProcTakeoverResult,
};
pub use sim::{
    run_async_sim_experiment, run_duplex_sim_experiment, run_mixed_sim_experiment,
    MixedExperimentResult, SimExperiment, SimExperimentResult,
};
pub use threads::{
    run_waitset_load_experiment, ClientFaultOutcome, NativeExperiment, NativeExperimentResult,
    NativeFaultResult, WaitsetLoadResult,
};
pub use watchdog::{Evidence, Named, Watchdog, WATCHDOG_JOIN};

use usipc::metrics::ProtoEvent;
use usipc::platform::OsServices;
use usipc::{Channel, ClientEndpoint, FaultAction, FaultPlan, Message, WaitStrategy};

/// Which IPC mechanism an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// User-level IPC under the given wait strategy.
    UserLevel(WaitStrategy),
    /// The kernel-mediated System V baseline.
    SysV,
    /// BSLS clients against the overload-aware server that throttles
    /// wake-ups (the paper's §5 future work; see
    /// [`run_throttled_server`](usipc::run_throttled_server)).
    Throttled {
        /// Client and server spin budget.
        max_spin: u32,
        /// Deferred wake-ups issued per server cycle.
        wake_batch: usize,
    },
}

impl Mechanism {
    /// Short name for tables and CSV files.
    pub fn name(self) -> String {
        match self {
            Mechanism::UserLevel(s) => s.name(),
            Mechanism::SysV => "SysV".into(),
            Mechanism::Throttled { max_spin, .. } => format!("THR({max_spin})"),
        }
    }

    /// The wait strategy this mechanism's clients run; `None` for the
    /// kernel queues, which have none.
    pub fn client_strategy(self) -> Option<WaitStrategy> {
        match self {
            Mechanism::UserLevel(s) => Some(s),
            Mechanism::SysV => None,
            Mechanism::Throttled { max_spin, .. } => Some(WaitStrategy::Bsls { max_spin }),
        }
    }

    /// Runs this mechanism's server until all `n_clients` disconnect.
    ///
    /// The throttled server ignores `handler` — it is a pure-echo ablation
    /// of the wake-up path.
    pub(crate) fn serve<O: OsServices>(
        self,
        ch: &Channel,
        os: &O,
        n_clients: u32,
        handler: impl FnMut(Message) -> Message,
    ) {
        match self {
            Mechanism::UserLevel(strategy) => {
                let _ = usipc::run_server(ch, os, strategy, handler);
            }
            Mechanism::SysV => {
                let _ = sysv::run_sysv_server(os, n_clients, handler);
            }
            Mechanism::Throttled {
                max_spin,
                wake_batch,
            } => {
                let _ = usipc::run_throttled_server(ch, os, max_spin, wake_batch);
            }
        }
    }

    /// Client `c`'s side of this mechanism.
    pub(crate) fn connect<'a, O: OsServices>(
        self,
        ch: &'a Channel,
        os: &'a O,
        c: u32,
    ) -> Client<'a, O> {
        match self.client_strategy() {
            Some(strategy) => Client::UserLevel(ch.client(os, c, strategy)),
            None => Client::SysV(os, c),
        }
    }
}

/// One client of the cast: a channel endpoint, or the kernel queues.
pub(crate) enum Client<'a, O: OsServices> {
    /// A user-level endpoint under its wait strategy.
    UserLevel(ClientEndpoint<'a, O>),
    /// Client `.1` of the System V baseline.
    SysV(&'a O, u32),
}

impl<O: OsServices> Client<'_, O> {
    /// One synchronous round trip.
    pub fn call(&self, msg: Message) -> Message {
        match self {
            Client::UserLevel(ep) => ep.call(msg),
            Client::SysV(os, c) => sysv::sysv_call(*os, *c, msg),
        }
    }

    /// [`call`](Self::call), or `call_deadline` when a deadline is set.
    pub fn call_within(
        &self,
        msg: Message,
        deadline: Option<std::time::Duration>,
    ) -> Result<Message, usipc::IpcError> {
        match (self, deadline) {
            (Client::UserLevel(ep), Some(d)) => ep.call_deadline(msg, d),
            _ => Ok(self.call(msg)),
        }
    }
}

/// The error of a call style that has none.
pub(crate) type IpcNever = core::convert::Infallible;

/// Why an [`echo_session`] stopped early.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SessionError<E> {
    /// Echo `at` came back with the wrong value.
    Corrupted {
        /// Index of the corrupted round trip.
        at: u64,
    },
    /// The call itself failed after `completed` good round trips.
    Call {
        /// Echo round trips that succeeded before the error.
        completed: u64,
        /// What the call style reported.
        error: E,
    },
}

/// The barrage, once: client `client` sends echoes `0..msgs` through
/// `call` — the call style (infallible `call`, `call_deadline`, the kernel
/// queues, retry-on-`DROPPED`; a closure that also times or counts each
/// round trip) — and verifies every reply. The disconnect is the caller's,
/// in the same style.
pub(crate) fn echo_session<E>(
    client: u32,
    msgs: u64,
    mut call: impl FnMut(Message) -> Result<Message, E>,
) -> Result<(), SessionError<E>> {
    for i in 0..msgs {
        let reply = call(Message::echo(client, i as f64)).map_err(|error| SessionError::Call {
            completed: i,
            error,
        })?;
        if reply.value != i as f64 {
            return Err(SessionError::Corrupted { at: i });
        }
    }
    Ok(())
}

/// An injected kill unwinds (the death rites are drop guards) without the
/// panic hook, whose backtrace can outlast a survivor's deadline.
fn die(who: &str, at_op: u64) -> ! {
    let last_words = format!("injected fault: {who} killed at op {at_op}");
    std::panic::resume_unwind(Box::new(last_words))
}

/// One counted fault point of `plan` as platform task `task` (named `who`
/// in its last words) passes it: kills this thread, delays it, or — almost
/// always — does nothing. The server's handler and each client's loop call it.
pub(crate) fn apply_fault<O: OsServices>(plan: &FaultPlan, task: u32, who: &str, os: &O) {
    match plan.fire(task) {
        Some(FaultAction::Kill) => {
            os.record(ProtoEvent::FaultInjected);
            die(who, plan.at_op)
        }
        Some(FaultAction::DelayNanos(ns)) => {
            os.record(ProtoEvent::FaultInjected);
            std::thread::sleep(std::time::Duration::from_nanos(ns))
        }
        Some(FaultAction::DropWakeup) | None => {}
    }
}
