//! # usipc — user-level IPC with efficient sleep/wake-up protocols
//!
//! A Rust reproduction of Unrau & Krieger, *"Efficient Sleep/Wake-up
//! Protocols for User-Level IPC"* (ICPP 1998): a cross-address-space IPC
//! facility built on FIFO queues in shared memory under a synchronous
//! `Send`/`Receive`/`Reply` interface, with four sleep/wake-up strategies —
//!
//! * **BSS** (Both Sides Spin, Fig. 1) — busy-wait; the throughput upper
//!   bound and the civility lower bound,
//! * **BSW** (Both Sides Wait, Fig. 5) — `awake` flags + counting
//!   semaphores; fully blocking but four syscalls per round trip,
//! * **BSWY** (Both Sides Wait and Yield, Fig. 7) — BSW plus `yield`-based
//!   hand-off hints,
//! * **BSLS** (Both Sides Limited Spin, Fig. 9) — bounded polling before
//!   blocking,
//!
//! plus the paper's proposed **`handoff` system call** (§6). The **System V
//! message queue** baseline it is measured against, and the workloads that
//! measure it, live in the `usipc-lab` crate — not in the library.
//!
//! Protocols are written once against the [`OsServices`] trait and run on
//! two backends: [`NativeOs`] (real threads — the library a user adopts)
//! and [`SimOs`] (processes on the [`usipc-sim`](usipc_sim) scheduler
//! simulator, where every figure of the paper is regenerated; see
//! EXPERIMENTS.md).
//!
//! ## Quickstart
//!
//! ```
//! use usipc::{Channel, ChannelConfig, Message, NativeConfig, NativeOs, WaitStrategy};
//!
//! let ch = Channel::create(&ChannelConfig::new(1)).unwrap();
//! let os = NativeOs::new(NativeConfig::for_clients(1));
//!
//! let server_ch = ch.clone();
//! let server_os = os.task(0);
//! let server = std::thread::spawn(move || {
//!     usipc::run_echo_server(&server_ch, &server_os, WaitStrategy::Bsw)
//! });
//!
//! let client_os = os.task(1);
//! let client = ch.client(&client_os, 0, WaitStrategy::Bsw);
//! assert_eq!(client.echo(42.0), 42.0);
//! client.disconnect();
//!
//! let run = server.join().unwrap();
//! assert_eq!(run.processed, 2); // the echo and the disconnect
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod asynch;
mod barrier;
mod bulk;
mod channel;
mod duplex;
pub mod fault;
pub mod metrics;
mod msg;
mod native;
pub mod platform;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod proc;
pub mod protocol;
pub mod recover;
pub mod scenarios;
pub mod sem;
mod server;
mod simulated;
pub mod telemetry;
pub mod trace;
pub mod waitset;

pub use asynch::AsyncClient;
pub use barrier::BarrierRef;
pub use bulk::{BulkBlock, BulkHandle, BulkPool, BLOCK_PAYLOAD};
pub use channel::{
    Channel, ChannelConfig, ChannelRoot, ClientEndpoint, QueueRef, ServerEndpoint, WaitableQueue,
};
pub use duplex::{duplex_client_sem, duplex_server_sem, DuplexChannel, DuplexPair, DuplexRoot};
pub use fault::{DeathWatch, FaultAction, FaultPlan, IpcError, ServerDeathWatch};
pub use metrics::{
    EndpointMetrics, LatencySketch, MetricsRegistry, MetricsSnapshot, ProtoEvent, SketchSnapshot,
};
pub use msg::{opcode, Message};
pub use native::{NativeConfig, NativeMsgq, NativeOs, NativeTask};
pub use platform::{Cost, HandoffHint, OsServices};
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use proc::{
    getpid, pin_to_cpu, raise_sigkill, set_sched_batch, ChildProc, ExitStatus, ProcError,
};
pub use protocol::WaitStrategy;
pub use recover::{
    take_over, take_over_and_serve, ArenaFsck, FsckReport, Ledger, QueueReport, Takeover,
};
pub use sem::{CountingSem, PortableSem};
pub use server::{
    run_calculator_server, run_echo_server, run_resilient_server, run_resilient_server_observed,
    run_server, run_throttled_server, ServerObservability, ServerRun,
};
pub use simulated::{SimCosts, SimIds, SimOs};
pub use telemetry::{
    FlightHandle, FlightRecorder, Role, TelemetryPlane, TelemetryReading, TelemetryWriter,
};
pub use trace::{
    bridge_sim_trace, SchedPoint, Span, TracePoint, TraceRecord, TraceRegistry, TraceRing,
    UnifiedTrace,
};
pub use usipc_queue::QueueKind;
pub use usipc_shm::monotonic_nanos;
pub use waitset::{MuxClient, ShardedConfig, ShardedServer, WaitSet, WaitSetFsck, WaitSetRoot};
