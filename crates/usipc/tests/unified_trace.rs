//! Trace-driven protocol assertions: ordering and timing properties the
//! metrics counters cannot express, checked against unified event traces
//! from both backends.
//!
//! * BSW's per-round-trip `enqueue → V → P → dequeue` syscall order
//!   (the four system calls of §3.1, in the order Fig. 5 prescribes);
//! * BSLS fall-through round trips on the multiprocessor containing zero
//!   kernel-crossing events between begin and end (§4.2's "the server
//!   usually finds new work before its spin budget expires");
//! * the consumer's block-enter always preceded by the clear-awake and
//!   the empty re-check (the double-check that closes Fig. 4's
//!   interleaving 4);
//! * Chrome-trace export validity (well-formed JSON, matched B/E pairs,
//!   monotone per-task timestamps) from the *same* records on both
//!   backends;
//! * tracing-disabled parity: enabling the trace layer does not change
//!   the simulated schedule or any protocol counter.

use usipc::trace::{Span, TracePoint, TraceRecord, UnifiedTrace};
use usipc::{ProtoEvent, WaitStrategy};
use usipc_lab::{Mechanism, NativeExperiment, SimExperiment};
use usipc_sim::{MachineModel, PolicyKind};

const RING: usize = 64 * 1024;

fn sim_trace(machine: MachineModel, strategy: WaitStrategy, msgs: u64) -> UnifiedTrace {
    let exp = SimExperiment::new(
        machine,
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(strategy),
    )
    .clients(1)
    .messages(msgs)
    .trace(RING);
    exp.run().trace.expect("tracing enabled")
}

/// The client's protocol events inside each complete round-trip span,
/// first and last round trips excluded (setup and disconnect).
fn steady_round_trips(records: &[TraceRecord]) -> Vec<Vec<TracePoint>> {
    let mut windows = Vec::new();
    let mut current: Option<Vec<TracePoint>> = None;
    for r in records {
        match r.point {
            TracePoint::Begin(Span::RoundTrip) => current = Some(Vec::new()),
            TracePoint::End(Span::RoundTrip) => {
                if let Some(w) = current.take() {
                    windows.push(w);
                }
            }
            p => {
                if let Some(w) = current.as_mut() {
                    w.push(p);
                }
            }
        }
    }
    assert!(
        windows.len() >= 3,
        "need several round trips to reason about"
    );
    windows.remove(0);
    windows.pop();
    windows
}

fn is_kernel_crossing(p: &TracePoint) -> bool {
    matches!(p, TracePoint::Proto(e) if e.is_kernel_crossing())
}

#[test]
fn bsw_round_trip_follows_the_paper_syscall_order() {
    let trace = sim_trace(MachineModel::sgi_indy(), WaitStrategy::Bsw, 40);
    let client = trace.task_records(1);
    assert!(trace.dropped == 0, "ring sized for the barrage");
    for (i, w) in steady_round_trips(&client).iter().enumerate() {
        let pos = |e: ProtoEvent| w.iter().position(|p| *p == TracePoint::Proto(e));
        let enq = pos(ProtoEvent::Enqueue).unwrap_or_else(|| panic!("rt {i}: no enqueue: {w:?}"));
        let v = pos(ProtoEvent::SemV).unwrap_or_else(|| panic!("rt {i}: no V: {w:?}"));
        let p = pos(ProtoEvent::SemP).unwrap_or_else(|| panic!("rt {i}: no P: {w:?}"));
        let deq = pos(ProtoEvent::Dequeue).unwrap_or_else(|| panic!("rt {i}: no dequeue: {w:?}"));
        assert!(
            enq < v && v < p && p < deq,
            "rt {i}: expected enqueue→V→P→dequeue, got {w:?}"
        );
    }
}

#[test]
fn bsls_fall_through_round_trips_cross_into_the_kernel_zero_times() {
    // The multiprocessor is essential: there, a spin iteration is a pure
    // delay and both sides stay awake, so the steady state never blocks.
    // (On a uniprocessor the spin is a `yield` — itself a kernel crossing.)
    let trace = sim_trace(
        MachineModel::sgi_challenge8(),
        WaitStrategy::Bsls { max_spin: 200 },
        40,
    );
    let client = trace.task_records(1);
    let windows = steady_round_trips(&client);
    let fall_through = windows
        .iter()
        .filter(|w| !w.iter().any(is_kernel_crossing))
        .count();
    assert!(
        fall_through * 2 >= windows.len(),
        "most steady-state BSLS round trips on the 8-way fall through \
         without kernel crossings; got {fall_through}/{}",
        windows.len()
    );
    // A fall-through round trip still enters (and leaves) the spin loop.
    let spinning = windows
        .iter()
        .filter(|w| w.contains(&TracePoint::Begin(Span::Spin)))
        .count();
    assert_eq!(spinning, windows.len(), "every round trip spins first");
}

#[test]
fn block_enter_is_always_preceded_by_clear_awake_and_an_empty_recheck() {
    let trace = sim_trace(MachineModel::sgi_indy(), WaitStrategy::Bsw, 40);
    let mut checked = 0;
    for (task, _) in &trace.task_names {
        let protos: Vec<ProtoEvent> = trace
            .task_records(*task)
            .iter()
            .filter_map(|r| match r.point {
                TracePoint::Proto(e) => Some(e),
                _ => None,
            })
            .collect();
        for (i, e) in protos.iter().enumerate() {
            if *e != ProtoEvent::BlockEntered {
                continue;
            }
            checked += 1;
            assert!(i >= 2, "block-enter cannot be the first protocol event");
            // Fig. 5/7/9: Q->awake = 0 (a tas op), then the re-check
            // dequeue that must come back *empty* — a queue op with no
            // dequeue-success event — and only then the sleep.
            assert_eq!(
                protos[i - 2],
                ProtoEvent::TasOp,
                "clear_awake precedes the re-check (event {i} of task {task})"
            );
            assert_eq!(
                protos[i - 1],
                ProtoEvent::QueueOp,
                "the empty re-check precedes block-enter (event {i} of task {task})"
            );
        }
    }
    assert!(checked > 0, "BSW on a uniprocessor must actually block");
}

/// Minimal string-aware JSON well-formedness scan (the workspace is
/// dependency-free, so no serde): brackets balance outside strings and the
/// document is one object.
fn assert_well_formed_json(s: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "close before open");
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
    assert!(s.starts_with('{') && s.ends_with('}'), "one JSON object");
}

fn assert_valid_chrome_export(trace: &UnifiedTrace, backend: &str) {
    // Per-task timestamps are monotone non-decreasing in the records…
    for (task, _) in &trace.task_names {
        let recs = trace.task_records(*task);
        for pair in recs.windows(2) {
            assert!(
                pair[0].ts_nanos <= pair[1].ts_nanos,
                "{backend}: task {task} timestamps regress"
            );
        }
    }
    // …and the JSON is well formed with matched B/E span pairs.
    let json = trace.to_chrome_json();
    assert_well_formed_json(&json);
    assert!(json.contains("\"traceEvents\":["), "{backend}");
    assert!(
        json.matches("\"ph\":\"i\"").count() > 0,
        "{backend}: no instant events"
    );
    assert_eq!(
        json.matches("\"ph\":\"B\"").count(),
        json.matches("\"ph\":\"E\"").count(),
        "{backend}: unmatched span pairs"
    );
    // The ASCII chart renders the same records.
    let ascii = trace.render_ascii(20);
    assert!(
        ascii.contains("server") && ascii.contains("client0"),
        "{backend}"
    );
    assert!(ascii.lines().count() > 2, "{backend}: empty chart");
}

#[test]
fn both_backends_export_valid_chrome_json_and_ascii_from_the_same_records() {
    let sim = sim_trace(MachineModel::sgi_indy(), WaitStrategy::Bsw, 30);
    assert!(!sim.records.is_empty());
    assert_valid_chrome_export(&sim, "sim");

    let native = NativeExperiment::new(Mechanism::UserLevel(WaitStrategy::Bsw))
        .clients(1)
        .messages(30)
        .trace(RING)
        .run()
        .trace
        .expect("tracing enabled");
    assert!(!native.records.is_empty());
    assert_valid_chrome_export(&native, "native");
}

#[test]
fn tracing_does_not_perturb_the_simulated_schedule_or_the_counters() {
    let base = SimExperiment::new(
        MachineModel::sgi_indy(),
        PolicyKind::degrading_default(),
        Mechanism::UserLevel(WaitStrategy::Bsw),
    )
    .clients(2)
    .messages(50);
    let plain = base.run();
    let traced = base.clone().trace(RING).run();
    assert_eq!(
        plain.elapsed, traced.elapsed,
        "virtual-time schedule unchanged by tracing"
    );
    assert_eq!(plain.server_metrics, traced.server_metrics);
    assert_eq!(plain.client_metrics, traced.client_metrics);
    assert!(traced.trace.is_some() && plain.trace.is_none());
}
