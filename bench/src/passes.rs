//! The two passes over one workload: the untraced pass that yields the
//! end-to-end metrics, and the traced pass that yields the per-layer ones.

use crate::layers;
use crate::metrics::{Values, SWEEP};
use crate::stats::{median, nearest_rank, window_medians, Span, WindowMedians, WINDOW_NS};
use crate::world::{run_world, Load, Phase, PhaseResult, Plan, Workload, WorldResult};
use std::io::Write;
use usipc::QueueKind;

/// Build → first round trip → tear-down repetitions behind `setup_s`.
const SETUP_REPS: usize = 201;
/// The service's latency limit: a slower reply counts as over the limit.
pub const LATENCY_LIMIT_NS: u32 = 100_000;
/// At most this many spans of a traced window are written out.
const SPANS_WRITTEN: usize = 100_000;

/// What a pass hands to `main`: the result line's four fields.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    fn absorb(&mut self, world: &WorldResult) {
        self.attempted += world.attempted;
        self.failed += world.failed;
    }
}

/// One phase: a warm-up of a tenth of the windows, then the windows.
fn phase(load: Load, windows: usize) -> Phase {
    Phase {
        load,
        warm_ns: windows as u64 * WINDOW_NS / 10,
        windows,
    }
}

fn plan(w: Workload, seed: u64, windows: usize) -> Plan {
    Plan {
        workload: w,
        seed,
        kind: QueueKind::default(),
        traced: false,
        phases: vec![phase(w.load(), windows)],
    }
}

fn medians_of(p: &PhaseResult, what: &str) -> Result<WindowMedians, String> {
    window_medians(&p.rec.window_stats())
        .ok_or_else(|| format!("{what}: no round trip completed in the measured windows"))
}

/// Tracing off: `seconds` 1 s windows on the default configuration.
pub fn untraced(w: Workload, seed: u64, seconds: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let world = run_world(&Plan {
            phases: Vec::new(),
            ..plan(w, seed, 0)
        })?;
        out.absorb(&world);
        setups.push(world.setup_ns as f64 / 1e9);
    }
    let world = run_world(&plan(w, seed, seconds))?;
    out.absorb(&world);
    let p = &world.phases[0];
    let m = medians_of(p, w.name())?;
    let v = &mut out.values;
    v.insert("setup_s", median(&setups).expect("SETUP_REPS > 0"));
    v.insert("rt_per_s", m.rt_per_s);
    v.insert("rt_p50_us", m.p50_us);
    v.insert("cpu_us_per_rt", m.cpu_us_per_rt);
    v.insert("segment_kib", world.segment_bytes as f64 / 1024.0);
    Ok(out)
}

/// Windows of the traced pass for a run of `seconds`.
pub fn traced_windows(seconds: usize) -> usize {
    (seconds / 4).max(1)
}

/// Nearest-rank `q`-quantile in µs of durations in ns (0 when empty).
fn quantile_us(ns: &mut [u32], q: f64) -> f64 {
    nearest_rank(ns, q).map_or(0.0, |n| n as f64 / 1e3)
}

fn ns_vec(durations: impl Iterator<Item = u64>) -> Vec<u32> {
    durations.map(|n| n.min(u32::MAX as u64) as u32).collect()
}

/// Σ (count per round trip x isolated cost), ns: the attribution formula
/// of README.md. `n` is the round trips the counters cover.
fn layers_sum_ns(w: Workload, p: &PhaseResult, n: f64, layer: &Values) -> f64 {
    let c = &p.counters;
    let per_rt = |count: u64| count as f64 / n;
    let cost = |name: &str| layer[name];
    let wake_ns = 1e3
        * cost(if w.uni() {
            "sem.wake_uni_us"
        } else {
            "sem.wake_mp_us"
        });
    // Only mp_bsls_rt runs with busy_wait spinning; elsewhere it yields.
    let pause_ns = if w == Workload::MpBslsRt {
        1e3 * cost("native.busy_wait_mp_us")
    } else {
        cost("native.yield_ns")
    };
    let mut sum = per_rt(c.enqueues) * cost("channel.try_enqueue_ns")
        + per_rt(c.queue_ops - c.enqueues) * cost("channel.try_dequeue_ns")
        + per_rt(c.tas_ops) * cost("channel.tas_awake_ns")
        + per_rt(c.sem_ops()) * cost("sem.v_p_fast_ns") / 2.0
        + per_rt(c.sem_kernel_waits) * wake_ns
        + per_rt(c.spin_iterations) * pause_ns
        + per_rt(c.yields) * cost("native.yield_ns");
    if !w.mux() {
        // `ClientEndpoint::call` times and records every round trip.
        sum += cost("native.now_pair_ns") + cost("metrics.record_latency_ns");
    }
    sum
}

/// Writes an evenly strided sample of the spans to `bench/out/`.
fn write_spans(w: Workload, spans: &[Span]) -> std::io::Result<()> {
    std::fs::create_dir_all("bench/out")?;
    let file = std::fs::File::create(format!("bench/out/spans-{}.csv", w.name()))?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "id,t0_ns,t1_ns,t3_ns")?;
    let stride = spans.len().div_ceil(SPANS_WRITTEN).max(1);
    for s in spans.iter().step_by(stride) {
        writeln!(out, "{},{},{},{}", s.id, s.t0, s.t1, s.t3)?;
    }
    out.flush()
}

/// The diagnostic pass: isolated layer timings, then the workload
/// untraced (the counts, and the base of the tracing overhead), traced
/// (spans, tails, call timings), and on `QueueKind::Ring`; `mux_open`
/// adds the offered-load sweep. Windows are a quarter of `seconds`.
pub fn traced(w: Workload, seed: u64, seconds: usize) -> Result<Outcome, String> {
    let windows = traced_windows(seconds);
    let layer = layers::measure()?;
    let mut out = Outcome {
        values: layer.clone(),
        ..Outcome::default()
    };

    // Untraced reference: counts per round trip.
    let world = run_world(&plan(w, seed, windows))?;
    out.absorb(&world);
    let p = &world.phases[0];
    let base = medians_of(p, "untraced reference")?;
    let n = p.rec.samples().len() as f64;
    let c = &p.counters;
    let v = &mut out.values;
    for (name, count) in [
        ("protocol.sem_ops_per_rt", c.sem_ops()),
        ("protocol.blocks_per_rt", c.blocks_entered),
        ("protocol.spin_iters_per_rt", c.spin_iterations),
        ("protocol.polls_per_rt", c.poll_checks),
        ("sem.kernel_waits_per_rt", c.sem_kernel_waits),
        ("sem.kernel_wakes_per_rt", c.sem_kernel_wakes),
        ("native.yields_per_rt", c.yields),
        ("channel.queue_ops_per_rt", c.queue_ops),
        ("channel.tas_per_rt", c.tas_ops),
        ("waitset.doorbells_rung_per_rt", c.doorbells_rung),
        ("waitset.doorbells_coalesced_per_rt", c.doorbells_coalesced),
        ("waitset.wakes_per_rt", c.waitset_wakes),
        ("os.vol_ctx_per_rt", p.ctx.0),
        ("os.invol_ctx_per_rt", p.ctx.1),
    ] {
        v.insert(name, count as f64 / n);
    }
    v.insert("protocol.stray_wakeups", c.stray_wakeups_absorbed as f64);
    v.insert("channel.full_backoffs", c.queue_full_backoffs as f64);
    v.insert("server.processed", world.processed as f64);
    v.insert("client.rt_p90_us", base.p90_us);
    let sum_us = layers_sum_ns(w, p, n, &layer) / 1e3;
    v.insert("bench.layers_sum_us", sum_us);
    v.insert("bench.attrib_residual_share", 1.0 - sum_us / base.p50_us);

    // Traced: the bench's own span buffers and call timers.
    let world = run_world(&Plan {
        traced: true,
        ..plan(w, seed, windows)
    })?;
    out.absorb(&world);
    let p = &world.phases[0];
    let traced = medians_of(p, "traced window")?;
    let samples = p.rec.samples();
    let v = &mut out.values;
    v.insert(
        "bench.trace_overhead_share",
        1.0 - traced.rt_per_s / base.rt_per_s,
    );
    let mut lat = samples.to_vec();
    v.insert("client.rt_p99_us", quantile_us(&mut lat, 0.99));
    v.insert("client.rt_p999_us", quantile_us(&mut lat, 0.999));
    v.insert("client.rt_max_us", quantile_us(&mut lat, 1.0));
    let over = samples.iter().filter(|&&s| s > LATENCY_LIMIT_NS).count();
    v.insert(
        "client.over_limit_share",
        over as f64 / samples.len().max(1) as f64,
    );
    // Every span has `t0 <= t1 <= t3` (`Span::checked`; a reply without
    // one failed its request in the world), so the two hops sum to the
    // round trip on every request.
    let spans = &p.trace.spans;
    let mut request = ns_vec(spans.iter().map(Span::request_hop));
    let mut reply = ns_vec(spans.iter().map(Span::reply_hop));
    // Named for the layer that carries the hop: the protocol's wait loops
    // on a channel, the WaitSet doorbell on the mux.
    let names = if w.mux() {
        [
            "waitset.request_hop_p50_us",
            "waitset.request_hop_p90_us",
            "waitset.reply_hop_p50_us",
            "waitset.reply_hop_p90_us",
        ]
    } else {
        [
            "protocol.request_hop_p50_us",
            "protocol.request_hop_p90_us",
            "protocol.reply_hop_p50_us",
            "protocol.reply_hop_p90_us",
        ]
    };
    let hops_us = [
        quantile_us(&mut request, 0.5),
        quantile_us(&mut request, 0.9),
        quantile_us(&mut reply, 0.5),
        quantile_us(&mut reply, 0.9),
    ];
    for (name, us) in names.into_iter().zip(hops_us) {
        v.insert(name, us);
    }
    // The server's cycle: the gap between one handler entry and the next.
    let mut entries: Vec<u64> = spans.iter().map(|s| s.t1).collect();
    entries.sort_unstable();
    let mut gaps = ns_vec(entries.windows(2).map(|e| e[1] - e[0]));
    v.insert("server.handler_p50_us", quantile_us(&mut gaps, 0.5));
    let t = &p.trace;
    for (name, calls) in [
        ("client.enqueue_call_p50_ns", &t.enqueue_ns),
        ("client.notify_call_p50_ns", &t.notify_ns),
        ("client.dequeue_call_p50_ns", &t.dequeue_ns),
    ] {
        v.insert(name, quantile_us(&mut calls.clone(), 0.5) * 1e3);
    }
    let mut lag = t.gen_lag_ns.clone();
    v.insert("bench.gen_lag_p99_us", quantile_us(&mut lag, 0.99));
    v.insert("bench.gen_backlog_max", p.backlog_max as f64);
    write_spans(w, spans).map_err(|e| format!("writing bench/out: {e}"))?;

    // The same workload on the lock-free ring.
    let world = run_world(&Plan {
        kind: QueueKind::Ring,
        ..plan(w, seed, windows)
    })?;
    out.absorb(&world);
    let ring = medians_of(&world.phases[0], "ring re-run")?;
    out.values.insert("queue.ring.rt_per_s", ring.rt_per_s);
    out.values.insert("queue.ring.rt_p50_us", ring.p50_us);

    if w == Workload::MuxOpen {
        sweep(seed, (seconds * 3 / 20).max(1), &mut out)?;
    }
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.values.insert("bench.failed_share", share);
    Ok(out)
}

/// One mux world, one open-loop phase per swept rate. The knee is the
/// highest rate that met the latency limit at p90 and delivered what was
/// offered (a backlog that grows delivers less than it is offered).
fn sweep(seed: u64, windows: usize, out: &mut Outcome) -> Result<(), String> {
    let world = run_world(&Plan {
        phases: SWEEP
            .iter()
            .map(|&(rate_per_s, ..)| phase(Load::Open { rate_per_s }, windows))
            .collect(),
        ..plan(Workload::MuxOpen, seed, 0)
    })?;
    out.absorb(&world);
    let mut knee = 0.0;
    for (&(rate, p50, p90), p) in SWEEP.iter().zip(&world.phases) {
        let m = medians_of(p, p50)?;
        out.values.insert(p50, m.p50_us);
        out.values.insert(p90, m.p90_us);
        let delivered = p.rec.samples().len() as f64;
        if m.p90_us * 1e3 <= LATENCY_LIMIT_NS as f64 && delivered >= 0.99 * p.offered as f64 {
            knee = rate;
        }
    }
    out.values.insert("waitset.sweep.knee_rate_per_s", knee);
    Ok(())
}
