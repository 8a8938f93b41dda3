//! The metric names and units this benchmark prints. `BENCHMARK.json`
//! lists the same names with direction and bound; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

/// Metric values by name. Per-layer metrics that do not apply to a
/// workload are absent and print as 0.
pub type Values = BTreeMap<&'static str, f64>;

/// Printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rt_per_s", "1/s"),
    ("rt_p50_us", "us"),
    ("cpu_us_per_rt", "us"),
    ("segment_kib", "KiB"),
];

/// Offered rates of the open-loop sweep, with their metric-name labels.
pub const SWEEP: &[(f64, &str, &str)] = &[
    (
        50_000.0,
        "waitset.sweep.r50k_p50_us",
        "waitset.sweep.r50k_p90_us",
    ),
    (
        100_000.0,
        "waitset.sweep.r100k_p50_us",
        "waitset.sweep.r100k_p90_us",
    ),
    (
        200_000.0,
        "waitset.sweep.r200k_p50_us",
        "waitset.sweep.r200k_p90_us",
    ),
    (
        400_000.0,
        "waitset.sweep.r400k_p50_us",
        "waitset.sweep.r400k_p90_us",
    ),
    (
        600_000.0,
        "waitset.sweep.r600k_p50_us",
        "waitset.sweep.r600k_p90_us",
    ),
    (
        800_000.0,
        "waitset.sweep.r800k_p50_us",
        "waitset.sweep.r800k_p90_us",
    ),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Isolated timings (layers.rs), the same suite in every traced run.
    ("shm.arena.get_ns", "ns"),
    ("shm.arena.now_ns", "ns"),
    ("shm.pool.alloc_free_ns", "ns"),
    ("queue.two_lock.enq_deq_ns", "ns"),
    ("queue.ring_spsc.enq_deq_ns", "ns"),
    ("queue.ring_mpsc.enq_deq_ns", "ns"),
    ("queue.two_lock.xthread_mops", "Mops"),
    ("queue.ring_spsc.xthread_mops", "Mops"),
    ("sem.v_p_fast_ns", "ns"),
    ("sem.p_timeout_fast_ns", "ns"),
    ("sem.wake_uni_us", "us"),
    ("sem.wake_mp_us", "us"),
    ("channel.try_enqueue_ns", "ns"),
    ("channel.try_dequeue_ns", "ns"),
    ("channel.tas_awake_ns", "ns"),
    ("channel.wake_noop_ns", "ns"),
    ("channel.loopback_rt.two_lock_ns", "ns"),
    ("channel.loopback_rt.ring_ns", "ns"),
    ("waitset.notify_coalesced_ns", "ns"),
    ("waitset.notify_ready_ns", "ns"),
    ("waitset.poll_hit_ns", "ns"),
    ("waitset.poll_miss_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("metrics.record_latency_ns", "ns"),
    ("trace.record_ns", "ns"),
    ("telemetry.publish_ns", "ns"),
    ("telemetry.record_latency_ns", "ns"),
    ("telemetry.flight_record_ns", "ns"),
    ("native.busy_wait_mp_us", "us"),
    ("native.yield_ns", "ns"),
    ("native.now_pair_ns", "ns"),
    // Counts per round trip over the untraced reference window.
    ("protocol.sem_ops_per_rt", "count"),
    ("protocol.blocks_per_rt", "count"),
    ("protocol.spin_iters_per_rt", "count"),
    ("protocol.polls_per_rt", "count"),
    ("protocol.stray_wakeups", "count"),
    ("sem.kernel_waits_per_rt", "count"),
    ("sem.kernel_wakes_per_rt", "count"),
    ("native.yields_per_rt", "count"),
    ("channel.queue_ops_per_rt", "count"),
    ("channel.tas_per_rt", "count"),
    ("channel.full_backoffs", "count"),
    ("waitset.doorbells_rung_per_rt", "count"),
    ("waitset.doorbells_coalesced_per_rt", "count"),
    ("waitset.wakes_per_rt", "count"),
    ("server.processed", "count"),
    ("os.vol_ctx_per_rt", "count"),
    ("os.invol_ctx_per_rt", "count"),
    // Spans and tails of the traced window.
    ("client.rt_p90_us", "us"),
    ("client.rt_p99_us", "us"),
    ("client.rt_p999_us", "us"),
    ("client.rt_max_us", "us"),
    ("client.over_limit_share", "ratio"),
    ("protocol.request_hop_p50_us", "us"),
    ("protocol.request_hop_p90_us", "us"),
    ("protocol.reply_hop_p50_us", "us"),
    ("protocol.reply_hop_p90_us", "us"),
    ("waitset.request_hop_p50_us", "us"),
    ("waitset.request_hop_p90_us", "us"),
    ("waitset.reply_hop_p50_us", "us"),
    ("waitset.reply_hop_p90_us", "us"),
    ("server.handler_p50_us", "us"),
    ("client.enqueue_call_p50_ns", "ns"),
    ("client.notify_call_p50_ns", "ns"),
    ("client.dequeue_call_p50_ns", "ns"),
    ("bench.layers_sum_us", "us"),
    ("bench.attrib_residual_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.gen_backlog_max", "count"),
    ("bench.failed_share", "ratio"),
    // The same workload re-run on QueueKind::Ring.
    ("queue.ring.rt_per_s", "1/s"),
    ("queue.ring.rt_p50_us", "us"),
    // Open-loop load sweep (mux_open only).
    ("waitset.sweep.r50k_p50_us", "us"),
    ("waitset.sweep.r50k_p90_us", "us"),
    ("waitset.sweep.r100k_p50_us", "us"),
    ("waitset.sweep.r100k_p90_us", "us"),
    ("waitset.sweep.r200k_p50_us", "us"),
    ("waitset.sweep.r200k_p90_us", "us"),
    ("waitset.sweep.r400k_p50_us", "us"),
    ("waitset.sweep.r400k_p90_us", "us"),
    ("waitset.sweep.r600k_p50_us", "us"),
    ("waitset.sweep.r600k_p90_us", "us"),
    ("waitset.sweep.r800k_p50_us", "us"),
    ("waitset.sweep.r800k_p90_us", "us"),
    ("waitset.sweep.knee_rate_per_s", "1/s"),
];

/// The `metrics` object of a result line: every name of `table`, in
/// table order, with its unit.
pub fn to_json(table: &[(&str, &str)], values: &Values) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Workload;

    /// Every `"name": "x"` of BENCHMARK.json, in file order.
    fn manifest_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_prints_in_the_same_order() {
        let printed: Vec<&str> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(manifest_names(), printed);
    }

    #[test]
    fn sweep_labels_are_per_layer_metrics() {
        for &(_, p50, p90) in SWEEP {
            assert!(PER_LAYER.iter().any(|m| m.0 == p50), "{p50}");
            assert!(PER_LAYER.iter().any(|m| m.0 == p90), "{p90}");
        }
    }

    #[test]
    fn missing_values_print_as_zero_and_units_follow_the_table() {
        let mut v = Values::new();
        v.insert("rt_per_s", 12.5);
        let json = to_json(&END_TO_END[..2], &v);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"rt_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}"
        );
    }
}
