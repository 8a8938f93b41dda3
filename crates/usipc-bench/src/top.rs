//! `figures top`: the usipc-top reader.
//!
//! Attaches the telemetry plane of a **live, foreign** segment — by
//! memfd path (`--attach /proc/<pid>/fd/<n>`) or inherited descriptor
//! (`--fd N`) — and renders what the writers are publishing: per-slot
//! counter snapshots, live gauges (queue depth, waiters, progress,
//! leaked slots), the replies a server computed and could not deliver,
//! and the streaming round-trip latency sketch. The reader performs **zero
//! writes** to the segment: seqlock'd snapshot reads plus relaxed gauge
//! loads, so attaching a profiler to a production server perturbs
//! nothing.
//!
//! Two modes:
//!
//! * `--once` — a single absolute snapshot (what CI archives).
//! * windowed (default) — `--frames N` sweeps `--interval-ms` apart;
//!   each frame shows *rates over the window* (round trips/s, the
//!   window's p50/p99 from the sketch delta) next to the live gauges.
//!
//! `--demo` spins up a real BSW echo world in this process (server
//! thread, client threads, telemetry plane in a private memfd segment)
//! and then attaches to it **by `/proc/self/fd` path**, exercising the
//! exact path a foreign reader takes.

use crate::table::Table;
use std::time::Duration;

/// Where `figures top` finds the segment.
#[derive(Debug, Clone)]
pub enum TopSource {
    /// A filesystem path to the memfd (typically `/proc/<pid>/fd/<n>`).
    Path(std::path::PathBuf),
    /// An already-open file descriptor number (inherited or SCM-passed).
    Fd(i32),
    /// Self-hosted demo world (see module docs).
    Demo,
}

/// Parsed `figures top` options.
#[derive(Debug, Clone)]
pub struct TopOpts {
    /// Segment source.
    pub source: TopSource,
    /// Single absolute snapshot instead of windowed rates.
    pub once: bool,
    /// Window length between sweeps.
    pub interval: Duration,
    /// Number of windowed frames to render before exiting.
    pub frames: usize,
}

impl Default for TopOpts {
    fn default() -> Self {
        TopOpts {
            source: TopSource::Demo,
            once: false,
            interval: Duration::from_millis(500),
            frames: 3,
        }
    }
}

/// Runs the viewer, printing frames to stdout.
///
/// # Errors
///
/// Attach failures (bad path/fd, no telemetry plane in the segment) and
/// platform gaps (memfd segments are Linux x86_64/aarch64 only) are
/// reported as strings for the CLI to print and exit nonzero on.
pub fn run_top(opts: &TopOpts) -> Result<(), String> {
    imp::run_top(opts)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::{render_rate_frame, render_snapshot_frame, TopOpts, TopSource};
    use std::os::fd::IntoRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use usipc::{
        run_resilient_server_observed, Channel, ChannelConfig, NativeConfig, NativeOs, Role,
        ServerObservability, TelemetryPlane, WaitStrategy,
    };
    use usipc_shm::ShmArena;

    /// Opens `path` and attaches the arena behind it. The fd is
    /// intentionally leaked into the arena's lifetime: the viewer holds
    /// the mapping until exit.
    fn attach_path(path: &std::path::Path) -> Result<Arc<ShmArena>, String> {
        // The arena maps PROT_READ|PROT_WRITE (writers share the same
        // attach path), so the fd must be reopened read-write even
        // though the viewer itself never stores.
        let f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        attach_fd(f.into_raw_fd())
    }

    fn attach_fd(fd: i32) -> Result<Arc<ShmArena>, String> {
        ShmArena::attach_memfd(fd)
            .map(Arc::new)
            .map_err(|e| format!("attach_memfd({fd}): {e:?}"))
    }

    pub(super) fn run_top(opts: &TopOpts) -> Result<(), String> {
        match &opts.source {
            TopSource::Path(p) => view(&attach_path(p)?, opts),
            TopSource::Fd(fd) => view(&attach_fd(*fd)?, opts),
            TopSource::Demo => demo(opts),
        }
    }

    /// The read loop against an attached arena.
    fn view(arena: &Arc<ShmArena>, opts: &TopOpts) -> Result<(), String> {
        let plane = TelemetryPlane::attach(arena)
            .ok_or("segment attached but carries no telemetry plane")?;
        println!(
            "usipc-top: {} slots, generation {}, segment uptime {:.3} s",
            plane.n_slots(),
            arena.generation(),
            arena.now_nanos() as f64 / 1e9
        );
        if opts.once {
            let readings = plane.readings();
            if readings.is_empty() {
                return Err("no slot has published yet".into());
            }
            print!("{}", render_snapshot_frame(&readings, arena.now_nanos()));
            return Ok(());
        }
        let mut prev = plane.readings();
        let mut prev_t = Instant::now();
        for frame in 0..opts.frames {
            std::thread::sleep(opts.interval);
            let cur = plane.readings();
            let dt = prev_t.elapsed();
            if cur.is_empty() {
                return Err("no slot has published yet".into());
            }
            println!("frame {} (window {:.0} ms)", frame + 1, dt.as_millis());
            print!("{}", render_rate_frame(&prev, &cur, dt, arena.now_nanos()));
            prev = cur;
            prev_t = Instant::now();
        }
        Ok(())
    }

    const DEMO_CLIENTS: usize = 3;

    /// A real BSW echo world to point the viewer at: server + clients on
    /// threads, plane in a memfd segment, attach via `/proc/self/fd`.
    fn demo(opts: &TopOpts) -> Result<(), String> {
        let arena = Arc::new(
            ShmArena::new_memfd(TelemetryPlane::bytes_needed(1 + DEMO_CLIENTS, 0, 0) + (1 << 14))
                .map_err(|e| format!("demo arena: {e:?}"))?,
        );
        let plane = TelemetryPlane::create_in(&arena, 1 + DEMO_CLIENTS, 0, 0)
            .map_err(|e| format!("demo plane: {e:?}"))?;
        let ch = Channel::create(&ChannelConfig::new(DEMO_CLIENTS))
            .map_err(|e| format!("demo channel: {e:?}"))?;
        let os = NativeOs::new(NativeConfig::for_clients(DEMO_CLIENTS));
        let stop = Arc::new(AtomicBool::new(false));

        let server = {
            let (ch, os, plane) = (ch.clone(), Arc::clone(&os), plane.clone());
            std::thread::spawn(move || {
                let w = plane.writer(0, 0, Role::Server);
                let obs = ServerObservability {
                    telemetry: Some(&w),
                    ..ServerObservability::none()
                };
                let t = os.task(0);
                run_resilient_server_observed(
                    &ch,
                    &t,
                    WaitStrategy::Bsw,
                    Duration::from_millis(5),
                    obs,
                    |m| m,
                )
            })
        };
        let clients: Vec<_> = (0..DEMO_CLIENTS as u32)
            .map(|c| {
                let (ch, os, plane, stop) = (
                    ch.clone(),
                    Arc::clone(&os),
                    plane.clone(),
                    Arc::clone(&stop),
                );
                std::thread::spawn(move || {
                    let w = plane.writer(1 + c as usize, 1 + c, Role::Client);
                    let t = os.task(1 + c);
                    let ep = ch.client(&t, c, WaitStrategy::Bsw);
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let t0 = Instant::now();
                        ep.echo(i as f64);
                        i += 1;
                        w.record_latency_nanos(t0.elapsed().as_nanos() as u64);
                        w.set_progress(i);
                        if i.is_multiple_of(64) {
                            let snap = os
                                .metrics()
                                .map(|m| m.task_snapshot(1 + c))
                                .unwrap_or_default();
                            w.publish(&snap);
                        }
                    }
                    ep.disconnect();
                })
            })
            .collect();

        // Let every slot publish at least once so the first frame (and
        // `--once`) has something to show.
        let warm = Instant::now();
        while plane.readings().len() < 1 + DEMO_CLIENTS && warm.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // Attach the way a foreign process would: by path, blind to the
        // Rust objects above.
        let fd = arena.backing_fd().expect("demo arena is memfd-backed");
        let result = view(
            &attach_path(std::path::Path::new(&format!("/proc/self/fd/{fd}")))?,
            opts,
        );

        stop.store(true, Ordering::Release);
        for c in clients {
            c.join().expect("demo client");
        }
        let (run, _) = server.join().expect("demo server");
        println!(
            "demo world: {} round trips served across {} clients",
            run.processed, DEMO_CLIENTS
        );
        result
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub(super) fn run_top(_opts: &super::TopOpts) -> Result<(), String> {
        Err("memfd telemetry segments require Linux on x86_64/aarch64".into())
    }
}

fn role_code(r: usipc::Role) -> f64 {
    match r {
        usipc::Role::Server => 1.0,
        usipc::Role::Client => 2.0,
        usipc::Role::Shard => 3.0,
    }
}

/// One absolute frame: totals since the slot's writer started. The
/// last three columns are the recovery counters — fsck repairs, stray
/// credits absorbed, ring holes retired — so a takeover's footprint is
/// visible from a read-only attach.
fn render_snapshot_frame(readings: &[usipc::TelemetryReading], now_nanos: u64) -> String {
    let mut t = Table::new(
        "telemetry snapshot (role 1=server 2=client 3=shard)",
        "task",
        "mixed",
        vec![
            "role".into(),
            "progress".into(),
            "queue".into(),
            "waiters".into(),
            "leaked".into(),
            "dropped".into(),
            "rt_total".into(),
            "p50_us".into(),
            "p99_us".into(),
            "mean_us".into(),
            "age_ms".into(),
            "repairs".into(),
            "absorbed".into(),
            "holes".into(),
        ],
    );
    for r in readings {
        t.push_row(
            f64::from(r.task_id),
            vec![
                role_code(r.role),
                r.progress as f64,
                r.queue_depth as f64,
                r.waiters as f64,
                r.slots_leaked as f64,
                r.snapshot.replies_dropped as f64,
                r.latency.count as f64,
                r.latency.quantile_us(0.50),
                r.latency.quantile_us(0.99),
                r.latency.mean_us(),
                now_nanos.saturating_sub(r.published_at) as f64 / 1e6,
                r.snapshot.fsck_repairs as f64,
                r.snapshot.credits_absorbed as f64,
                r.snapshot.holes_retired as f64,
            ],
        );
    }
    t.render()
}

/// One windowed frame: rates over `dt` plus the live gauges.
fn render_rate_frame(
    prev: &[usipc::TelemetryReading],
    cur: &[usipc::TelemetryReading],
    dt: Duration,
    now_nanos: u64,
) -> String {
    let mut t = Table::new(
        "telemetry rates over the window (role 1=server 2=client 3=shard)",
        "task",
        "mixed",
        vec![
            "role".into(),
            "rt_per_s".into(),
            "win_p50_us".into(),
            "win_p99_us".into(),
            "queue".into(),
            "waiters".into(),
            "leaked".into(),
            "dropped".into(),
            "age_ms".into(),
        ],
    );
    let secs = dt.as_secs_f64().max(1e-9);
    for r in cur {
        let before = prev.iter().find(|p| p.task_id == r.task_id);
        let win = before
            .map(|p| r.latency.diff(&p.latency))
            .unwrap_or(r.latency);
        let d_rt = r.progress.saturating_sub(before.map_or(0, |p| p.progress));
        t.push_row(
            f64::from(r.task_id),
            vec![
                role_code(r.role),
                d_rt as f64 / secs,
                win.quantile_us(0.50),
                win.quantile_us(0.99),
                r.queue_depth as f64,
                r.waiters as f64,
                r.slots_leaked as f64,
                r.snapshot.replies_dropped as f64,
                now_nanos.saturating_sub(r.published_at) as f64 / 1e6,
            ],
        );
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::{render_rate_frame, render_snapshot_frame};
    use std::time::Duration;
    use usipc::{MetricsSnapshot, Role, SketchSnapshot, TelemetryReading};

    fn reading(task_id: u32, progress: u64, samples: &[u64]) -> TelemetryReading {
        // Seed a plausible sketch by hand (cells are pub; exact values
        // don't matter for rendering).
        let mut latency = SketchSnapshot {
            count: samples.len() as u64,
            sum_nanos: samples.iter().sum(),
            ..SketchSnapshot::default()
        };
        latency.cells[10] = samples.len() as u64;
        TelemetryReading {
            task_id,
            role: if task_id == 0 {
                Role::Server
            } else {
                Role::Client
            },
            published_at: 1_000_000,
            snapshot: MetricsSnapshot {
                replies_dropped: 77,
                ..MetricsSnapshot::default()
            },
            queue_depth: 2,
            waiters: 1,
            progress,
            slots_leaked: 0,
            latency,
        }
    }

    #[test]
    fn snapshot_frame_lists_every_slot() {
        let rs = [reading(0, 500, &[1_000, 2_000]), reading(1, 250, &[3_000])];
        let s = render_snapshot_frame(&rs, 5_000_000);
        assert!(s.contains("telemetry snapshot"));
        assert!(s.contains("progress"));
        assert!(s.contains("repairs"), "recovery counters surfaced:\n{s}");
        assert!(
            s.contains("dropped") && s.contains("77.00"),
            "undelivered replies surfaced:\n{s}"
        );
        // Both task rows rendered (x column values 0 and 1).
        assert_eq!(s.lines().count(), 3 + 2, "title, header, rule, 2 rows");
    }

    #[test]
    fn rate_frame_windows_against_the_previous_sweep() {
        let prev = [reading(1, 100, &[1_000])];
        let cur = [reading(1, 300, &[1_000, 2_000, 3_000])];
        let s = render_rate_frame(&prev, &cur, Duration::from_secs(2), 5_000_000);
        // Δprogress 200 over 2 s → 100 rt/s.
        assert!(s.contains("100.00"), "windowed rate rendered:\n{s}");
        assert!(
            s.contains("dropped") && s.contains("77.00"),
            "undelivered replies surfaced:\n{s}"
        );
    }

    #[test]
    fn rate_frame_tolerates_a_slot_with_no_history() {
        let cur = [reading(7, 50, &[1_000])];
        let s = render_rate_frame(&[], &cur, Duration::from_millis(100), 2_000_000);
        assert!(s.contains("7"), "new slot rendered without a baseline");
    }
}
