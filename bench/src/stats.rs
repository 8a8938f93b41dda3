//! Sample statistics, the seeded input generators, and the span types of
//! the traced pass. Everything here is pure and unit-tested.

use std::sync::atomic::{AtomicU64, Ordering};

/// Nanoseconds in one measurement window.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the value at
/// rank `ceil(q * n)` of the sorted data. Reorders `samples`; `None` when
/// empty.
pub fn nearest_rank(samples: &mut [u32], q: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(*samples.select_nth_unstable(rank - 1).1)
}

/// Median of `values` (mean of the two middle values when the count is
/// even); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// What one 1 s window saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Round trips completed in the window.
    pub completed: usize,
    /// Nearest-rank p50 / p90 of the window's latencies in ns (`None` for
    /// a window in which nothing completed).
    pub p50_ns: Option<u32>,
    pub p90_ns: Option<u32>,
    /// Process CPU time spent in the window, ns.
    pub cpu_ns: u64,
}

/// Window medians of one measured phase: the end-to-end timing estimators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMedians {
    pub rt_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub cpu_us_per_rt: f64,
}

/// Median over windows of each window statistic, so that one host stall
/// (tens of ms on a shared VM) spoils one window and not the run. Windows
/// are exactly [`WINDOW_NS`] long, so a window's count is its rate.
/// `None` when no window completed a round trip.
pub fn window_medians(windows: &[WindowStat]) -> Option<WindowMedians> {
    let of = |f: &dyn Fn(&WindowStat) -> Option<f64>| {
        median(&windows.iter().filter_map(f).collect::<Vec<_>>())
    };
    Some(WindowMedians {
        rt_per_s: of(&|w| Some(w.completed as f64))?,
        p50_us: of(&|w| w.p50_ns.map(|n| n as f64 / 1e3))?,
        p90_us: of(&|w| w.p90_ns.map(|n| n as f64 / 1e3))?,
        cpu_us_per_rt: of(&|w| {
            (w.completed > 0).then(|| w.cpu_ns as f64 / 1e3 / w.completed as f64)
        })?,
    })
}

/// Latency samples of one measured phase, cut into fixed 1 s windows.
/// Samples are only stored; every statistic is computed after the phase,
/// so recording never pauses the load for longer than the one CPU-time
/// reading a window boundary costs.
#[derive(Debug, Default)]
pub struct Recorder {
    samples: Vec<u32>,
    /// `ends[w]` = `samples.len()` when window `w` closed.
    ends: Vec<usize>,
    /// Process CPU time at the start and at each window's close.
    cpu_marks: Vec<u64>,
    next_boundary: u64,
    windows_left: usize,
}

impl Recorder {
    /// A recorder with room for `capacity` samples. The fill is not 0, so
    /// that every page is written now and the measured phase takes no
    /// page faults for them.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut samples = vec![1u32; capacity];
        samples.clear();
        Recorder {
            samples,
            ..Recorder::default()
        }
    }

    /// Opens `windows` windows starting at `t_ns`, the process having
    /// used `cpu_ns` of CPU so far.
    pub fn start(&mut self, t_ns: u64, windows: usize, cpu_ns: u64) {
        self.samples.clear();
        self.ends.clear();
        self.cpu_marks = vec![cpu_ns];
        self.next_boundary = t_ns + WINDOW_NS;
        self.windows_left = windows;
    }

    /// Records a round trip of `lat_ns` in the open window; dropped while
    /// no window is open (before `start`, after the last window).
    #[inline]
    pub fn push(&mut self, lat_ns: u64) {
        if self.windows_left > 0 {
            self.samples.push(lat_ns.min(u32::MAX as u64) as u32);
        }
    }

    /// Closes every window that ended at or before `t_ns`, reading the
    /// process CPU time with `cpu_ns` if one did.
    #[inline]
    pub fn advance(&mut self, t_ns: u64, cpu_ns: impl FnOnce() -> u64) {
        if self.windows_left > 0 && t_ns >= self.next_boundary {
            let cpu_ns = cpu_ns();
            while self.windows_left > 0 && t_ns >= self.next_boundary {
                self.ends.push(self.samples.len());
                self.cpu_marks.push(cpu_ns);
                self.next_boundary += WINDOW_NS;
                self.windows_left -= 1;
            }
        }
    }

    /// Whether every window has closed.
    pub fn done(&self) -> bool {
        self.windows_left == 0
    }

    /// Samples of the closed windows, in completion order.
    pub fn samples(&self) -> &[u32] {
        &self.samples[..self.ends.last().copied().unwrap_or(0)]
    }

    /// Per-window statistics of the closed windows.
    pub fn window_stats(&self) -> Vec<WindowStat> {
        let mut start = 0;
        self.ends
            .iter()
            .zip(self.cpu_marks.windows(2))
            .map(|(&end, cpu)| {
                let mut w = self.samples[start..end].to_vec();
                start = end;
                WindowStat {
                    completed: w.len(),
                    p50_ns: nearest_rank(&mut w, 0.50),
                    p90_ns: nearest_rank(&mut w, 0.90),
                    cpu_ns: cpu[1] - cpu[0],
                }
            })
            .collect()
    }
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The payload of request `id` under `seed`: what the echo must return.
#[inline]
pub fn payload(seed: u64, id: u64) -> f64 {
    (mix(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
}

/// Due times (ns from the schedule's origin, ascending) of Poisson
/// arrivals at `rate_per_s` covering `duration_ns`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((duration_ns as f64 / mean_gap_ns * 1.01) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// One request's trace: `t0` the client's send (its due time in the open
/// loop), `t1` the server handler's stamp, `t3` the reply in the client's
/// hand — all on one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub t0: u64,
    pub t1: u64,
    pub t3: u64,
}

impl Span {
    /// `None` unless `t0 <= t1 <= t3` (a stamp from another request, or a
    /// clock that ran backwards, would break the order).
    pub fn checked(id: u64, t0: u64, t1: u64, t3: u64) -> Option<Span> {
        (t0 <= t1 && t1 <= t3).then_some(Span { id, t0, t1, t3 })
    }

    pub fn request_hop(&self) -> u64 {
        self.t1 - self.t0
    }

    pub fn reply_hop(&self) -> u64 {
        self.t3 - self.t1
    }
}

/// Where the server's handler leaves its `t1` stamps for the client to
/// join by request id (`aux`). A fixed table indexed by `id % SLOTS`; a
/// slot keeps the id it was stamped for, so a join can tell its own stamp
/// from another request's.
#[derive(Debug)]
pub struct StampTable {
    slots: Vec<(AtomicU64, AtomicU64)>,
}

/// More than the 64 x 64 requests the mux topology can hold in flight.
const STAMP_SLOTS: usize = 1 << 13;

impl Default for StampTable {
    fn default() -> Self {
        StampTable {
            slots: (0..STAMP_SLOTS)
                .map(|_| (AtomicU64::new(u64::MAX), AtomicU64::new(0)))
                .collect(),
        }
    }
}

impl StampTable {
    /// Handler side: request `id` was in the handler at `t_ns`.
    #[inline]
    pub fn stamp(&self, id: u64, t_ns: u64) {
        let (tag, t) = &self.slots[id as usize % STAMP_SLOTS];
        t.store(t_ns, Ordering::Relaxed);
        // Release: pairs with the Acquire in `take`, publishing `t`.
        tag.store(id, Ordering::Release);
    }

    /// Client side: the handler's stamp for request `id`, if the slot
    /// still holds it.
    #[inline]
    pub fn take(&self, id: u64) -> Option<u64> {
        let (tag, t) = &self.slots[id as usize % STAMP_SLOTS];
        (tag.load(Ordering::Acquire) == id).then(|| t.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_ceil_rank_of_the_sorted_data() {
        let mut v: Vec<u32> = (1..=10).rev().collect();
        assert_eq!(nearest_rank(&mut v, 0.50), Some(5));
        assert_eq!(nearest_rank(&mut v, 0.90), Some(9));
        assert_eq!(nearest_rank(&mut v, 0.91), Some(10));
        assert_eq!(nearest_rank(&mut v, 1.0), Some(10));
        assert_eq!(nearest_rank(&mut v, 0.001), Some(1));
        assert_eq!(nearest_rank(&mut [7], 0.5), Some(7));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn recorder_cuts_windows_and_charges_each_its_cpu_time() {
        let mut r = Recorder::with_capacity(16);
        r.push(999); // before start: dropped
        r.start(1_000, 3, 50);
        r.push(100);
        r.push(300);
        r.advance(1_000 + WINDOW_NS - 1, || {
            unreachable!("no boundary crossed")
        });
        r.advance(1_000 + WINDOW_NS, || 70);
        r.push(9_000_000);
        r.advance(1_000 + 2 * WINDOW_NS + 5, || 100);
        r.push(100);
        r.push(200);
        r.push(300);
        assert!(!r.done());
        r.advance(1_000 + 3 * WINDOW_NS, || 160);
        assert!(r.done());
        r.push(42); // after the last window: dropped
        let w = r.window_stats();
        assert_eq!(w.iter().map(|w| w.completed).collect::<Vec<_>>(), [2, 1, 3]);
        assert_eq!(w.iter().map(|w| w.cpu_ns).collect::<Vec<_>>(), [20, 30, 60]);
        assert_eq!((w[0].p50_ns, w[0].p90_ns), (Some(100), Some(300)));
        assert_eq!(w[1].p50_ns, Some(9_000_000));
        assert_eq!(r.samples().len(), 6);
    }

    #[test]
    fn recorder_closes_the_windows_a_stall_skipped() {
        let mut r = Recorder::with_capacity(4);
        r.start(0, 2, 0);
        r.advance(2 * WINDOW_NS, || 7);
        assert!(r.done());
        let w = r.window_stats();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].completed, w[0].p50_ns, w[0].cpu_ns), (0, None, 7));
        assert_eq!(w[1].cpu_ns, 0);
    }

    #[test]
    fn window_medians_resist_a_stalled_window() {
        let window = |completed, p50, p90, cpu_ns| WindowStat {
            completed,
            p50_ns: Some(p50),
            p90_ns: Some(p90),
            cpu_ns,
        };
        let idle = WindowStat {
            completed: 0,
            p50_ns: None,
            p90_ns: None,
            cpu_ns: 5,
        };
        let windows = [
            window(1000, 4_000, 5_000, 4_000_000),
            window(10, 9_000_000, 90_000_000, 1_000_000), // the stall
            window(1002, 4_200, 5_400, 4_008_000),
            idle,
        ];
        let m = window_medians(&windows).unwrap();
        assert_eq!(m.rt_per_s, 505.0, "the idle window counts as a rate of 0");
        assert_eq!(m.p50_us, 4.2);
        assert_eq!(m.p90_us, 5.4);
        assert_eq!(
            m.cpu_us_per_rt, 4.0,
            "idle windows have no cost per round trip"
        );
        assert_eq!(window_medians(&[]), None);
        assert_eq!(window_medians(&[idle]), None, "nothing completed");
    }

    #[test]
    fn poisson_schedule_repeats_per_seed_and_hits_its_rate() {
        let a = poisson_schedule(7, 100_000.0, 5 * WINDOW_NS);
        assert_eq!(a, poisson_schedule(7, 100_000.0, 5 * WINDOW_NS));
        assert_ne!(a, poisson_schedule(8, 100_000.0, 5 * WINDOW_NS));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 5 * WINDOW_NS);
        let rate = a.len() as f64 / 5.0;
        assert!((rate / 100_000.0 - 1.0).abs() < 0.01, "mean rate {rate}");
    }

    #[test]
    fn payload_depends_on_seed_and_id() {
        assert_eq!(payload(1, 2).to_bits(), payload(1, 2).to_bits());
        assert_ne!(payload(1, 2).to_bits(), payload(1, 3).to_bits());
        assert_ne!(payload(1, 2).to_bits(), payload(2, 2).to_bits());
        assert!(payload(1, 2).is_finite());
    }

    #[test]
    fn spans_join_by_id_and_hops_sum_to_the_round_trip() {
        let table = StampTable::default();
        table.stamp(5, 150);
        table.stamp(6, 260);
        assert_eq!(table.take(5), Some(150));
        assert_eq!(table.take(6), Some(260));
        assert_eq!(table.take(7), None, "never stamped");
        // An id that maps to the same slot overwrites it: the older
        // request's join must miss, not read the newer stamp.
        table.stamp(5 + STAMP_SLOTS as u64, 999);
        assert_eq!(table.take(5), None);

        let s = Span::checked(6, 200, table.take(6).unwrap(), 300).unwrap();
        assert_eq!((s.request_hop(), s.reply_hop()), (60, 40));
        assert_eq!(
            s.request_hop() + s.reply_hop(),
            s.t3 - s.t0,
            "the round trip"
        );
        assert_eq!(Span::checked(1, 200, 150, 300), None, "stamp before send");
        assert_eq!(Span::checked(1, 200, 350, 300), None, "stamp after reply");
    }
}
