//! The one bounded wait: every join, reap and quiescence poll in the lab
//! goes through [`Watchdog::until`], so a protocol bug (or an injected
//! fault the failure model failed to contain) produces a diagnosable panic
//! instead of a hung process that CI has to `SIGKILL` reportlessly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use usipc::{FlightRecorder, TraceRegistry, UnifiedTrace};

/// How long a world waits before declaring an experiment wedged. Generous —
/// a healthy cell finishes in well under a second — but bounded.
pub const WATCHDOG_JOIN: Duration = Duration::from_secs(30);

/// A participant of a bounded wait: display name, platform task id (the key
/// its trace records carry) and the thing waited on.
pub type Named<T> = (String, u32, T);

/// Where a firing watchdog reads each wedged participant's last event.
#[derive(Debug, Clone, Copy, Default)]
pub enum Evidence<'a> {
    /// Nothing was recording.
    #[default]
    None,
    /// The world's per-thread trace rings (heap; threads of this process).
    Traces(&'a TraceRegistry),
    /// The world's flight recorder (shared memory; forked children too, and
    /// a SIGKILLed child's records survive it).
    Flight(&'a FlightRecorder),
}

/// A bounded wait. The bound starts when the value is built, so several
/// waits on one `Watchdog` share one deadline.
#[derive(Debug, Clone, Copy)]
pub struct Watchdog<'a> {
    timeout: Duration,
    deadline: Instant,
    tick: Duration,
    evidence: Evidence<'a>,
}

impl<'a> Watchdog<'a> {
    /// A watchdog firing `timeout` from now, with no evidence to quote.
    pub fn new(timeout: Duration) -> Self {
        Watchdog {
            timeout,
            deadline: Instant::now() + timeout,
            tick: Duration::from_millis(2),
            evidence: Evidence::None,
        }
    }

    /// Sets the pause between polls (2 ms by default, which leaves the CPUs
    /// to the workload); zero yields instead of sleeping, for a wait that
    /// sits inside a measured window.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Quotes each wedged participant's last event from `evidence`.
    pub fn with_evidence(mut self, evidence: Evidence<'a>) -> Self {
        self.evidence = evidence;
        self
    }

    /// Polls `done` every tick until it holds; `false` once the bound has
    /// passed with it still failing.
    pub fn until(&self, mut done: impl FnMut() -> bool) -> bool {
        while !done() {
            if Instant::now() >= self.deadline {
                return false;
            }
            if self.tick.is_zero() {
                std::thread::yield_now();
            } else {
                std::thread::sleep(self.tick);
            }
        }
        true
    }

    /// What a fired watchdog panics with: one line per `wedged` participant
    /// (name, task id), each with the last event it recorded before going
    /// quiet — usually enough to identify a lost sleep/wake-up race without
    /// a debugger — and, when there is evidence, the path of the whole
    /// collected trace, written as Chrome JSON (loadable in Perfetto) to
    /// `usipc-watchdog-<pid>-<n>.trace.json` in [`std::env::temp_dir`].
    pub fn report(&self, wedged: &[(String, u32)]) -> String {
        let names: Vec<(u32, String)> = wedged.iter().map(|(n, id)| (*id, n.clone())).collect();
        let trace = match self.evidence {
            Evidence::None => None,
            Evidence::Traces(t) => Some(t.collect(&names)),
            Evidence::Flight(f) => Some(f.collect(&names)),
        };
        let mut report = format!(
            "watchdog: {} participant(s) still running after {:?}:",
            wedged.len(),
            self.timeout
        );
        for (name, id) in wedged {
            let last = trace
                .as_ref()
                .and_then(|ut| ut.records.iter().rev().find(|r| r.task_id == *id));
            match last {
                Some(r) => {
                    report += &format!(
                        "\n  {name} wedged; last trace point {:?} at {} ns",
                        r.point, r.ts_nanos
                    );
                }
                None => {
                    report += &format!("\n  {name} wedged (no trace records; rerun with tracing)")
                }
            }
        }
        if let Some(trace) = &trace {
            report += &match write_trace(trace) {
                Ok(path) => format!("\n  full trace: {}", path.display()),
                Err(e) => format!("\n  full trace not written: {e}"),
            };
        }
        report
    }

    /// Joins two casts of threads under the one bound, returning their
    /// values in spawn order. A thread that panicked has its panic re-raised
    /// verbatim the moment it is seen finished — before the bound, because
    /// it is usually *why* a sibling is wedged.
    pub fn join2<S, C>(
        &self,
        servers: Vec<Named<JoinHandle<S>>>,
        clients: Vec<Named<JoinHandle<C>>>,
    ) -> (Vec<S>, Vec<C>) {
        let mut a = Sweep::new(servers);
        let mut b = Sweep::new(clients);
        if !self.until(|| a.sweep() & b.sweep()) {
            let wedged: Vec<_> = a.names().chain(b.names()).collect();
            panic!("{}", self.report(&wedged));
        }
        (a.finish(), b.finish())
    }

    /// [`join2`](Self::join2) for one cast.
    pub fn join<T>(&self, named: Vec<Named<JoinHandle<T>>>) -> Vec<T> {
        self.join2(named, Vec::<Named<JoinHandle<()>>>::new()).0
    }

    /// Reaps forked children under the bound, in spawn order. When it
    /// fires, the wedged children are killed and reaped first, so a
    /// protocol bug fails the run instead of leaking a process.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    pub fn reap(&self, children: Vec<Named<usipc::ChildProc>>) -> Vec<usipc::ExitStatus> {
        let dead = |(_, _, child): &Named<usipc::ChildProc>| child.dead_within(Duration::ZERO);
        let report = (!self.until(|| children.iter().all(dead))).then(|| {
            let wedged: Vec<_> = children.iter().filter(|c| !dead(c)).collect();
            wedged.iter().for_each(|(_, _, child)| child.kill());
            let names: Vec<_> = wedged.iter().map(|(n, id, _)| (n.clone(), *id)).collect();
            self.report(&names)
        });
        let exits = children.into_iter().map(|(name, _, child)| {
            child
                .wait()
                .unwrap_or_else(|e| panic!("wait({name}): {e:?}"))
        });
        let exits = exits.collect();
        if let Some(report) = report {
            panic!("{report}");
        }
        exits
    }
}

/// Writes `trace` as Chrome JSON to a file of its own in the temp directory.
fn write_trace(trace: &UnifiedTrace) -> std::io::Result<PathBuf> {
    static WRITTEN: AtomicU64 = AtomicU64::new(0);
    let n = WRITTEN.fetch_add(1, Ordering::Relaxed);
    let file = format!("usipc-watchdog-{}-{n}.trace.json", std::process::id());
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, trace.to_chrome_json())?;
    Ok(path)
}

/// The joined-so-far state of one cast of threads.
struct Sweep<T> {
    done: Vec<Option<T>>,
    pending: Vec<(usize, Named<JoinHandle<T>>)>,
}

impl<T> Sweep<T> {
    fn new(named: Vec<Named<JoinHandle<T>>>) -> Self {
        Sweep {
            done: named.iter().map(|_| None).collect(),
            pending: named.into_iter().enumerate().collect(),
        }
    }

    /// Joins every finished thread (re-raising its panic); whether none is
    /// left running.
    fn sweep(&mut self) -> bool {
        let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|(_, (_, _, h))| h.is_finished());
        for (slot, (_, _, h)) in finished {
            self.done[slot] = Some(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        self.pending = running;
        self.pending.is_empty()
    }

    /// The threads still running.
    fn names(&self) -> impl Iterator<Item = (String, u32)> + '_ {
        self.pending.iter().map(|(_, (n, id, _))| (n.clone(), *id))
    }

    fn finish(self) -> Vec<T> {
        self.done.into_iter().map(|v| v.expect("joined")).collect()
    }
}

/// The trace file a watchdog report names, read back and deleted.
#[cfg(test)]
pub(crate) fn take_trace_file(report: &str) -> String {
    let path = report
        .lines()
        .find_map(|l| l.trim().strip_prefix("full trace: "))
        .unwrap_or_else(|| panic!("no trace file named: {report}"));
    let json = std::fs::read_to_string(path).expect("the named trace file");
    std::fs::remove_file(path).expect("remove the trace file");
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use usipc::metrics::ProtoEvent;
    use usipc::{Span, TracePoint};

    fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("a string payload")
    }

    /// A thread that stays parked until the returned sender is dropped.
    fn parked() -> (mpsc::Sender<()>, JoinHandle<()>) {
        let (tx, rx) = mpsc::channel::<()>();
        (
            tx,
            std::thread::spawn(move || {
                let _ = rx.recv();
            }),
        )
    }

    #[test]
    fn a_wedged_thread_is_named_with_its_last_trace_point() {
        let traces = TraceRegistry::new(16);
        let ring = traces.for_task(7);
        ring.record(1000, TracePoint::Begin(Span::RoundTrip));
        ring.record(1100, TracePoint::Begin(Span::Block));
        ring.record(1234, TracePoint::Proto(ProtoEvent::BlockEntered));
        let (release, wedged) = parked();
        let healthy = std::thread::spawn(|| ());
        let fired = catch_unwind(AssertUnwindSafe(|| {
            Watchdog::new(Duration::from_millis(50))
                .with_evidence(Evidence::Traces(&traces))
                .join(vec![
                    ("sleeper".into(), 7, wedged),
                    ("bystander".into(), 8, healthy),
                ])
        }));
        drop(release);
        let report = panic_text(fired.expect_err("the watchdog must fire"));
        assert!(
            report.contains("1 participant(s) still running after 50ms"),
            "{report}"
        );
        assert!(
            report.contains("sleeper wedged; last trace point Proto(BlockEntered) at 1234 ns"),
            "{report}"
        );
        assert!(!report.contains("bystander"), "{report}");
        // The whole trace is on disk, its spans closed at the last event.
        let json = take_trace_file(&report);
        let begins = json.matches("\"ph\":\"B\"").count();
        assert_eq!(begins, 2, "{json}");
        assert_eq!(json.matches("\"ph\":\"E\"").count(), begins, "{json}");
        assert!(json.contains("\"name\":\"sleeper\""), "{json}");
    }

    #[test]
    fn without_evidence_the_report_says_so() {
        let (release, wedged) = parked();
        let fired = catch_unwind(AssertUnwindSafe(|| {
            Watchdog::new(Duration::from_millis(20)).join(vec![("sleeper".into(), 0, wedged)])
        }));
        drop(release);
        let report = panic_text(fired.expect_err("the watchdog must fire"));
        assert!(
            report.contains("sleeper wedged (no trace records"),
            "{report}"
        );
    }

    #[test]
    fn a_siblings_panic_is_re_raised_verbatim_before_the_bound() {
        let (release, wedged) = parked();
        let sibling = std::thread::spawn(|| panic!("sibling exploded"));
        let t0 = Instant::now();
        let fired = catch_unwind(AssertUnwindSafe(|| {
            Watchdog::new(Duration::from_secs(20)).join2(
                vec![("sleeper".into(), 0, wedged)],
                vec![("sibling".into(), 1, sibling)],
            )
        }));
        drop(release);
        assert_eq!(
            panic_text(fired.expect_err("re-raised")),
            "sibling exploded"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "did not wait out the bound"
        );
    }

    #[test]
    fn values_come_back_in_spawn_order() {
        let slow = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            1
        });
        let fast = std::thread::spawn(|| 2);
        let got = Watchdog::new(WATCHDOG_JOIN)
            .join(vec![("slow".into(), 0, slow), ("fast".into(), 1, fast)]);
        assert_eq!(got, [1, 2]);
    }
}
