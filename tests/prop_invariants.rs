//! Property-based tests on the core data structures and the simulator.
//!
//! Self-contained randomized testing: cases are generated from a
//! deterministic SplitMix64 stream (no external property-testing
//! dependency, so the suite builds with a cold registry). Every failure
//! message includes the case seed, which reproduces the exact sequence.

use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;
use usipc::{IpcError, Message, NativeConfig, NativeOs, WaitSet, WaitSetRoot, WaitStrategy};
use usipc_lab::{Mechanism, SimExperiment};
use usipc_queue::{AnyShmFifo, Elem, EnqueueFlow, QueueKind, RingMode, LOCK_BUDGET};
use usipc_shm::{ShmArena, TaggedAtomicPtr, TaggedPtr};
use usipc_sim::{MachineModel, PolicyKind, VDur};

/// Deterministic 64-bit generator (SplitMix64): good enough dispersion for
/// test-case generation, trivially reproducible from the printed seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// One step of a single-threaded queue workout.
#[derive(Debug, Clone, Copy)]
enum Op {
    Enqueue(Elem),
    Dequeue,
}

fn random_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.range(0, 200) as usize;
    (0..len)
        .map(|_| {
            if rng.next().is_multiple_of(2) {
                // Raw bit patterns in all three words: the queue carries
                // them verbatim, whatever they would decode to.
                Op::Enqueue([rng.next(), rng.next(), rng.next()])
            } else {
                Op::Dequeue
            }
        })
        .collect()
}

/// Runs an op sequence against both a real queue — through the view of an
/// [`AnyShmFifo`], which every channel runs its queues on — and a VecDeque
/// model with the same capacity; every observation must match.
fn check_against_model(kind: QueueKind, mode: RingMode, capacity: usize, ops: &[Op]) {
    let arena = ShmArena::new(1 << 21).unwrap();
    let q = AnyShmFifo::create(&arena, capacity, kind, mode).unwrap();
    let q = q.view(&arena).unwrap();
    let mut model: VecDeque<Elem> = VecDeque::new();
    // Ring capacities may round up; learn the effective capacity lazily.
    let mut effective_cap = None;
    for &op in ops {
        match op {
            Op::Enqueue(v) => {
                let flow = q.try_enqueue_elem(v, LOCK_BUDGET);
                assert!(
                    matches!(flow, EnqueueFlow::Queued | EnqueueFlow::Full),
                    "single-threaded enqueue met a fault outcome: {flow:?}"
                );
                if flow == EnqueueFlow::Queued {
                    model.push_back(v);
                    assert!(
                        effective_cap.is_none_or(|c| model.len() <= c),
                        "queue exceeded its learned capacity"
                    );
                } else {
                    // Refusal is only legal at (or beyond) the requested
                    // capacity; remember the smallest refusal point.
                    assert!(
                        model.len() >= capacity,
                        "refused an enqueue below the requested capacity ({} < {capacity})",
                        model.len()
                    );
                    effective_cap.get_or_insert(model.len());
                }
            }
            Op::Dequeue => {
                assert_eq!(q.dequeue_elem(), model.pop_front(), "FIFO order differs");
            }
        }
        assert_eq!(q.len(), model.len(), "length diverged");
        assert_eq!(q.is_empty(), model.is_empty());
    }
    // Drain and compare the tails.
    while let Some(expect) = model.pop_front() {
        assert_eq!(q.dequeue_elem(), Some(expect));
    }
    assert_eq!(q.dequeue_elem(), None);
}

/// 64 random (capacity, op-sequence) cases against the model.
fn queue_matches_model(kind: QueueKind, mode: RingMode, tag: u64) {
    for case in 0..64u64 {
        let seed = tag ^ (case << 8);
        let mut rng = Rng::new(seed);
        let capacity = rng.range(1, 12) as usize;
        let ops = random_ops(&mut rng);
        // A panic inside carries the seed via this scope's message below.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            check_against_model(kind, mode, capacity, &ops)
        }));
        if let Err(e) = r {
            panic!(
                "case seed {seed:#x} (capacity {capacity}, {} ops): {e:?}",
                ops.len()
            );
        }
    }
}

// The two queues a channel can run on, the ring in both producer modes
// (the shared receive queue is MPSC, a reply queue SPSC).

#[test]
fn shm_two_lock_matches_model() {
    queue_matches_model(QueueKind::TwoLock, RingMode::Spsc, 0x5157_0001);
}

#[test]
fn spsc_ring_matches_model() {
    queue_matches_model(QueueKind::Ring, RingMode::Spsc, 0x5157_0003);
}

#[test]
fn mpsc_ring_matches_model() {
    queue_matches_model(QueueKind::Ring, RingMode::Mpsc, 0x5157_0004);
}

/// No torn message, ever: a producer and a consumer on two threads push
/// elements whose three words only belong together through queues so
/// shallow (capacity 2 and 4) that every slot or node laps thousands of
/// times. The consumer must see each enqueue's three words whole, in FIFO
/// order. Meaningful under `--release`, where the words really race; CI
/// runs it that way.
#[test]
fn no_torn_message_between_two_threads() {
    let n: u64 = if cfg!(debug_assertions) {
        40_000
    } else {
        400_000
    };
    let elem = |i: u64| -> Elem { [i, !i, i.rotate_left(17)] };
    // A miss spins briefly, then yields: on one CPU the peer needs the core.
    let pause = |misses: &mut u32| {
        *misses += 1;
        if misses.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    };
    for (kind, mode) in [
        (QueueKind::Ring, RingMode::Spsc),
        (QueueKind::Ring, RingMode::Mpsc),
        (QueueKind::TwoLock, RingMode::Spsc),
    ] {
        for capacity in [2usize, 4] {
            let arena = ShmArena::new(1 << 16).unwrap();
            let q = AnyShmFifo::create(&arena, capacity, kind, mode).unwrap();
            let q = q.view(&arena).unwrap();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let mut misses = 0;
                    for i in 0..n {
                        while q.try_enqueue_elem(elem(i), LOCK_BUDGET) != EnqueueFlow::Queued {
                            pause(&mut misses);
                        }
                    }
                });
                // Keep consuming past a bad element — the producer needs
                // the room to finish — and fail once both are done.
                let (mut misses, mut first_bad) = (0, None);
                for i in 0..n {
                    let got = loop {
                        match q.dequeue_elem() {
                            Some(e) => break e,
                            None => pause(&mut misses),
                        }
                    };
                    if got != elem(i) {
                        first_bad.get_or_insert((i, got));
                    }
                }
                assert_eq!(
                    first_bad, None,
                    "{kind:?}/{mode:?} capacity {capacity}: (index, element) torn or out of order"
                );
            });
            assert_eq!(q.dequeue_elem(), None);
        }
    }
}

#[test]
fn arena_allocations_are_disjoint_and_stable() {
    for case in 0..64u64 {
        let mut rng = Rng::new(0xA4E_A000 ^ case);
        let sizes: Vec<usize> = (0..rng.range(1, 40))
            .map(|_| rng.range(1, 128) as usize)
            .collect();
        let arena = ShmArena::new(1 << 20).unwrap();
        let mut claims: Vec<(u32, usize, u8)> = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let fill = (i % 251) as u8;
            let s = arena.alloc_slice(n, |_| fill).unwrap();
            claims.push((s.raw(), n, fill));
        }
        // No overlap, every byte still holds its fill value.
        let mut ranges: Vec<(u32, u32)> = claims
            .iter()
            .map(|&(off, n, _)| (off, off + n as u32))
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "case {case}: allocations overlap: {w:?}");
        }
        for &(off, n, fill) in &claims {
            let s = usipc_shm::ShmSlice::<u8>::from_raw(off, n as u32);
            for &b in arena.get_slice(s) {
                assert_eq!(b, fill, "case {case}");
            }
        }
    }
}

#[test]
fn tagged_ptr_roundtrips() {
    let mut rng = Rng::new(0x007A_66ED);
    for _ in 0..256 {
        let off = rng.next() as u32;
        let tag = rng.next() as u32;
        let p = TaggedPtr::new(off, tag);
        let cell = TaggedAtomicPtr::new(p);
        assert_eq!(cell.load(std::sync::atomic::Ordering::Relaxed), p);
        let bumped = p.bumped(off ^ 0xffff);
        assert_eq!(bumped.tag, tag.wrapping_add(1));
        assert_eq!(bumped.off, off ^ 0xffff);
    }
}

#[test]
fn message_kmsg_roundtrips() {
    let mut rng = Rng::new(0x004D_5347);
    for case in 0..256 {
        let opcode = rng.next() as u32;
        let channel = rng.next() as u32;
        // Include adversarial float bit patterns: NaNs, infinities,
        // subnormals all come out of the raw bit stream.
        let value = f64::from_bits(rng.next());
        let aux = rng.next();
        let m = Message {
            opcode,
            channel,
            value,
            aux,
        };
        let back = Message::from_kmsg(m.to_kmsg());
        assert_eq!(back.opcode, opcode, "case {case}");
        assert_eq!(back.channel, channel, "case {case}");
        assert_eq!(back.aux, aux, "case {case}");
        if value.is_nan() {
            assert!(back.value.is_nan(), "case {case}");
        } else {
            assert_eq!(back.value, value, "case {case}");
        }
    }
}

// Whole-simulation properties are costly (each case runs two complete
// simulations on a thread-per-process engine); keep the case count low —
// the deterministic integration tests cover the grid densely anyway.

#[test]
fn any_strategy_any_shape_completes_and_is_deterministic() {
    let mut rng = Rng::new(0x51_4D00);
    for case in 0..4 {
        let strategy = [
            WaitStrategy::Bss,
            WaitStrategy::Bsw,
            WaitStrategy::Bswy,
            WaitStrategy::Bsls { max_spin: 2 },
            WaitStrategy::Bsls { max_spin: 9 },
            WaitStrategy::HandoffBswy,
        ][rng.range(0, 6) as usize];
        let clients = rng.range(1, 3) as usize;
        let msgs = rng.range(5, 20);
        let machine = [
            MachineModel::sgi_indy(),
            MachineModel::ibm_p4(),
            MachineModel::sgi_challenge8(),
        ][rng.range(0, 3) as usize]
            .clone();
        let exp = SimExperiment::new(
            machine,
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(strategy),
        )
        .clients(clients)
        .messages(msgs)
        .jitter(VDur::micros((msgs % 7) * 10));
        let a = exp.run();
        let b = exp.run();
        assert_eq!(a.messages, msgs * clients as u64, "case {case}");
        assert_eq!(a.elapsed, b.elapsed, "case {case}: determinism");
        assert_eq!(
            a.report.total_switches, b.report.total_switches,
            "case {case}"
        );
    }
}

#[test]
fn semaphore_credits_never_accumulate_in_bsw() {
    let mut rng = Rng::new(0x42_5357);
    for case in 0..4 {
        let clients = rng.range(1, 3) as usize;
        let msgs = rng.range(5, 20);
        let exp = SimExperiment::new(
            MachineModel::sgi_indy(),
            PolicyKind::degrading_default(),
            Mechanism::UserLevel(WaitStrategy::Bsw),
        )
        .clients(clients)
        .messages(msgs);
        let r = exp.run();
        for (i, s) in r.report.sems.iter().enumerate() {
            assert!(
                s.max_count <= 2,
                "case {case}: sem {i} accumulated {} credits",
                s.max_count
            );
            assert_eq!(s.waiting, 0, "case {case}: no one left blocked");
        }
    }
}

/// Reference model of one WaitSet driven from a single thread: the ready
/// set, the pending latch, the doorbell credits, and the three counters
/// the doorbell budget is stated in.
#[derive(Default)]
struct WaitSetModel {
    ready: BTreeSet<usize>,
    latch: bool,
    credits: u64,
    rung: u64,
    coalesced: u64,
    wakes: u64,
}

impl WaitSetModel {
    fn notify(&mut self, s: usize) {
        // Only the 0→non-zero edge of the source's 64-bit word reaches the
        // latch, and only a free latch rings.
        let word_idle = self.ready.range(s / 64 * 64..(s / 64 + 1) * 64).count() == 0;
        self.ready.insert(s);
        if word_idle && !self.latch {
            self.latch = true;
            self.credits += 1;
            self.rung += 1;
        } else {
            self.coalesced += 1;
        }
    }

    /// Round-robin: the first ready source at-or-after the cursor, else
    /// the lowest one.
    fn poll(&mut self, cursor: usize) -> Option<usize> {
        let s = self
            .ready
            .range(cursor..)
            .next()
            .or_else(|| self.ready.iter().next())
            .copied()?;
        self.ready.remove(&s);
        Some(s)
    }

    /// A zero-length bounded wait: polls, and failing that absorbs a
    /// banked doorbell credit (closing the wake cycle) before timing out.
    fn wait_zero(&mut self, cursor: usize) -> Option<usize> {
        let got = self.poll(cursor);
        if got.is_none() && self.credits > 0 {
            self.credits -= 1;
            self.wakes += 1;
            self.latch = false;
        }
        got
    }
}

#[test]
fn waitset_bitmap_matches_model() {
    // Sizes on both sides of every word boundary: 1 word (partly and
    // exactly full), 2 words (one bit and all bits in the second), 3.
    for (tag, n) in [1usize, 64, 65, 128, 130].into_iter().enumerate() {
        let seed = 0x5753_0000 + tag as u64;
        let mut rng = Rng::new(seed);
        let arena = ShmArena::new(WaitSetRoot::bytes_needed(n)).unwrap();
        let ws = WaitSet::attach(&arena, WaitSetRoot::create_in(&arena, n, 0).unwrap());
        let mut cfg = NativeConfig::for_clients(0);
        cfg.n_sems = 1;
        let os = NativeOs::new(cfg);
        let task = os.task(0);
        let mut model = WaitSetModel::default();
        let (mut cursor, mut notifies) = (0usize, 0u64);

        for step in 0..4_000 {
            let ctx = format!("n {n} seed {seed:#x} step {step}");
            match rng.range(0, 10) {
                0..=4 => {
                    let s = rng.range(0, n as u64) as usize;
                    ws.notify(&task, s);
                    model.notify(s);
                    notifies += 1;
                }
                5..=7 => {
                    let want = model.poll(cursor);
                    assert_eq!(ws.poll(&mut cursor), want, "{ctx}: poll");
                }
                8 => {
                    let want = model.wait_zero(cursor).ok_or(IpcError::Timeout);
                    let got = ws.wait_deadline(&task, &mut cursor, Duration::ZERO);
                    assert_eq!(got, want, "{ctx}: wait_deadline");
                }
                _ => {
                    // Everyone ready, then a full rotation from wherever
                    // the cursor stands: fairness across word boundaries.
                    for s in 0..n {
                        ws.notify(&task, s);
                        model.notify(s);
                        notifies += 1;
                    }
                    let start = cursor;
                    for i in 0..n {
                        let want = model.poll(cursor);
                        assert_eq!(want, Some((start + i) % n), "{ctx}: model order");
                        assert_eq!(ws.poll(&mut cursor), want, "{ctx}: rotation");
                    }
                    assert_eq!(ws.poll(&mut cursor), None, "{ctx}: drained");
                }
            }
            let m = os.metrics().unwrap().task_snapshot(0);
            assert_eq!(
                (m.doorbells_rung, m.doorbells_coalesced, m.waitset_wakes),
                (model.rung, model.coalesced, model.wakes),
                "{ctx}: counters"
            );
            assert_eq!(m.doorbells_rung + m.doorbells_coalesced, notifies, "{ctx}");
            assert!(m.doorbells_rung <= m.waitset_wakes + 1, "{ctx}: budget");
        }
        assert_eq!(u64::from(os.sem_finals()[0].count), model.credits, "n {n}");
    }
}
