//! Machine-checking the Fig. 4 races: drive the schedule-space explorer
//! over the named race scenarios, the full protocols and the mux worker,
//! and report schedules explored / distinct terminal states /
//! counterexamples.
//!
//! This is the CI teeth for the paper's §3 correctness argument: the stock
//! protocol rows must report **zero** counterexamples over the exhaustively
//! enumerated bounded schedule space, and the mutant rows (the consumer
//! without the re-check, the producer without the `tas` guard) must report
//! **at least one**, each with a printed decision string that replays the
//! violation deterministically. Either direction failing panics the
//! experiment — a silent explorer is as much a regression as a racy
//! protocol.

use super::{ExperimentOutput, RunOpts};
use crate::table::Table;
use core::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use usipc::scenarios::{
    echo_scenario, mux_scenario, ConsumerKind, Fig4Scenario, ProducerKind, ALL_INTERLEAVINGS,
};
use usipc::WaitStrategy;
use usipc_sim::{ExploreReport, Explorer, ScenarioCheck, SimBuilder};

/// Whether a scenario is expected to survive exploration or to be caught.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Clean,
    Counterexample,
}

struct Row {
    name: &'static str,
    expect: Expect,
    report: ExploreReport,
    /// Bitmask over [`ALL_INTERLEAVINGS`] of interleavings exhibited.
    seen: u32,
}

/// Runs one exploration, tracking which Fig. 4 interleavings at least one
/// schedule exhibited (from the scenario's mark history).
fn explore(
    name: &'static str,
    expect: Expect,
    ex: &Explorer,
    mut scenario: impl FnMut(&mut SimBuilder) -> ScenarioCheck,
) -> Row {
    let seen = Arc::new(AtomicU32::new(0));
    let seen2 = Arc::clone(&seen);
    let report = ex.run(move |b| {
        let check = scenario(b);
        let seen = Arc::clone(&seen2);
        Box::new(move |r| {
            for (i, il) in ALL_INTERLEAVINGS.iter().enumerate() {
                if il.exhibited(r) {
                    seen.fetch_or(1 << i, Ordering::Relaxed);
                }
            }
            check(r)
        })
    });
    Row {
        name,
        expect,
        report,
        seen: seen.load(Ordering::Relaxed),
    }
}

pub(super) fn run(opts: RunOpts) -> ExperimentOutput {
    let depth = opts.explore_depth;
    let dfs = || Explorer::dfs(depth).sem_bound(1).max_schedules(200_000);

    let rows = [
        explore(
            "fig4-bsw-1prod",
            Expect::Clean,
            &dfs(),
            Fig4Scenario::stock(1, 2).builder(),
        ),
        explore(
            "fig4-bsw-2prod",
            Expect::Clean,
            // One level deeper: the two-producer cast needs an extra
            // preemption to reach the multiple-wake-ups window.
            &Explorer::dfs(depth + 2).sem_bound(1).max_schedules(200_000),
            Fig4Scenario::stock(2, 1).builder(),
        ),
        explore(
            "echo-bsw",
            Expect::Clean,
            &dfs(),
            echo_scenario(WaitStrategy::Bsw, 1, 2),
        ),
        explore(
            "echo-bswy",
            Expect::Clean,
            &dfs(),
            echo_scenario(WaitStrategy::Bswy, 1, 2),
        ),
        explore(
            "echo-bsls2",
            Expect::Clean,
            &dfs(),
            echo_scenario(WaitStrategy::Bsls { max_spin: 2 }, 1, 2),
        ),
        explore(
            "mutant-norecheck",
            Expect::Counterexample,
            &Explorer::dfs(depth).max_schedules(200_000),
            Fig4Scenario {
                consumer: ConsumerKind::NoRecheck,
                ..Fig4Scenario::stock(1, 1)
            }
            .builder(),
        ),
        explore(
            "mutant-unguarded-v",
            Expect::Counterexample,
            &dfs(),
            Fig4Scenario {
                producer: ProducerKind::UnguardedV,
                ..Fig4Scenario::stock(1, 2)
            }
            .builder(),
        ),
        // The server loop over its WaitSet source (appended: the rows
        // above keep their numbers): bitmap `notify` against the worker's
        // poll-then-latch-then-`P`, exhaustively and by deep random walk.
        explore("mux-2clients", Expect::Clean, &dfs(), mux_scenario(2, 1)),
        explore(
            "mux-2clients-walks",
            Expect::Clean,
            &Explorer::random(40, 0x3D0B, 150).sem_bound(1),
            mux_scenario(2, 2),
        ),
    ];

    let mut t = Table::new(
        format!("Schedule-space exploration at depth {depth} (stock rows must be clean)"),
        "scenario#",
        "count",
        vec![
            "schedules".into(),
            "distinct".into(),
            "violations".into(),
            "expected".into(),
        ],
    );
    let mut notes = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        t.push_row(
            i as f64,
            vec![
                r.schedules as f64,
                r.distinct_states as f64,
                r.violations as f64,
                match row.expect {
                    Expect::Clean => 0.0,
                    Expect::Counterexample => 1.0,
                },
            ],
        );
        let exhibited: Vec<&str> = ALL_INTERLEAVINGS
            .iter()
            .enumerate()
            .filter(|(j, _)| row.seen & (1 << j) != 0)
            .map(|(_, il)| il.name())
            .collect();
        notes.push(format!(
            "#{i} {}: {}{}",
            row.name,
            r.summary(),
            if exhibited.is_empty() {
                String::new()
            } else {
                format!("; exhibited: {}", exhibited.join(", "))
            }
        ));
        // The CI teeth: wrong verdict in either direction is a hard failure.
        match row.expect {
            Expect::Clean => assert!(
                r.ok(),
                "COUNTEREXAMPLE in stock protocol `{}`: {}",
                row.name,
                r.summary()
            ),
            Expect::Counterexample => assert!(
                !r.ok(),
                "explorer lost its teeth: mutant `{}` explored clean ({})",
                row.name,
                r.summary()
            ),
        }
    }

    // The stock Fig. 4 casts must actually exercise every interleaving
    // their cast can reach (1 producer: interleavings 1/3/4; 2 producers
    // adds interleaving 2) — otherwise the "clean" verdict is vacuous.
    let one_prod = rows[0].seen;
    for (j, il) in ALL_INTERLEAVINGS.iter().enumerate() {
        let seen = if j == 1 {
            rows[1].seen // multiple wake-ups needs the 2-producer cast
        } else {
            one_prod
        };
        assert!(
            seen & (1 << j) != 0,
            "depth {depth} never exhibited Fig. 4 `{}` — raise --depth",
            il.name()
        );
    }
    notes.push("all four Fig. 4 interleavings exhibited and closed over the explored space".into());

    ExperimentOutput {
        id: "explore",
        tables: vec![t],
        notes,
    }
}
