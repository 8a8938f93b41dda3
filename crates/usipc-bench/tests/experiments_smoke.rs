//! Smoke tests: every experiment runs end to end at a reduced scale and
//! produces a well-formed table. Guards the harness itself (the figures
//! binary is the deliverable; it must never bitrot).

use usipc_bench::{all_ids, run_experiment, RunOpts};

fn small() -> RunOpts {
    RunOpts {
        msgs_per_client: 40,
        max_clients: 2,
        mp_max_clients: 3,
        explore_depth: 7,
        // Keep the experiments' files out of the repo's results/.
        trace_dir: Some(std::env::temp_dir().join("usipc_trace_smoke")),
        out_dir: std::env::temp_dir().join("usipc_bench_smoke"),
        // Never fork here: `cargo test` runs tests on worker threads and
        // the proc harness requires a single-threaded fork window (the
        // dedicated cross-process suite covers the `--procs` path).
        procs: false,
        // A small load matrix (1 and 8 clients); the 64/512-client cells
        // belong to the figures binary, not a unit-test smoke.
        load_max_clients: 8,
    }
}

#[test]
fn every_experiment_runs_and_yields_tables() {
    for id in all_ids() {
        let out = run_experiment(id, small()).expect("registered id");
        assert_eq!(&out.id, id);
        assert!(!out.tables.is_empty(), "{id} produced no tables");
        for t in &out.tables {
            assert!(!t.columns.is_empty(), "{id}: empty columns");
            assert!(!t.rows.is_empty(), "{id}: empty rows");
            for (x, cells) in &t.rows {
                assert!(x.is_finite());
                assert_eq!(cells.len(), t.columns.len(), "{id}: ragged row");
            }
            // Render and CSV never panic and contain the title/columns.
            let rendered = t.render();
            assert!(rendered.contains(&t.title));
            let csv = t.to_csv();
            assert!(csv.lines().count() == t.rows.len() + 1, "{id}: csv shape");
        }
        assert!(!out.notes.is_empty(), "{id} should explain itself");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(run_experiment("fig99", small()).is_none());
}

#[test]
fn throughputs_are_positive_and_finite() {
    let out = run_experiment("fig2", small()).unwrap();
    for t in &out.tables {
        for (_, cells) in &t.rows {
            for &v in cells {
                assert!(v.is_finite() && v > 0.0, "non-positive throughput {v}");
            }
        }
    }
}

#[test]
fn experiments_are_deterministic_across_invocations() {
    let a = run_experiment("fig10", small()).unwrap();
    let b = run_experiment("fig10", small()).unwrap();
    for (ta, tb) in a.tables.iter().zip(&b.tables) {
        assert_eq!(ta.rows.len(), tb.rows.len());
        for ((xa, ca), (xb, cb)) in ta.rows.iter().zip(&tb.rows) {
            assert_eq!(xa, xb);
            assert_eq!(ca, cb, "fig10 row {xa} differs between runs");
        }
    }
}
