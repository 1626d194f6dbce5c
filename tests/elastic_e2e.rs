//! End-to-end pins for the elastic (leased work-queue) coordinator.
//!
//! The acceptance scenario: a worker dies holding a claim on a
//! Figure-10 unit. Another worker pointed at the same store must steal
//! the stale claim after the lease horizon, redo the unit, and finish
//! the grid — and the merged grid must be **cell-for-cell
//! bit-identical** to the single-process run, because every cell is a
//! deterministic function of `(program, config, seed)`.
//!
//! The dead worker is simulated exactly: a claim file is taken through
//! the real [`Store::try_lease_report`] path and then leaked with
//! [`std::mem::forget`], which skips the lease's `Drop` just as a
//! SIGKILL would — the claim dangles on disk with no process behind
//! it. The horizon is injected as a parameter (not `KHAOS_LEASE_MS`)
//! so parallel tests can't race on process-global state.

use khaos_bench::experiments::{fig10_cells, Fig10, Fig10Cell, Scope};
use khaos_bench::grid::{elastic_sweep, expected, merge};
use khaos_bench::{ShardSpec, SEED};
use khaos_store::{ReportKey, Store};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("khaos-elastic-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lease_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "lease") {
                found.push(path);
            }
        }
    }
    found
}

fn assert_cells_bit_identical(a: &[Fig10Cell], b: &[Fig10Cell], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: cell count");
    for (ca, cb) in a.iter().zip(b) {
        assert_eq!(
            (&ca.program, &ca.config, ca.tool, ca.pipeline),
            (&cb.program, &cb.config, cb.tool, cb.pipeline),
            "{what}: cell identity/order"
        );
        for (ea, eb) in ca.escape.iter().zip(&cb.escape) {
            assert_eq!(
                ea.to_bits(),
                eb.to_bits(),
                "{what}: {}/{}/{} escape bits",
                ca.program,
                ca.config,
                ca.tool
            );
        }
    }
}

/// A worker killed mid-grid leaves a dangling claim; the surviving
/// worker steals it past the horizon, completes the grid, and the
/// merged result is bit-identical to the single-process reference.
/// A second worker pass over the finished store then computes nothing.
#[test]
fn stale_lease_is_stolen_and_the_merged_grid_is_bit_identical() {
    let dir = scratch("steal");
    let store = Store::open(&dir).expect("store opens");

    // Single-process reference grid (no store, no coordinator).
    let reference = fig10_cells(Scope::Quick, ShardSpec::FULL, None);
    let expected = expected::<Fig10>(Scope::Quick);
    assert_eq!(reference.len(), expected.len());
    // Three tool cells per (config, program) unit.
    let units = expected.len() / 3;
    assert!(units >= 4, "grid large enough to mean something");

    // The "dead worker": claim the first unit's anchor cell (the
    // expected grid's innermost dimension is the tool, so expected[0]
    // IS unit 0's anchor) and leak the lease — no release, no Drop.
    let anchor = &expected[0];
    let subject = anchor.subject();
    let key = ReportKey {
        pipeline: anchor.pipeline,
        seed: SEED,
        subject: &subject,
    };
    let planted = store
        .try_lease_report(&key, Duration::from_secs(3600))
        .expect("lease io")
        .expect("first claim wins");
    assert!(!planted.was_stolen(), "fresh claim on an empty store");
    std::mem::forget(planted);
    assert_eq!(lease_files(&dir).len(), 1, "the dangling claim is on disk");

    // The surviving worker: a tiny horizon makes the dangling claim go
    // stale almost immediately; the sweep must steal it, redo the
    // unit, and finish every unit.
    let summary = elastic_sweep::<Fig10>(Scope::Quick, &store, Duration::from_millis(100));
    assert_eq!(summary.units, units);
    assert!(
        summary.stolen >= 1,
        "the dangling claim must be stolen, not waited out: {summary:?}"
    );
    assert_eq!(summary.already_done, 0, "{summary:?}");
    assert_eq!(
        summary.computed, units,
        "the survivor computes the whole grid: {summary:?}"
    );
    assert!(
        lease_files(&dir).is_empty(),
        "every claim (including the stolen one) is released"
    );

    // The records the stolen unit's redo wrote — and everything else —
    // merge bit-identically to the single-process reference.
    let merged = merge::<Fig10>(Scope::Quick, &[&store]).expect("grid is complete");
    assert_cells_bit_identical(&merged, &reference, "elastic merged vs single-process");

    // Re-running a worker over the finished store is a no-op: records
    // are the ground truth of doneness.
    let again = elastic_sweep::<Fig10>(Scope::Quick, &store, Duration::from_millis(100));
    assert_eq!(again.already_done, units, "{again:?}");
    assert_eq!(again.computed, 0, "{again:?}");
    assert_eq!(again.stolen, 0, "{again:?}");
    assert_eq!(again.rounds, 1, "{again:?}");

    std::fs::remove_dir_all(&dir).unwrap();
}
