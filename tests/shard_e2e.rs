//! End-to-end pins for the shard-aware experiment runner.
//!
//! Two laws are pinned here:
//!
//! 1. **Partition laws** — for any shard count `n`, the shards
//!    `0/n .. n-1/n` are a permutation-free exact cover of the
//!    unsharded grid: every flat index is owned by exactly one shard,
//!    each shard visits its indices in ascending order, and selecting a
//!    concrete item list per shard re-concatenates (by index) to the
//!    original list.
//! 2. **Merge fidelity** — a Figure-10 grid produced by two sharded
//!    runs persisting into one `khaos-store` and reassembled with
//!    `grid::merge` is **cell-for-cell bit-identical** to the
//!    single-process run, and a store missing a shard is refused with a
//!    precise listing of every missing cell. Figures 7, 9 and Table 2
//!    also finish a half-sharded store with the elastic scheduler, and
//!    a hostile record is named precisely instead of merged.

use khaos_bench::experiments::{
    fig10_cells, fig7_cells, Fig10, Fig10Cell, Fig7, Fig9, Scope, Table2,
};
use khaos_bench::grid::{cells, elastic_sweep, expected, merge, GridExperiment};
use khaos_bench::{persist_metrics_to, ShardSpec};
use khaos_store::Store;
use proptest::prelude::*;
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "khaos-shard-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Partition law: for random grids and any `n`, the union of shards
    /// `0/n .. n-1/n` is a permutation-free exact cover of the grid.
    #[test]
    fn shards_are_a_permutation_free_exact_cover(len in 0usize..200, n in 1usize..9) {
        let grid: Vec<usize> = (0..len).collect();
        let mut owners = vec![0u32; len];
        let mut reassembled: Vec<Option<usize>> = vec![None; len];
        for index in 0..n {
            let shard = ShardSpec::new(index, n).expect("valid shard");
            let picked = shard.select(grid.clone());
            // Each shard's picks ascend (no permutation within a shard)...
            for w in picked.windows(2) {
                prop_assert!(w[0] < w[1], "shard {}/{} out of order", index, n);
            }
            // ...and agree with owns()/indices().
            let via_indices: Vec<usize> = shard.indices(len).collect();
            prop_assert_eq!(&picked, &via_indices);
            for i in picked {
                prop_assert!(shard.owns(i));
                owners[i] += 1;
                reassembled[i] = Some(i);
            }
        }
        // Exact cover: every index owned exactly once, nothing dropped,
        // nothing duplicated, and putting each shard's items back at
        // their flat indices reproduces the grid exactly.
        prop_assert!(owners.iter().all(|&c| c == 1));
        let reassembled: Vec<usize> = reassembled.into_iter().map(|x| x.expect("covered")).collect();
        prop_assert_eq!(reassembled, grid);
    }
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

/// The elastic step: `pre` holds exactly shard 0/2's records. One
/// worker's sweep over it, at a short injected lease horizon, must
/// count shard 0's units as done, compute exactly the rest, and leave a
/// grid that merges cell-for-cell bit-identically to `reference`.
fn elastic_finishes_shard_0<E: GridExperiment>(pre: &Store, reference: &[E::Cell])
where
    E::Cell: Debug,
{
    let units = E::new(Scope::Quick).units().len();
    let shard_0 = ShardSpec::new(0, 2).unwrap().indices(units).count();
    let summary = elastic_sweep::<E>(Scope::Quick, pre, Duration::from_millis(100));
    assert_eq!(summary.units, units, "{summary:?}");
    assert_eq!(summary.already_done, shard_0, "{summary:?}");
    assert_eq!(summary.computed, units - shard_0, "{summary:?}");
    let merged = merge::<E>(Scope::Quick, &[pre]).expect("the sweep completes the grid");
    assert_eq!(merged.len(), reference.len(), "{} elastic cell count", E::NAME);
    let bits = |c: &E::Cell| -> Vec<u64> { E::encode(c).into_iter().map(f64::to_bits).collect() };
    for (m, r) in merged.iter().zip(reference) {
        assert_eq!(format!("{m:?}"), format!("{r:?}"), "{} elastic cell", E::NAME);
        assert_eq!(bits(m), bits(r), "{} elastic cell bits", E::NAME);
    }
}

/// A fresh store holding a copy of `store`'s records (shard 0's, when
/// taken right after shard 0 ran) — the seed of the elastic step.
fn copy_of(store: &Store, tag: &str) -> (PathBuf, Store) {
    let dir = scratch(tag);
    let copy = Store::open(&dir).expect("store opens");
    copy.merge_from(store).expect("records copy");
    (dir, copy)
}

/// The acceptance pin: a fig10 grid produced by two sharded runs into
/// one `khaos-store`, then merged, is cell-for-cell identical to the
/// single-process run.
#[test]
fn two_shards_into_one_store_merge_to_the_single_process_grid() {
    let dir = scratch("merge");
    let store = Store::open(&dir).expect("store opens");

    // The single-process reference grid (no store involved).
    let reference = fig10_cells(Scope::Quick, ShardSpec::FULL, None);
    let expected = expected::<Fig10>(Scope::Quick);
    assert_eq!(reference.len(), expected.len(), "reference grid is complete");
    assert!(reference.len() >= 12, "grid large enough to mean something");

    // "Process" A and "process" B: complementary shards persisting into
    // one shared store (the CI smoke runs the same flow as two real
    // processes; here the separation is per-call state).
    let a = fig10_cells(Scope::Quick, ShardSpec::new(0, 2).unwrap(), Some(&store));
    let b = fig10_cells(Scope::Quick, ShardSpec::new(1, 2).unwrap(), Some(&store));
    assert_eq!(a.len() + b.len(), reference.len(), "shards cover the grid");
    assert!(!a.is_empty() && !b.is_empty(), "both shards own cells");

    // The merged grid is complete and bit-identical to the reference.
    let merged = merge::<Fig10>(Scope::Quick, &[&store]).expect("union of both shards is complete");
    assert_cells_bit_identical(&merged, &reference, "merged vs single-process");

    // Each shard's own cells also match the reference values directly
    // (shard-independence of the cell computation).
    for cell in a.iter().chain(&b) {
        let want = reference
            .iter()
            .find(|c| {
                (&c.program, &c.config, c.tool) == (&cell.program, &cell.config, cell.tool)
            })
            .expect("cell exists in reference");
        for (ea, eb) in cell.escape.iter().zip(&want.escape) {
            assert_eq!(ea.to_bits(), eb.to_bits(), "shard cell vs reference");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The refusal half: a store holding only one shard must be rejected
/// with a precise listing of exactly the other shard's cells.
#[test]
fn merge_refuses_an_incomplete_grid_listing_every_missing_cell() {
    let dir = scratch("partial");
    let store = Store::open(&dir).expect("store opens");
    let only = fig10_cells(Scope::Quick, ShardSpec::new(0, 2).unwrap(), Some(&store));

    let missing = match merge::<Fig10>(Scope::Quick, &[&store]) {
        Ok(_) => panic!("half a grid must not merge"),
        Err(m) => m,
    };
    let expected = expected::<Fig10>(Scope::Quick);
    assert_eq!(
        missing.len(),
        expected.len() - only.len(),
        "exactly the absent shard's cells are reported"
    );
    // Every reported line names a real expected cell that shard 0 does
    // not own, precisely (subject + pipeline fingerprint).
    for line in &missing {
        let key = expected
            .iter()
            .find(|k| line.starts_with(&k.subject()))
            .unwrap_or_else(|| panic!("`{line}` names no expected cell"));
        assert!(
            line.contains(&format!("{:016x}", key.pipeline)),
            "`{line}` must carry the pipeline fingerprint"
        );
        assert!(
            !only.iter().any(|c| c.subject() == key.subject()),
            "`{line}` was reported missing but shard 0 persisted it"
        );
    }

    // An empty extra store changes nothing; adding a store with the
    // complementary shard completes the union.
    let dir2 = scratch("partial2");
    let store2 = Store::open(&dir2).expect("second store opens");
    assert!(merge::<Fig10>(Scope::Quick, &[&store, &store2]).is_err());
    fig10_cells(Scope::Quick, ShardSpec::new(1, 2).unwrap(), Some(&store2));
    let merged =
        merge::<Fig10>(Scope::Quick, &[&store, &store2]).expect("union across two stores merges");
    assert_eq!(merged.len(), expected.len());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

/// Figure 7 merge fidelity: a two-shard run reassembles to the
/// single-process grid with bit-identical overheads, and a lone shard
/// is refused.
#[test]
fn fig7_shards_merge_bit_identically() {
    let dir = scratch("fig7");
    let store = Store::open(&dir).expect("store opens");
    let reference = fig7_cells(Scope::Quick, ShardSpec::FULL, None);
    assert_eq!(reference.len(), expected::<Fig7>(Scope::Quick).len());

    let a = fig7_cells(Scope::Quick, ShardSpec::new(0, 2).unwrap(), Some(&store));
    assert!(
        merge::<Fig7>(Scope::Quick, &[&store]).is_err(),
        "half a grid must not merge"
    );
    let (pre_dir, pre) = copy_of(&store, "fig7-elastic");
    let b = fig7_cells(Scope::Quick, ShardSpec::new(1, 2).unwrap(), Some(&store));
    assert_eq!(a.len() + b.len(), reference.len());

    let merged = merge::<Fig7>(Scope::Quick, &[&store]).expect("union of both shards is complete");
    assert_eq!(merged.len(), reference.len());
    for (m, r) in merged.iter().zip(&reference) {
        assert_eq!(
            (m.suite, &m.program, &m.config, m.pipeline),
            (r.suite, &r.program, &r.config, r.pipeline),
            "fig7 cell identity/order"
        );
        assert_eq!(
            m.overhead.to_bits(),
            r.overhead.to_bits(),
            "fig7 {}/{}/{} overhead bits",
            m.suite,
            m.program,
            m.config
        );
    }
    elastic_finishes_shard_0::<Fig7>(&pre, &reference);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&pre_dir).unwrap();
}

/// Figure 9 merge fidelity: every BinTuner/Khaos similarity column and
/// the BinTuner overhead survive the store round-trip bit for bit.
#[test]
fn fig9_shards_merge_bit_identically() {
    let dir = scratch("fig9");
    let store = Store::open(&dir).expect("store opens");
    let reference = cells::<Fig9>(Scope::Quick, ShardSpec::FULL, None);
    assert_eq!(reference.len(), expected::<Fig9>(Scope::Quick).len());

    cells::<Fig9>(Scope::Quick, ShardSpec::new(0, 2).unwrap(), Some(&store));
    let (pre_dir, pre) = copy_of(&store, "fig9-elastic");
    cells::<Fig9>(Scope::Quick, ShardSpec::new(1, 2).unwrap(), Some(&store));

    let merged = merge::<Fig9>(Scope::Quick, &[&store]).expect("union of both shards is complete");
    assert_eq!(merged.len(), reference.len());
    for (m, r) in merged.iter().zip(&reference) {
        assert_eq!(
            (&m.program, m.pipeline),
            (&r.program, r.pipeline),
            "fig9 cell identity/order"
        );
        for (a, b) in m.bt.iter().zip(&r.bt).chain(m.kh.iter().zip(&r.kh)) {
            assert_eq!(a.to_bits(), b.to_bits(), "fig9 {} similarity bits", m.program);
        }
        assert_eq!(
            m.bt_overhead.to_bits(),
            r.bt_overhead.to_bits(),
            "fig9 {} overhead bits",
            m.program
        );
    }
    elastic_finishes_shard_0::<Fig9>(&pre, &reference);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&pre_dir).unwrap();
}

/// Table 2 merge fidelity: the raw fission/fusion counters round-trip
/// exactly (including the f64 `reduced_ratio_sum`, bit for bit), so
/// the per-suite aggregates a merged table derives are the
/// single-process numbers.
#[test]
fn table2_shards_merge_bit_identically() {
    let dir = scratch("table2");
    let store = Store::open(&dir).expect("store opens");
    let reference = cells::<Table2>(Scope::Quick, ShardSpec::FULL, None);
    assert_eq!(reference.len(), expected::<Table2>(Scope::Quick).len());

    cells::<Table2>(Scope::Quick, ShardSpec::new(0, 2).unwrap(), Some(&store));
    let (pre_dir, pre) = copy_of(&store, "table2-elastic");
    cells::<Table2>(Scope::Quick, ShardSpec::new(1, 2).unwrap(), Some(&store));

    let merged = merge::<Table2>(Scope::Quick, &[&store]).expect("union of both shards is complete");
    assert_eq!(merged.len(), reference.len());
    for (m, r) in merged.iter().zip(&reference) {
        assert_eq!(
            (m.suite, &m.program, m.pipeline),
            (r.suite, &r.program, r.pipeline),
            "table2 cell identity/order"
        );
        assert_eq!(m.fusion, r.fusion, "table2 {} fusion counters", m.program);
        assert_eq!(
            m.fission.reduced_ratio_sum.to_bits(),
            r.fission.reduced_ratio_sum.to_bits(),
            "table2 {} reduced_ratio_sum bits",
            m.program
        );
        let strip = |s: &khaos_core::FissionStats| {
            (
                s.ori_funcs,
                s.fissioned_funcs,
                s.sep_funcs,
                s.sep_blocks,
                s.params_reduced,
            )
        };
        assert_eq!(
            strip(&m.fission),
            strip(&r.fission),
            "table2 {} fission counters",
            m.program
        );
    }
    elastic_finishes_shard_0::<Table2>(&pre, &reference);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&pre_dir).unwrap();
}

/// Merge decode validates what comes off disk: one hostile record in an
/// otherwise complete quick Table-2 store — a negative, fractional,
/// ≥ 2^53 or non-finite value — is listed precisely, as that cell's
/// record present but invalid, instead of merging as a saturated count.
#[test]
fn merge_names_exactly_the_cell_holding_a_hostile_record() {
    let dir = scratch("hostile");
    let store = Store::open(&dir).expect("store opens");
    let honest = cells::<Table2>(Scope::Quick, ShardSpec::FULL, Some(&store));
    assert!(merge::<Table2>(Scope::Quick, &[&store]).is_ok());
    let ids = expected::<Table2>(Scope::Quick);
    let victim = &ids[1];
    let write = |values: Vec<f64>| {
        let metrics: Vec<(&str, f64)> = Table2::METRICS.iter().copied().zip(values).collect();
        persist_metrics_to(&store, victim.subject(), victim.pipeline, &metrics);
    };
    let hostile = [
        (0, -1.0),
        (3, 2.5),
        (8, 2f64.powi(53)),
        (4, f64::NAN),
        (13, f64::INFINITY),
    ];
    for (metric, value) in hostile {
        let mut values = Table2::encode(&honest[1]);
        values[metric] = value;
        write(values);
        let listed = match merge::<Table2>(Scope::Quick, &[&store]) {
            Ok(_) => panic!("{} = {value} must not merge", Table2::METRICS[metric]),
            Err(listed) => listed,
        };
        assert_eq!(listed.len(), 1, "exactly the hostile cell: {listed:?}");
        assert!(
            listed[0].starts_with(victim.subject())
                && listed[0].contains("record present but invalid")
                && listed[0].contains(Table2::METRICS[metric]),
            "`{}` must name {} and its bad metric",
            listed[0],
            victim.subject()
        );
    }
    // The honest record merges again.
    write(Table2::encode(&honest[1]));
    assert!(merge::<Table2>(Scope::Quick, &[&store]).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
