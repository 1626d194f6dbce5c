//! The grid engine: one driver for every grid-shaped experiment.
//!
//! Figures 7, 9, 10 and Table 2 are grids of `(config, program)` cells.
//! Each is a [`GridExperiment`] that states only what is particular to
//! it — its unit list, the shared per-program preparation, the per-unit
//! measurement, the cell ↔ metric-values codec and its printers — and
//! the generic driver here does the rest:
//!
//! - [`cells`] measures a static shard (`shard.select(units)`),
//! - [`elastic_sweep`] leases the same units from a shared store
//!   ([`crate::coordinator`]),
//! - [`merge`] reassembles the grid from any union of stores,
//! - [`run`], [`report`] and [`elastic`] are the `experiments` CLI's
//!   `<name>`, `<name>-merge` and `--elastic <name>` targets.
//!
//! Static shards and elastic leases are two schedulers over one unit
//! list, and every cell is a deterministic function of
//! `(program, config, seed)`: whichever process computes a unit writes
//! the same records, so any mix of schedulers merges bit-identically.

use crate::coordinator::{run_elastic, ElasticSummary, WorkUnit};
use crate::experiments::Scope;
use crate::harness::{
    active_shard, artifact_store, par_fan_out, persist_metrics_to, ShardSpec, SEED,
};
use khaos_store::{ReportKey, Store};
use std::time::Duration;

/// One claimable unit of a grid: the `(config, program)` build it
/// measures, and the report records it persists.
pub struct GridUnit {
    /// Index into the experiment's configuration table.
    pub config: usize,
    /// Index into the experiment's program table — the key of the
    /// shared per-program preparation.
    pub program: usize,
    /// Label, lease anchor (the first output) and output records.
    pub work: WorkUnit,
}

impl GridUnit {
    /// A unit persisting `outputs` (one record per cell, in the order
    /// [`GridExperiment::measure`] returns the cells), leased on the
    /// first one.
    pub fn new(config: usize, program: usize, label: String, outputs: Vec<(String, u64)>) -> Self {
        GridUnit {
            config,
            program,
            work: WorkUnit {
                label,
                lease: outputs[0].clone(),
                outputs,
            },
        }
    }

    /// A one-cell unit, labelled by its subject.
    pub fn single(config: usize, program: usize, subject: String, pipeline: u64) -> Self {
        GridUnit::new(config, program, subject.clone(), vec![(subject, pipeline)])
    }
}

/// The identity of one expected grid cell: its `khaos-store` report
/// key, less the experiment [`SEED`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellId {
    subject: String,
    /// The configuration pipeline fingerprint the cell persists under.
    pub pipeline: u64,
}

impl CellId {
    /// The cell's store subject.
    pub fn subject(&self) -> &str {
        &self.subject
    }
}

/// One grid-shaped experiment: everything the generic driver cannot
/// know.
pub trait GridExperiment: Sized + Sync {
    /// CLI target name (`fig10`); also names the `<NAME>-merge`
    /// target and tags elastic diagnostics.
    const NAME: &'static str;
    /// Title of the merged report (`Figure 10`).
    const TITLE: &'static str;
    /// The first line every static or elastic run prints.
    const BANNER: &'static str;
    /// Whether the merged report opens with [`Self::BANNER`] too.
    const BANNER_ON_MERGE: bool = false;
    /// Stored metric names of one cell, in codec order.
    const METRICS: &'static [&'static str];

    /// What one program's units share (its baseline build).
    type Prep: Send + Sync;
    /// One measured cell.
    type Cell: Send;

    /// The experiment at `scope`, its unit list built once.
    fn new(scope: Scope) -> Self;
    /// Every unit of the grid in canonical order.
    fn units(&self) -> &[GridUnit];
    /// The preparation shared by every unit on program `program`.
    fn prepare(&self, program: usize) -> Self::Prep;
    /// Measures one unit: one cell per `unit.work.outputs` entry, in
    /// that order.
    fn measure(&self, unit: &GridUnit, prep: &Self::Prep) -> Vec<Self::Cell>;
    /// A cell's metric values, in [`Self::METRICS`] order.
    fn encode(cell: &Self::Cell) -> Vec<f64>;
    /// Rebuilds output `output` of `unit` from stored values (finite,
    /// in [`Self::METRICS`] order), or says why they are invalid.
    fn decode(&self, unit: &GridUnit, output: usize, values: &[f64]) -> Result<Self::Cell, String>;
    /// Prints the full table from a complete grid.
    fn print_table(cells: &[Self::Cell]);
    /// Prints a static shard's cells row-wise.
    fn print_shard_rows(cells: &[Self::Cell]);

    /// Number of cells in the complete grid.
    fn cell_count(&self) -> usize {
        self.units().iter().map(|u| u.work.outputs.len()).sum()
    }
}

/// Every cell of `E`'s grid at `scope`, in canonical order — the
/// completeness contract [`merge`] enforces.
pub fn expected<E: GridExperiment>(scope: Scope) -> Vec<CellId> {
    E::new(scope)
        .units()
        .iter()
        .flat_map(|u| &u.work.outputs)
        .map(|(subject, pipeline)| CellId {
            subject: subject.clone(),
            pipeline: *pipeline,
        })
        .collect()
}

/// Writes one measured unit's cells to its output records.
fn persist<E: GridExperiment>(store: &Store, unit: &GridUnit, cells: &[E::Cell]) {
    assert_eq!(
        cells.len(),
        unit.work.outputs.len(),
        "{}: {} measured the wrong number of cells",
        E::NAME,
        unit.work.label
    );
    for (cell, (subject, pipeline)) in cells.iter().zip(&unit.work.outputs) {
        let metrics: Vec<(&str, f64)> = E::METRICS.iter().copied().zip(E::encode(cell)).collect();
        persist_metrics_to(store, subject, *pipeline, &metrics);
    }
}

/// Measures `shard`'s share of `E`'s grid, returning its cells in
/// canonical order and persisting each into `store` when given.
pub fn cells<E: GridExperiment>(
    scope: Scope,
    shard: ShardSpec,
    store: Option<&Store>,
) -> Vec<E::Cell> {
    cells_of(&E::new(scope), shard, store)
}

fn cells_of<E: GridExperiment>(exp: &E, shard: ShardSpec, store: Option<&Store>) -> Vec<E::Cell> {
    let owned: Vec<&GridUnit> = shard.select(exp.units().iter().collect());
    // Each distinct program of the owned units is prepared once and
    // shared by all its units. Preparation is deterministic per
    // program, so a shard's subset yields the values the full run
    // would.
    let mut needed: Vec<usize> = owned.iter().map(|u| u.program).collect();
    needed.sort_unstable();
    needed.dedup();
    let prepared = par_fan_out(&needed, |&p| exp.prepare(p));
    let cells = par_fan_out(&owned, |unit| {
        let slot = needed
            .binary_search(&unit.program)
            .expect("program collected from the owned units");
        let cells = exp.measure(unit, &prepared[slot]);
        if let Some(store) = store {
            persist::<E>(store, unit, &cells);
        }
        cells
    });
    cells.into_iter().flatten().collect()
}

/// One worker's pass over `E`'s leased work queue in `store` at an
/// explicit lease `horizon`; returns once every unit's records exist.
/// Each unit prepares its own program, so any worker can own any unit.
pub fn elastic_sweep<E: GridExperiment>(
    scope: Scope,
    store: &Store,
    horizon: Duration,
) -> ElasticSummary {
    sweep(&E::new(scope), store, horizon)
}

fn sweep<E: GridExperiment>(exp: &E, store: &Store, horizon: Duration) -> ElasticSummary {
    let units = exp.units();
    let work: Vec<WorkUnit> = units.iter().map(|u| u.work.clone()).collect();
    run_elastic(store, E::NAME, &work, horizon, |i| {
        let unit = &units[i];
        let cells = exp.measure(unit, &exp.prepare(unit.program));
        persist::<E>(store, unit, &cells);
    })
}

/// Reassembles `E`'s complete grid from any union of stores (earlier
/// stores win on duplicate cells, though duplicates are bit-identical
/// by determinism).
///
/// # Errors
/// Lists every cell the union cannot supply, precisely: a missing cell
/// with its subject, pipeline fingerprint and seed, a store read error,
/// or a record present but invalid (a metric missing, non-finite, or
/// rejected by [`GridExperiment::decode`]).
pub fn merge<E: GridExperiment>(
    scope: Scope,
    stores: &[&Store],
) -> Result<Vec<E::Cell>, Vec<String>> {
    merge_of(&E::new(scope), stores)
}

fn merge_of<E: GridExperiment>(exp: &E, stores: &[&Store]) -> Result<Vec<E::Cell>, Vec<String>> {
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for unit in exp.units() {
        for (output, (subject, pipeline)) in unit.work.outputs.iter().enumerate() {
            match lookup::<E>(stores, subject, *pipeline) {
                Ok(values) => match exp.decode(unit, output, &values) {
                    Ok(cell) => cells.push(cell),
                    Err(why) => {
                        missing.push(format!("{subject} (record present but invalid: {why})"))
                    }
                },
                Err(line) => missing.push(line),
            }
        }
    }
    if missing.is_empty() {
        Ok(cells)
    } else {
        Err(missing)
    }
}

/// One cell's stored metric values, finite and in `E::METRICS` order,
/// or the line naming why the cell is unavailable.
fn lookup<E: GridExperiment>(
    stores: &[&Store],
    subject: &str,
    pipeline: u64,
) -> Result<Vec<f64>, String> {
    let key = ReportKey {
        pipeline,
        seed: SEED,
        subject,
    };
    // A store I/O failure is not "the shard never ran" — keep the
    // distinction so the operator fixes the store instead of re-running
    // an expensive shard sweep. (Corrupt records decode to `Ok(None)` by
    // design; `khaos-store verify` names those.)
    let mut read_errors = Vec::new();
    let mut found = None;
    for s in stores {
        match s.get_report(&key) {
            Ok(Some(r)) => {
                found = Some(r);
                break;
            }
            Ok(None) => {}
            Err(e) => read_errors.push(format!("{}: {e}", s.root().display())),
        }
    }
    let Some(report) = found else {
        return Err(if read_errors.is_empty() {
            format!("{subject} (pipeline {pipeline:016x}, seed {SEED:#x})")
        } else {
            // Name every failing store, not just the last — the
            // operator should fix them all in one pass.
            format!(
                "{subject} (store read error — cell may exist: {})",
                read_errors.join("; ")
            )
        });
    };
    let mut values = Vec::with_capacity(E::METRICS.len());
    for name in E::METRICS {
        let Some(&(_, v)) = report.metrics.iter().find(|(n, _)| n == name) else {
            return Err(format!(
                "{subject} (record present but missing {} metrics)",
                E::METRICS.join("/")
            ));
        };
        if !v.is_finite() {
            return Err(format!(
                "{subject} (record present but invalid: {name} = {v} is not finite)"
            ));
        }
        values.push(v);
    }
    Ok(values)
}

/// Prints the merged table, or the precise listing of every cell the
/// union lacks. Returns whether the grid was complete.
fn print_merged<E: GridExperiment>(exp: &E, stores: &[&Store]) -> bool {
    match merge_of(exp, stores) {
        Ok(cells) => {
            E::print_table(&cells);
            true
        }
        Err(missing) => {
            println!(
                "# INCOMPLETE GRID: {} of {} cells missing:",
                missing.len(),
                exp.cell_count()
            );
            for m in &missing {
                println!("#   missing {m}");
            }
            false
        }
    }
}

/// `experiments <name>`: measures the active shard's share of the grid
/// (all of it unsharded), persisting each cell into `KHAOS_STORE` when
/// set. An unsharded run prints the full table; a shard prints its
/// cells row-wise for `<name>-merge` to reassemble.
pub fn run<E: GridExperiment>(scope: Scope) {
    println!("{}", E::BANNER);
    let shard = active_shard();
    let store = artifact_store();
    if !shard.is_full() && store.is_none() {
        println!(
            "# WARNING: sharded run without KHAOS_STORE — cells will be printed but \
             not persisted, so {}-merge cannot reassemble this shard",
            E::NAME
        );
    }
    let exp = E::new(scope);
    let cells = cells_of(&exp, shard, store.as_deref());
    if shard.is_full() {
        E::print_table(&cells);
        return;
    }
    println!(
        "# shard {shard}: {} of {} cells (merge with `experiments {}-merge <store-dirs>`)",
        cells.len(),
        exp.cell_count(),
        E::NAME
    );
    E::print_shard_rows(&cells);
}

/// `experiments <name>-merge DIR...`: opens every store (a typo'd path
/// must be an error, not an empty store whose every cell reads as
/// missing), then prints the merged table or every missing cell.
/// Returns whether the grid was complete.
pub fn report<E: GridExperiment>(scope: Scope, store_dirs: &[String]) -> bool {
    if E::BANNER_ON_MERGE {
        println!("{}", E::BANNER);
    }
    let exp = E::new(scope);
    println!("# {} (merged from {} store(s))", E::TITLE, store_dirs.len());
    println!(
        "# scope: {scope:?} — expecting {} cells; match the shards' --quick \
         flag, or a full-scope store merges into a silently smaller grid",
        exp.cell_count()
    );
    let mut stores = Vec::new();
    for dir in store_dirs {
        match Store::open_existing(dir) {
            Ok(s) => stores.push(s),
            Err(e) => {
                println!("# cannot open store `{dir}`: {e}");
                return false;
            }
        }
    }
    let refs: Vec<&Store> = stores.iter().collect();
    print_merged(&exp, &refs)
}

/// `experiments --elastic <name>`: one worker over the grid as a leased
/// work queue in the shared `KHAOS_STORE` (lease horizon
/// `KHAOS_LEASE_MS`). Any number of workers run this concurrently; each
/// prints the merged table once every unit's records exist. Returns
/// `false` (without working) when no store is configured.
pub fn elastic<E: GridExperiment>(scope: Scope) -> bool {
    let Some(store) = artifact_store() else {
        eprintln!("experiments: --elastic needs KHAOS_STORE (the shared store is the work queue)");
        return false;
    };
    println!("{}", E::BANNER);
    println!("# elastic worker over {}", store.root().display());
    let exp = E::new(scope);
    let s = sweep(&exp, &store, Store::lease_horizon());
    // Stderr, like the steal lines: stdout stays the table.
    eprintln!(
        "# elastic {}: {} unit(s) — {} computed here, {} already done, \
         {} stale lease(s) stolen, {} round(s)",
        E::NAME,
        s.units,
        s.computed,
        s.already_done,
        s.stolen,
        s.rounds
    );
    print_merged(&exp, &[&store])
}

/// One grid experiment's `experiments` CLI entry points.
#[derive(Clone, Copy)]
pub struct GridTarget {
    /// The target name; `<name>-merge` is its merge target.
    pub name: &'static str,
    /// [`run`].
    pub run: fn(Scope),
    /// [`report`].
    pub report: fn(Scope, &[String]) -> bool,
    /// [`elastic`].
    pub elastic: fn(Scope) -> bool,
}

impl GridTarget {
    /// The entry points of `E`.
    pub const fn of<E: GridExperiment>() -> Self {
        GridTarget {
            name: E::NAME,
            run: run::<E>,
            report: report::<E>,
            elastic: elastic::<E>,
        }
    }
}
