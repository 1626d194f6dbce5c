//! # khaos-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§4).
//! Each `figN`/`tableN` driver prints the same rows/series the paper
//! reports; the grid-shaped ones (Figures 7, 9, 10 and Table 2) run on
//! the one [`grid`] engine. The `experiments` binary dispatches to
//! these drivers.

pub mod coordinator;
pub mod experiments;
pub mod grid;
pub mod harness;

pub use coordinator::{run_elastic, ElasticSummary, WorkUnit};
pub use harness::{
    active_shard, artifact_store, build_at, build_baseline, build_binary, build_config, geomean,
    geomean_ratio, khaos_apply, khaos_apply_nway, khaos_atom, measure_cycles, obfuscate_ollvm,
    ollvm_atom, overhead_pct, par_fan_out, persist_metrics_to, run_spec, stored_report,
    BuildConfig, ShardSpec, SEED,
};
