//! Shared experiment plumbing: build pipelines, measurement, statistics,
//! and the parallel fan-out helpers the experiment drivers use to spread
//! build-config × workload × tool grids across cores.
//!
//! Every module the drivers evaluate is built through a
//! [`khaos_pass::Pipeline`]: [`BuildConfig`] is a thin name → spec
//! table, and the historical helpers ([`build_baseline`],
//! [`khaos_apply`], [`obfuscate_ollvm`], …) are wrappers over
//! [`run_spec`]. Binaries built for diffing carry the pipeline's
//! fingerprint as build provenance (see [`build_binary`]), so the
//! process-wide `khaos-diff` embedding cache is safely shared across
//! drivers that rebuild the same (program, pipeline) pair.
//!
//! ## Persistent artifacts
//!
//! When the `KHAOS_STORE` environment variable names a directory, the
//! whole harness runs against that persistent artifact store
//! ([`artifact_store`]): the embedding cache behind every metric call
//! tiers memory → disk → compute (so fig6–fig11/table2 sweeps
//! warm-start across processes), [`run_spec`] persists each build's
//! [`khaos_pass::PipelineReport`] keyed by the pipeline's fingerprint,
//! and drivers attach metric results to the same keys via
//! [`persist_metrics_to`]. Store writes are atomic renames, so
//! concurrent [`par_fan_out`] workers share one store safely.
//!
//! ## Sharding: static and elastic
//!
//! A grid experiment ([`crate::grid`]) is one list of work units, and
//! there are two schedulers over it. `KHAOS_SHARD=i/n`
//! ([`active_shard`]) is the static one: shard `i` measures the units
//! `shard.select(units)` picks, and `<name>-merge` reassembles the grid
//! from the shards' stores. `--elastic` is the dynamic one: the same
//! units become a leased work queue in the shared store
//! ([`crate::coordinator`]), so workers claim open units, steal stale
//! claims from dead peers, and converge with no up-front partition.
//! Both rely on one invariant: every cell is a deterministic function
//! of `(program, config, seed)`, so shards, stealers and even
//! double-computed units write bit-identical records.

use khaos_binary::{lower_module, Binary};
use khaos_core::KhaosMode;
use khaos_ir::Module;
use khaos_ollvm::OllvmMode;
use khaos_opt::OptLevel;
pub use khaos_par::ShardSpec;
use khaos_pass::{PassCtx, Pipeline, PipelineReport, VerifyPolicy};
use khaos_store::{Store, StoredReport};
use khaos_vm::{run_with_config, RunConfig};
use std::sync::Arc;

/// The obfuscation seed used across all experiments (determinism).
pub const SEED: u64 = 0xC60_2023;

/// The spec atom of a Khaos mode (the obfuscation half of its build
/// pipeline).
pub fn khaos_atom(mode: KhaosMode) -> &'static str {
    match mode {
        KhaosMode::Fission => "fission",
        KhaosMode::Fusion => "fusion",
        KhaosMode::FuFiSep => "fufi_sep",
        KhaosMode::FuFiOri => "fufi_ori",
        KhaosMode::FuFiAll => "fufi_all",
    }
}

/// The spec atom of an O-LLVM mode.
pub fn ollvm_atom(mode: OllvmMode) -> String {
    match mode {
        OllvmMode::Sub(r) if r >= 1.0 => "sub".into(),
        OllvmMode::Bog(r) if r >= 1.0 => "bog".into(),
        OllvmMode::Fla(r) if r >= 1.0 => "fla".into(),
        OllvmMode::Sub(r) => format!("sub(ratio={r})"),
        OllvmMode::Bog(r) => format!("bog(ratio={r})"),
        OllvmMode::Fla(r) => format!("fla(ratio={r})"),
    }
}

/// One build configuration evaluated in the figures — a *name* for a
/// pipeline spec ([`BuildConfig::spec`]), nothing more.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BuildConfig {
    /// Un-obfuscated baseline at `O2 + LTO` (the paper's baseline).
    Baseline,
    /// An O-LLVM transform over the baseline.
    Ollvm(OllvmMode),
    /// A Khaos mode over the baseline.
    Khaos(KhaosMode),
}

impl BuildConfig {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            BuildConfig::Baseline => "Baseline".into(),
            BuildConfig::Ollvm(m) => m.name(),
            BuildConfig::Khaos(m) => m.name().into(),
        }
    }

    /// The pipeline spec applied **on top of the optimized baseline**:
    /// the obfuscation atom followed by the rest of the compiler
    /// pipeline (`O2+lto` again), or the empty (identity) pipeline for
    /// the baseline itself.
    pub fn spec(&self) -> String {
        match self {
            BuildConfig::Baseline => String::new(),
            BuildConfig::Ollvm(m) => format!("{} | O2+lto", ollvm_atom(*m)),
            BuildConfig::Khaos(m) => format!("{} | O2+lto", khaos_atom(*m)),
        }
    }

    /// The parsed pipeline for [`BuildConfig::spec`].
    pub fn pipeline(&self) -> Pipeline {
        let spec = self.spec();
        Pipeline::parse(&spec).unwrap_or_else(|e| panic!("config spec `{spec}`: {e}"))
    }

    /// The build-provenance fingerprint of this configuration
    /// ([`Pipeline::fingerprint`] of [`BuildConfig::spec`]). Distinct
    /// configurations — including the same transform at different
    /// knobs, e.g. `Fla(0.1)` vs `Fla(1.0)` — have distinct
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.pipeline().fingerprint()
    }

    /// The eight obfuscated configurations of Figure 8/11, in order.
    pub fn figure8_set() -> Vec<BuildConfig> {
        let mut v: Vec<BuildConfig> = OllvmMode::STANDARD
            .iter()
            .map(|m| BuildConfig::Ollvm(*m))
            .collect();
        v.extend(KhaosMode::ALL.iter().map(|m| BuildConfig::Khaos(*m)));
        v
    }
}

/// The artifact store configured by `KHAOS_STORE`, shared with the
/// process-wide `khaos-diff` embedding cache (whose disk tier it is).
/// `None` when no store is configured — every persistence helper in
/// this module is then a no-op.
pub fn artifact_store() -> Option<Arc<Store>> {
    // Routing through the cache (rather than `Store::from_env`
    // directly) keeps exactly one `Store` per process and ensures the
    // disk tier is attached before the first metric call.
    khaos_diff::EmbeddingCache::global().store()
}

/// Converts a pipeline report into its persistent form, stamped with
/// the subject it was measured on (a thin re-export of
/// [`StoredReport::from_pipeline`] so drivers only need `khaos-bench`).
pub fn stored_report(subject: &str, report: &PipelineReport) -> StoredReport {
    StoredReport::from_pipeline(subject, report)
}

/// Persists metric results for a build into `store`, keyed by the
/// pipeline's fingerprint, the experiment seed and a free-form subject
/// (program name, experiment cell, …). Store errors are swallowed:
/// persistence must never fail an experiment.
pub fn persist_metrics_to(
    store: &Store,
    subject: &str,
    pipeline_fingerprint: u64,
    metrics: &[(&str, f64)],
) {
    let report = StoredReport {
        spec: String::new(),
        pipeline: pipeline_fingerprint,
        seed: SEED,
        subject: subject.to_string(),
        total_micros: 0,
        passes: Vec::new(),
        metrics: metrics.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    };
    let _ = store.put_report(&report);
}

/// The shard this process runs as: `KHAOS_SHARD=i/n` when set (the
/// experiment binaries' `--shard i/n` flag writes the same variable),
/// [`ShardSpec::FULL`] otherwise.
///
/// # Panics
/// Panics on a malformed `KHAOS_SHARD` value — a shard silently
/// degrading to the full grid would redo every cell on every machine of
/// a sharded sweep, so the harness fails loudly instead.
pub fn active_shard() -> ShardSpec {
    ShardSpec::from_env().unwrap_or_else(|e| panic!("{e}"))
}

/// Runs a pipeline spec over a clone of `src` with a fresh context
/// seeded `seed`, verifying *and semantically auditing* after every
/// pass ([`VerifyPolicy::AuditAfterEach`]) — stricter than the legacy
/// entry points, which only verified structural well-formedness right
/// after the obfuscation transform: every pass must now also preserve
/// the module's observable-behavior summary (reachable external calls,
/// global read/write/escape sets, exported signatures), so a
/// structurally valid miscompile fails loudly *before* the `O2+lto`
/// re-optimization could reshape the evidence. Returns the built
/// module and the context (Table-2 statistics).
///
/// With an [`artifact_store`] configured, the run's
/// [`khaos_pass::PipelineReport`] is persisted keyed by
/// `(pipeline fingerprint, seed, program name)` — every build any
/// driver performs leaves a durable timing/IR-delta record.
///
/// # Panics
/// Panics when the spec does not parse or the pipeline produces invalid
/// IR — both are harness bugs, surfaced loudly.
pub fn run_spec(src: &Module, spec: &str, seed: u64) -> (Module, PassCtx) {
    let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("spec `{spec}`: {e}"));
    let mut m = src.clone();
    let mut ctx = PassCtx::new(seed).with_verify(VerifyPolicy::AuditAfterEach);
    let report = pipeline
        .run(&mut m, &mut ctx)
        .unwrap_or_else(|e| panic!("pipeline `{spec}` on {}: {e}", src.name));
    if let Some(store) = artifact_store() {
        let _ = store.put_report(&stored_report(&src.name, &report));
    }
    (m, ctx)
}

/// Optimizes a freshly-generated module at the paper's baseline level
/// (`O2` with LTO).
pub fn build_baseline(src: &Module) -> Module {
    run_spec(src, "O2+lto", SEED).0
}

/// Builds at an explicit optimization level without LTO (Figure 9 axes).
pub fn build_at(src: &Module, level: OptLevel) -> Module {
    run_spec(src, level.name(), SEED).0
}

/// Applies a Khaos mode to an already-optimized module, followed by the
/// rest of the compiler pipeline (`O2 + LTO` again): Khaos schedules its
/// passes in the middle-end *before* the regular optimizations, so the
/// inliner runs over the restructured code — thinned `remFunc`s get
/// inlined into their callers and disappear (the paper's negative
/// overhead cases), while `sepFunc`s/`fusFunc`s are pinned `noinline`.
pub fn khaos_apply(baseline: &Module, mode: KhaosMode, seed: u64) -> (Module, PassCtx) {
    run_spec(baseline, &format!("{} | O2+lto", khaos_atom(mode)), seed)
}

/// Applies the N-way fusion extension (arity 2–4) at the same pipeline
/// position as [`khaos_apply`] (for the `ext-arity` sweep).
///
/// # Panics
/// Panics when the arity is outside `2..=4` or the transform produces
/// invalid IR (both are harness bugs, surfaced loudly).
pub fn khaos_apply_nway(baseline: &Module, arity: usize, seed: u64) -> (Module, PassCtx) {
    // `fusion_n`, not `fusion(arity=..)`: the sweep must hold the N-way
    // group-building driver fixed across arity 2..=4 (at arity 2 the
    // pairwise `fusion` atom is a different pairing algorithm).
    run_spec(baseline, &format!("fusion_n(arity={arity}) | O2+lto"), seed)
}

/// Applies an O-LLVM mode to an already-optimized module (same pipeline
/// position and post-pass optimization as Khaos).
pub fn obfuscate_ollvm(baseline: &Module, mode: OllvmMode, seed: u64) -> Module {
    run_spec(baseline, &format!("{} | O2+lto", ollvm_atom(mode)), seed).0
}

/// Builds the module for `config` from an optimized baseline.
pub fn build_config(baseline: &Module, config: BuildConfig) -> Module {
    run_spec(baseline, &config.spec(), SEED).0
}

/// Builds and lowers `config`, stamping the binary with the pipeline's
/// fingerprint as build provenance — the form the diffing drivers feed
/// to `khaos-diff`, whose embedding cache keys on the provenance-mixed
/// binary fingerprint.
pub fn build_binary(baseline: &Module, config: BuildConfig) -> Binary {
    lower_module(&build_config(baseline, config)).with_build_provenance(config.fingerprint())
}

/// Simulated runtime of a module in cycles.
///
/// # Panics
/// Panics when the program faults — obfuscated programs must run.
pub fn measure_cycles(m: &Module) -> u64 {
    let cfg = RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    };
    run_with_config(m, cfg)
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", m.name))
        .cycles
}

/// Order-preserving parallel fan-out over experiment items (programs,
/// build configs, tool grids). Each item's work runs on a worker from
/// the `khaos-par` pool; results come back in input order so the
/// experiment drivers print rows deterministically. `KHAOS_THREADS=1`
/// forces sequential execution.
pub fn par_fan_out<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    khaos_par::par_map_slice(items, f)
}

/// Percentage overhead of `obf` relative to `base`.
pub fn overhead_pct(base: u64, obf: u64) -> f64 {
    (obf as f64 / base as f64 - 1.0) * 100.0
}

/// Geometric mean of `(1 + overhead_i)`, expressed again as a percentage
/// overhead — the paper's GEOMEAN columns.
pub fn geomean_ratio(overheads_pct: &[f64]) -> f64 {
    if overheads_pct.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = overheads_pct
        .iter()
        .map(|o| ((o / 100.0) + 1.0).max(1e-6).ln())
        .sum();
    ((log_sum / overheads_pct.len() as f64).exp() - 1.0) * 100.0
}

/// Plain geometric mean of positive values (similarity scores etc.).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_workloads::coreutils_program;

    #[test]
    fn geomean_ratio_matches_hand_calc() {
        // 10% and 21% -> sqrt(1.1*1.21) = 1.15369 -> 15.37%
        let g = geomean_ratio(&[10.0, 21.0]);
        assert!((g - 15.369).abs() < 0.01, "{g}");
        assert_eq!(geomean_ratio(&[]), 0.0);
    }

    #[test]
    fn negative_overheads_supported() {
        let g = geomean_ratio(&[-10.0, 10.0]);
        assert!(g < 0.5 && g > -1.5, "{g}");
    }

    #[test]
    fn overhead_pct_signs() {
        assert!((overhead_pct(100, 107) - 7.0).abs() < 1e-9);
        assert!((overhead_pct(100, 93) + 7.0).abs() < 1e-9);
    }

    #[test]
    fn build_config_names_and_specs() {
        assert_eq!(BuildConfig::Khaos(KhaosMode::FuFiOri).name(), "FuFi.ori");
        assert_eq!(BuildConfig::figure8_set().len(), 8);
        assert_eq!(
            BuildConfig::Khaos(KhaosMode::FuFiOri).spec(),
            "fufi_ori | O2+lto"
        );
        assert_eq!(
            BuildConfig::Ollvm(OllvmMode::Fla(0.1)).spec(),
            "fla(ratio=0.1) | O2+lto"
        );
        assert_eq!(BuildConfig::Baseline.spec(), "");
        // Specs in the table all parse.
        for cfg in BuildConfig::figure8_set() {
            cfg.pipeline();
        }
    }

    #[test]
    fn distinct_configs_distinct_fingerprints() {
        let mut seen = std::collections::HashMap::new();
        let mut all = BuildConfig::figure8_set();
        all.push(BuildConfig::Baseline);
        all.push(BuildConfig::Ollvm(OllvmMode::Fla(1.0)));
        for cfg in all {
            if let Some(other) = seen.insert(cfg.fingerprint(), cfg) {
                panic!("{:?} and {:?} share a fingerprint", cfg, other);
            }
        }
    }

    #[test]
    fn pipeline_measures_deterministically() {
        let src = coreutils_program("cat", 6);
        let base = build_baseline(&src);
        assert_eq!(measure_cycles(&base), measure_cycles(&base));
        let (obf, _) = khaos_apply(&base, KhaosMode::FuFiOri, SEED);
        let _ = measure_cycles(&obf); // must not fault
    }

    #[test]
    fn build_binary_stamps_provenance() {
        let src = coreutils_program("ls", 1);
        let base = build_baseline(&src);
        let cfg = BuildConfig::Khaos(KhaosMode::Fission);
        let bin = build_binary(&base, cfg);
        assert_eq!(bin.build_provenance, cfg.fingerprint());
        let other = build_binary(&base, BuildConfig::Ollvm(OllvmMode::Sub(1.0)));
        assert_ne!(bin.build_provenance, other.build_provenance);
    }
}
