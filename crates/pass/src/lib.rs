//! # khaos-pass — the unified build-pipeline API
//!
//! Every experiment in the paper is a cross-product of *build
//! pipelines*: Khaos fission/fusion/FuFi variants, the O-LLVM
//! Sub/Bog/Fla baselines, `-O0..-O3`+LTO sweeps, and BinTuner's searched
//! pass sequences. This crate makes those pipelines first-class data
//! instead of hand-wired code:
//!
//! * [`Pass`] — one trait for every transform: a name, a stable
//!   [`fingerprint`](Pass::fingerprint) contribution, and a
//!   [`run`](Pass::run) producing a timed [`PassReport`] with the IR
//!   delta (functions/blocks/instructions before → after).
//! * [`PassCtx`] — a single seeded context subsuming the legacy
//!   `KhaosContext`/`OllvmContext` pair: **one RNG stream** threaded
//!   through every pass (lent to each transform in turn, so a pipeline
//!   consumes randomness exactly as the monolithic entry points did),
//!   one stats sink, and a configurable [`VerifyPolicy`].
//! * [`Pipeline`] — an ordered pass sequence with a builder
//!   ([`Pipeline::builder`]), a stable [`Pipeline::fingerprint`] (the
//!   build-provenance key `khaos-diff`'s embedding cache uses), and a
//!   round-trippable textual spec grammar.
//!
//! ## The spec grammar
//!
//! A pipeline spec is `|`-separated atoms, each `name` or
//! `name(key=value,...)`:
//!
//! ```text
//! fission | fusion(arity=2,deep=false) | O2+lto
//! sub(ratio=0.5) | O2+lto
//! mem2reg | constprop | inline(threshold=96,exported=true) | dfe
//! ```
//!
//! Atoms: `fission`, `fusion` (`arity` 2–4, `deep`), `fusion_n`
//! (`arity`; the N-way driver at every arity, including 2), `fufi_sep`,
//! `fufi_ori`, `fufi_all`, `fufi_n` (`arity`), `sub`/`bog`/`fla`
//! (`ratio` 0–1), the scalar passes `mem2reg`/`constprop`/`cse`/`dce`/
//! `simplifycfg`, `inline` (`threshold`, `exported`), `dfe`, and the
//! macro-pipelines `O0`..`O3` with an optional `+lto` suffix (and an
//! `inline` threshold override). [`Pipeline::parse`] and the `Display`
//! impl round-trip: `parse(p.to_string()) == p`, with defaults omitted
//! from the canonical form.
//!
//! ```
//! use khaos_pass::{PassCtx, Pipeline};
//! use khaos_ir::{builder::FunctionBuilder, Module, Operand, Type};
//!
//! let mut m = Module::new("demo");
//! # let mut fb = FunctionBuilder::new("main", Type::I64);
//! # fb.ret(Some(Operand::const_int(Type::I64, 0)));
//! # m.push_function(fb.finish());
//! let pipeline = Pipeline::parse("fufi_all | O2+lto").unwrap();
//! let mut ctx = PassCtx::new(0xC60);
//! let report = pipeline.run(&mut m, &mut ctx).unwrap();
//! assert_eq!(report.passes.len(), 2);
//! assert_eq!(pipeline.to_string(), "fufi_all | O2+lto");
//! assert_eq!(Pipeline::parse(&pipeline.to_string()).unwrap(), pipeline);
//! ```
//!
//! Legacy entry points (`khaos_core::fission`, `khaos_ollvm::OllvmMode::
//! apply`, `khaos_opt::optimize`, …) remain as thin compatibility
//! wrappers; the adapter passes here are seed-equivalent to them —
//! byte-identical printed modules for the same seed, pinned by
//! `tests/seed_equivalence.rs`.

mod fingerprint;
mod passes;
mod spec;

pub use fingerprint::Fingerprint;
pub use passes::{
    DfePass, FissionPass, FufiKind, FufiNPass, FufiPass, FusionNPass, FusionPass, InlinePass,
    OllvmKind, OllvmPass, OptPass, ScalarKind, ScalarPass,
};
pub use spec::SpecError;

use khaos_core::{FissionStats, FusionStats, KhaosContext, KhaosOptions};
use khaos_ir::Module;
use khaos_ollvm::OllvmContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::hash::Hasher;
use std::time::Duration;

/// When a pipeline re-verifies the module it is transforming.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Verify after every pass (the default): an invalid module is
    /// attributed to the pass that produced it.
    #[default]
    AfterEach,
    /// Verify once after the last pass — cheaper on long pipelines, at
    /// the cost of coarser attribution.
    AtEnd,
    /// Never verify (trusted pipelines in hot sweeps).
    Never,
    /// Verify *and* semantically audit after every pass: each pass's
    /// output is checked against the observable-behavior summary of its
    /// input ([`khaos_ir::ModuleSummary`]), so a structurally valid but
    /// semantically wrong transform (dropped store, retargeted call,
    /// orphaned effectful block) fails with [`PassError::Audit`].
    AuditAfterEach,
}

/// Failure modes of a pipeline run.
#[derive(Clone, Debug, PartialEq)]
pub enum PassError {
    /// The module failed verification; `pass` names the culprit (or the
    /// whole pipeline under [`VerifyPolicy::AtEnd`]).
    Verify {
        /// The pass after which verification failed.
        pass: String,
        /// The verifier report (first few errors).
        report: String,
    },
    /// A pass was configured outside its supported domain.
    Unsupported {
        /// The offending pass.
        pass: String,
        /// What was out of range.
        detail: String,
    },
    /// The module's audited observable behavior changed under
    /// [`VerifyPolicy::AuditAfterEach`]; `pass` names the culprit.
    Audit {
        /// The pass after which the audit failed.
        pass: String,
        /// Every violation the auditor found.
        diagnostics: Vec<khaos_ir::AuditDiagnostic>,
    },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::Verify { pass, report } => {
                write!(f, "pass `{pass}` produced invalid IR: {report}")
            }
            PassError::Unsupported { pass, detail } => {
                write!(f, "pass `{pass}` unsupported: {detail}")
            }
            PassError::Audit { pass, diagnostics } => {
                write!(
                    f,
                    "pass `{pass}` changed observable behavior ({} violation(s)):",
                    diagnostics.len()
                )?;
                for d in diagnostics.iter().take(8) {
                    write!(f, " {d};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PassError {}

/// The one seeded context threaded through every pass of a pipeline.
///
/// Subsumes the legacy `KhaosContext` and `OllvmContext`: a single RNG
/// stream (lent to each transform via [`PassCtx::lend_khaos`] /
/// [`PassCtx::lend_ollvm`]), the Khaos tuning options, the Table-2
/// statistics sinks, and the verification policy.
#[derive(Debug)]
pub struct PassCtx {
    seed: u64,
    rng: StdRng,
    /// Khaos tuning knobs in effect (pass arguments override these
    /// per-pass without mutating the context).
    pub options: KhaosOptions,
    /// Accumulated fission counters (Table 2, upper half).
    pub fission_stats: FissionStats,
    /// Accumulated fusion counters (Table 2, lower half).
    pub fusion_stats: FusionStats,
    /// When the pipeline re-verifies the module.
    pub verify: VerifyPolicy,
}

impl PassCtx {
    /// A context with default options and [`VerifyPolicy::AfterEach`].
    pub fn new(seed: u64) -> Self {
        Self::with_options(seed, KhaosOptions::default())
    }

    /// A context with explicit Khaos options.
    pub fn with_options(seed: u64, options: KhaosOptions) -> Self {
        PassCtx {
            seed,
            rng: StdRng::seed_from_u64(seed),
            options,
            fission_stats: FissionStats::default(),
            fusion_stats: FusionStats::default(),
            verify: VerifyPolicy::default(),
        }
    }

    /// Sets the verification policy (builder style).
    pub fn with_verify(mut self, policy: VerifyPolicy) -> Self {
        self.verify = policy;
        self
    }

    /// The seed this context was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Direct access to the context's RNG stream (for custom passes).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Lends the RNG stream to a Khaos transform as a `KhaosContext`
    /// carrying `options` (or this context's options when `None`),
    /// then takes the stream back and merges the collected statistics.
    ///
    /// This is what keeps a pass sequence byte-identical to the legacy
    /// monolithic entry points: both consume the same single stream in
    /// the same order.
    pub fn lend_khaos<R>(
        &mut self,
        options: Option<KhaosOptions>,
        f: impl FnOnce(&mut KhaosContext) -> R,
    ) -> R {
        let rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let options = options.unwrap_or_else(|| self.options.clone());
        let mut kctx = KhaosContext::from_rng(rng, options);
        let out = f(&mut kctx);
        let (rng, fission, fusion) = kctx.into_parts();
        self.rng = rng;
        self.fission_stats.merge(&fission);
        self.fusion_stats.merge(&fusion);
        out
    }

    /// Lends the RNG stream to an O-LLVM baseline transform as an
    /// `OllvmContext`, then takes it back.
    pub fn lend_ollvm<R>(&mut self, f: impl FnOnce(&mut OllvmContext) -> R) -> R {
        let rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let mut octx = OllvmContext::from_rng(rng);
        let out = f(&mut octx);
        self.rng = octx.into_rng();
        out
    }
}

/// Module size snapshot for pass reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrShape {
    /// Function definitions.
    pub functions: usize,
    /// Basic blocks across all functions.
    pub blocks: usize,
    /// Instructions across all functions.
    pub insts: usize,
}

impl IrShape {
    /// Measures `m`.
    pub fn of(m: &Module) -> Self {
        IrShape {
            functions: m.functions.len(),
            blocks: m.functions.iter().map(|f| f.blocks.len()).sum(),
            insts: m.inst_count(),
        }
    }
}

impl fmt::Display for IrShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f/{}b/{}i", self.functions, self.blocks, self.insts)
    }
}

/// What one pass did: wall-clock time and the IR delta.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Canonical atom of the pass that ran (e.g. `fusion(arity=3)`).
    pub pass: String,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
    /// Module shape before the pass.
    pub before: IrShape,
    /// Module shape after the pass.
    pub after: IrShape,
}

impl PassReport {
    /// Times `f` over `m` and snapshots the IR shape around it — the
    /// helper every adapter pass builds its report with.
    pub fn capture<E>(
        pass: impl Into<String>,
        m: &mut Module,
        f: impl FnOnce(&mut Module) -> Result<(), E>,
    ) -> Result<PassReport, E> {
        let pass = pass.into();
        let before = IrShape::of(m);
        let _span = khaos_obs::span_with(|| format!("pass:{pass}"));
        let (duration, res) = khaos_obs::timer::time(|| f(m));
        res?;
        Ok(PassReport {
            pass,
            duration,
            before,
            after: IrShape::of(m),
        })
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>9.3}ms  {} -> {}",
            self.pass,
            self.duration.as_secs_f64() * 1e3,
            self.before,
            self.after
        )
    }
}

/// Everything a [`Pipeline::run`] observed.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Canonical spec of the pipeline that ran.
    pub spec: String,
    /// The pipeline's stable fingerprint (build provenance).
    pub fingerprint: u64,
    /// The seed the context was created from.
    pub seed: u64,
    /// Per-pass reports in execution order.
    pub passes: Vec<PassReport>,
    /// Total wall-clock time including verification.
    pub total: Duration,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline `{}` (fingerprint {:016x}, seed {:#x}) in {:.3}ms",
            self.spec,
            self.fingerprint,
            self.seed,
            self.total.as_secs_f64() * 1e3
        )?;
        for p in &self.passes {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// One build-pipeline transform.
///
/// Implementations must be deterministic given the [`PassCtx`] RNG
/// stream, must render their canonical spec atom via `Display`
/// (round-trippable through [`Pipeline::parse`]), and must feed every
/// behaviour-affecting knob into [`Pass::fingerprint`].
pub trait Pass: fmt::Display + Send + Sync {
    /// The pass's canonical spec atom (name plus non-default
    /// arguments). Defaults to the `Display` rendering.
    fn name(&self) -> String {
        self.to_string()
    }

    /// Feeds the pass identity and all knobs into a hasher.
    /// [`Pipeline::fingerprint`] folds these per-pass contributions, in
    /// order, through a stable [`Fingerprint`] hasher.
    fn fingerprint(&self, h: &mut dyn Hasher);

    /// Transforms `m`, returning the timed report (use
    /// [`PassReport::capture`]).
    ///
    /// # Errors
    /// [`PassError::Unsupported`] for out-of-domain configurations.
    /// Verification is the *pipeline's* job (per
    /// [`PassCtx::verify`]) — passes do not self-verify.
    fn run(&self, m: &mut Module, ctx: &mut PassCtx) -> Result<PassReport, PassError>;
}

fn verify_module(m: &Module) -> Result<(), String> {
    khaos_ir::verify::verify_module(m).map_err(|errs| {
        let mut s = String::new();
        for e in errs.iter().take(8) {
            s.push_str(&format!("{e}; "));
        }
        s
    })
}

/// An ordered sequence of passes — the first-class value the experiment
/// drivers, BinTuner and the cache provenance all share.
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl Pipeline {
    /// The empty (identity) pipeline.
    pub fn new() -> Self {
        Pipeline { passes: Vec::new() }
    }

    /// A builder for programmatic construction.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder { passes: Vec::new() }
    }

    /// Parses a pipeline spec (see the crate docs for the grammar).
    /// Whitespace-only input is the empty pipeline.
    ///
    /// # Errors
    /// [`SpecError`] on unknown atoms, unknown or malformed arguments,
    /// or out-of-domain values.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        Ok(Pipeline {
            passes: spec::parse_pipeline(spec)?,
        })
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// The passes in execution order.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// True for the identity pipeline.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// A stable 64-bit fingerprint of the whole pipeline: pass count,
    /// then each pass's identity and knobs in order, through the fixed
    /// [`Fingerprint`] hasher. Equal pipelines (same passes, same
    /// knobs, same order) fingerprint equal on every platform and
    /// release; any knob change changes the value. This is the build
    /// provenance `khaos-diff`'s embedding cache keys on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        h.write_usize(self.passes.len());
        for p in &self.passes {
            p.fingerprint(&mut h);
        }
        h.finish()
    }

    /// Runs every pass in order over `m`, verifying per
    /// [`PassCtx::verify`].
    ///
    /// # Errors
    /// The first [`PassError`] encountered; `m` is left in its
    /// mid-pipeline state (clone first if you need rollback).
    pub fn run(&self, m: &mut Module, ctx: &mut PassCtx) -> Result<PipelineReport, PassError> {
        let _span = khaos_obs::span_with(|| format!("pipeline:{self}"));
        let start = khaos_obs::timer::Stopwatch::start();
        let mut reports = Vec::with_capacity(self.passes.len());
        // Under AuditAfterEach each pass's output summary becomes the next
        // pass's baseline, so the whole pipeline costs one summary per pass
        // plus the initial one.
        let mut summary = match ctx.verify {
            VerifyPolicy::AuditAfterEach => Some(khaos_ir::ModuleSummary::compute(m)),
            _ => None,
        };
        for pass in &self.passes {
            let report = pass.run(m, ctx)?;
            match ctx.verify {
                VerifyPolicy::AfterEach | VerifyPolicy::AuditAfterEach => {
                    let _v = khaos_obs::span("pass:verify");
                    verify_module(m).map_err(|report| PassError::Verify {
                        pass: pass.name(),
                        report,
                    })?;
                }
                VerifyPolicy::AtEnd | VerifyPolicy::Never => {}
            }
            if let Some(before) = summary.take() {
                let _a = khaos_obs::span("pass:audit");
                let (after, diagnostics) = khaos_ir::audit::audit_step(&before, m);
                if !diagnostics.is_empty() {
                    return Err(PassError::Audit {
                        pass: pass.name(),
                        diagnostics,
                    });
                }
                summary = Some(after);
            }
            reports.push(report);
        }
        if ctx.verify == VerifyPolicy::AtEnd && !self.passes.is_empty() {
            verify_module(m).map_err(|report| PassError::Verify {
                pass: self.to_string(),
                report,
            })?;
        }
        Ok(PipelineReport {
            spec: self.to_string(),
            fingerprint: self.fingerprint(),
            seed: ctx.seed(),
            passes: reports,
            total: start.elapsed(),
        })
    }

    /// Convenience: runs over a fresh default context seeded with
    /// `seed`, returning the report and the context (stats).
    ///
    /// # Errors
    /// As [`Pipeline::run`].
    pub fn run_seeded(
        &self,
        m: &mut Module,
        seed: u64,
    ) -> Result<(PipelineReport, PassCtx), PassError> {
        let mut ctx = PassCtx::new(seed);
        let report = self.run(m, &mut ctx)?;
        Ok((report, ctx))
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for p in &self.passes {
            if !first {
                write!(f, " | ")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pipeline({self})")
    }
}

impl std::str::FromStr for Pipeline {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Pipeline::parse(s)
    }
}

/// Pipelines compare by canonical spec: same passes, same knobs, same
/// order. (`Display` is injective over the pass set — every knob is
/// rendered — so this is structural equality.)
impl PartialEq for Pipeline {
    fn eq(&self, other: &Self) -> bool {
        self.passes.len() == other.passes.len()
            && self
                .passes
                .iter()
                .zip(&other.passes)
                .all(|(a, b)| a.to_string() == b.to_string())
    }
}

impl Eq for Pipeline {}

/// Incremental [`Pipeline`] construction.
pub struct PipelineBuilder {
    passes: Vec<Box<dyn Pass>>,
}

impl PipelineBuilder {
    /// Appends any pass.
    pub fn pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends the fission primitive.
    pub fn fission(self) -> Self {
        self.pass(FissionPass)
    }

    /// Appends pairwise fusion with default knobs.
    pub fn fusion(self) -> Self {
        self.pass(FusionPass::default())
    }

    /// Appends the `O2 + LTO` macro-pipeline (the paper's baseline).
    pub fn baseline_opt(self) -> Self {
        self.pass(OptPass::baseline())
    }

    /// Appends every atom of a parsed spec fragment.
    ///
    /// # Errors
    /// [`SpecError`] as in [`Pipeline::parse`].
    pub fn spec(mut self, fragment: &str) -> Result<Self, SpecError> {
        self.passes.extend(spec::parse_pipeline(fragment)?);
        Ok(self)
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            passes: self.passes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pipeline_is_identity_and_roundtrips() {
        let p = Pipeline::parse("  ").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.to_string(), "");
        assert_eq!(Pipeline::parse("").unwrap(), p);
        let mut m = Module::new("m");
        let report = p.run(&mut m, &mut PassCtx::new(1)).unwrap();
        assert!(report.passes.is_empty());
    }

    #[test]
    fn builder_matches_parse() {
        let built = Pipeline::builder()
            .fission()
            .fusion()
            .baseline_opt()
            .build();
        let parsed = Pipeline::parse("fission | fusion | O2+lto").unwrap();
        assert_eq!(built, parsed);
        assert_eq!(built.fingerprint(), parsed.fingerprint());
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = Pipeline::parse("fission | fusion").unwrap();
        let b = Pipeline::parse("fusion | fission").unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b);
    }

    #[test]
    fn lend_without_draws_leaves_the_stream_untouched() {
        use rand::Rng;
        let mut ctx = PassCtx::new(9);
        assert_eq!(ctx.seed(), 9);
        let a: u64 = ctx.rng().gen();
        ctx.lend_khaos(None, |_k| ());
        ctx.lend_ollvm(|_o| ());
        let b: u64 = ctx.rng().gen();
        let mut twin = PassCtx::new(9);
        let ta: u64 = twin.rng().gen();
        let tb: u64 = twin.rng().gen();
        assert_eq!(
            (a, b),
            (ta, tb),
            "lends without draws must not perturb the stream"
        );
    }

    #[test]
    fn lend_khaos_merges_stats() {
        let mut ctx = PassCtx::new(9);
        ctx.lend_khaos(None, |k| {
            k.fission_stats.sep_funcs += 3;
            k.fusion_stats.fus_funcs += 2;
        });
        ctx.lend_khaos(None, |k| k.fission_stats.sep_funcs += 4);
        assert_eq!(ctx.fission_stats.sep_funcs, 7);
        assert_eq!(ctx.fusion_stats.fus_funcs, 2);
    }
}
