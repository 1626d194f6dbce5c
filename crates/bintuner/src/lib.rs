//! # khaos-bintuner — the BinTuner comparison baseline
//!
//! BinTuner (Ren et al., PLDI 2021) searches *compiler option sequences*
//! that maximise the binary difference from a reference build, showing how
//! much "hidden power" plain optimization flags have against diffing.
//! The paper compares Khaos against it in Figure 9.
//!
//! This reproduction searches the same kind of space — toggles over the
//! scalar pass pipeline, the inliner threshold and LTO — with a seeded
//! hill-climbing loop (BinTuner's genetic search collapses to this at our
//! scale), scoring candidates by BinDiff similarity against the `-O0`
//! build, exactly as the original tool does.
//!
//! The search space is *pipelines*: every [`TunerConfig`] is a
//! declarative generator of a [`khaos_pass::Pipeline`]
//! ([`TunerConfig::pipeline`]), candidate mutation is pipeline mutation,
//! and the winning candidate's spec and fingerprint come back in the
//! [`TunedResult`] as build provenance.

use khaos_binary::{lower_module, Binary};
use khaos_diff::{binary_similarity, BinDiff};
use khaos_ir::Module;
use khaos_pass::{InlinePass, PassCtx, Pipeline, ScalarKind, ScalarPass, VerifyPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors constructing tuner configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TunerError {
    /// A pipeline repetition count outside [`Rounds::MIN`]..=[`Rounds::MAX`].
    RoundsOutOfRange(u8),
}

impl fmt::Display for TunerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunerError::RoundsOutOfRange(n) => write!(
                f,
                "rounds {n} outside the supported range {}..={}",
                Rounds::MIN.get(),
                Rounds::MAX.get()
            ),
        }
    }
}

impl std::error::Error for TunerError {}

/// Number of pipeline repetitions, valid by construction (1–3).
///
/// The range used to be enforced by a silent `clamp(1, 3)` inside
/// `TunerConfig::apply`, which would quietly rewrite out-of-range search
/// candidates; now an out-of-range count is a constructor [`TunerError`]
/// and every held value is valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rounds(u8);

impl Rounds {
    /// The minimum (single application).
    pub const MIN: Rounds = Rounds(1);
    /// The maximum repetition count the search explores.
    pub const MAX: Rounds = Rounds(3);

    /// Validates a repetition count.
    ///
    /// # Errors
    /// [`TunerError::RoundsOutOfRange`] outside `1..=3`.
    pub fn new(n: u8) -> Result<Rounds, TunerError> {
        if (Self::MIN.0..=Self::MAX.0).contains(&n) {
            Ok(Rounds(n))
        } else {
            Err(TunerError::RoundsOutOfRange(n))
        }
    }

    /// The validated count.
    pub fn get(self) -> u8 {
        self.0
    }
}

/// One point in the option space — a declarative pipeline generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunerConfig {
    /// mem2reg on/off.
    pub mem2reg: bool,
    /// Constant propagation / folding on/off.
    pub constprop: bool,
    /// Local CSE on/off.
    pub cse: bool,
    /// Dead-code elimination on/off.
    pub dce: bool,
    /// CFG simplification on/off.
    pub simplifycfg: bool,
    /// Inliner threshold; 0 disables inlining.
    pub inline_threshold: usize,
    /// Dead-function elimination (the LTO effect).
    pub lto: bool,
    /// Number of pipeline repetitions.
    pub rounds: Rounds,
}

impl TunerConfig {
    /// The `-O0` reference configuration.
    pub fn o0() -> Self {
        TunerConfig {
            mem2reg: false,
            constprop: false,
            cse: false,
            dce: false,
            simplifycfg: false,
            inline_threshold: 0,
            lto: false,
            rounds: Rounds::MIN,
        }
    }

    /// The pipeline this configuration denotes: `rounds` repetitions of
    /// the enabled scalar passes plus the inliner, then `dfe` under
    /// LTO. The spec round-trips through `khaos_pass::Pipeline::parse`.
    pub fn pipeline(&self) -> Pipeline {
        let mut b = Pipeline::builder();
        for _ in 0..self.rounds.get() {
            for (enabled, kind) in [
                (self.mem2reg, ScalarKind::Mem2Reg),
                (self.constprop, ScalarKind::ConstProp),
                (self.cse, ScalarKind::Cse),
                (self.dce, ScalarKind::Dce),
                (self.simplifycfg, ScalarKind::SimplifyCfg),
            ] {
                if enabled {
                    b = b.pass(ScalarPass { kind });
                }
            }
            if self.inline_threshold > 0 {
                b = b.pass(InlinePass {
                    threshold: self.inline_threshold,
                    exported: self.lto,
                });
            }
        }
        if self.lto {
            b = b.pass(khaos_pass::DfePass);
        }
        b.build()
    }

    /// Build-provenance fingerprint of [`TunerConfig::pipeline`].
    pub fn fingerprint(&self) -> u64 {
        self.pipeline().fingerprint()
    }

    /// Applies this configuration's pipeline to a module (compatibility
    /// wrapper over [`TunerConfig::pipeline`]).
    ///
    /// Hot search sweeps skip verification ([`VerifyPolicy::Never`]) —
    /// tuner pipelines are composed purely of trusted scalar passes. Set
    /// `KHAOS_AUDIT=1` to run every candidate build under
    /// [`VerifyPolicy::AuditAfterEach`] instead (structural verification
    /// plus the semantic observable-behavior audit after each pass), the
    /// mode to use when bisecting a suspected tuner miscompile.
    pub fn apply(&self, m: &mut Module) {
        let verify = if std::env::var_os("KHAOS_AUDIT").is_some_and(|v| v == "1") {
            VerifyPolicy::AuditAfterEach
        } else {
            VerifyPolicy::Never
        };
        let mut ctx = PassCtx::new(0).with_verify(verify);
        self.pipeline()
            .run(m, &mut ctx)
            .unwrap_or_else(|e| panic!("tuner pipeline failed: {e}"));
    }

    fn mutate(&self, rng: &mut StdRng) -> Self {
        let mut c = *self;
        match rng.gen_range(0..8u8) {
            0 => c.mem2reg = !c.mem2reg,
            1 => c.constprop = !c.constprop,
            2 => c.cse = !c.cse,
            3 => c.dce = !c.dce,
            4 => c.simplifycfg = !c.simplifycfg,
            5 => c.inline_threshold = [0usize, 16, 48, 96, 160][rng.gen_range(0..5)],
            6 => c.lto = !c.lto,
            _ => {
                c.rounds = Rounds::new(rng.gen_range(Rounds::MIN.get()..=Rounds::MAX.get()))
                    .expect("sampled within the valid range")
            }
        }
        c
    }

    fn random(rng: &mut StdRng) -> Self {
        TunerConfig {
            mem2reg: rng.gen_bool(0.5),
            constprop: rng.gen_bool(0.5),
            cse: rng.gen_bool(0.5),
            dce: rng.gen_bool(0.5),
            simplifycfg: rng.gen_bool(0.5),
            inline_threshold: [0usize, 16, 48, 96, 160][rng.gen_range(0..5)],
            lto: rng.gen_bool(0.5),
            rounds: Rounds::new(rng.gen_range(Rounds::MIN.get()..=Rounds::MAX.get()))
                .expect("sampled within the valid range"),
        }
    }
}

/// Search output.
#[derive(Clone, Debug)]
pub struct TunedResult {
    /// The best configuration found.
    pub config: TunerConfig,
    /// The best configuration's pipeline spec (round-trippable through
    /// `khaos_pass::Pipeline::parse`).
    pub spec: String,
    /// Its BinDiff similarity against the `-O0` reference (lower = more
    /// different = better for BinTuner).
    pub similarity_vs_o0: f64,
    /// The tuned module.
    pub module: Module,
    /// The tuned binary, stamped with the winning pipeline's
    /// fingerprint as build provenance.
    pub binary: Binary,
    /// Candidate evaluations spent.
    pub evaluations: usize,
}

/// The iterative search driver.
#[derive(Clone, Debug)]
pub struct BinTuner {
    /// Candidate evaluation budget.
    pub budget: usize,
    /// Search seed.
    pub seed: u64,
}

impl Default for BinTuner {
    fn default() -> Self {
        BinTuner {
            budget: 24,
            seed: 0xB17,
        }
    }
}

impl BinTuner {
    /// Runs the search on `source` (an unoptimized module), maximising
    /// difference against its `-O0` build. Candidates are pipeline
    /// mutations (`TunerConfig::mutate` flips one pipeline knob);
    /// each candidate builds through its generated pipeline.
    pub fn tune(&self, source: &Module) -> TunedResult {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let differ = BinDiff::default();
        let baseline = lower_module(source); // -O0 reference

        let evaluate = |cfg: &TunerConfig| -> (f64, Module, Binary) {
            let mut m = source.clone();
            cfg.apply(&mut m);
            let bin = lower_module(&m).with_build_provenance(cfg.fingerprint());
            let sim = binary_similarity(&differ, &baseline, &bin);
            (sim, m, bin)
        };

        let mut best_cfg = TunerConfig::random(&mut rng);
        let (mut best_sim, mut best_mod, mut best_bin) = evaluate(&best_cfg);
        let mut evaluations = 1;
        while evaluations < self.budget {
            // Mostly hill-climb, occasionally restart (genetic flavour).
            let cand = if evaluations % 7 == 6 {
                TunerConfig::random(&mut rng)
            } else {
                best_cfg.mutate(&mut rng)
            };
            let (sim, m, bin) = evaluate(&cand);
            evaluations += 1;
            if sim < best_sim {
                best_sim = sim;
                best_cfg = cand;
                best_mod = m;
                best_bin = bin;
            }
        }
        // With a persistent store configured (KHAOS_STORE), record the
        // winning configuration as an experiment artifact keyed by its
        // pipeline fingerprint — a later sweep can read which spec won
        // for this program without re-running the search.
        if let Some(store) = khaos_diff::EmbeddingCache::global().store() {
            let _ = store.put_report(&khaos_store::StoredReport {
                spec: best_cfg.pipeline().to_string(),
                pipeline: best_cfg.fingerprint(),
                seed: self.seed,
                subject: format!("bintuner/{}", source.name),
                total_micros: 0,
                passes: Vec::new(),
                metrics: vec![
                    ("similarity_vs_o0".into(), best_sim),
                    ("evaluations".into(), evaluations as f64),
                ],
            });
        }
        TunedResult {
            config: best_cfg,
            spec: best_cfg.pipeline().to_string(),
            similarity_vs_o0: best_sim,
            module: best_mod,
            binary: best_bin,
            evaluations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_workloads::coreutils_program;

    #[test]
    fn search_reduces_similarity_vs_o0() {
        let src = coreutils_program("cat", 3);
        let tuner = BinTuner {
            budget: 12,
            seed: 1,
        };
        let result = tuner.tune(&src);
        // Identity config would give 1.0; the search must find something
        // meaningfully different.
        assert!(
            result.similarity_vs_o0 < 0.999,
            "got {}",
            result.similarity_vs_o0
        );
        assert_eq!(result.evaluations, 12);
        khaos_ir::verify::assert_valid(&result.module);
    }

    #[test]
    fn tuned_module_preserves_behaviour() {
        let src = coreutils_program("wc", 7);
        let want = khaos_vm::run_to_completion(&src, &[5]).unwrap();
        let result = BinTuner {
            budget: 10,
            seed: 2,
        }
        .tune(&src);
        let got = khaos_vm::run_to_completion(&result.module, &[5]).unwrap();
        assert_eq!(
            want.output, got.output,
            "optimization must preserve behaviour"
        );
        assert_eq!(want.exit_code, got.exit_code);
    }

    #[test]
    fn search_is_deterministic() {
        let src = coreutils_program("ls", 1);
        let a = BinTuner { budget: 8, seed: 9 }.tune(&src);
        let b = BinTuner { budget: 8, seed: 9 }.tune(&src);
        assert_eq!(a.config, b.config);
        assert_eq!(a.similarity_vs_o0, b.similarity_vs_o0);
    }

    #[test]
    fn o0_config_is_identity() {
        let src = coreutils_program("rm", 4);
        let mut m = src.clone();
        TunerConfig::o0().apply(&mut m);
        assert_eq!(m, src);
        assert!(TunerConfig::o0().pipeline().is_empty());
    }

    #[test]
    fn rounds_validate_instead_of_clamping() {
        assert_eq!(Rounds::new(0), Err(TunerError::RoundsOutOfRange(0)));
        assert_eq!(Rounds::new(4), Err(TunerError::RoundsOutOfRange(4)));
        assert_eq!(Rounds::new(2).unwrap().get(), 2);
        assert_eq!(Rounds::MIN.get(), 1);
        assert_eq!(Rounds::MAX.get(), 3);
    }

    #[test]
    fn config_denotes_a_roundtrippable_pipeline() {
        let cfg = TunerConfig {
            mem2reg: true,
            constprop: true,
            cse: false,
            dce: true,
            simplifycfg: true,
            inline_threshold: 96,
            lto: true,
            rounds: Rounds::new(2).unwrap(),
        };
        let p = cfg.pipeline();
        assert_eq!(
            p.to_string(),
            "mem2reg | constprop | dce | simplifycfg | \
             inline(threshold=96,exported=true) | mem2reg | constprop | dce | simplifycfg | \
             inline(threshold=96,exported=true) | dfe"
        );
        let reparsed = Pipeline::parse(&p.to_string()).unwrap();
        assert_eq!(reparsed, p);
        assert_eq!(reparsed.fingerprint(), cfg.fingerprint());
        // Distinct configs, distinct provenance.
        let mut other = cfg;
        other.rounds = Rounds::MIN;
        assert_ne!(other.fingerprint(), cfg.fingerprint());
    }

    #[test]
    fn apply_matches_pipeline_run() {
        let src = coreutils_program("sort", 12);
        let cfg = TunerConfig {
            mem2reg: true,
            constprop: true,
            cse: true,
            dce: true,
            simplifycfg: true,
            inline_threshold: 48,
            lto: true,
            rounds: Rounds::new(3).unwrap(),
        };
        let mut a = src.clone();
        cfg.apply(&mut a);
        let mut b = src.clone();
        let mut ctx = PassCtx::new(0).with_verify(VerifyPolicy::Never);
        cfg.pipeline().run(&mut b, &mut ctx).unwrap();
        assert_eq!(a, b);
    }
}
