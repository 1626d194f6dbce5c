//! # khaos — facade crate
//!
//! Re-exports the whole Khaos reproduction (CGO 2023): the KIR compiler
//! substrate, the optimizer, the fission/fusion obfuscator, the O-LLVM and
//! BinTuner baselines, the unified `khaos-pass` build-pipeline API, the
//! synthetic binary codegen, the five binary diffing techniques, the
//! corpus-scale ANN index tier and its socket query daemon, the
//! benchmark workloads and the execution VM.
//!
//! Builds are declarative pipelines: `khaos::pass::Pipeline::parse(
//! "fufi_all | O2+lto")` is the paper's shipped configuration, with
//! per-pass reports and a stable provenance fingerprint.
//!
//! ```
//! use khaos::prelude::*;
//!
//! // Generate a small workload program, obfuscate it, and check that the
//! // obfuscated build still computes the same outputs.
//! let module = khaos::workloads::coreutils_program("demo_tool", 7);
//! let baseline = khaos::vm::run_to_completion(&module, &[]).unwrap();
//!
//! let mut obf = module.clone();
//! let mut ctx = KhaosContext::new(42);
//! khaos::obfuscate::fufi_ori(&mut obf, &mut ctx).unwrap();
//! let obfuscated = khaos::vm::run_to_completion(&obf, &[]).unwrap();
//! assert_eq!(baseline.output, obfuscated.output);
//! ```

pub use khaos_binary as binary;
pub use khaos_bintuner as bintuner;
pub use khaos_core as obfuscate;
pub use khaos_diff as diff;
pub use khaos_index as index;
pub use khaos_ir as ir;
pub use khaos_ollvm as ollvm;
pub use khaos_opt as opt;
pub use khaos_par as par;
pub use khaos_pass as pass;
pub use khaos_serve as serve;
pub use khaos_store as store;
pub use khaos_vm as vm;
pub use khaos_workloads as workloads;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use khaos_binary::lower_module;
    pub use khaos_core::{KhaosContext, KhaosOptions};
    pub use khaos_ir::{Module, Type};
    pub use khaos_opt::{optimize, OptLevel, OptOptions};
    pub use khaos_pass::{Pass, PassCtx, Pipeline, VerifyPolicy};
    pub use khaos_vm::run_to_completion;
}
