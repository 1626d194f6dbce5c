//! The Figure-10 and Figure-7 grids, driven through the crates' public
//! APIs with a span around every call into a layer.
//!
//! Each grid does exactly the work of its public driver
//! (`khaos_bench::experiments::fig10_cells` / `fig7_cells`): one
//! `O2+lto` baseline per program (seed `harness::SEED`), then one
//! audited obfuscated build per `(config, program)` unit at the workload
//! seed, and per unit either the three escape profiles (fig10) or the
//! VM cycle count (fig7). The only additions are explicit embedding
//! lookups before ranking, so embedding and ranking time separate; the
//! lookups hit the same cache entries `escape_profile` would fill.

use crate::trace::{self, span};
use khaos_bench::experiments::{fig10_configs, fig10_subject, fig7_configs, FIG10_KS};
use khaos_bench::harness::{
    artifact_store, overhead_pct, persist_metrics_to, stored_report, BuildConfig, SEED,
};
use khaos_binary::{lower_module, Binary};
use khaos_diff::{escape_profile, Asm2Vec, Differ, EmbeddingCache, Safe, VulSeeker};
use khaos_ir::Module;
use khaos_pass::{PassCtx, Pipeline, PipelineReport, VerifyPolicy};
use khaos_vm::{run_with_config, RunConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

/// Runs `f`, turning a panic into `None` (a failed operation).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Counts and report-derived durations of one phase (a grid or a
/// set-up), summed over its builds.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub pipeline_s: f64,
    pub builds: u64,
    pub check_s: f64,
    pub core_s: f64,
    pub ollvm_s: f64,
    pub o2lto_s: f64,
    pub insts_after_obf: u64,
    pub insts_after_opt: u64,
    pub minsts: u64,
    pub vm_steps: u64,
    pub vm_cycles: u64,
    pub embed_functions: u64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        self.pipeline_s += o.pipeline_s;
        self.builds += o.builds;
        self.check_s += o.check_s;
        self.core_s += o.core_s;
        self.ollvm_s += o.ollvm_s;
        self.o2lto_s += o.o2lto_s;
        self.insts_after_obf += o.insts_after_obf;
        self.insts_after_opt += o.insts_after_opt;
        self.minsts += o.minsts;
        self.vm_steps += o.vm_steps;
        self.vm_cycles += o.vm_cycles;
        self.embed_functions += o.embed_functions;
    }

    fn add_report(&mut self, report: &PipelineReport, obfuscated: bool) {
        let total = report.total.as_secs_f64();
        let passes: f64 = report.passes.iter().map(|p| p.duration.as_secs_f64()).sum();
        self.pipeline_s += total;
        self.builds += 1;
        self.check_s += total - passes;
        for p in &report.passes {
            let d = p.duration.as_secs_f64();
            if p.pass.starts_with('O') {
                self.o2lto_s += d;
            } else if ["sub", "bog", "fla"].iter().any(|a| p.pass.starts_with(a)) {
                self.ollvm_s += d;
            } else {
                self.core_s += d;
            }
        }
        if obfuscated {
            if let (Some(first), Some(last)) = (report.passes.first(), report.passes.last()) {
                self.insts_after_obf += first.after.insts as u64;
                self.insts_after_opt += last.after.insts as u64;
            }
        }
    }
}

/// One build the traced run replays through the optimizer sub-passes.
pub struct BuildRec {
    pub src: Module,
    pub spec: String,
    pub seed: u64,
    pub out: Module,
}

/// Shared state of one phase: layer sums, and (when `record`) every
/// build's input and output for the optimizer replay.
#[derive(Default)]
pub struct Phase {
    pub layers: Mutex<Layers>,
    pub record: bool,
    pub builds: Mutex<Vec<BuildRec>>,
}

impl Phase {
    pub fn recording() -> Phase {
        Phase {
            record: true,
            ..Phase::default()
        }
    }

    pub fn layers(&self) -> Layers {
        self.layers.lock().expect("layer sums poisoned").clone()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Layers) -> R) -> R {
        f(&mut self.layers.lock().expect("layer sums poisoned"))
    }

    /// `harness::run_spec`, with the pipeline report kept: parse, clone,
    /// run under `AuditAfterEach`, persist the report when a store is
    /// attached.
    pub fn build(&self, src: &Module, spec: &str, seed: u64) -> Module {
        let pipeline = Pipeline::parse(spec).unwrap_or_else(|e| panic!("spec `{spec}`: {e}"));
        let mut m = src.clone();
        let mut ctx = PassCtx::new(seed).with_verify(VerifyPolicy::AuditAfterEach);
        let report = {
            let _s = span("pass.pipeline");
            pipeline
                .run(&mut m, &mut ctx)
                .unwrap_or_else(|e| panic!("pipeline `{spec}` on {}: {e}", src.name))
        };
        if let Some(store) = artifact_store() {
            let _s = span("store.put");
            let _ = store.put_report(&stored_report(&src.name, &report));
        }
        self.with(|l| l.add_report(&report, spec != "O2+lto"));
        if self.record {
            self.builds
                .lock()
                .expect("build records poisoned")
                .push(BuildRec {
                    src: src.clone(),
                    spec: spec.to_string(),
                    seed,
                    out: m.clone(),
                });
        }
        m
    }

    pub fn lower(&self, m: &Module) -> Binary {
        let bin = {
            let _s = span("binary.lower");
            lower_module(m)
        };
        self.with(|l| l.minsts += bin.inst_count() as u64);
        bin
    }

    /// One VM run on the inputs `harness::measure_cycles` uses.
    pub fn run_vm(&self, m: &Module) -> Option<VmOut> {
        let r = {
            let _s = span("vm.run");
            run_with_config(m, vm_config())
        }
        .ok()?;
        self.with(|l| {
            l.vm_steps += r.steps;
            l.vm_cycles += r.cycles;
        });
        Some(VmOut {
            output: r.output,
            exit_code: r.exit_code,
            cycles: r.cycles,
        })
    }

    /// Fetches `bin`'s embeddings for `tool` through the global cache
    /// (memory → attached store → embed), under the cache key
    /// `escape_profile` uses.
    pub fn embeddings(
        &self,
        tool: &dyn Differ,
        bin: &Binary,
        fingerprint: u64,
    ) -> std::sync::Arc<khaos_diff::FunctionEmbeddings> {
        let _s = span("diff.cache.lookup");
        EmbeddingCache::global().get_or_embed(
            (tool.name(), tool.config_fingerprint(), fingerprint),
            || {
                let _e = span(embed_span(tool.name()));
                self.with(|l| l.embed_functions += bin.functions.len() as u64);
                tool.embed(bin)
            },
        )
    }
}

pub fn vm_config() -> RunConfig {
    RunConfig {
        inputs: vec![3, 7, 11],
        ..RunConfig::default()
    }
}

/// What the correctness gate compares of a VM run.
#[derive(Clone, Debug, PartialEq)]
pub struct VmOut {
    pub output: Vec<i64>,
    pub exit_code: i64,
    pub cycles: u64,
}

pub fn embed_span(tool: &str) -> &'static str {
    match tool {
        "VulSeeker" => "diff.embed.vulseeker",
        "Asm2Vec" => "diff.embed.asm2vec",
        "SAFE" => "diff.embed.safe",
        _ => "diff.embed.other",
    }
}

/// The three learning-based differs of Figure 10, in column order.
pub fn tools() -> Vec<Box<dyn Differ + Sync>> {
    vec![
        Box::new(VulSeeker::default()),
        Box::new(Asm2Vec::default()),
        Box::new(Safe::default()),
    ]
}

/// One grid cell: its identity and its values.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub key: String,
    pub values: Vec<f64>,
}

/// FNV-1a over every cell's key and value bits, in grid order.
pub fn digest(cells: &[Cell]) -> u64 {
    let mut bytes = Vec::new();
    for c in cells {
        bytes.extend_from_slice(c.key.as_bytes());
        for v in &c.values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    khaos_store::fnv1a(&bytes)
}

/// The outcome of one grid.
#[derive(Default)]
pub struct GridRun {
    pub cells: Vec<Cell>,
    pub unit_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Every built module with its program, when kept for the VM gate.
    pub modules: Vec<(String, Module)>,
    /// Every VM result with its program, when kept for the VM gate.
    pub vm: Vec<(String, VmOut)>,
}

/// A grid workload: its programs, its obfuscation seed, and its kind.
/// Round `r` runs the grid over `per_round` programs taken cyclically
/// from `order`, starting at `r * per_round`.
pub struct Grid {
    pub programs: Vec<Module>,
    pub seed: u64,
    pub kind: Kind,
    pub order: Vec<usize>,
    pub per_round: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fig10,
    Fig7,
}

impl Grid {
    pub fn configs(&self) -> Vec<(String, BuildConfig)> {
        match self.kind {
            Kind::Fig10 => fig10_configs(),
            Kind::Fig7 => fig7_configs(),
        }
    }

    /// The programs of round `r`.
    pub fn round(&self, r: usize) -> Vec<&Module> {
        (0..self.per_round.min(self.order.len()))
            .map(|j| &self.programs[self.order[(r * self.per_round + j) % self.order.len()]])
            .collect()
    }

    /// Runs round `r` of the grid. `keep` retains what the VM gate needs.
    pub fn run(&self, r: usize, phase: &Phase, keep: bool) -> GridRun {
        let programs = self.round(r);
        let t0 = Instant::now();
        let c0 = crate::sys::process_cpu_s();
        let mut out = {
            let _root = trace::root("grid");
            match self.kind {
                Kind::Fig10 => self.fig10(&programs, phase, keep),
                Kind::Fig7 => self.fig7(&programs, phase, keep),
            }
        };
        out.wall_s = t0.elapsed().as_secs_f64();
        out.cpu_s = crate::sys::process_cpu_s() - c0;
        out
    }

    fn fig10(&self, programs: &[&Module], phase: &Phase, keep: bool) -> GridRun {
        let configs = self.configs();
        let tools = tools();
        let prepared: Vec<Option<(Binary, u64, Module)>> =
            khaos_par::par_map_slice(programs, |src| {
                guarded(|| {
                    let _u = span("grid.baseline");
                    let base = phase.build(src, "O2+lto", SEED);
                    let bin = phase.lower(&base);
                    let fp = bin.fingerprint();
                    (bin, fp, base)
                })
            });
        let grid: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|ci| (0..programs.len()).map(move |pi| (ci, pi)))
            .collect();
        let units = khaos_par::par_map_slice(&grid, |&(ci, pi)| {
            let t = Instant::now();
            let r = prepared[pi].as_ref().and_then(|(base_bin, base_fp, base)| {
                guarded(|| {
                    let _u = span("grid.unit");
                    let (cfg_name, cfg) = &configs[ci];
                    let obf = phase.build(base, &cfg.spec(), self.seed);
                    let obf_bin = phase.lower(&obf).with_build_provenance(cfg.fingerprint());
                    let obf_fp = obf_bin.fingerprint();
                    let cells: Vec<Cell> = tools
                        .iter()
                        .map(|tool| {
                            phase.embeddings(tool.as_ref(), base_bin, *base_fp);
                            phase.embeddings(tool.as_ref(), &obf_bin, obf_fp);
                            let profile = {
                                let _s = span("diff.rank");
                                escape_profile(tool.as_ref(), base_bin, &obf_bin, &FIG10_KS)
                            };
                            let key = fig10_subject(&base_bin.name, cfg_name, tool.name());
                            if let Some(store) = artifact_store() {
                                let _s = span("store.put");
                                persist_metrics_to(
                                    &store,
                                    &key,
                                    cfg.fingerprint(),
                                    &[
                                        ("escape@1", profile[0]),
                                        ("escape@10", profile[1]),
                                        ("escape@50", profile[2]),
                                    ],
                                );
                            }
                            Cell {
                                key,
                                values: profile,
                            }
                        })
                        .collect();
                    (cells, keep.then_some(obf))
                })
            });
            (t.elapsed().as_secs_f64() * 1e3, r)
        });
        let mut out = GridRun::default();
        for (pi, p) in prepared.into_iter().enumerate() {
            if let (true, Some((_, _, base))) = (keep, p) {
                out.modules.push((programs[pi].name.clone(), base));
            }
        }
        for (&(_, pi), (ms, r)) in grid.iter().zip(units) {
            out.attempted += tools.len();
            out.unit_ms.push(ms);
            match r {
                Some((cells, obf)) => {
                    out.cells.extend(cells);
                    if let Some(obf) = obf {
                        out.modules.push((programs[pi].name.clone(), obf));
                    }
                }
                None => out.failed += tools.len(),
            }
        }
        out
    }

    fn fig7(&self, programs: &[&Module], phase: &Phase, keep: bool) -> GridRun {
        let configs = self.configs();
        let prepared: Vec<Option<(Module, VmOut)>> = khaos_par::par_map_slice(programs, |src| {
            guarded(|| {
                let _u = span("grid.baseline");
                let base = phase.build(src, "O2+lto", SEED);
                let run = phase.run_vm(&base)?;
                Some((base, run))
            })
            .flatten()
        });
        let grid: Vec<(usize, usize)> = (0..configs.len())
            .flat_map(|ci| (0..programs.len()).map(move |pi| (ci, pi)))
            .collect();
        let units = khaos_par::par_map_slice(&grid, |&(ci, pi)| {
            let t = Instant::now();
            let r = prepared[pi].as_ref().and_then(|(base, base_run)| {
                guarded(|| {
                    let _u = span("grid.unit");
                    let (cfg_name, cfg) = &configs[ci];
                    let obf = phase.build(base, &cfg.spec(), self.seed);
                    let run = phase.run_vm(&obf)?;
                    let cell = Cell {
                        key: format!("{}/{cfg_name}", base.name),
                        values: vec![overhead_pct(base_run.cycles, run.cycles)],
                    };
                    Some((cell, run))
                })
                .flatten()
            });
            (t.elapsed().as_secs_f64() * 1e3, r)
        });
        let mut out = GridRun::default();
        for (pi, p) in prepared.iter().enumerate() {
            if let (true, Some((_, run))) = (keep, p) {
                out.vm.push((programs[pi].name.clone(), run.clone()));
            }
        }
        for (&(_, pi), (ms, r)) in grid.iter().zip(units) {
            out.attempted += 1;
            out.unit_ms.push(ms);
            match r {
                Some((cell, run)) => {
                    out.cells.push(cell);
                    if keep {
                        out.vm.push((programs[pi].name.clone(), run));
                    }
                }
                None => out.failed += 1,
            }
        }
        out
    }
}

/// Every fig10 binary in program order — each program's baseline
/// followed by its six obfuscated builds — with its fingerprint, built
/// exactly as the fig10 grid builds them.
pub fn fig10_binaries(programs: &[Module], seed: u64, phase: &Phase) -> Vec<(Binary, u64)> {
    let configs = fig10_configs();
    let bases = khaos_par::par_map_slice(programs, |src| phase.build(src, "O2+lto", SEED));
    let jobs: Vec<(usize, Option<usize>)> = (0..programs.len())
        .flat_map(|p| {
            std::iter::once((p, None)).chain((0..configs.len()).map(move |c| (p, Some(c))))
        })
        .collect();
    khaos_par::par_map_slice(&jobs, |&(p, c)| {
        let bin = match c {
            None => phase.lower(&bases[p]),
            Some(c) => {
                let cfg = configs[c].1;
                let obf = phase.build(&bases[p], &cfg.spec(), seed);
                phase.lower(&obf).with_build_provenance(cfg.fingerprint())
            }
        };
        let fp = bin.fingerprint();
        (bin, fp)
    })
}

/// Cell keys whose values differ between rounds (every round of a
/// seed must reproduce every cell bit for bit, traced or not).
pub fn inconsistent_cells<'a>(rounds: impl Iterator<Item = &'a GridRun>) -> usize {
    let mut seen: std::collections::BTreeMap<&str, Vec<u64>> = std::collections::BTreeMap::new();
    let mut bad = std::collections::BTreeSet::new();
    for r in rounds {
        for c in &r.cells {
            let b = bits(&c.values);
            match seen.get(c.key.as_str()) {
                Some(prev) if *prev != b => {
                    bad.insert(c.key.as_str());
                }
                Some(_) => {}
                None => {
                    seen.insert(&c.key, b);
                }
            }
        }
    }
    bad.len()
}

/// Cells whose key is missing from `reference` or whose value bits
/// differ from it, plus reference cells `mine` lacks.
pub fn mismatches(mine: &[Cell], reference: &[Cell]) -> usize {
    let mut bad = 0;
    for r in reference {
        match mine.iter().find(|c| c.key == r.key) {
            Some(c) if bits(&c.values) == bits(&r.values) => {}
            _ => bad += 1,
        }
    }
    bad + mine
        .iter()
        .filter(|c| !reference.iter().any(|r| r.key == c.key))
        .count()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The un-optimized source modules' VM results, by program name — the
/// independent reference every built module must reproduce.
pub fn vm_reference(programs: &[Module]) -> Vec<(String, Option<VmOut>)> {
    let phase = Phase::default();
    khaos_par::par_map_slice(programs, |m| {
        (m.name.clone(), guarded(|| phase.run_vm(m)).flatten())
    })
}

/// Built modules or VM results whose output or exit code differ from
/// their source module's (or whose run faulted).
pub fn vm_mismatches(
    reference: &[(String, Option<VmOut>)],
    modules: &[(String, Module)],
    runs: &[(String, VmOut)],
) -> usize {
    let expect = |program: &str| -> Option<&VmOut> {
        reference
            .iter()
            .find(|(n, _)| n == program)
            .and_then(|(_, r)| r.as_ref())
    };
    let same = |program: &str, got: &VmOut| {
        expect(program).is_some_and(|e| e.output == got.output && e.exit_code == got.exit_code)
    };
    let phase = Phase::default();
    let module_runs = khaos_par::par_map_slice(modules, |(program, m)| {
        guarded(|| phase.run_vm(m))
            .flatten()
            .is_some_and(|got| same(program, &got))
    });
    module_runs.iter().filter(|ok| !**ok).count()
        + runs.iter().filter(|(p, got)| !same(p, got)).count()
}

/// Escape values must lie in `[0, 1]` and never rise with `k`.
pub fn escape_shape_violations(cells: &[Cell]) -> usize {
    cells
        .iter()
        .filter(|c| {
            c.values.iter().any(|v| !(0.0..=1.0).contains(v))
                || c.values.windows(2).any(|w| w[1] > w[0])
        })
        .count()
}

/// The seven heaviest T-I programs for fig7 (each over 0.9 s of serial
/// work on a 2-core x86-64 host, up to eight times a typical program).
/// They stay out of the timed rounds at every seed: together they take
/// nearly half of the suite's work, so a round's wall time and the tail
/// of its unit latencies would follow them rather than the rest.
const T1_EXCLUDED: [&str; 7] = [
    "625.x264_s",
    "400.perlbench",
    "644.nab_s",
    "471.omnetpp",
    "458.sjeng",
    "520.omnetpp_r",
    "447.dealII",
];

/// Fig7 rounds take every this-many-th program of the T-I suite without
/// [`T1_EXCLUDED`]: 10 of its 40, spread over both SPEC generations.
const T1_STRIDE: usize = 4;

/// The T-I programs of every fig7 round, in seeded order: the same set
/// at every seed (see [`T1_STRIDE`]), so every round of every run does
/// the same work and a run's median is taken over many short rounds.
pub fn t1_order(all: &[Module], seed: u64) -> Vec<usize> {
    let pool: Vec<usize> = (0..all.len())
        .filter(|&i| !T1_EXCLUDED.contains(&all[i].name.as_str()))
        .step_by(T1_STRIDE)
        .collect();
    Draw::new(seed)
        .distinct(pool.len(), pool.len())
        .into_iter()
        .map(|i| pool[i])
        .collect()
}

/// splitmix64: the benchmark's own seeded generator for input draws.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64) -> Draw {
        Draw(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k.min(n));
        idx
    }
}

/// Replays `khaos_opt::optimize`'s `O2+lto` schedule sub-pass by
/// sub-pass on the module that entered the build's `O2+lto` pass, and
/// checks that the result prints identically to the build's output.
/// Returns the sub-pass counts, or `None` when the replay diverged.
pub fn replay_o2lto(rec: &BuildRec) -> Option<OptCounts> {
    let atoms: Vec<&str> = rec.spec.split('|').map(str::trim).collect();
    if atoms.last() != Some(&"O2+lto") {
        return Some(OptCounts::default());
    }
    let mut m = rec.src.clone();
    if atoms.len() > 1 {
        let prefix = atoms[..atoms.len() - 1].join(" | ");
        Pipeline::parse(&prefix)
            .ok()?
            .run(&mut m, &mut PassCtx::new(rec.seed))
            .ok()?;
    }
    let mut c = OptCounts::default();
    let _r = span("opt.replay");
    for round in 0..2 {
        if round == 1 {
            let _s = span("opt.inline");
            c.inlined += khaos_opt::inline::run_module(
                &mut m,
                &khaos_opt::inline::InlineOptions {
                    threshold: 48,
                    allow_exported: true,
                },
            ) as u64;
        }
        {
            let _s = span("opt.mem2reg");
            for f in &mut m.functions {
                c.promoted += khaos_opt::mem2reg::run_function(f) as u64;
            }
        }
        {
            let _s = span("opt.constprop");
            for f in &mut m.functions {
                khaos_opt::constprop::run_function(f);
            }
        }
        {
            let _s = span("opt.cse");
            for f in &mut m.functions {
                c.cse_eliminated += khaos_opt::cse::run_function(f) as u64;
            }
        }
        {
            let _s = span("opt.dce");
            for f in &mut m.functions {
                c.dce_removed += khaos_opt::dce::run_function(f) as u64;
            }
        }
        {
            let _s = span("opt.simplifycfg");
            for f in &mut m.functions {
                khaos_opt::simplifycfg::run_function(f);
            }
        }
    }
    {
        let _s = span("opt.dfe");
        c.dfe_removed += khaos_opt::dfe::run_module(&mut m) as u64;
    }
    drop(_r);
    let same = khaos_ir::printer::print_module(&m) == khaos_ir::printer::print_module(&rec.out);
    same.then_some(c)
}

/// Work counts the optimizer sub-passes return.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptCounts {
    pub promoted: u64,
    pub cse_eliminated: u64,
    pub dce_removed: u64,
    pub inlined: u64,
    pub dfe_removed: u64,
}
