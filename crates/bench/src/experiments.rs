//! The per-figure / per-table experiment drivers.
//!
//! Every function prints the same rows or series the paper's artifact
//! reports. Figures 7, 9, 10 and Table 2 are grids: each is a
//! [`GridExperiment`] ([`Fig7`], [`Fig9`], [`Fig10`], [`Table2`]) run,
//! sharded, leased and merged by the one driver in [`crate::grid`]
//! ([`GRIDS`] lists them).

use crate::grid::{self, GridExperiment, GridTarget, GridUnit};
use crate::harness::{
    build_at, build_baseline, build_binary, build_config, geomean, geomean_ratio, khaos_apply,
    khaos_atom, measure_cycles, overhead_pct, par_fan_out, run_spec, BuildConfig, ShardSpec, SEED,
};
use khaos_binary::{histogram_distance, lower_module, opcode_histogram, Binary};
use khaos_bintuner::BinTuner;
use khaos_core::{FissionStats, FusionStats, KhaosMode};
use khaos_diff::{
    binary_similarity, deepbindiff_precision_at_1, escape_profile, precision_at_1, Asm2Vec,
    BinDiff, DeepBinDiff, Differ, Safe, VulSeeker,
};
use khaos_ir::Module;
use khaos_ollvm::OllvmMode;
use khaos_opt::OptLevel;
use khaos_store::Store;
use khaos_workloads::{coreutils, spec2006, spec2017, tiii, TIII_CVES};

/// The grid experiments: the `experiments` CLI's plain, `<name>-merge`
/// and `--elastic` grid targets all come from this list.
pub const GRIDS: [GridTarget; 4] = [
    GridTarget::of::<Fig7>(),
    GridTarget::of::<Fig9>(),
    GridTarget::of::<Fig10>(),
    GridTarget::of::<Table2>(),
];

/// Scope knob: `--quick` trims the program sets so a laptop run finishes
/// in seconds; the default covers the full suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Trimmed program sets.
    Quick,
    /// The full suites (T-I: 47 programs, T-II: 108, T-III: 5).
    Full,
}

fn t1_programs(scope: Scope) -> Vec<Module> {
    let mut v = spec2006();
    v.extend(spec2017());
    if scope == Scope::Quick {
        v.truncate(6);
    }
    v
}

fn t2_programs(scope: Scope) -> Vec<Module> {
    let mut v = coreutils();
    if scope == Scope::Quick {
        v.truncate(8);
    }
    v
}

/// **Figure 6** — runtime overhead of the five Khaos modes on the SPEC
/// CPU 2006/2017 stand-ins, per program plus geometric means.
pub fn fig6(scope: Scope) {
    println!("# Figure 6: runtime overhead (%) of Khaos modes, baseline O2+LTO");
    println!(
        "{:<20} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "program", "Fission", "Fusion", "FuFi.sep", "FuFi.ori", "FuFi.all"
    );
    let mut per_mode: Vec<Vec<f64>> = vec![Vec::new(); KhaosMode::ALL.len()];
    let programs = t1_programs(scope);
    // One worker per program: baseline + the five mode builds.
    let rows = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_cycles = measure_cycles(&base);
        let ohs: Vec<f64> = KhaosMode::ALL
            .iter()
            .map(|mode| {
                let (obf, _) = khaos_apply(&base, *mode, SEED);
                overhead_pct(base_cycles, measure_cycles(&obf))
            })
            .collect();
        (src.name.clone(), ohs)
    });
    for (name, ohs) in rows {
        let mut row = format!("{name:<20}");
        for (k, oh) in ohs.into_iter().enumerate() {
            per_mode[k].push(oh);
            row.push_str(&format!(" {oh:>8.1}%"));
        }
        println!("{row}");
    }
    let mut row = format!("{:<20}", "GEOMEAN");
    for ohs in &per_mode {
        row.push_str(&format!(" {:>8.1}%", geomean_ratio(ohs)));
    }
    println!("{row}");
}

/// The nine configurations of Figure 7, in row order (O-LLVM's
/// Sub/Bog/Fla at 100%, Fla-10 at 10%, then the five Khaos modes).
pub fn fig7_configs() -> Vec<(String, BuildConfig)> {
    vec![
        ("Sub".into(), BuildConfig::Ollvm(OllvmMode::Sub(1.0))),
        ("Bog".into(), BuildConfig::Ollvm(OllvmMode::Bog(1.0))),
        ("Fla".into(), BuildConfig::Ollvm(OllvmMode::Fla(1.0))),
        ("Fla-10".into(), BuildConfig::Ollvm(OllvmMode::Fla(0.1))),
        ("Fission".into(), BuildConfig::Khaos(KhaosMode::Fission)),
        ("Fusion".into(), BuildConfig::Khaos(KhaosMode::Fusion)),
        ("FuFi.sep".into(), BuildConfig::Khaos(KhaosMode::FuFiSep)),
        ("FuFi.ori".into(), BuildConfig::Khaos(KhaosMode::FuFiOri)),
        ("FuFi.all".into(), BuildConfig::Khaos(KhaosMode::FuFiAll)),
    ]
}

/// Flattens suites into one program list, each program tagged with its
/// suite.
fn tag_suites(suites: Vec<(&'static str, Vec<Module>)>) -> Vec<(&'static str, Module)> {
    suites
        .into_iter()
        .flat_map(|(suite, programs)| programs.into_iter().map(move |m| (suite, m)))
        .collect()
}

/// The programs of Figure 7, each tagged with its suite (the GEOMEAN
/// column groups), trimmed under `--quick`.
fn fig7_programs(scope: Scope) -> Vec<(&'static str, Module)> {
    tag_suites(if scope == Scope::Quick {
        vec![("SPEC(quick)", t1_programs(scope))]
    } else {
        vec![("SPEC CPU 2006", spec2006()), ("SPEC CPU 2017", spec2017())]
    })
}

/// The `khaos-store` report subject of one Figure-7 cell.
pub fn fig7_subject(suite: &str, program: &str, config: &str) -> String {
    format!("fig7/{suite}/{program}/{config}")
}

/// One measured Figure-7 cell: the runtime overhead of `program`
/// (member of `suite`) built under `config`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig7Cell {
    /// Suite the program belongs to (Figure-7 column group).
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Configuration display name (Figure-7 row).
    pub config: String,
    /// Configuration pipeline fingerprint (the report keyspace).
    pub pipeline: u64,
    /// Runtime overhead (%) against the `O2+LTO` baseline.
    pub overhead: f64,
}

impl Fig7Cell {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig7_subject(self.suite, &self.program, &self.config)
    }
}

/// **Figure 7** — overhead comparison against O-LLVM (Sub/Bog/Fla at
/// 100%, Fla-10 at 10%) with geometric means per suite. One unit per
/// `(config, program)` cell, configs outer; a program's baseline build
/// and cycle count are shared by its nine config units.
pub struct Fig7 {
    configs: Vec<(String, BuildConfig)>,
    programs: Vec<(&'static str, Module)>,
    units: Vec<GridUnit>,
}

impl GridExperiment for Fig7 {
    const NAME: &'static str = "fig7";
    const TITLE: &'static str = "Figure 7";
    const BANNER: &'static str = "# Figure 7: runtime overhead (%) — O-LLVM vs Khaos (GEOMEAN)";
    const METRICS: &'static [&'static str] = &["overhead%"];
    type Prep = (Module, u64);
    type Cell = Fig7Cell;

    fn new(scope: Scope) -> Self {
        let configs = fig7_configs();
        let programs = fig7_programs(scope);
        let mut units = Vec::new();
        for (ci, (config, cfg)) in configs.iter().enumerate() {
            for (pi, (suite, m)) in programs.iter().enumerate() {
                let subject = fig7_subject(suite, &m.name, config);
                units.push(GridUnit::single(ci, pi, subject, cfg.fingerprint()));
            }
        }
        Fig7 {
            configs,
            programs,
            units,
        }
    }

    fn units(&self) -> &[GridUnit] {
        &self.units
    }

    fn prepare(&self, program: usize) -> (Module, u64) {
        let base = build_baseline(&self.programs[program].1);
        let cycles = measure_cycles(&base);
        (base, cycles)
    }

    fn measure(&self, unit: &GridUnit, (base, base_cycles): &(Module, u64)) -> Vec<Fig7Cell> {
        let (config, cfg) = &self.configs[unit.config];
        let obf = build_config(base, *cfg);
        vec![Fig7Cell {
            suite: self.programs[unit.program].0,
            program: base.name.clone(),
            config: config.clone(),
            pipeline: cfg.fingerprint(),
            overhead: overhead_pct(*base_cycles, measure_cycles(&obf)),
        }]
    }

    fn encode(cell: &Fig7Cell) -> Vec<f64> {
        vec![cell.overhead]
    }

    fn decode(&self, unit: &GridUnit, output: usize, v: &[f64]) -> Result<Fig7Cell, String> {
        let (suite, m) = &self.programs[unit.program];
        Ok(Fig7Cell {
            suite,
            program: m.name.clone(),
            config: self.configs[unit.config].0.clone(),
            pipeline: unit.work.outputs[output].1,
            overhead: v[0],
        })
    }

    /// Config rows, per-suite geometric means plus the overall GEOMEAN.
    fn print_table(cells: &[Fig7Cell]) {
        let suites = uniq(cells.iter().map(|c| c.suite));
        let configs = uniq(cells.iter().map(|c| c.config.as_str()));
        print!("{:<14}", "config");
        for sname in &suites {
            print!(" {sname:>15}");
        }
        println!(" {:>10}", "GEOMEAN");
        for config in &configs {
            let mut all = Vec::new();
            print!("{config:<14}");
            for suite in &suites {
                let ohs: Vec<f64> = cells
                    .iter()
                    .filter(|c| c.config == *config && c.suite == *suite)
                    .map(|c| c.overhead)
                    .collect();
                all.extend_from_slice(&ohs);
                print!(" {:>14.1}%", geomean_ratio(&ohs));
            }
            println!(" {:>9.1}%", geomean_ratio(&all));
        }
    }

    fn print_shard_rows(cells: &[Fig7Cell]) {
        println!(
            "{:<14} {:<16} {:<10} {:>10}",
            "suite", "program", "config", "overhead"
        );
        for c in cells {
            println!(
                "{:<14} {:<16} {:<10} {:>9.1}%",
                c.suite, c.program, c.config, c.overhead
            );
        }
    }
}

/// Measures `shard`'s share of the Figure-7 grid ([`grid::cells`]).
pub fn fig7_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Fig7Cell> {
    grid::cells::<Fig7>(scope, shard, store)
}

/// **Figure 8** — Precision@1 of the five diffing tools against the eight
/// obfuscation configurations (obfuscated vs un-obfuscated, un-stripped).
pub fn fig8(scope: Scope) {
    println!("# Figure 8: diffing accuracy vs obfuscation (T-I + T-II)");
    println!("#   BinDiff column = normalized whole-binary similarity;");
    println!("#   learning tools = Precision@1 with relaxed pairing (paper 4.2)");
    let configs = BuildConfig::figure8_set();
    let mut programs = t1_programs(scope);
    programs.extend(t2_programs(scope));

    print!("{:<10}", "config");
    for t in ["BinDiff", "VulSeeker", "Asm2Vec", "SAFE", "DeepBinDiff"] {
        print!(" {t:>11}");
    }
    println!();

    // Baselines (and their lowered binaries) are shared by all eight
    // configurations; the embedding cache then reuses the baseline-side
    // embeddings across every config row.
    let prepared: Vec<_> = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_bin = lower_module(&base);
        (base, base_bin)
    });
    for cfg in configs {
        let per_program = par_fan_out(&prepared, |(base, base_bin)| {
            let obf_bin = build_binary(base, cfg);
            [
                binary_similarity(&BinDiff::default(), base_bin, &obf_bin),
                precision_at_1(&VulSeeker::default(), base_bin, &obf_bin),
                precision_at_1(&Asm2Vec::default(), base_bin, &obf_bin),
                precision_at_1(&Safe::default(), base_bin, &obf_bin),
                deepbindiff_precision_at_1(&DeepBinDiff::default(), base_bin, &obf_bin),
            ]
        });
        print!("{:<10}", cfg.name());
        for t in 0..5 {
            let avg: f64 =
                per_program.iter().map(|s| s[t]).sum::<f64>() / per_program.len().max(1) as f64;
            print!(" {avg:>11.3}");
        }
        println!();
    }
}

/// The SPECint 2006 + SPECspeed 2017 subset plotted in Figure 9.
fn fig9_names() -> Vec<&'static str> {
    vec![
        "400.perlbench",
        "401.bzip2",
        "429.mcf",
        "445.gobmk",
        "456.hmmer",
        "458.sjeng",
        "462.libquantum",
        "464.h264ref",
        "473.astar",
        "483.xalancbmk",
        "600.perlbench_s",
        "605.mcf_s",
        "620.omnetpp_s",
        "623.xalancbmk_s",
        "625.x264_s",
        "631.deepsjeng_s",
        "641.leela_s",
        "657.xz_s",
    ]
}

/// The T-I programs of Figure 9, trimmed under `--quick`.
fn fig9_programs(scope: Scope) -> Vec<Module> {
    let names = fig9_names();
    let mut programs: Vec<Module> = spec2006()
        .into_iter()
        .chain(spec2017())
        .filter(|m| names.contains(&m.name.as_str()))
        .collect();
    if scope == Scope::Quick {
        programs.truncate(4);
    }
    programs
}

/// One measured Figure-9 cell: BinDiff similarity of the BinTuner and
/// Khaos (`FuFi.all`) builds of `program` against its `O0`–`O3`
/// reference builds, plus BinTuner's runtime overhead.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig9Cell {
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint: the Khaos side of the comparison
    /// (`FuFi.all | O2+lto`) — the BinTuner search has no pipeline spec
    /// of its own.
    pub pipeline: u64,
    /// BinTuner-build similarity vs `O0..O3`.
    pub bt: [f64; 4],
    /// Khaos-build similarity vs `O0..O3`.
    pub kh: [f64; 4],
    /// BinTuner runtime overhead (%) vs the `O2+LTO` baseline.
    pub bt_overhead: f64,
}

fn fig9_print_header() {
    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8}   {:>8} {:>8} {:>8} {:>8} {:>10}",
        "program",
        "BT/O0",
        "BT/O1",
        "BT/O2",
        "BT/O3",
        "KH/O0",
        "KH/O1",
        "KH/O2",
        "KH/O3",
        "BT-ovh%"
    );
}

fn fig9_row(cell: &Fig9Cell) -> String {
    let mut row = format!("{:<18}", cell.program);
    for s in cell.bt {
        row.push_str(&format!(" {s:>8.3}"));
    }
    row.push_str("  ");
    for s in cell.kh {
        row.push_str(&format!(" {s:>8.3}"));
    }
    row.push_str(&format!(" {:>9.1}%", cell.bt_overhead));
    row
}

/// **Figure 9** — BinDiff similarity of BinTuner and Khaos builds against
/// `O0`–`O3` reference builds, plus BinTuner's runtime overhead against
/// the paper's `O2+LTO` Khaos baseline (paper reports 30.35%). One unit
/// per program: the BinTuner search, the Khaos build and the eight
/// whole-binary comparisons.
pub struct Fig9 {
    programs: Vec<Module>,
    units: Vec<GridUnit>,
}

impl GridExperiment for Fig9 {
    const NAME: &'static str = "fig9";
    const TITLE: &'static str = "Figure 9";
    const BANNER: &'static str = "# Figure 9: BinDiff similarity — BinTuner vs Khaos (FuFi.all)";
    const METRICS: &'static [&'static str] = &[
        "bt/o0", "bt/o1", "bt/o2", "bt/o3", "kh/o0", "kh/o1", "kh/o2", "kh/o3", "bt-ovh%",
    ];
    type Prep = Module;
    type Cell = Fig9Cell;

    fn new(scope: Scope) -> Self {
        let programs = fig9_programs(scope);
        let pipeline = BuildConfig::Khaos(KhaosMode::FuFiAll).fingerprint();
        let units = programs
            .iter()
            .enumerate()
            .map(|(pi, m)| GridUnit::single(0, pi, format!("fig9/{}", m.name), pipeline))
            .collect();
        Fig9 { programs, units }
    }

    fn units(&self) -> &[GridUnit] {
        &self.units
    }

    fn prepare(&self, program: usize) -> Module {
        build_baseline(&self.programs[program])
    }

    fn measure(&self, unit: &GridUnit, baseline: &Module) -> Vec<Fig9Cell> {
        let src = &self.programs[unit.program];
        let differ = BinDiff::default();
        let refs: Vec<_> = OptLevel::ALL
            .iter()
            .map(|l| lower_module(&build_at(src, *l)))
            .collect();
        let tuned = BinTuner {
            budget: 16,
            seed: SEED,
        }
        .tune(src);
        let base_cycles = measure_cycles(baseline);
        let bt_overhead = overhead_pct(base_cycles, measure_cycles(&tuned.module));
        let (khaos, _) = khaos_apply(baseline, KhaosMode::FuFiAll, SEED);
        let khaos_bin = lower_module(&khaos);
        let similarity = |bin: &Binary| -> [f64; 4] {
            std::array::from_fn(|k| binary_similarity(&differ, &refs[k], bin))
        };
        vec![Fig9Cell {
            program: src.name.clone(),
            pipeline: unit.work.outputs[0].1,
            bt: similarity(&tuned.binary),
            kh: similarity(&khaos_bin),
            bt_overhead,
        }]
    }

    fn encode(cell: &Fig9Cell) -> Vec<f64> {
        let mut v = cell.bt.to_vec();
        v.extend(cell.kh);
        v.push(cell.bt_overhead);
        v
    }

    fn decode(&self, unit: &GridUnit, output: usize, v: &[f64]) -> Result<Fig9Cell, String> {
        Ok(Fig9Cell {
            program: self.programs[unit.program].name.clone(),
            pipeline: unit.work.outputs[output].1,
            bt: [v[0], v[1], v[2], v[3]],
            kh: [v[4], v[5], v[6], v[7]],
            bt_overhead: v[8],
        })
    }

    /// Per-program rows plus the GEOMEAN row.
    fn print_table(cells: &[Fig9Cell]) {
        fig9_print_header();
        let mut bt_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut kh_cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut bt_overheads = Vec::new();
        for cell in cells {
            bt_overheads.push(cell.bt_overhead);
            for k in 0..4 {
                bt_cols[k].push(cell.bt[k]);
                kh_cols[k].push(cell.kh[k]);
            }
            println!("{}", fig9_row(cell));
        }
        let mut row = format!("{:<18}", "GEOMEAN");
        for c in &bt_cols {
            row.push_str(&format!(" {:>8.3}", geomean(c)));
        }
        row.push_str("  ");
        for c in &kh_cols {
            row.push_str(&format!(" {:>8.3}", geomean(c)));
        }
        row.push_str(&format!(" {:>9.1}%", geomean_ratio(&bt_overheads)));
        println!("{row}");
        println!(
            "# paper: Khaos scores well below BinTuner at every level; BinTuner overhead 30.35%"
        );
    }

    fn print_shard_rows(cells: &[Fig9Cell]) {
        fig9_print_header();
        for cell in cells {
            println!("{}", fig9_row(cell));
        }
    }
}

/// The escape thresholds of Figure 10 (the paper's `escape@{1,10,50}`).
pub const FIG10_KS: [usize; 3] = [1, 10, 50];

/// The six obfuscation configurations of Figure 10, in row order
/// (Fla at 100% here, as in the paper).
pub fn fig10_configs() -> Vec<(String, BuildConfig)> {
    vec![
        ("Sub".into(), BuildConfig::Ollvm(OllvmMode::Sub(1.0))),
        ("Bog".into(), BuildConfig::Ollvm(OllvmMode::Bog(1.0))),
        ("Fla".into(), BuildConfig::Ollvm(OllvmMode::Fla(1.0))),
        ("FuFi.sep".into(), BuildConfig::Khaos(KhaosMode::FuFiSep)),
        ("FuFi.ori".into(), BuildConfig::Khaos(KhaosMode::FuFiOri)),
        ("FuFi.all".into(), BuildConfig::Khaos(KhaosMode::FuFiAll)),
    ]
}

/// The three learning-based tools Figure 10 evaluates, in column order.
fn fig10_tools() -> Vec<(&'static str, Box<dyn Differ + Sync>)> {
    vec![
        ("VulSeeker", Box::new(VulSeeker::default())),
        ("Asm2Vec", Box::new(Asm2Vec::default())),
        ("SAFE", Box::new(Safe::default())),
    ]
}

/// The T-III programs of Figure 10; `--quick` trims the suite so the
/// sharding end-to-end tests stay cheap.
fn fig10_programs(scope: Scope) -> Vec<Module> {
    let mut v = tiii();
    if scope == Scope::Quick {
        v.truncate(2);
    }
    v
}

/// The `khaos-store` report subject of one Figure-10 cell — together
/// with the config pipeline's fingerprint and [`SEED`] this is the
/// cell's complete `ReportKey`, so any process that knows the grid can
/// query (or check for) the cell without recomputing anything.
pub fn fig10_subject(program: &str, config: &str, tool: &str) -> String {
    format!("fig10/{program}/{config}/{tool}")
}

/// One measured Figure-10 cell: the escape profile of `tool` on
/// `program` built under `config`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig10Cell {
    /// Program name (T-III member).
    pub program: String,
    /// Configuration display name (Figure-10 row).
    pub config: String,
    /// Differ name (Figure-10 column).
    pub tool: &'static str,
    /// `Pipeline::fingerprint()` of the configuration's build spec —
    /// the report keyspace the cell persists under.
    pub pipeline: u64,
    /// `escape@{1,10,50}` ([`FIG10_KS`]).
    pub escape: [f64; 3],
}

impl Fig10Cell {
    /// The cell's store subject.
    pub fn subject(&self) -> String {
        fig10_subject(&self.program, &self.config, self.tool)
    }
}

/// **Figure 10** — escape@1/10/50 of the T-III vulnerable functions
/// under each obfuscation.
///
/// One unit is one `(config, program)` obfuscated build — the expensive
/// part — shared by all three tool cells, so tools stay inside the
/// unit (leased on its first tool's cell, labelled
/// `fig10/<program>/<config>`). Units run configs outer, programs
/// inner, tools innermost in the cell order.
pub struct Fig10 {
    configs: Vec<(String, BuildConfig)>,
    tools: Vec<(&'static str, Box<dyn Differ + Sync>)>,
    programs: Vec<Module>,
    units: Vec<GridUnit>,
}

impl GridExperiment for Fig10 {
    const NAME: &'static str = "fig10";
    const TITLE: &'static str = "Figure 10";
    const BANNER: &'static str = "# Figure 10: escape ratio of vulnerable functions (T-III)";
    const METRICS: &'static [&'static str] = &["escape@1", "escape@10", "escape@50"];
    type Prep = (Binary, Module);
    type Cell = Fig10Cell;

    fn new(scope: Scope) -> Self {
        let configs = fig10_configs();
        let tools = fig10_tools();
        let programs = fig10_programs(scope);
        let mut units = Vec::new();
        for (ci, (config, cfg)) in configs.iter().enumerate() {
            let pipeline = cfg.fingerprint();
            for (pi, m) in programs.iter().enumerate() {
                let outputs = tools
                    .iter()
                    .map(|(tool, _)| (fig10_subject(&m.name, config, tool), pipeline))
                    .collect();
                units.push(GridUnit::new(
                    ci,
                    pi,
                    format!("fig10/{}/{config}", m.name),
                    outputs,
                ));
            }
        }
        Fig10 {
            configs,
            tools,
            programs,
            units,
        }
    }

    fn units(&self) -> &[GridUnit] {
        &self.units
    }

    fn prepare(&self, program: usize) -> (Binary, Module) {
        let base = build_baseline(&self.programs[program]);
        (lower_module(&base), base)
    }

    fn measure(&self, unit: &GridUnit, (base_bin, base): &(Binary, Module)) -> Vec<Fig10Cell> {
        let (config, cfg) = &self.configs[unit.config];
        let obf_bin = build_binary(base, *cfg);
        self.tools
            .iter()
            .map(|(tool, differ)| {
                let profile = escape_profile(differ.as_ref(), base_bin, &obf_bin, &FIG10_KS);
                Fig10Cell {
                    program: base_bin.name.clone(),
                    config: config.clone(),
                    tool,
                    pipeline: cfg.fingerprint(),
                    escape: [profile[0], profile[1], profile[2]],
                }
            })
            .collect()
    }

    fn encode(cell: &Fig10Cell) -> Vec<f64> {
        cell.escape.to_vec()
    }

    fn decode(&self, unit: &GridUnit, output: usize, v: &[f64]) -> Result<Fig10Cell, String> {
        Ok(Fig10Cell {
            program: self.programs[unit.program].name.clone(),
            config: self.configs[unit.config].0.clone(),
            tool: self.tools[output].0,
            pipeline: unit.work.outputs[output].1,
            escape: [v[0], v[1], v[2]],
        })
    }

    /// One table per threshold, config rows × tool columns, averaged
    /// over programs. The header names the grid's actual dimensions — a
    /// merge run at a different scope than the shards (e.g. `--quick
    /// fig10-merge` over full-scope stores) is then visibly a truncated
    /// grid, not silently a smaller Figure 10.
    fn print_table(cells: &[Fig10Cell]) {
        let programs = uniq(cells.iter().map(|c| c.program.as_str()));
        println!(
            "# grid: {} cells over {} program(s): {}",
            cells.len(),
            programs.len(),
            programs.join(", ")
        );
        let configs = uniq(cells.iter().map(|c| c.config.as_str()));
        let tools = uniq(cells.iter().map(|c| c.tool));
        for (ki, k) in FIG10_KS.iter().enumerate() {
            println!("\n## escape@{k}");
            print!("{:<10}", "config");
            for t in &tools {
                print!(" {t:>10}");
            }
            println!();
            for config in &configs {
                print!("{config:<10}");
                for tool in &tools {
                    let scores: Vec<f64> = cells
                        .iter()
                        .filter(|c| c.config == *config && c.tool == *tool)
                        .map(|c| c.escape[ki])
                        .collect();
                    let avg = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
                    print!(" {avg:>10.2}");
                }
                println!();
            }
        }
    }

    fn print_shard_rows(cells: &[Fig10Cell]) {
        println!(
            "{:<16} {:<10} {:<10} {:>9} {:>9} {:>9}",
            "program", "config", "tool", "escape@1", "escape@10", "escape@50"
        );
        for c in cells {
            println!(
                "{:<16} {:<10} {:<10} {:>9.2} {:>9.2} {:>9.2}",
                c.program, c.config, c.tool, c.escape[0], c.escape[1], c.escape[2]
            );
        }
    }
}

/// Measures `shard`'s share of the Figure-10 grid ([`grid::cells`]):
/// every cell is a deterministic function of `(program, config, seed)`
/// alone, so cells from processes that never shared memory merge
/// bit-identically (pinned by `tests/shard_e2e.rs`).
pub fn fig10_cells(scope: Scope, shard: ShardSpec, store: Option<&Store>) -> Vec<Fig10Cell> {
    grid::cells::<Fig10>(scope, shard, store)
}

/// First-seen-order dedup — the row/column orders of the printed
/// tables, derived from the cells themselves.
fn uniq<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v = Vec::new();
    for x in items {
        if !v.contains(&x) {
            v.push(x);
        }
    }
    v
}

/// **Figure 11** — normalized opcode-histogram distance of every
/// configuration against the baseline build.
pub fn fig11(scope: Scope) {
    println!("# Figure 11: opcode histogram distance (normalized per suite)");
    let mut configs: Vec<(String, Option<BuildConfig>)> = vec![
        ("Sub".into(), Some(BuildConfig::Ollvm(OllvmMode::Sub(1.0)))),
        ("Bog".into(), Some(BuildConfig::Ollvm(OllvmMode::Bog(1.0)))),
        (
            "Fla-10".into(),
            Some(BuildConfig::Ollvm(OllvmMode::Fla(0.1))),
        ),
        ("BinTuner".into(), None), // handled specially
    ];
    configs.extend(
        KhaosMode::ALL
            .iter()
            .map(|m| (m.name().to_string(), Some(BuildConfig::Khaos(*m)))),
    );
    let programs = t1_programs(scope);

    // Fan out per program; each worker builds every configuration.
    let rows = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        let base_hist = opcode_histogram(&lower_module(&base));
        let ds: Vec<f64> = configs
            .iter()
            .map(|(_, cfg)| {
                let obf_bin = match cfg {
                    Some(c) => build_binary(&base, *c),
                    None => {
                        BinTuner {
                            budget: 8,
                            seed: SEED,
                        }
                        .tune(src)
                        .binary
                    }
                };
                histogram_distance(&base_hist, &opcode_histogram(&obf_bin))
            })
            .collect();
        (src.name.clone(), ds)
    });
    // distances[config][program]
    let mut distances: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut names: Vec<String> = Vec::new();
    for (name, ds) in rows {
        names.push(name);
        for (ci, d) in ds.into_iter().enumerate() {
            distances[ci].push(d);
        }
    }
    // Normalize by the max distance over everything (the paper's scheme).
    let max = distances
        .iter()
        .flat_map(|v| v.iter())
        .cloned()
        .fold(1e-9f64, f64::max);
    print!("{:<20}", "program");
    for (n, _) in &configs {
        print!(" {n:>9}");
    }
    println!();
    for (pi, pname) in names.iter().enumerate() {
        print!("{pname:<20}");
        for d in &distances {
            print!(" {:>9.3}", d[pi] / max);
        }
        println!();
    }
    print!("{:<20}", "GEOMEAN");
    for d in &distances {
        let norm: Vec<f64> = d.iter().map(|x| x / max).collect();
        print!(" {:>9.3}", geomean(&norm));
    }
    println!();
}

/// **Table 1** — the diffing-tool characteristics summary.
pub fn table1() {
    println!("# Table 1: chosen diffing works");
    println!(
        "{:<12} {:<12} {:<7} {:<7} {:<7} {:<10}",
        "diffing", "granularity", "symbol", "time", "memory", "call-graph"
    );
    println!(
        "{:<12} {:<12} {:<7} {:<7} {:<7} {:<10}",
        "", "", "relying", "heavy", "heavy", "lacking"
    );
    for (name, gran, sym, time, mem, cg) in [
        ("BinDiff", "function", "Y", "N", "N", "N"),
        ("VulSeeker", "function", "N", "Y", "Y", "Y"),
        ("Asm2Vec", "function", "N", "N", "N", "Y"),
        ("SAFE", "function", "N", "N", "N", "Y"),
        ("DeepBinDiff", "basic block", "N", "Y", "Y", "N"),
    ] {
        println!("{name:<12} {gran:<12} {sym:<7} {time:<7} {mem:<7} {cg:<10}");
    }
}

/// The programs of Table 2, each tagged with its suite (the table's
/// rows), trimmed under `--quick`.
fn table2_programs(scope: Scope) -> Vec<(&'static str, Module)> {
    tag_suites(if scope == Scope::Quick {
        let mut v = spec2006();
        v.truncate(4);
        vec![("SPEC2006(q)", v)]
    } else {
        vec![
            ("SPEC CPU 2006", spec2006()),
            ("SPEC CPU 2017", spec2017()),
            ("CoreUtils", coreutils()),
        ]
    })
}

/// One measured Table-2 cell: the fission/fusion counters of one
/// program (fission stats from a pure-fission build, fusion stats from
/// a pure-fusion build — the paper measures the primitives
/// individually, "without the combination").
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Cell {
    /// Suite the program belongs to (Table-2 row).
    pub suite: &'static str,
    /// Program name.
    pub program: String,
    /// Report keyspace fingerprint (the fission build's pipeline; one
    /// cell covers both primitive builds).
    pub pipeline: u64,
    /// Fission counters of the pure-fission build.
    pub fission: FissionStats,
    /// Fusion counters of the pure-fusion build.
    pub fusion: FusionStats,
}

/// One stored Table-2 counter back as a count: a negative, fractional
/// or ≥ 2^53 value is no count an encoder wrote (counts round-trip
/// through `f64` exactly only below 2^53).
fn stored_count(name: &str, v: f64) -> Result<usize, String> {
    if v >= 0.0 && v.fract() == 0.0 && v < 9_007_199_254_740_992.0 {
        Ok(v as usize)
    } else {
        Err(format!("{name} = {v} is not a count below 2^53"))
    }
}

/// **Table 2** — fission/fusion internal statistics per suite. One unit
/// per program; the stored metrics are the raw
/// [`FissionStats`]/[`FusionStats`] counters, *not* the derived ratios —
/// ratios don't merge, counters do (sum per suite), which is what keeps
/// a merged table bit-identical to a single-process run.
pub struct Table2 {
    programs: Vec<(&'static str, Module)>,
    units: Vec<GridUnit>,
}

impl GridExperiment for Table2 {
    const NAME: &'static str = "table2";
    const TITLE: &'static str = "Table 2";
    const BANNER: &'static str = "# Table 2: statistics of the fission and the fusion";
    const BANNER_ON_MERGE: bool = true;
    const METRICS: &'static [&'static str] = &[
        "fi/ori_funcs",
        "fi/fissioned_funcs",
        "fi/sep_funcs",
        "fi/sep_blocks",
        "fi/reduced_ratio_sum",
        "fi/params_reduced",
        "fu/eligible_funcs",
        "fu/fused_funcs",
        "fu/fus_funcs",
        "fu/params_removed",
        "fu/innocuous_blocks",
        "fu/deep_fused_pairs",
        "fu/trampolines",
        "fu/indirect_sites_rewritten",
    ];
    type Prep = Module;
    type Cell = Table2Cell;

    fn new(scope: Scope) -> Self {
        let programs = table2_programs(scope);
        let pipeline = BuildConfig::Khaos(KhaosMode::Fission).fingerprint();
        let units = programs
            .iter()
            .enumerate()
            .map(|(pi, (suite, m))| {
                GridUnit::single(0, pi, format!("table2/{suite}/{}", m.name), pipeline)
            })
            .collect();
        Table2 { programs, units }
    }

    fn units(&self) -> &[GridUnit] {
        &self.units
    }

    fn prepare(&self, program: usize) -> Module {
        build_baseline(&self.programs[program].1)
    }

    fn measure(&self, unit: &GridUnit, base: &Module) -> Vec<Table2Cell> {
        let (_, fi_ctx) = khaos_apply(base, KhaosMode::Fission, SEED);
        let (_, fu_ctx) = khaos_apply(base, KhaosMode::Fusion, SEED);
        vec![Table2Cell {
            suite: self.programs[unit.program].0,
            program: base.name.clone(),
            pipeline: unit.work.outputs[0].1,
            fission: fi_ctx.fission_stats,
            fusion: fu_ctx.fusion_stats,
        }]
    }

    /// `reduced_ratio_sum` is stored bit-for-bit; every other value is
    /// a counter.
    fn encode(cell: &Table2Cell) -> Vec<f64> {
        let fi = &cell.fission;
        let fu = &cell.fusion;
        vec![
            fi.ori_funcs as f64,
            fi.fissioned_funcs as f64,
            fi.sep_funcs as f64,
            fi.sep_blocks as f64,
            fi.reduced_ratio_sum,
            fi.params_reduced as f64,
            fu.eligible_funcs as f64,
            fu.fused_funcs as f64,
            fu.fus_funcs as f64,
            fu.params_removed as f64,
            fu.innocuous_blocks as f64,
            fu.deep_fused_pairs as f64,
            fu.trampolines as f64,
            fu.indirect_sites_rewritten as f64,
        ]
    }

    fn decode(&self, unit: &GridUnit, output: usize, v: &[f64]) -> Result<Table2Cell, String> {
        let n = |i: usize| stored_count(Self::METRICS[i], v[i]);
        let (suite, m) = &self.programs[unit.program];
        Ok(Table2Cell {
            suite,
            program: m.name.clone(),
            pipeline: unit.work.outputs[output].1,
            fission: FissionStats {
                ori_funcs: n(0)?,
                fissioned_funcs: n(1)?,
                sep_funcs: n(2)?,
                sep_blocks: n(3)?,
                reduced_ratio_sum: v[4],
                params_reduced: n(5)?,
            },
            fusion: FusionStats {
                eligible_funcs: n(6)?,
                fused_funcs: n(7)?,
                fus_funcs: n(8)?,
                params_removed: n(9)?,
                innocuous_blocks: n(10)?,
                deep_fused_pairs: n(11)?,
                trampolines: n(12)?,
                indirect_sites_rewritten: n(13)?,
            },
        })
    }

    /// Per-suite aggregates. Counters are summed in canonical program
    /// order, so the derived ratios match a single-process run bit for
    /// bit.
    fn print_table(cells: &[Table2Cell]) {
        println!(
            "{:<16} {:>12} {:>8} {:>8} {:>13} {:>8} {:>8}",
            "suite", "FissionRatio", "#BB", "RR", "FusionRatio", "#RP", "#HBB"
        );
        for suite in uniq(cells.iter().map(|c| c.suite)) {
            let mut fi = FissionStats::default();
            let mut fu = FusionStats::default();
            for c in cells.iter().filter(|c| c.suite == suite) {
                fi.merge(&c.fission);
                fu.merge(&c.fusion);
            }
            println!(
                "{:<16} {:>11.0}% {:>8.2} {:>7.0}% {:>12.0}% {:>8.2} {:>8.2}",
                suite,
                fi.ratio() * 100.0,
                fi.avg_blocks(),
                fi.reduced_ratio() * 100.0,
                fu.ratio() * 100.0,
                fu.avg_reduced_params(),
                fu.avg_innocuous(),
            );
        }
        println!("# paper: Fission 116-152%, #BB 5.3-6.5, RR 34-44%; Fusion 97-99%, #RP 1.2-1.5, #HBB 1.0-1.9");
    }

    fn print_shard_rows(cells: &[Table2Cell]) {
        println!(
            "{:<16} {:<16} {:>9} {:>9} {:>9} {:>9}",
            "suite", "program", "sepFuncs", "sepBBs", "fusFuncs", "remParams"
        );
        for c in cells {
            println!(
                "{:<16} {:<16} {:>9} {:>9} {:>9} {:>9}",
                c.suite,
                c.program,
                c.fission.sep_funcs,
                c.fission.sep_blocks,
                c.fusion.fus_funcs,
                c.fusion.params_removed
            );
        }
    }
}

/// **Table 3** — the CVE inventory of the T-III suite.
pub fn table3() {
    println!("# Table 3: vulnerable functions of Test Suite III");
    println!("{:<16} {:<28} CVE", "program", "function");
    let mut total = 0;
    for (prog, funcs) in TIII_CVES {
        for (f, cve) in *funcs {
            println!("{prog:<16} {f:<28} {cve}");
            total += 1;
        }
    }
    println!("total vulnerable functions: {total}");
}

/// Ablation: the Khaos design-choice switches — data-flow reduction,
/// region selection, parameter compression and deep fusion — each
/// turned off in turn.
pub fn ablations(scope: Scope) {
    use khaos_core::KhaosOptions;
    println!("# Ablations: Khaos design-choice switches");
    let programs = {
        let mut v = t1_programs(Scope::Quick);
        if scope == Scope::Quick {
            v.truncate(3);
        }
        v
    };

    let run = |name: &str, options: KhaosOptions, mode: KhaosMode| {
        let mut ohs = Vec::new();
        let mut fi = FissionStats::default();
        let mut fu = FusionStats::default();
        let pipeline = khaos_pass::Pipeline::parse(khaos_atom(mode)).expect("ablation spec");
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let mut m = base.clone();
            let mut ctx = khaos_pass::PassCtx::with_options(SEED, options.clone());
            pipeline.run(&mut m, &mut ctx).expect("ablation build");
            let oh = overhead_pct(base_cycles, measure_cycles(&m));
            (oh, ctx.fission_stats, ctx.fusion_stats)
        });
        for (oh, fis, fus) in &results {
            ohs.push(*oh);
            fi.merge(fis);
            fu.merge(fus);
        }
        println!(
            "{:<34} overhead {:>7.1}%  paramsReduced {:>4}  #RP {:>5.2}  deepPairs {:>4}",
            name,
            geomean_ratio(&ohs),
            fi.params_reduced,
            fu.avg_reduced_params(),
            fu.deep_fused_pairs,
        );
    };

    run(
        "Fission (default)",
        KhaosOptions::default(),
        KhaosMode::Fission,
    );
    run(
        "Fission w/o data-flow reduction",
        KhaosOptions {
            data_flow_reduction: false,
            ..Default::default()
        },
        KhaosMode::Fission,
    );
    run(
        "Fission naive regions (min_value 0)",
        KhaosOptions {
            fission_min_value: 0.0,
            fission_max_regions: 64,
            ..Default::default()
        },
        KhaosMode::Fission,
    );
    run(
        "Fusion (default)",
        KhaosOptions::default(),
        KhaosMode::Fusion,
    );
    run(
        "Fusion w/o param compression",
        KhaosOptions {
            parameter_compression: false,
            ..Default::default()
        },
        KhaosMode::Fusion,
    );
    run(
        "Fusion w/o deep fusion",
        KhaosOptions {
            deep_fusion: false,
            ..Default::default()
        },
        KhaosMode::Fusion,
    );
}

/// **Extension E10** — N-way fusion arity sweep (`ext-arity`).
///
/// Paper §3.3 fixes the fusion arity at two "to balance the performance
/// overhead and the obfuscation effect" and §A.1's tag-bit budget caps
/// the general form at four constituents. This sweep measures the
/// trade-off the paper asserts: overhead and anti-diffing effect as the
/// arity grows.
pub fn ext_arity(scope: Scope) {
    use crate::harness::khaos_apply_nway;
    println!("# Extension: N-way fusion arity sweep (fusion-only builds)");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "arity", "overhead", "BinDiff", "Asm2Vec", "SAFE", "DataFlow", "fus/funcs"
    );
    let programs = t1_programs(scope);
    for arity in 2..=4usize {
        let mut ohs = Vec::new();
        let mut bindiff = Vec::new();
        let mut asm2vec = Vec::new();
        let mut safe = Vec::new();
        let mut dataflow = Vec::new();
        let mut fus_funcs = 0usize;
        let mut eligible = 0usize;
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let base_bin = lower_module(&base);
            let (obf, ctx) = khaos_apply_nway(&base, arity, SEED);
            let oh = overhead_pct(base_cycles, measure_cycles(&obf));
            let obf_bin = lower_module(&obf);
            (
                oh,
                [
                    binary_similarity(&BinDiff::default(), &base_bin, &obf_bin),
                    precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin),
                    precision_at_1(&Safe::default(), &base_bin, &obf_bin),
                    precision_at_1(&khaos_diff::DataFlowDiff::default(), &base_bin, &obf_bin),
                ],
                ctx.fusion_stats.fus_funcs,
                ctx.fusion_stats.eligible_funcs,
            )
        });
        for (oh, scores, fus, elig) in results {
            ohs.push(oh);
            bindiff.push(scores[0]);
            asm2vec.push(scores[1]);
            safe.push(scores[2]);
            dataflow.push(scores[3]);
            fus_funcs += fus;
            eligible += elig;
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<8} {:>9.1}% {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>5}/{:<4}",
            arity,
            geomean_ratio(&ohs),
            avg(&bindiff),
            avg(&asm2vec),
            avg(&safe),
            avg(&dataflow),
            fus_funcs,
            eligible,
        );
    }
    println!("# expectation: overhead grows with arity; diffing accuracy falls;");
    println!("# fus/funcs shrinks (each fusFunc swallows more functions)");

    // Same sweep at the paper's obfuscation-effect-first operating point:
    // fission first, then N-way fusion over sepFuncs + untouched originals
    // (the arity-k analogue of FuFi.all).
    println!("\n## FuFi.all at arity k (fission + N-way fusion)");
    println!(
        "{:<8} {:>10} {:>9} {:>9} {:>9}",
        "arity", "overhead", "BinDiff", "Asm2Vec", "SAFE"
    );
    let programs = t1_programs(if scope == Scope::Quick {
        Scope::Quick
    } else {
        Scope::Full
    });
    for arity in 2..=4usize {
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_cycles = measure_cycles(&base);
            let base_bin = lower_module(&base);
            let (m, _) = run_spec(&base, &format!("fufi_n(arity={arity}) | O2+lto"), SEED);
            let oh = overhead_pct(base_cycles, measure_cycles(&m));
            let obf_bin = lower_module(&m);
            (
                oh,
                binary_similarity(&BinDiff::default(), &base_bin, &obf_bin),
                precision_at_1(&Asm2Vec::default(), &base_bin, &obf_bin),
                precision_at_1(&Safe::default(), &base_bin, &obf_bin),
            )
        });
        let ohs: Vec<f64> = results.iter().map(|r| r.0).collect();
        let bindiff: Vec<f64> = results.iter().map(|r| r.1).collect();
        let asm2vec: Vec<f64> = results.iter().map(|r| r.2).collect();
        let safe: Vec<f64> = results.iter().map(|r| r.3).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<8} {:>9.1}% {:>9.3} {:>9.3} {:>9.3}",
            arity,
            geomean_ratio(&ohs),
            avg(&bindiff),
            avg(&asm2vec),
            avg(&safe),
        );
    }
}

/// **Extension E11** — the data-flow-representation differ (`ext-dataflow`).
///
/// Paper §5: *"we predict the potential of data flow representation can
/// be further tapped."* [`khaos_diff::DataFlowDiff`] embeds def-use-chain
/// features only; this experiment reruns the Figure-8 protocol with it
/// alongside the control-flow-reliant tools.
pub fn ext_dataflow(scope: Scope) {
    println!("# Extension: data-flow diffing (paper section-5 prediction)");
    println!("#   Precision@1, relaxed pairing — higher = more Khaos-resistant");
    let configs = BuildConfig::figure8_set();
    let mut programs = t1_programs(scope);
    programs.extend(t2_programs(scope));

    let tools: Vec<(&str, Box<dyn Differ + Sync>)> = vec![
        ("VulSeeker", Box::new(VulSeeker::default())),
        ("Asm2Vec", Box::new(Asm2Vec::default())),
        ("SAFE", Box::new(Safe::default())),
        ("DF/intra", Box::new(khaos_diff::DataFlowDiff::intra_only())),
        ("DataFlow", Box::new(khaos_diff::DataFlowDiff::default())),
    ];
    print!("{:<10}", "config");
    for (t, _) in &tools {
        print!(" {t:>11}");
    }
    println!();
    let prepared: Vec<_> = par_fan_out(&programs, |src| {
        let base = build_baseline(src);
        (lower_module(&base), base)
    });
    for cfg in configs {
        let per_program = par_fan_out(&prepared, |(base_bin, base)| {
            let obf_bin = build_binary(base, cfg);
            tools
                .iter()
                .map(|(_, tool)| precision_at_1(tool.as_ref(), base_bin, &obf_bin))
                .collect::<Vec<f64>>()
        });
        print!("{:<10}", cfg.name());
        for k in 0..tools.len() {
            let avg: f64 =
                per_program.iter().map(|s| s[k]).sum::<f64>() / per_program.len().max(1) as f64;
            print!(" {avg:>11.3}");
        }
        println!();
    }
    println!("# reading: DataFlow is near-immune to intra-procedural obfuscation");
    println!("# (Fla-10 row) and beats the call-graph tool (VulSeeker) under every");
    println!("# Khaos mode; sequence embeddings still edge it out after fission —");
    println!("# so the section-5 prediction holds only in part");
}

/// **Extension E12** — stripped-binary diffing (`ext-stripped`).
///
/// The paper highlights that BinDiff's resilience comes from symbol
/// names on un-stripped binaries (§4.2, Table 1). Real embedded firmware
/// is stripped; this experiment reruns BinDiff with stripped targets to
/// quantify how much of its accuracy is the symbol table.
pub fn ext_stripped(scope: Scope) {
    println!("# Extension: BinDiff with stripped targets (symbols removed)");
    println!(
        "{:<10} {:>13} {:>13} {:>11} {:>11}",
        "config", "sim/unstrip", "sim/strip", "P@1/unstrip", "P@1/strip"
    );
    let configs: Vec<BuildConfig> = vec![
        BuildConfig::Ollvm(OllvmMode::Sub(1.0)),
        BuildConfig::Ollvm(OllvmMode::Fla(0.1)),
        BuildConfig::Khaos(KhaosMode::Fission),
        BuildConfig::Khaos(KhaosMode::Fusion),
        BuildConfig::Khaos(KhaosMode::FuFiAll),
    ];
    let programs = t1_programs(scope);
    for cfg in configs {
        let tool = BinDiff::default();
        let results = par_fan_out(&programs, |src| {
            let base = build_baseline(src);
            let base_bin = lower_module(&base);
            let obf_bin = build_binary(&base, cfg);
            let mut stripped = obf_bin.clone();
            stripped.strip();
            [
                binary_similarity(&tool, &base_bin, &obf_bin),
                binary_similarity(&tool, &base_bin, &stripped),
                precision_at_1(&tool, &base_bin, &obf_bin),
                precision_at_1(&tool, &base_bin, &stripped),
            ]
        });
        let sim_u: Vec<f64> = results.iter().map(|r| r[0]).collect();
        let sim_s: Vec<f64> = results.iter().map(|r| r[1]).collect();
        let p_u: Vec<f64> = results.iter().map(|r| r[2]).collect();
        let p_s: Vec<f64> = results.iter().map(|r| r[3]).collect();
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<10} {:>13.3} {:>13.3} {:>11.3} {:>11.3}",
            cfg.name(),
            avg(&sim_u),
            avg(&sim_s),
            avg(&p_u),
            avg(&p_s)
        );
    }
    println!("# expectation: stripping costs BinDiff accuracy everywhere, and");
    println!("# under Khaos the structural fallback has nothing left to hold onto");
}
