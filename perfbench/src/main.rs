//! The repository's end-to-end benchmark.
//!
//! `khaos-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see `perfbench/README.md` for why each exists),
//! checks every output, and prints each metric by name with its unit,
//! ending with one JSON result line. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` alternates untraced and traced rounds
//! and reports the per-layer metrics from the benchmark's own spans.

mod grid;
mod index;
mod sys;
mod trace;

use grid::{Cell, Grid, GridRun, Kind, Layers, Phase};
use khaos_bench::experiments::{fig10_cells, fig7_cells, Scope};
use khaos_bench::harness::{ShardSpec, SEED};
use khaos_diff::{CacheStats, EmbeddingCache};
use khaos_ir::Module;
use khaos_obs::{MetricValue, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four workloads (see `perfbench/README.md` for why each exists).
pub const WORKLOADS: [&str; 4] = ["fig10_cold", "fig10_warm", "fig7_overhead", "index_query"];

/// End-to-end metrics (untraced runs) with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
];

/// Per-layer metrics (traced runs) with their units.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("failed_frac", "fraction"),
    ("workloads.generate_s", "s"),
    ("pass.pipeline_s", "s"),
    ("pass.builds", "count"),
    ("pass.check_s", "s"),
    ("core.obf_s", "s"),
    ("ollvm.obf_s", "s"),
    ("opt.o2lto_s", "s"),
    ("opt.mem2reg_s", "s"),
    ("opt.constprop_s", "s"),
    ("opt.cse_s", "s"),
    ("opt.dce_s", "s"),
    ("opt.simplifycfg_s", "s"),
    ("opt.inline_s", "s"),
    ("opt.dfe_s", "s"),
    ("opt.mem2reg.promoted", "count"),
    ("opt.cse.eliminated", "count"),
    ("opt.dce.removed", "count"),
    ("opt.inline.inlined", "count"),
    ("opt.dfe.removed", "count"),
    ("opt.replay.modules", "count"),
    ("ir.insts_after_obf", "count"),
    ("ir.insts_after_opt", "count"),
    ("binary.lower_s", "s"),
    ("binary.minsts", "count"),
    ("vm.run_s", "s"),
    ("vm.steps", "count"),
    ("vm.cycles", "count"),
    ("diff.embed.vulseeker_s", "s"),
    ("diff.embed.asm2vec_s", "s"),
    ("diff.embed.safe_s", "s"),
    ("diff.embed.functions", "count"),
    ("diff.cache.lookup_s", "s"),
    ("diff.rank_s", "s"),
    ("diff.cache.hit_ratio", "fraction"),
    ("diff.cache.disk_hits", "count"),
    ("diff.cache.embeds_computed", "count"),
    ("store.put_s", "s"),
    ("store.writes", "count"),
    ("store.write_bytes", "B"),
    ("store.reads", "count"),
    ("store.read_bytes", "B"),
    ("store.read_misses", "count"),
    ("index.build_s", "s"),
    ("index.query_s", "s"),
    ("index.cells_probed", "count"),
    ("index.candidates_scanned", "count"),
    ("index.rerank_scored", "count"),
    ("index.rerank_pruned", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.client_p50_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.errors_sent", "count"),
    ("par.cpu_per_wall", "ratio"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// The run is abandoned (non-zero exit, no result) past this point, so
/// a hung daemon or client can never outlive the run's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Input sizes. [`Size::FULL`] is the benchmark; tests use smaller ones.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// T-III programs in the fig10 grid and the index corpus (5 = all,
    /// 2 = the `Scope::Quick` set).
    pub fig10_programs: usize,
    /// T-I programs per fig7 round, taken in seeded order from the
    /// round set (at most the whole set, see `grid::t1_order`).
    pub fig7_programs: usize,
    /// Queries per differ in `index_query`: at least the CVE functions,
    /// at most every baseline function.
    pub queries_per_tool: usize,
    /// Set-up repetitions: at least this many, and more while they
    /// take under [`SETUP_MIN_S`] in total.
    pub setup_reps: usize,
}

impl Size {
    pub const FULL: Size = Size {
        fig10_programs: 5,
        fig7_programs: usize::MAX,
        queries_per_tool: usize::MAX,
        setup_reps: 3,
    };
}

const SETUP_MIN_S: f64 = 0.3;
const SETUP_MAX_REPS: usize = 100;
/// Seconds of program generation repeated after each grid round when
/// generation is the whole set-up (see [`measure_grid`]).
const SETUP_SLICE_S: f64 = 0.1;

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload `{}`: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds {}: must be positive", args.seconds));
    }
    Ok(args)
}

/// One workload's result.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host and input descriptor lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The metric table `trace` selects, every name present (a layer
    /// that did no work on this workload reads 0).
    pub fn table(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(n, u)| (n, self.metrics.get(n).copied().unwrap_or(0.0), u))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .table(trace)
            .into_iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The benchmark's scratch directory inside its own package.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

fn counters() -> BTreeMap<String, u64> {
    Registry::global()
        .snapshot()
        .into_iter()
        .filter_map(|(n, v)| match v {
            MetricValue::Counter(c) => Some((n, c)),
            _ => None,
        })
        .collect()
}

fn counter_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> f64 {
    let get = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// The host descriptor; `steal` is the hypervisor's share of machine
/// CPU time while the workload ran.
fn host_note(args: &Args, steal: f64) -> String {
    format!(
        "host nproc={} simd={} KHAOS_THREADS={} commit={} steal_frac={steal:.3} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        khaos_diff::kernels::active().name(),
        std::env::var("KHAOS_THREADS").unwrap_or_else(|_| "unset".into()),
        sys::commit(),
        args.seed,
        args.seconds,
        args.trace as u8,
    )
}

/// Generates the workload's programs.
fn generate(workload: &str, size: Size) -> Vec<Module> {
    match workload {
        "fig7_overhead" => {
            let mut all = khaos_workloads::spec2006();
            all.extend(khaos_workloads::spec2017());
            all
        }
        _ => {
            let mut v = khaos_workloads::tiii();
            v.truncate(size.fig10_programs);
            v
        }
    }
}

/// Repeats `once` at least `size.setup_reps` times and until
/// [`SETUP_MIN_S`] have passed, returning each repetition's seconds and
/// the last repetition's value.
fn repeat_setup<T>(
    size: Size,
    mut once: impl FnMut(usize) -> std::io::Result<T>,
) -> std::io::Result<(Vec<f64>, T)> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let value = once(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= size.setup_reps && start.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return Ok((times, value));
        }
    }
}

/// A fresh empty store attached as the embedding cache's disk tier,
/// with the memory tier cleared.
fn fresh_store(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = khaos_store::Store::open(dir)?;
    let cache = EmbeddingCache::global();
    cache.attach_store(Arc::new(store));
    cache.clear();
    Ok(())
}

/// Per-layer numbers of traced rounds: spans, report sums, counters.
#[derive(Default)]
struct Traced {
    rounds: usize,
    spans: Vec<trace::SpanRec>,
    layers: Layers,
    counters: BTreeMap<String, f64>,
    cache: CacheStats,
    builds: Vec<grid::BuildRec>,
}

impl Traced {
    fn absorb(
        &mut self,
        phase: Phase,
        spans: Vec<trace::SpanRec>,
        before: &BTreeMap<String, u64>,
        cache_before: CacheStats,
    ) {
        self.rounds += 1;
        self.spans.extend(spans);
        self.layers.add(&phase.layers());
        let after = counters();
        for name in [
            "store.disk.writes",
            "store.disk.write_bytes",
            "store.disk.reads",
            "store.disk.read_bytes",
            "store.disk.read_misses",
        ] {
            *self.counters.entry(name.into()).or_default() += counter_delta(before, &after, name);
        }
        let now = EmbeddingCache::global().stats();
        self.cache.hits += now.hits - cache_before.hits;
        self.cache.misses += now.misses - cache_before.misses;
        self.cache.disk_hits += now.disk_hits - cache_before.disk_hits;
        self.cache.embeds_computed += now.embeds_computed - cache_before.embeds_computed;
        if self.builds.is_empty() {
            self.builds = phase.builds.into_inner().expect("build records poisoned");
        }
    }

    /// Fills the per-layer metrics, per traced round; replays the
    /// recorded builds through the optimizer sub-passes and returns the
    /// number of replays that diverged from `optimize`.
    fn report(
        mut self,
        m: &mut BTreeMap<&'static str, f64>,
        root: &str,
        structural: &[&str],
        trace_file: &Path,
    ) -> usize {
        let n = self.rounds.max(1) as f64;
        let coverage = trace::coverage(&self.spans, &[root], structural);
        trace::set_enabled(true);
        let replays = khaos_par::par_map_slice(&self.builds, grid::replay_o2lto);
        trace::set_enabled(false);
        let replay_spans = trace::take();
        let diverged = replays.iter().filter(|r| r.is_none()).count();
        let st = trace::self_times(&self.spans);
        let rt = trace::self_times(&replay_spans);
        let s = |name: &str| st.get(name).copied().unwrap_or(0.0) / n;
        let l = &self.layers;
        for (k, v) in [
            ("pass.pipeline_s", l.pipeline_s / n),
            ("pass.builds", l.builds as f64 / n),
            ("pass.check_s", l.check_s / n),
            ("core.obf_s", l.core_s / n),
            ("ollvm.obf_s", l.ollvm_s / n),
            ("opt.o2lto_s", l.o2lto_s / n),
            ("ir.insts_after_obf", l.insts_after_obf as f64 / n),
            ("ir.insts_after_opt", l.insts_after_opt as f64 / n),
            ("binary.lower_s", s("binary.lower")),
            ("binary.minsts", l.minsts as f64 / n),
            ("vm.run_s", s("vm.run")),
            ("vm.steps", l.vm_steps as f64 / n),
            ("vm.cycles", l.vm_cycles as f64 / n),
            ("diff.embed.vulseeker_s", s("diff.embed.vulseeker")),
            ("diff.embed.asm2vec_s", s("diff.embed.asm2vec")),
            ("diff.embed.safe_s", s("diff.embed.safe")),
            ("diff.embed.functions", l.embed_functions as f64 / n),
            ("diff.cache.lookup_s", s("diff.cache.lookup")),
            ("diff.rank_s", s("diff.rank")),
            ("diff.cache.disk_hits", self.cache.disk_hits as f64 / n),
            (
                "diff.cache.embeds_computed",
                self.cache.embeds_computed as f64 / n,
            ),
            ("store.put_s", s("store.put")),
            ("index.build_s", s("index.build")),
            ("trace.coverage", coverage),
            ("opt.replay.modules", (replays.len() - diverged) as f64),
        ] {
            m.insert(k, v);
        }
        let lookups = self.cache.hits + self.cache.misses;
        if lookups > 0 {
            m.insert(
                "diff.cache.hit_ratio",
                self.cache.hits as f64 / lookups as f64,
            );
        }
        for (k, c) in [
            ("store.writes", "store.disk.writes"),
            ("store.write_bytes", "store.disk.write_bytes"),
            ("store.reads", "store.disk.reads"),
            ("store.read_bytes", "store.disk.read_bytes"),
            ("store.read_misses", "store.disk.read_misses"),
        ] {
            m.insert(k, self.counters.get(c).copied().unwrap_or(0.0) / n);
        }
        for (k, span) in [
            ("opt.mem2reg_s", "opt.mem2reg"),
            ("opt.constprop_s", "opt.constprop"),
            ("opt.cse_s", "opt.cse"),
            ("opt.dce_s", "opt.dce"),
            ("opt.simplifycfg_s", "opt.simplifycfg"),
            ("opt.inline_s", "opt.inline"),
            ("opt.dfe_s", "opt.dfe"),
        ] {
            m.insert(k, rt.get(span).copied().unwrap_or(0.0));
        }
        let sum =
            |f: fn(&grid::OptCounts) -> u64| replays.iter().flatten().map(f).sum::<u64>() as f64;
        m.insert("opt.mem2reg.promoted", sum(|c| c.promoted));
        m.insert("opt.cse.eliminated", sum(|c| c.cse_eliminated));
        m.insert("opt.dce.removed", sum(|c| c.dce_removed));
        m.insert("opt.inline.inlined", sum(|c| c.inlined));
        m.insert("opt.dfe.removed", sum(|c| c.dfe_removed));
        self.spans.extend(replay_spans);
        if let Err(e) = std::fs::create_dir_all(trace_file.parent().unwrap_or(Path::new(".")))
            .and_then(|()| trace::write_jsonl(trace_file, &self.spans))
        {
            eprintln!("perfbench: cannot write {}: {e}", trace_file.display());
        }
        diverged
    }
}

fn trace_file(args: &Args) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}

/// What the grid workloads measured, before the correctness gate.
struct Measured {
    grid: Grid,
    setup_times: Vec<f64>,
    gen_times: Vec<f64>,
    setup_failed: usize,
    /// `(traced, run)` per grid round; with `--trace 1` each draw runs
    /// untraced and then traced, so rounds pair up.
    runs: Vec<(bool, GridRun)>,
    traced: Traced,
}

/// Sets up a grid workload, then runs grid rounds until `--seconds`
/// have passed.
fn measure_grid(args: &Args, size: Size, dir: &Path) -> std::io::Result<Measured> {
    let kind = if args.workload == "fig7_overhead" {
        Kind::Fig7
    } else {
        Kind::Fig10
    };
    let cold = args.workload == "fig10_cold";
    let warm = args.workload == "fig10_warm";
    let mut gen_times = Vec::new();
    let mut setup_failed = 0;
    let (mut setup_times, grid) = repeat_setup(size, |rep| -> std::io::Result<Grid> {
        let t = Instant::now();
        let programs = generate(&args.workload, size);
        gen_times.push(t.elapsed().as_secs_f64());
        let order: Vec<usize> = match kind {
            Kind::Fig7 => grid::t1_order(&programs, args.seed),
            Kind::Fig10 => (0..programs.len()).collect(),
        };
        let per_round = match kind {
            Kind::Fig7 => size.fig7_programs.min(order.len()),
            Kind::Fig10 => order.len(),
        };
        let grid = Grid {
            programs,
            seed: args.seed,
            kind,
            order,
            per_round,
        };
        if warm {
            fresh_store(&dir.join(format!("warm-{rep}")))?;
            if rep > 0 {
                std::fs::remove_dir_all(dir.join(format!("warm-{}", rep - 1)))?;
            }
            setup_failed += grid.run(0, &Phase::default(), false).failed;
        }
        Ok(grid)
    })?;

    let mut runs: Vec<(bool, GridRun)> = Vec::new();
    let mut traced = Traced::default();
    let start = Instant::now();
    for draw in 0.. {
        for is_traced in [false, true].into_iter().take(1 + args.trace as usize) {
            let store_dir = dir.join(format!("cold-{}", runs.len()));
            if cold {
                fresh_store(&store_dir)?;
            } else if warm {
                EmbeddingCache::global().clear();
            }
            let phase = if is_traced && traced.rounds == 0 {
                Phase::recording()
            } else {
                Phase::default()
            };
            let keep = runs.is_empty() || kind == Kind::Fig7;
            let (before, cache_before) = (counters(), EmbeddingCache::global().stats());
            trace::set_enabled(is_traced);
            let run = grid.run(draw, &phase, keep);
            trace::set_enabled(false);
            if is_traced {
                traced.absorb(phase, trace::take(), &before, cache_before);
            }
            if cold {
                std::fs::remove_dir_all(&store_dir)?;
            }
            runs.push((is_traced, run));
        }
        if !warm {
            // Set-up here is program generation alone, a few milliseconds
            // of one thread. Repeating it after every round samples the
            // host over the whole run rather than its first fraction of
            // a second, so one slow stretch does not decide the median.
            let slice = Instant::now();
            while slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
                let t = Instant::now();
                drop(generate(&args.workload, size));
                let s = t.elapsed().as_secs_f64();
                setup_times.push(s);
                gen_times.push(s);
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    Ok(Measured {
        grid,
        setup_times,
        gen_times,
        setup_failed,
        runs,
        traced,
    })
}

/// The grid workloads' correctness gate, run outside every timed
/// region. Counts as failed: every cell whose value differs between
/// rounds (traced or not, and the default-seed check grid), every escape
/// value outside `[0, 1]` or rising with `k`, every built module whose
/// VM output or exit code differs from its un-optimized source's, and at
/// the default seed every cell that differs from the public driver's.
fn grid_gate(
    args: &Args,
    grid: &Grid,
    runs: &[(bool, GridRun)],
    dir: &Path,
) -> std::io::Result<(usize, String)> {
    let first = &runs[0].1;
    let mut failed = 0;
    let mut public = "not run (seed is not the default)".to_string();
    let mut check_run = None;
    if args.seed == SEED {
        let (bad, run) = public_driver_mismatches(grid, first, dir)?;
        failed += bad;
        public = format!("{bad} mismatching cells");
        check_run = run;
    }
    let inconsistent =
        grid::inconsistent_cells(runs.iter().map(|(_, r)| r).chain(check_run.as_ref()));
    failed += inconsistent;
    if grid.kind == Kind::Fig10 {
        failed += runs
            .iter()
            .map(|(_, r)| grid::escape_shape_violations(&r.cells))
            .sum::<usize>();
    }
    let measured: Vec<Module> = grid
        .programs
        .iter()
        .filter(|p| {
            first.modules.iter().any(|(n, _)| *n == p.name)
                || runs
                    .iter()
                    .any(|(_, r)| r.vm.iter().any(|(n, _)| *n == p.name))
        })
        .cloned()
        .collect();
    let reference = grid::vm_reference(&measured);
    let vm_runs: Vec<(String, grid::VmOut)> = runs
        .iter()
        .flat_map(|(_, r)| r.vm.iter().cloned())
        .collect();
    let vm_bad = grid::vm_mismatches(&reference, &first.modules, &vm_runs);
    failed += vm_bad;
    let note = format!(
        "gate round0_digest={:016x} inconsistent_cells={inconsistent} vm_checked_modules_and_runs={} vm_reference_mismatches={vm_bad} public_driver={public}",
        grid::digest(&first.cells),
        first.modules.len() + vm_runs.len(),
    );
    Ok((failed, note))
}

/// `fig10_cold`, `fig10_warm` and `fig7_overhead`.
fn run_grid(args: &Args, size: Size, dir: &Path) -> std::io::Result<Outcome> {
    let ticks = sys::cpu_ticks();
    let Measured {
        grid,
        setup_times,
        gen_times,
        setup_failed,
        runs,
        traced,
    } = measure_grid(args, size, dir)?;
    let (gate_failed, gate_note) = grid_gate(args, &grid, &runs, dir)?;
    let mut failed = setup_failed + gate_failed + runs.iter().map(|(_, r)| r.failed).sum::<usize>();
    let attempted = runs.iter().map(|(_, r)| r.attempted).sum::<usize>();

    let untraced: Vec<&GridRun> = runs.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.attempted as f64 / r.wall_s)
        .collect();
    // Pooled over rounds: a fig10 round has only 30 units, so its own
    // p99 would be its slowest unit.
    let units: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let mut m = BTreeMap::new();
    m.insert("wall_s", sys::median(&walls));
    m.insert("cpu_s", sys::median(&cpus));
    m.insert("peak_rss_mb", sys::peak_rss_mb());
    m.insert("setup_s", sys::median(&setup_times));
    m.insert("queries_per_s", sys::median(&rates));
    m.insert("query_p50_ms", sys::percentile(&units, 50.0));
    m.insert("query_p99_ms", sys::percentile(&units, 99.0));
    m.insert("workloads.generate_s", sys::median(&gen_times));
    m.insert("par.cpu_per_wall", sys::median(&cpus) / sys::median(&walls));
    let traced_rounds = traced.rounds;
    if args.trace {
        let ratios: Vec<f64> = runs
            .chunks(2)
            .map(|p| p[1].1.wall_s / p[0].1.wall_s)
            .collect();
        m.insert("trace.overhead_frac", sys::median(&ratios) - 1.0);
        failed += traced.report(
            &mut m,
            "grid",
            &["grid.unit", "grid.baseline"],
            &trace_file(args),
        );
    }
    m.insert("failed_frac", failed as f64 / attempted.max(1) as f64);

    let mut distinct: Vec<&str> = (0..walls.len())
        .flat_map(|r| grid.round(r))
        .map(|p| p.name.as_str())
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let notes = vec![
        host_note(args, sys::steal_frac(ticks, sys::cpu_ticks())),
        format!(
            "inputs workload={} seed={} configs={} programs_per_round={} round0_programs={} round0_functions={} distinct_programs={} cells_per_round={}",
            args.workload,
            args.seed,
            grid.configs().len(),
            grid.per_round.min(grid.order.len()),
            grid.round(0).iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(","),
            grid.round(0).iter().map(|p| p.functions.len()).sum::<usize>(),
            distinct.len(),
            runs[0].1.attempted,
        ),
        format!(
            "samples wall_s={} cpu_s={} setup_s={} query_latency(units)={} (pooled over rounds) traced_rounds={traced_rounds} round_walls_s={walls:.3?}",
            walls.len(),
            cpus.len(),
            setup_times.len(),
            units.len(),
        ),
        gate_note,
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// At the default seed: cells against the public driver's, computed
/// with an empty memory tier over an empty store. Fig10 checks the timed
/// round 0, which is the `Scope::Full` (or `Scope::Quick`) grid. Fig7
/// rounds draw from a pool without the heaviest programs, so an untimed
/// grid over the `Scope::Quick` programs is run for the check and
/// returned, for the cross-round consistency check.
fn public_driver_mismatches(
    grid: &Grid,
    first: &GridRun,
    dir: &Path,
) -> std::io::Result<(usize, Option<GridRun>)> {
    fresh_store(&dir.join("gate"))?;
    Ok(match grid.kind {
        Kind::Fig10 => {
            let scope = match grid.round(0).len() {
                5 => Scope::Full,
                2 => Scope::Quick,
                n => panic!("no public fig10 scope has {n} programs"),
            };
            let reference: Vec<Cell> = fig10_cells(scope, ShardSpec::FULL, None)
                .into_iter()
                .map(|c| Cell {
                    key: c.subject(),
                    values: c.escape.to_vec(),
                })
                .collect();
            (grid::mismatches(&first.cells, &reference), None)
        }
        Kind::Fig7 => {
            let quick = Grid {
                programs: grid.programs[..6].to_vec(),
                seed: SEED,
                kind: Kind::Fig7,
                order: (0..6).collect(),
                per_round: 6,
            };
            let run = quick.run(0, &Phase::default(), false);
            let reference: Vec<Cell> = fig7_cells(Scope::Quick, ShardSpec::FULL, None)
                .into_iter()
                .map(|c| Cell {
                    key: format!("{}/{}", c.program, c.config),
                    values: vec![c.overhead],
                })
                .collect();
            (
                run.failed + grid::mismatches(&run.cells, &reference),
                Some(run),
            )
        }
    })
}

/// `index_query`.
fn run_index(args: &Args, size: Size, dir: &Path) -> std::io::Result<Outcome> {
    let ticks = sys::cpu_ticks();
    let mut gen_times = Vec::new();
    let mut traced = Traced::default();
    let (setup_times, mut setup) = repeat_setup(size, |rep| -> std::io::Result<index::Setup> {
        let t = Instant::now();
        let programs = generate(&args.workload, size);
        gen_times.push(t.elapsed().as_secs_f64());
        let phase = if args.trace && rep == 0 {
            Phase::recording()
        } else {
            Phase::default()
        };
        let (before, cache_before) = (counters(), EmbeddingCache::global().stats());
        trace::set_enabled(args.trace && rep == 0);
        let setup = index::setup(
            &programs,
            args.seed,
            size.queries_per_tool,
            &dir.join(format!("index-{rep}")),
            &phase,
        );
        trace::set_enabled(false);
        if args.trace && rep == 0 {
            traced.absorb(phase, trace::take(), &before, cache_before);
        }
        setup
    })?;
    let queries = index::reference(&setup);

    let mut client = khaos_serve::Client::connect(setup.server.addr()).ok();
    let before = counters();
    let mut rounds: Vec<(bool, index::Round)> = Vec::new();
    let start = Instant::now();
    loop {
        for is_traced in [false, true].into_iter().take(1 + args.trace as usize) {
            trace::set_enabled(is_traced);
            let r = index::round(&setup, &queries, &mut client, rounds.len());
            trace::set_enabled(false);
            rounds.push((is_traced, r));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let after = counters();
    let metrics_text = client
        .as_mut()
        .and_then(|c| c.metrics().ok())
        .unwrap_or_default();
    drop(client);
    setup.server.stop();

    let untraced: Vec<&index::Round> = rounds.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = untraced.iter().map(|r| r.cpu_s).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.attempted as f64 / r.wall_s)
        .collect();
    let local: Vec<&[f64]> = untraced.iter().map(|r| &r.local_ms[..]).collect();
    let remote: Vec<&[f64]> = untraced.iter().map(|r| &r.client_ms[..]).collect();
    let attempted: usize = rounds.iter().map(|r| r.1.attempted).sum();
    let reply_failed: usize = rounds.iter().map(|r| r.1.failed).sum();
    let mut failed = reply_failed;

    let mut m = BTreeMap::new();
    m.insert("wall_s", sys::median(&walls));
    m.insert("cpu_s", sys::median(&cpus));
    m.insert("peak_rss_mb", sys::peak_rss_mb());
    m.insert("setup_s", sys::median(&setup_times));
    m.insert("queries_per_s", sys::median(&rates));
    m.insert("query_p50_ms", sys::percentile_of_medians(&local, 50.0));
    m.insert("query_p99_ms", sys::percentile_of_medians(&local, 99.0));
    m.insert("workloads.generate_s", sys::median(&gen_times));
    m.insert("par.cpu_per_wall", sys::median(&cpus) / sys::median(&walls));
    for k in [
        "index.cells_probed",
        "index.candidates_scanned",
        "index.rerank_scored",
        "index.rerank_pruned",
    ] {
        m.insert(
            k,
            counter_delta(&before, &after, k) / attempted.max(1) as f64,
        );
    }
    m.insert("serve.client_p50_ms", sys::median_percentile(&remote, 50.0));
    m.insert(
        "serve.server_p50_ms",
        index::metric_field(&metrics_text, "serve.query_ns", Some("p50")) * 1e-6,
    );
    for (k, name) in [
        ("serve.requests", "serve.requests.query"),
        ("serve.errors_sent", "serve.errors_sent"),
    ] {
        m.insert(
            k,
            index::metric_field(&metrics_text, name, None) / rounds.len() as f64,
        );
    }
    if args.trace {
        let ratios: Vec<f64> = rounds
            .chunks_exact(2)
            .map(|p| p[1].1.wall_s / p[0].1.wall_s)
            .collect();
        m.insert("trace.overhead_frac", sys::median(&ratios) - 1.0);
        let query_spans = trace::take();
        let query_self = trace::self_times(&query_spans);
        traced.spans.extend(query_spans);
        failed += traced.report(&mut m, "index.round", &[], &trace_file(args));
        m.insert(
            "index.query_s",
            query_self.get("index.query").copied().unwrap_or(0.0) / ratios.len().max(1) as f64,
        );
    }
    m.insert("failed_frac", failed as f64 / attempted.max(1) as f64);

    let notes = vec![
        host_note(args, sys::steal_frac(ticks, sys::cpu_ticks())),
        format!(
            "inputs workload={} seed={} programs={} rows_per_index={} queries={} (per differ {}, CVE functions included) daemon_queries_per_round={} k={}",
            args.workload,
            args.seed,
            setup.programs.join(","),
            setup.rows,
            queries.len(),
            setup.queries.iter().map(|q| q.2.len().to_string()).collect::<Vec<_>>().join("/"),
            untraced[0].client_ms.len(),
            index::TOP_K,
        ),
        format!(
            "samples wall_s={} cpu_s={} setup_s={} query_latency={}x{} (p50/p99 over queries of each query's median over rounds) traced_rounds={}",
            walls.len(),
            cpus.len(),
            setup_times.len(),
            local.len(),
            queries.len(),
            rounds.len() - untraced.len(),
        ),
        format!("gate reply_mismatches_or_errors={reply_failed} (in-process and daemon, traced and untraced rounds)"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

/// Runs one workload and returns its outcome.
pub fn run(args: &Args, size: Size) -> std::io::Result<Outcome> {
    let dir = work_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let out = if args.workload == "index_query" {
        run_index(args, size, &dir)
    } else {
        run_grid(args, size, &dir)
    };
    let cleanup = std::fs::remove_dir_all(&dir);
    let out = out?;
    cleanup?;
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: khaos-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Deliberately detached: it only ever ends the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: run exceeded {WATCHDOG:?}; abandoning it");
        std::process::exit(3);
    });
    let outcome = match run(&args, Size::FULL) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in outcome.table(args.trace) {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", outcome.json(args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest sizes that still exercise every layer and gate.
    const SMOKE: Size = Size {
        fig10_programs: 2,
        fig7_programs: 2,
        queries_per_tool: 25,
        setup_reps: 1,
    };

    fn smoke_args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: SEED,
            seconds: 0.01,
            trace,
        }
    }

    /// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn benchmark_metrics(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("metric section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("metric list closes")];
        let field = |obj: &str, key: &str| -> String {
            let rest =
                &obj[obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2..];
            let rest = &rest[rest.find('"').expect("string value") + 1..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// Every workload runs at minimal size in both modes, fails
    /// nothing, and prints every metric `BENCHMARK.json` names with its
    /// unit; a corrupted escape value and a corrupted hit score are
    /// each caught by the correctness gate. One test, because the
    /// workloads share the process-wide cache, registry and tracer.
    #[test]
    fn smoke() {
        let e2e = benchmark_metrics("end_to_end");
        let layers = benchmark_metrics("per_layer");
        assert_eq!(e2e, pairs(&END_TO_END));
        assert_eq!(layers, pairs(&PER_LAYER));
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = run(&smoke_args(workload, trace), SMOKE).expect("smoke run");
                assert_eq!(out.failed, 0, "{workload} trace={trace}: {:#?}", out.notes);
                let json = out.json(trace);
                assert!(json.starts_with("{\"correct\": true, "), "{json}");
                for (name, unit) in if trace { &layers } else { &e2e } {
                    let key = format!("\"{name}\": {{\"value\": ");
                    let at = json
                        .find(&key)
                        .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                    let rest = &json[at + key.len()..];
                    let (value, rest) = rest.split_once(',').expect("value then unit");
                    let value: f64 = value.parse().expect("numeric value");
                    assert!(
                        rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                        "{workload}: {name} unit"
                    );
                    if !trace {
                        assert!(value > 0.0, "{workload}: end-to-end {name} reads {value}");
                    }
                }
            }
        }

        let args = smoke_args("fig10_cold", false);
        let dir = work_dir().join("smoke-escape");
        std::fs::create_dir_all(&dir).expect("smoke dir");
        let mut m = measure_grid(&args, SMOKE, &dir).expect("grid");
        assert_eq!(grid_gate(&args, &m.grid, &m.runs, &dir).expect("gate").0, 0);
        let v = &mut m.runs[0].1.cells[0].values[0];
        *v = f64::from_bits(v.to_bits() ^ 1);
        assert!(grid_gate(&args, &m.grid, &m.runs, &dir).expect("gate").0 > 0);
        std::fs::remove_dir_all(&dir).expect("smoke dir removed");

        let dir = work_dir().join("smoke-hits");
        let programs = generate("index_query", SMOKE);
        let mut setup = index::setup(
            &programs,
            SEED,
            SMOKE.queries_per_tool,
            &dir,
            &Phase::default(),
        )
        .expect("index setup");
        let mut queries = index::reference(&setup);
        let mut client = khaos_serve::Client::connect(setup.server.addr()).ok();
        assert_eq!(index::round(&setup, &queries, &mut client, 0).failed, 0);
        // Query 0 goes to the daemon at offset 0, so both the in-process
        // and the daemon reply must be caught.
        let hit = &mut queries[0].expected[0];
        hit.score = f64::from_bits(hit.score.to_bits() ^ 1);
        assert_eq!(index::round(&setup, &queries, &mut client, 0).failed, 2);
        drop(client);
        setup.server.stop();
        std::fs::remove_dir_all(&dir).expect("smoke dir removed");
    }
}
