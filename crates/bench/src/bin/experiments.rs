//! `experiments` — regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--shard i/n] [--elastic]
//!             <fig6|fig7|fig8|fig9|fig10|fig11
//!              |table1|table2|table3|ablations
//!              |ext-arity|ext-dataflow|ext-stripped|all>
//! experiments [--quick] <fig7-merge|fig9-merge|fig10-merge|table2-merge> DIR...
//! ```
//!
//! The `ext-*` targets are extension experiments beyond the paper's
//! evaluation: the N-way fusion arity sweep, the §5 data-flow-diffing
//! prediction, and stripped-binary BinDiff.
//!
//! The grid experiments — `fig7`, `fig9`, `fig10` and `table2`
//! ([`experiments::GRIDS`]) — are each one list of work units with two
//! schedulers over it:
//!
//! - `--shard i/n` (or `KHAOS_SHARD=i/n`) is the static one: this
//!   process measures its deterministic round-robin share of the units,
//!   so `n` processes — or machines sharing nothing but store
//!   directories — split a sweep. Shard runs should set `KHAOS_STORE`
//!   so each cell is persisted; `<name>-merge DIR...` then reassembles
//!   the complete grid from any union of shard stores (and fails,
//!   listing every missing or invalid cell, when the union is
//!   incomplete).
//! - `--elastic` is the dynamic one: the same units become a leased
//!   work queue in the shared `KHAOS_STORE` (see
//!   `khaos_bench::coordinator`). Every worker pointed at the store
//!   claims open units, steals stale claims from dead peers after the
//!   lease horizon (`KHAOS_LEASE_MS`, default 120s), and exits only when
//!   the whole grid's records exist — a killed worker costs one
//!   re-computed unit instead of a hole in the grid.
//!
//! Every other target does not shard: a sharded run of it runs in full.

use khaos_bench::experiments::{self, Scope, GRIDS};
use khaos_bench::ShardSpec;
use std::time::Instant;

/// The grid target names, each with `suffix`, joined by `sep`.
fn grid_names(suffix: &str, sep: &str) -> String {
    GRIDS.map(|g| format!("{}{suffix}", g.name)).join(sep)
}

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--quick] [--shard i/n] [--elastic] \
         <fig6..fig11|table1..table3|ablations|ext-arity|ext-dataflow|ext-stripped|all>\n       \
         experiments [--quick] <{}> DIR...",
        grid_names("-merge", "|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scope = if quick { Scope::Quick } else { Scope::Full };
    let mut elastic = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {}
            "--elastic" => elastic = true,
            "--shard" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                let shard = match ShardSpec::parse(v) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("experiments: --shard {e}");
                        std::process::exit(2);
                    }
                };
                // One mechanism for every driver: the flag writes the
                // same variable the harness reads (KHAOS_SHARD).
                std::env::set_var("KHAOS_SHARD", shard.to_string());
            }
            other if other.starts_with("--") => {
                eprintln!("experiments: unknown flag `{other}`");
                std::process::exit(2);
            }
            other => positional.push(other),
        }
    }

    // Merge targets consume the remaining positionals as store dirs.
    let merge_target = positional.first().and_then(|t| {
        let name = t.strip_suffix("-merge")?;
        GRIDS.iter().find(|g| g.name == name)
    });
    if let Some(grid) = merge_target {
        let name = positional[0];
        let dirs: Vec<String> = positional[1..].iter().map(|s| s.to_string()).collect();
        let dirs = if dirs.is_empty() {
            match std::env::var("KHAOS_STORE") {
                Ok(d) if !d.trim().is_empty() => vec![d],
                _ => {
                    eprintln!("experiments: {name} needs store DIRs (or KHAOS_STORE)");
                    std::process::exit(2);
                }
            }
        } else {
            dirs
        };
        let complete = (grid.report)(scope, &dirs);
        std::process::exit(if complete { 0 } else { 1 });
    }

    let targets: Vec<&str> = if positional.is_empty() || positional.contains(&"all") {
        vec![
            "table1",
            "table2",
            "table3",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablations",
            "ext-arity",
            "ext-dataflow",
            "ext-stripped",
        ]
    } else {
        positional
    };

    let shard = khaos_bench::active_shard();
    if elastic && !shard.is_full() {
        eprintln!(
            "experiments: WARNING: --elastic ignores the static shard {shard} — \
             the work queue balances itself; every elastic worker scans the full grid"
        );
    }
    let grid_list = grid_names("", ", ");
    for t in targets {
        let grid = GRIDS.iter().find(|g| g.name == t);
        // Only the grid experiments shard. A sharded run of any other
        // target would duplicate its full cost on every shard, so say
        // so loudly instead of letting it pass as a smaller sweep.
        if !shard.is_full() && grid.is_none() {
            eprintln!(
                "experiments: WARNING: `{t}` does not shard — shard {shard} runs it in FULL \
                 (every shard duplicates this cost; sharded targets: {grid_list})"
            );
        }
        if elastic && grid.is_none() {
            eprintln!(
                "experiments: WARNING: `{t}` has no elastic driver — running it plainly \
                 (elastic targets: {grid_list})"
            );
        }
        let start = Instant::now();
        match (grid, t) {
            (Some(g), _) if elastic => {
                if !(g.elastic)(scope) {
                    std::process::exit(1);
                }
            }
            (Some(g), _) => (g.run)(scope),
            (None, "fig6") => experiments::fig6(scope),
            (None, "fig8") => experiments::fig8(scope),
            (None, "fig11") => experiments::fig11(scope),
            (None, "table1") => experiments::table1(),
            (None, "table3") => experiments::table3(),
            (None, "ablations") => experiments::ablations(scope),
            (None, "ext-arity") => experiments::ext_arity(scope),
            (None, "ext-dataflow") => experiments::ext_dataflow(scope),
            (None, "ext-stripped") => experiments::ext_stripped(scope),
            (None, other) => {
                eprintln!("unknown experiment `{other}`");
                usage();
            }
        }
        eprintln!("[{t} took {:.1?}]\n", start.elapsed());
    }
}
