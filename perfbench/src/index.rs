//! `index_query`: seeded top-50 queries against three `IvfIndex`es (one
//! per differ), each built from the embeddings of every fig10 binary.
//! Every query is answered in process by `IvfIndex::query_with` on the
//! `khaos-par` pool; every [`CLIENT_EVERY`]-th one is also sent over one
//! client connection to an in-process `khaos-serve` daemon serving the
//! same indexes from a store, so the KHST protocol and the daemon stay on
//! the measured path.

use crate::grid::{fig10_binaries, tools, Draw, Phase};
use crate::trace::{self, span};
use khaos_bench::harness::SEED;
use khaos_diff::FunctionEmbeddings;
use khaos_index::{IndexParams, IvfIndex, RowMeta};
use khaos_serve::protocol::{Hit, QueryReq};
use khaos_serve::{Client, ServerHandle};
use khaos_store::Store;
use khaos_workloads::TIII_CVES;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Results per query.
pub const TOP_K: u32 = 50;
/// One query in this many also goes to the daemon. The client path
/// crosses four threads per query, so on a shared host its latency
/// follows hypervisor steal; kept to a small share of a round, it
/// cannot decide the round's wall time.
pub const CLIENT_EVERY: usize = 50;

/// One query, the index that answers it, and the reply set-up recorded.
pub struct Query {
    pub index: usize,
    pub req: QueryReq,
    pub expected: Vec<Hit>,
}

/// Everything `index_query` sets up.
pub struct Setup {
    pub server: ServerHandle,
    pub indexes: Vec<IvfIndex>,
    /// Per tool: the query rows (baseline T-III function embeddings).
    pub queries: Vec<(String, u64, Vec<Vec<f64>>)>,
    pub rows: usize,
    pub programs: Vec<String>,
}

/// Builds every fig10 binary, embeds it with the three differs, builds
/// one index per differ, persists the segments into a store at `dir`
/// and serves them from there. Queries are a seeded draw of `per_tool`
/// baseline function rows per differ (all of them when `per_tool`
/// exceeds the count), always including every CVE function, in seeded
/// order.
///
/// The corpus is built at `harness::SEED`, not at `seed`: the index's
/// cells follow its rows, and the slowest queries follow its cells, so
/// a corpus that moved with the seed would move `query_p99_ms` with it.
pub fn setup(
    programs: &[khaos_ir::Module],
    seed: u64,
    per_tool: usize,
    dir: &Path,
    phase: &Phase,
) -> std::io::Result<Setup> {
    let binaries = fig10_binaries(programs, SEED, phase);
    khaos_diff::EmbeddingCache::global().clear();
    let tools = tools();
    let pairs: Vec<(usize, usize)> = (0..tools.len())
        .flat_map(|t| (0..binaries.len()).map(move |b| (t, b)))
        .collect();
    let embedded: Vec<Arc<FunctionEmbeddings>> = khaos_par::par_map_slice(&pairs, |&(t, b)| {
        let (bin, fp) = &binaries[b];
        phase.embeddings(tools[t].as_ref(), bin, *fp)
    });
    let indexes: Vec<IvfIndex> = khaos_par::par_map(tools.len(), |t| {
        let _s = span("index.build");
        let mut flat = Vec::new();
        let mut meta = Vec::new();
        let mut dim = 0;
        for (b, (bin, fp)) in binaries.iter().enumerate() {
            let e = &embedded[t * binaries.len() + b];
            dim = e.dim();
            flat.extend_from_slice(e.as_flat());
            meta.extend(bin.functions.iter().enumerate().map(|(i, f)| RowMeta {
                binary: *fp,
                function: i as u32,
                name: f.name.clone().unwrap_or_default(),
            }));
        }
        let rows = FunctionEmbeddings::from_flat_normalized(meta.len(), dim, flat);
        IvfIndex::build(
            tools[t].name(),
            tools[t].config_fingerprint(),
            Arc::new(rows),
            meta,
            &IndexParams::default(),
        )
    });
    let store = Store::open(dir)?;
    {
        let _s = span("store.put");
        for idx in &indexes {
            idx.save(&store)?;
        }
    }
    let server = {
        let _s = span("serve.bind");
        ServerHandle::serve_store(&store, "127.0.0.1:0")?
    };

    let mut rng = Draw::new(seed);
    let per_program = binaries.len() / programs.len();
    let queries = tools
        .iter()
        .enumerate()
        .map(|(t, tool)| {
            let mut picks: Vec<(usize, usize)> = Vec::new();
            let mut pool: Vec<(usize, usize)> = Vec::new();
            for (p, program) in programs.iter().enumerate() {
                let b = p * per_program;
                let cves = TIII_CVES
                    .iter()
                    .find(|(n, _)| *n == program.name)
                    .map_or(&[][..], |(_, c)| *c);
                for (i, f) in binaries[b].0.functions.iter().enumerate() {
                    let name = f.name.as_deref().unwrap_or("");
                    if cves.iter().any(|(cve_fn, _)| *cve_fn == name) {
                        picks.push((b, i));
                    } else {
                        pool.push((b, i));
                    }
                }
            }
            let extra = per_tool.saturating_sub(picks.len());
            picks.extend(rng.distinct(pool.len(), extra).into_iter().map(|i| pool[i]));
            let rows = rng
                .distinct(picks.len(), picks.len())
                .into_iter()
                .map(|i| {
                    let (b, f) = picks[i];
                    embedded[t * binaries.len() + b].row(f).to_vec()
                })
                .collect();
            (tool.name().to_string(), tool.config_fingerprint(), rows)
        })
        .collect();
    Ok(Setup {
        server,
        rows: indexes.first().map_or(0, IvfIndex::len),
        indexes,
        queries,
        programs: programs.iter().map(|m| m.name.clone()).collect(),
    })
}

/// The in-process reply to a query: `IvfIndex::query_with` at the
/// index's default probe width, with each row's provenance.
pub fn local_hits(idx: &IvfIndex, q: &[f64]) -> Vec<Hit> {
    idx.query_with(q, TOP_K as usize, 0)
        .into_iter()
        .map(|(row, score)| {
            let m = idx.meta(row);
            Hit {
                row: row as u64,
                score,
                binary: m.binary,
                function: m.function,
                name: m.name.clone(),
            }
        })
        .collect()
}

/// Every query with its in-process reference reply, interleaved across
/// the tools.
pub fn reference(setup: &Setup) -> Vec<Query> {
    let longest = setup.queries.iter().map(|q| q.2.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for (t, (tool, config, rows)) in setup.queries.iter().enumerate() {
            if let Some(q) = rows.get(i) {
                out.push(Query {
                    index: t,
                    req: QueryReq {
                        tool: tool.clone(),
                        config: *config,
                        k: TOP_K,
                        nprobe: 0,
                        q: q.clone(),
                    },
                    expected: local_hits(&setup.indexes[t], q),
                });
            }
        }
    }
    out
}

/// A reply is correct when it equals the reference bit for bit.
pub fn same_hits(got: &[Hit], expected: &[Hit]) -> bool {
    got.len() == expected.len()
        && got.iter().zip(expected).all(|(a, b)| {
            a.row == b.row
                && a.score.to_bits() == b.score.to_bits()
                && a.binary == b.binary
                && a.function == b.function
                && a.name == b.name
        })
}

/// What one round measured.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Latency of each in-process query, in ms.
    pub local_ms: Vec<f64>,
    /// Client-side latency of each daemon query, in ms.
    pub client_ms: Vec<f64>,
    pub attempted: usize,
    /// Replies that differ from the recorded reference, error frames
    /// and I/O errors.
    pub failed: usize,
}

/// One round: every query in process (fanned out over the `khaos-par`
/// pool), then every [`CLIENT_EVERY`]-th (starting at `offset`) through
/// `client`, each reply checked bit for bit against the reference. A
/// failed connection is reopened.
pub fn round(
    setup: &Setup,
    queries: &[Query],
    client: &mut Option<Client>,
    offset: usize,
) -> Round {
    let _root = trace::root("index.round");
    let t0 = Instant::now();
    let c0 = crate::sys::process_cpu_s();
    let mut out = Round {
        wall_s: 0.0,
        cpu_s: 0.0,
        local_ms: Vec::with_capacity(queries.len()),
        client_ms: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let local = khaos_par::par_map_slice(queries, |q| {
        let t = Instant::now();
        let hits = {
            let _s = span("index.query");
            local_hits(&setup.indexes[q.index], &q.req.q)
        };
        (
            t.elapsed().as_secs_f64() * 1e3,
            same_hits(&hits, &q.expected),
        )
    });
    for (ms, ok) in local {
        out.local_ms.push(ms);
        out.attempted += 1;
        out.failed += !ok as usize;
    }
    for q in queries
        .iter()
        .skip(offset % CLIENT_EVERY)
        .step_by(CLIENT_EVERY)
    {
        let t = Instant::now();
        let reply = {
            let _s = span("serve.query");
            client.as_mut().map(|c| c.query(q.req.clone()))
        };
        out.client_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match reply {
            Some(Ok(hits)) if same_hits(&hits, &q.expected) => {}
            Some(Ok(_)) | None => out.failed += 1,
            Some(Err(_)) => {
                out.failed += 1;
                *client = Client::connect(setup.server.addr()).ok();
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.cpu_s = crate::sys::process_cpu_s() - c0;
    out
}

/// One value from the daemon's metrics text, e.g. the `p50` field of
/// `serve.query_ns` or the value of the `serve.requests.query` counter.
pub fn metric_field(text: &str, name: &str, field: Option<&str>) -> f64 {
    let Some(line) = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
    else {
        return 0.0;
    };
    let mut words = line.split_whitespace();
    match field {
        None => words.nth(2).and_then(|v| v.parse().ok()).unwrap_or(0.0),
        Some(f) => words
            .find_map(|w| w.strip_prefix(f).and_then(|v| v.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_text_fields() {
        let text = "serve.errors_sent counter 3\nserve.query_ns histogram count=9 sum=90 mean=10.0 p50=8 p95=20 p99=30 max=31\n";
        assert_eq!(metric_field(text, "serve.errors_sent", None), 3.0);
        assert_eq!(metric_field(text, "serve.query_ns", Some("p50")), 8.0);
        assert_eq!(metric_field(text, "serve.missing", None), 0.0);
    }
}
