//! The **frozen seed implementations** of the ranking metrics, kept
//! verbatim as the reference the batched engine is verified and
//! benchmarked against.
//!
//! These deliberately reproduce the original (pre-engine) cost model:
//! [`reference_rank_of_true_match`] rebuilds the full per-pair cosine
//! matrix and sorts every candidate for each query, and
//! [`reference_escape_at_k`] calls it once per vulnerable function.
//! Do **not** optimize them — `tests/batched_engine.rs` pins the
//! batched path's equivalence (to 1e-12) against exactly these
//! semantics, and `benches/bench_similarity.rs` measures its speedup
//! against exactly this cost.

use crate::metrics::origins_match;
use crate::Differ;
use khaos_binary::Binary;

/// Seed rank of the true match: full matrix per call, full sort per
/// query (descending similarity, ties by lower index).
pub fn reference_rank_of_true_match(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    qi: usize,
) -> Option<usize> {
    let matrix = tool.similarity_matrix(baseline, obf);
    let row = &matrix[qi];
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .expect("finite sims")
            .then(a.cmp(&b))
    });
    let qprov = &baseline.functions[qi].provenance;
    order
        .iter()
        .position(|&j| origins_match(qprov, &obf.functions[j].provenance))
        .map(|p| p + 1)
}

/// Seed `escape@k`: one [`reference_rank_of_true_match`] call — and
/// therefore one full matrix rebuild — per vulnerable query function.
pub fn reference_escape_at_k(tool: &dyn Differ, baseline: &Binary, obf: &Binary, k: usize) -> f64 {
    let vulnerable: Vec<usize> = baseline
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
        .map(|(i, _)| i)
        .collect();
    if vulnerable.is_empty() {
        return 0.0;
    }
    let escaped = vulnerable
        .iter()
        .filter(
            |&&qi| match reference_rank_of_true_match(tool, baseline, obf, qi) {
                Some(r) => r > k,
                None => true,
            },
        )
        .count();
    escaped as f64 / vulnerable.len() as f64
}
