//! Evaluation metrics — the paper's §4.2 protocol.
//!
//! Every metric runs on the batched similarity engine
//! ([`crate::engine`]) over cached, pre-normalized embeddings.
//! `Precision@1` reads the pair's similarity matrix, built **once**;
//! every rank and `escape@k` query streams through one entry point,
//! [`ranks_of_true_match`], and never builds a matrix. The seed
//! implementation rebuilt the full matrix per call — `escape@k` even
//! rebuilt it per vulnerable query function — which made the §4.2 inner
//! loop quadratic in redundant work.

use crate::engine::{par_stream_ranks, EmbeddingCache};
use crate::Differ;
use khaos_binary::{BinProvenance, Binary};

/// Indices of the query binary's `vulnerable`-annotated functions —
/// the Figure-10 query set.
fn vulnerable_indices(bin: &Binary) -> Vec<usize> {
    bin.functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.provenance.annotations.iter().any(|a| a == "vulnerable"))
        .map(|(i, _)| i)
        .collect()
}

/// The relaxed pairing-success judgment: a query (pre-obfuscation)
/// function pairs successfully with a candidate when their origin sets
/// intersect — an `oriFunc` matches any of its `sepFunc`s, its `remFunc`,
/// or any `fusFunc` it participates in.
pub fn origins_match(query: &BinProvenance, candidate: &BinProvenance) -> bool {
    query
        .origins
        .iter()
        .any(|o| candidate.origins.iter().any(|c| c == o))
}

/// `Precision@1`: the ratio of query functions whose top-ranked candidate
/// is a true (relaxed) match.
pub fn precision_at_1(tool: &dyn Differ, baseline: &Binary, obf: &Binary) -> f64 {
    precision_at_1_with(tool, baseline, obf, EmbeddingCache::global())
}

/// [`precision_at_1`] against an explicit embedding cache.
pub fn precision_at_1_with(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    cache: &EmbeddingCache,
) -> f64 {
    if baseline.functions.is_empty() || obf.functions.is_empty() {
        return 0.0;
    }
    let matrix = cache.matrix_for(tool, baseline, obf);
    let mut hits = 0usize;
    for i in 0..matrix.rows() {
        let best = matrix
            .argmax_row(i)
            .expect("non-empty target checked above");
        if origins_match(
            &baseline.functions[i].provenance,
            &obf.functions[best].provenance,
        ) {
            hits += 1;
        }
    }
    hits as f64 / baseline.functions.len() as f64
}

/// 1-based rank of the first true match for each query function in
/// `queries`, in input order (`None` when no candidate matches at all)
/// — the one rank entry point every rank and escape metric runs on.
///
/// Both sides are fingerprinted once and the tool's
/// [`crate::RowScore`] scores one `O(T)` row per query off cached
/// embeddings: the `Q×T` [`crate::SimilarityMatrix`] is never
/// allocated, and memory stays `O(threads × T)` however many queries
/// are ranked. Query rows rank **in parallel** ([`par_stream_ranks`]),
/// bit-identical to a sequential scan at any `KHAOS_THREADS`, and the
/// ranks equal the matrix path's (ties broken by lower candidate index;
/// pinned by `tests/batched_engine.rs`).
pub fn ranks_of_true_match(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    queries: &[usize],
    cache: &EmbeddingCache,
) -> Vec<Option<usize>> {
    let scorer = tool.row_scorer(baseline, obf, cache);
    par_stream_ranks(scorer.as_ref(), queries, |qi, j| {
        origins_match(
            &baseline.functions[qi].provenance,
            &obf.functions[j].provenance,
        )
    })
}

/// `escape@k` over the vulnerable functions of the baseline binary: the
/// fraction whose true match ranks *worse* than `k` (higher = better
/// hiding). Functions are "vulnerable" when annotated as such.
pub fn escape_at_k(tool: &dyn Differ, baseline: &Binary, obf: &Binary, k: usize) -> f64 {
    escape_profile(tool, baseline, obf, &[k])[0]
}

/// `escape@k` at several `k` thresholds from **one** rank pass per
/// vulnerable query — the batched form of [`escape_at_k`] (the seed
/// implementation rebuilt the full matrix for every vulnerable query of
/// every threshold).
pub fn escape_profile(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    ks: &[usize],
) -> Vec<f64> {
    escape_profile_with(tool, baseline, obf, ks, EmbeddingCache::global())
}

/// [`escape_profile`] against an explicit embedding cache: the
/// vulnerable functions ranked through [`ranks_of_true_match`]. It
/// never builds a similarity matrix and never reads one, even when
/// another metric left the pair's matrix resident.
pub fn escape_profile_with(
    tool: &dyn Differ,
    baseline: &Binary,
    obf: &Binary,
    ks: &[usize],
    cache: &EmbeddingCache,
) -> Vec<f64> {
    let vulnerable = vulnerable_indices(baseline);
    if vulnerable.is_empty() {
        return vec![0.0; ks.len()];
    }
    let ranks = ranks_of_true_match(tool, baseline, obf, &vulnerable, cache);
    escape_from_ranks(&ranks, ks)
}

/// Escape fractions at each threshold from per-query ranks (`None` =
/// the query has no true match anywhere, which always escapes).
fn escape_from_ranks(ranks: &[Option<usize>], ks: &[usize]) -> Vec<f64> {
    ks.iter()
        .map(|&k| {
            let escaped = ranks
                .iter()
                .filter(|r| match r {
                    Some(r) => *r > k,
                    None => true,
                })
                .count();
            escaped as f64 / ranks.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_binary;
    use crate::{Asm2Vec, BinDiff, Safe, VulSeeker};
    use khaos_binary::BinProvenance;

    fn prov(origins: &[&str]) -> BinProvenance {
        BinProvenance {
            origins: origins.iter().map(|s| s.to_string()).collect(),
            annotations: vec![],
        }
    }

    #[test]
    fn relaxed_matching_rules() {
        let ori = prov(&["cal_file"]);
        let sep = prov(&["cal_file"]); // sepFunc keeps the origin
        let fused = prov(&["log", "cal_file"]);
        let other = prov(&["memcpy"]);
        assert!(origins_match(&ori, &sep));
        assert!(
            origins_match(&ori, &fused),
            "fusFunc matches either constituent"
        );
        assert!(!origins_match(&ori, &other));
    }

    #[test]
    fn identity_diff_gives_perfect_precision() {
        let b = small_binary("m");
        for tool in [
            Box::new(BinDiff::default()) as Box<dyn Differ>,
            Box::new(VulSeeker::default()),
            Box::new(Asm2Vec::default()),
            Box::new(Safe::default()),
        ] {
            let p = precision_at_1(tool.as_ref(), &b, &b);
            assert!(p > 0.99, "{}: {p}", tool.name());
        }
    }

    #[test]
    fn true_match_ranks_first_on_identity() {
        let b = small_binary("m");
        let tool = Asm2Vec::default();
        let queries: Vec<usize> = (0..b.functions.len()).collect();
        let ranks = ranks_of_true_match(&tool, &b, &b, &queries, &EmbeddingCache::new(4));
        assert_eq!(ranks, vec![Some(1); queries.len()]);
    }

    #[test]
    fn escape_requires_vulnerable_annotations() {
        let b = small_binary("m");
        let tool = Asm2Vec::default();
        // No annotations: degenerate 0.0.
        assert_eq!(escape_at_k(&tool, &b, &b, 1), 0.0);
        // Mark alpha vulnerable: identity diff ranks it first => no escape.
        let mut marked = b.clone();
        marked.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        assert_eq!(escape_at_k(&tool, &marked, &b, 1), 0.0);
    }

    #[test]
    fn escape_when_function_disappears() {
        let b = small_binary("m");
        let mut marked = b.clone();
        marked.functions[0]
            .provenance
            .annotations
            .push("vulnerable".into());
        // Obfuscated binary whose provenance no longer mentions alpha.
        let mut hidden = b.clone();
        for f in &mut hidden.functions {
            f.provenance.origins = vec!["unrelated".into()];
        }
        let tool = Asm2Vec::default();
        assert_eq!(escape_at_k(&tool, &marked, &hidden, 50), 1.0);
    }
}
